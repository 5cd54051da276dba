"""Atomic structures: element vocabularies, PDB parsing, molecule text format.

The protein atom vocabulary is {C, H, O, N, S, Se}; small molecules use the
eight hybridized types {C(sp3), C(sp2), H, O(sp3), O(sp2), N(sp3), N(sp2),
S(sp2)}. Anything else (halogens, metals) is rejected with an
UnsupportedElementError.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Atom",
    "Bond",
    "Residue",
    "MolecularStructure",
    "StructureError",
    "UnsupportedElementError",
    "PROTEIN_ELEMENTS",
    "MOLECULE_TYPES",
    "VDW_RADII",
    "AMINO_ACIDS",
    "AA_ELEMENT_PROFILE",
    "parse_pdb",
    "parse_molecule",
    "write_molecule",
]


class StructureError(ValueError):
    """Malformed or empty structure input."""


class UnsupportedElementError(StructureError):
    """Element outside the supported atom vocabulary."""


#: Bondi van der Waals radii in Angstrom.
VDW_RADII = {"C": 1.70, "N": 1.55, "O": 1.52, "S": 1.80, "H": 1.20, "SE": 1.90}

PROTEIN_ELEMENTS = ("C", "H", "O", "N", "S", "SE")

#: Hybridized small-molecule atom types, index order fixed for feature layouts.
MOLECULE_TYPES = ("C.sp3", "C.sp2", "H", "O.sp3", "O.sp2", "N.sp3", "N.sp2", "S.sp2")

_HYBRIDIZABLE = {"C": ("sp3", "sp2"), "O": ("sp3", "sp2"), "N": ("sp3", "sp2"), "S": ("sp2",)}

BOND_ORDERS = {"1": 1.0, "2": 2.0, "3": 3.0, "ar": 1.5, "aromatic": 1.5}

AMINO_ACIDS = (
    "ALA", "ARG", "ASN", "ASP", "CYS", "GLN", "GLU", "GLY", "HIS", "ILE",
    "LEU", "LYS", "MET", "PHE", "PRO", "SER", "THR", "TRP", "TYR", "VAL",
)

# Element counts (C, H, O, N, S, Se) of the free amino acids; used as soft
# composition profiles when featurizing residue-level point sets.
_AA_FORMULAS = {
    "GLY": (2, 5, 2, 1, 0, 0), "ALA": (3, 7, 2, 1, 0, 0), "SER": (3, 7, 3, 1, 0, 0),
    "CYS": (3, 7, 2, 1, 1, 0), "THR": (4, 9, 3, 1, 0, 0), "VAL": (5, 11, 2, 1, 0, 0),
    "LEU": (6, 13, 2, 1, 0, 0), "ILE": (6, 13, 2, 1, 0, 0), "PRO": (5, 9, 2, 1, 0, 0),
    "MET": (5, 11, 2, 1, 1, 0), "PHE": (9, 11, 2, 1, 0, 0), "TYR": (9, 11, 3, 1, 0, 0),
    "TRP": (11, 12, 2, 2, 0, 0), "ASP": (4, 7, 4, 1, 0, 0), "GLU": (5, 9, 4, 1, 0, 0),
    "ASN": (4, 8, 3, 2, 0, 0), "GLN": (5, 10, 3, 2, 0, 0), "HIS": (6, 9, 2, 3, 0, 0),
    "LYS": (6, 14, 2, 2, 0, 0), "ARG": (6, 14, 2, 4, 0, 0),
}

def _build_profile() -> np.ndarray:
    rows = []
    for aa in AMINO_ACIDS:
        row = np.array(_AA_FORMULAS[aa], dtype=float)
        rows.append(row / row.sum())
    return np.array(rows)


# Rows ordered as AMINO_ACIDS; columns (C, H, O, N, S, Se) normalized to sum 1.
AA_ELEMENT_PROFILE = _build_profile()


@dataclass(frozen=True)
class Atom:
    element: str  # base element symbol, upper-case ("C", "SE", ...)
    coords: tuple[float, float, float]
    radius: float
    hybridization: str | None = None  # "sp3" / "sp2" for molecule atoms
    name: str = ""

    @property
    def type_label(self) -> str:
        if self.hybridization:
            return f"{self.element}.{self.hybridization}"
        return self.element


@dataclass(frozen=True)
class Bond:
    i: int
    j: int
    order: float  # 1, 2, 3, or 1.5 for aromatic

    @property
    def aromatic(self) -> bool:
        return self.order == 1.5


@dataclass(frozen=True)
class Residue:
    name: str
    chain: str
    atom_indices: tuple[int, ...]


@dataclass
class MolecularStructure:
    atoms: list[Atom]
    bonds: list[Bond] = field(default_factory=list)
    residues: list[Residue] = field(default_factory=list)
    molecule_type: str = "protein"  # "protein" | "small-molecule"

    def __post_init__(self):
        if not self.atoms:
            raise StructureError("structure has no atoms")
        n = len(self.atoms)
        seen = set()
        for b in self.bonds:
            if not (0 <= b.i < n and 0 <= b.j < n):
                raise StructureError(f"bond ({b.i},{b.j}) references missing atom")
            if b.i == b.j:
                raise StructureError(f"self-bond on atom {b.i}")
            key = (min(b.i, b.j), max(b.i, b.j))
            if key in seen:
                raise StructureError(f"duplicate bond {key}")
            seen.add(key)
        for a in self.atoms:
            if a.radius <= 0:
                raise StructureError(f"non-positive radius on {a.element}")
            if not all(np.isfinite(a.coords)):
                raise StructureError("non-finite atom coordinates")
        if self.molecule_type == "protein" and not self.residues:
            raise StructureError("protein structure requires residue annotations")

    @property
    def coords(self) -> np.ndarray:
        return np.array([a.coords for a in self.atoms], dtype=float)

    @property
    def radii(self) -> np.ndarray:
        return np.array([a.radius for a in self.atoms], dtype=float)

    def transformed(self, rotation: np.ndarray, translation: np.ndarray) -> "MolecularStructure":
        """Apply a rigid motion; everything but coordinates is shared."""
        moved = [
            Atom(
                a.element,
                tuple(rotation @ np.asarray(a.coords) + translation),
                a.radius,
                a.hybridization,
                a.name,
            )
            for a in self.atoms
        ]
        return MolecularStructure(moved, list(self.bonds), list(self.residues), self.molecule_type)


# ---------------------------------------------------------------------------
# PDB parsing (fixed-column ATOM/HETATM subset)
# ---------------------------------------------------------------------------

def _element_from_record(line: str) -> str:
    elem = line[76:78].strip().upper() if len(line) >= 78 else ""
    if not elem:
        # fall back to the atom-name columns; a leading digit marks hydrogens
        name = line[12:16].strip().upper()
        name = name.lstrip("0123456789")
        if name[:2] in ("SE",):
            elem = "SE"
        elif name[:1] in ("C", "N", "O", "S", "H"):
            elem = name[:1]
        else:
            elem = name[:2]
    return elem


def parse_pdb(text: str) -> MolecularStructure:
    """Parse ATOM/HETATM records into a protein structure.

    Elements outside the protein vocabulary raise UnsupportedElementError;
    residues are grouped by (chain id, residue sequence number).
    """
    atoms: list[Atom] = []
    groups: dict[tuple, list[int]] = {}
    group_names: dict[tuple, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not (line.startswith("ATOM") or line.startswith("HETATM")):
            continue
        if len(line) < 54:
            raise StructureError(f"truncated record on line {lineno}")
        try:
            x = float(line[30:38])
            y = float(line[38:46])
            z = float(line[46:54])
        except ValueError as err:
            raise StructureError(f"bad coordinates on line {lineno}: {err}") from None
        elem = _element_from_record(line)
        if elem not in PROTEIN_ELEMENTS:
            raise UnsupportedElementError(
                f"unsupported element '{elem}' on line {lineno} "
                f"(supported: {', '.join(PROTEIN_ELEMENTS)})"
            )
        atoms.append(Atom(elem, (x, y, z), VDW_RADII[elem], None, line[12:16].strip()))
        res_name = line[17:20].strip() or "UNK"
        chain = line[21:22].strip() or "A"
        res_seq = line[22:26].strip() or "0"
        key = (chain, res_seq)
        groups.setdefault(key, []).append(len(atoms) - 1)
        group_names.setdefault(key, res_name)
    if not atoms:
        raise StructureError("no ATOM/HETATM records found")
    residues = [
        Residue(group_names[k], k[0], tuple(v)) for k, v in sorted(groups.items())
    ]
    return MolecularStructure(atoms, [], residues, "protein")


# ---------------------------------------------------------------------------
# bespoke molecule text format
# ---------------------------------------------------------------------------

def parse_molecule(text: str) -> MolecularStructure:
    """Parse the molecule text format.

    Layout: a header line with the atom count, one line per atom
    ``element x y z [hybridization]``, then optional bond lines ``i j order``
    with 0-based indices and order in {1, 2, 3, ar}.
    """
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise StructureError("empty molecule input")
    try:
        count = int(lines[0])
    except ValueError:
        raise StructureError(f"molecule header must be an atom count, got {lines[0]!r}") from None
    if count < 1:
        raise StructureError("molecule atom count must be >= 1")
    if len(lines) < 1 + count:
        raise StructureError(f"atom count mismatch: header says {count}, found {len(lines) - 1}")

    atoms: list[Atom] = []
    for ln in lines[1 : 1 + count]:
        parts = ln.split()
        if len(parts) not in (4, 5):
            raise StructureError(f"bad atom line {ln!r}")
        elem = parts[0].upper()
        try:
            xyz = tuple(float(p) for p in parts[1:4])
        except ValueError:
            raise StructureError(f"bad coordinates in atom line {ln!r}") from None
        hyb = parts[4].lower() if len(parts) == 5 else None
        if elem == "H":
            if hyb is not None:
                raise StructureError("hydrogen takes no hybridization tag")
            atoms.append(Atom("H", xyz, VDW_RADII["H"]))
            continue
        allowed = _HYBRIDIZABLE.get(elem)
        if allowed is None:
            raise UnsupportedElementError(
                f"element '{elem}' outside the molecule vocabulary "
                f"{{{', '.join(MOLECULE_TYPES)}}}"
            )
        if hyb is None:
            hyb = "sp3" if "sp3" in allowed else allowed[0]
        if hyb not in allowed:
            raise UnsupportedElementError(f"'{elem}({hyb})' outside the molecule vocabulary")
        atoms.append(Atom(elem, xyz, VDW_RADII[elem], hyb))

    bonds: list[Bond] = []
    for ln in lines[1 + count :]:
        parts = ln.split()
        if len(parts) != 3:
            raise StructureError(f"bad bond line {ln!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise StructureError(f"bad bond indices in {ln!r}") from None
        order = BOND_ORDERS.get(parts[2].lower())
        if order is None:
            raise StructureError(f"invalid bond order {parts[2]!r} (use 1, 2, 3, or ar)")
        bonds.append(Bond(i, j, order))

    return MolecularStructure(atoms, bonds, [], "small-molecule")


def write_molecule(structure: MolecularStructure) -> str:
    """Serialize a small molecule back to the text format (inverse of parse)."""
    lines = [str(len(structure.atoms))]
    for a in structure.atoms:
        x, y, z = a.coords
        tag = f" {a.hybridization}" if a.hybridization else ""
        lines.append(f"{a.element} {x:.6f} {y:.6f} {z:.6f}{tag}")
    order_names = {1.0: "1", 2.0: "2", 3.0: "3", 1.5: "ar"}
    for b in structure.bonds:
        lines.append(f"{b.i} {b.j} {order_names[b.order]}")
    return "\n".join(lines) + "\n"
