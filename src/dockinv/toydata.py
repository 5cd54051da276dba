"""Deterministic desk-scale fixtures: synthetic molecules, receptors, and the
toy corpora used by the training smoke runs and the acceptance suite.

Everything is generated from explicit seeds so test artifacts never need to
be checked in; the same seed always reproduces the same structures.
"""

from __future__ import annotations

import numpy as np

from . import neighbors
from .config import RunConfig
from .finetune import AffinityScaler, ComplexSample, geometric_pseudolabels
from .model import PipelineModel
from .pretrain import PretrainSample, prepare_sample
from .structures import AMINO_ACIDS, Atom, Bond, MolecularStructure, Residue, VDW_RADII
from .surface import build_surface

__all__ = [
    "toy_config",
    "random_molecule",
    "random_protein",
    "fixture_receptor",
    "toy_surface_corpus",
    "toy_complex_corpus",
]

_MOL_ELEMENTS = ["C", "C", "C", "O", "N", "S", "H", "H"]
_HYB = {"C": ("sp3", "sp2"), "O": ("sp3", "sp2"), "N": ("sp3", "sp2"), "S": ("sp2",)}


def toy_config(**overrides) -> RunConfig:
    """Desk-scale configuration: small clouds, small model, quick training."""
    base = dict(
        m_protein=96, m_molecule=64, patch_k=8, k_geom=6, rho=0.125,
        multiplicity=6, conv_k=8, n_radial_basis=6, d_code=24, codebook_size=24,
        head_hidden=24, t_sdf=40, pretrain_lr=0.05,
        eta_protein=12, eta_molecule=24,
    )
    base.update(overrides)
    return RunConfig(**base).validate()


def random_molecule(seed: int, n_atoms: int | None = None) -> MolecularStructure:
    """Connected random small molecule with plausible bond lengths."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 7001]))
    n = n_atoms or int(rng.integers(5, 10))
    atoms: list[Atom] = []
    coords = np.zeros((n, 3))
    bonds: list[Bond] = []
    for i in range(n):
        elem = _MOL_ELEMENTS[rng.integers(0, len(_MOL_ELEMENTS))]
        hyb = None
        if elem != "H":
            options = _HYB[elem]
            hyb = options[rng.integers(0, len(options))]
        if i == 0:
            pos = np.zeros(3)
        else:
            parent = int(rng.integers(0, i))
            direction = rng.standard_normal(3)
            direction /= np.linalg.norm(direction)
            pos = coords[parent] + direction * rng.uniform(1.3, 1.6)
            bonds.append(Bond(parent, i, 1.0))
        coords[i] = pos
        atoms.append(Atom(elem, tuple(pos), VDW_RADII[elem], hyb))
    return MolecularStructure(atoms, bonds, [], "small-molecule")


def random_protein(seed: int, n_residues: int = 4) -> MolecularStructure:
    """Backbone-ish random chain: N-CA-C-O per residue plus a side-chain atom."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 7002]))
    atoms: list[Atom] = []
    residues: list[Residue] = []
    cursor = np.zeros(3)
    for r in range(n_residues):
        name = AMINO_ACIDS[rng.integers(0, len(AMINO_ACIDS))]
        direction = rng.standard_normal(3)
        direction /= np.linalg.norm(direction)
        cursor = cursor + direction * 3.6
        start = len(atoms)
        offsets = {
            "N": np.array([0.0, 0.0, 0.0]),
            "CA": np.array([1.46, 0.0, 0.0]),
            "C": np.array([2.2, 1.2, 0.0]),
            "O": np.array([3.35, 1.25, 0.35]),
        }
        wobble = rng.standard_normal((4, 3)) * 0.12
        for k, (atom_name, off) in enumerate(offsets.items()):
            elem = atom_name[0]
            pos = cursor + off + wobble[k]
            atoms.append(Atom(elem, tuple(pos), VDW_RADII[elem], None, atom_name))
        side = cursor + np.array([1.4, -1.3, 0.4]) + rng.standard_normal(3) * 0.2
        side_elem = "S" if name in ("CYS", "MET") else "C"
        atoms.append(Atom(side_elem, tuple(side), VDW_RADII[side_elem], None, "CB"))
        residues.append(Residue(name, "A", tuple(range(start, len(atoms)))))
    return MolecularStructure(atoms, [], residues, "protein")


def fixture_receptor(seed: int = 2024, n_residues: int = 6) -> MolecularStructure:
    """The standard receptor fixture used across tests and the CLI examples."""
    return random_protein(seed, n_residues)


def toy_surface_corpus(n_surfaces: int, cfg: RunConfig, mdl: PipelineModel,
                       seed: int = 0) -> list[PretrainSample]:
    """Mixed protein/molecule pretraining corpus (even split, seeded)."""
    samples = []
    for i in range(n_surfaces):
        if i % 2 == 0:
            structure = random_protein(seed * 1009 + i, n_residues=3 + i % 3)
        else:
            structure = random_molecule(seed * 1009 + i, n_atoms=6 + i % 4)
        cloud, patches = build_surface(structure, cfg, seed=seed * 31 + i)
        samples.append(prepare_sample(cloud, patches, mdl))
    return samples


def toy_complex_corpus(n_complexes: int, cfg: RunConfig, mdl: PipelineModel,
                       seed: int = 0) -> tuple[list[ComplexSample], AffinityScaler]:
    """Synthetic labeled complexes.

    A "true" complex places a random molecule next to the receptor (label 1);
    every other complex is a displaced decoy (label 0). Affinities are a
    deterministic geometric surrogate (contact count scaled) plus seed noise,
    then standardized over the corpus.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 7003]))
    raw = []
    for i in range(n_complexes):
        receptor = random_protein(seed * 2003 + i, n_residues=3 + i % 2)
        ligand = random_molecule(seed * 2003 + 500 + i, n_atoms=6 + i % 3)
        r_coords = receptor.coords
        center = r_coords.mean(axis=0)
        spread = r_coords.std()
        positive = i % 2 == 0
        offset = center + (1.5 if positive else 4.0 + spread) * _unit(rng)
        shift = offset - ligand.coords.mean(axis=0)
        ligand = ligand.transformed(np.eye(3), shift)
        contacts = (neighbors.distances(r_coords, ligand.coords) < 5.0).sum()
        delta_g = -0.15 * contacts + float(rng.normal(0.0, 0.3))
        raw.append((receptor, ligand, 1.0 if positive else 0.0, delta_g))

    scaler = AffinityScaler.fit([r[3] for r in raw])
    samples = []
    for i, (receptor, ligand, y_int, delta_g) in enumerate(raw):
        r_cloud, r_patches = build_surface(receptor, cfg, seed=seed * 47 + 2 * i,
                                           partner_points=ligand.coords)
        l_cloud, l_patches = build_surface(ligand, cfg, seed=seed * 47 + 2 * i + 1,
                                           partner_points=receptor.coords)
        pocket = geometric_pseudolabels(r_cloud.points, ligand.coords,
                                        cfg.interface_cutoff_ligand)
        samples.append(ComplexSample(
            r_cloud, r_patches, l_cloud, l_patches, pocket, y_int,
            scaler.standardize(delta_g),
            receptor_geom=mdl.precompute_geometry(r_cloud.points, "protein"),
            ligand_geom=mdl.precompute_geometry(l_cloud.points, "small-molecule"),
        ))
    return samples, scaler


def _unit(rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)
