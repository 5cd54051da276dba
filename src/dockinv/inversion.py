"""Stage 4: gradient-driven ligand generation inside a receptor pocket.

A ligand is a differentiable state (coordinates + per-point feature channels)
optimized by projected gradient descent on the composite docking objective.
Updates are repaired onto the validity region (bond lengths, clashes,
valences), then decoded into discrete molecules or residue sequences by
gradient-biased categorical sampling with an optional motif template bias.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import neighbors
from .autodiff import Tensor
from .config import RunConfig
from .finetune import affinity_loss, geometric_pseudolabels, interaction_loss, pocket_loss
from .model import HEAD_ORDERS, PipelineModel
from .structures import (
    AA_ELEMENT_PROFILE,
    AMINO_ACIDS,
    Atom,
    Bond,
    MOLECULE_TYPES,
    MolecularStructure,
    VDW_RADII,
)

__all__ = [
    "InversionState",
    "InversionResult",
    "DecodedMolecule",
    "DecodedProtein",
    "RepairError",
    "ReceptorContext",
    "MOLECULE_FEATURE_DIM",
    "PROTEIN_FEATURE_DIM",
    "V_MAX",
    "anneal_step_size",
    "wrap_torsion",
    "state_features",
    "composite_objective",
    "pgd_step",
    "repair_state",
    "sample_atom_types",
    "infer_bonds",
    "motif_prior",
    "validity_repair",
    "decode_molecule",
    "decode_protein",
    "accept_modification",
    "prepare_receptor",
    "initial_state",
    "run_inversion",
]

MOLECULE_FEATURE_DIM = 12  # 8 type logits | charge | 2 hybridization logits | polarity
PROTEIN_FEATURE_DIM = 25   # 20 residue logits | phi | psi | 3 rotamer logits

#: Maximum total bond order per element (aromatic bonds cost 1.5).
V_MAX = {"C": 4.0, "N": 3.0, "O": 2.0, "S": 2.0, "H": 1.0}

# indicator rows over MOLECULE_TYPES = (C.sp3, C.sp2, H, O.sp3, O.sp2, N.sp3, N.sp2, S.sp2)
_SET_ONS = np.array([0, 0, 0, 1, 1, 1, 1, 1], dtype=float)
_SET_ON = np.array([0, 0, 0, 1, 1, 1, 1, 0], dtype=float)
_SET_CS = np.array([1, 1, 0, 0, 0, 0, 0, 1], dtype=float)
_SET_C = np.array([1, 1, 0, 0, 0, 0, 0, 0], dtype=float)
# hybridization channels (sp3, sp2) mapped onto subtype logits
_HYB_MAP = np.array(
    [[1, 0], [0, 1], [0, 0], [1, 0], [0, 1], [1, 0], [0, 1], [0, 1]], dtype=float
)


def _type_logits(f: np.ndarray) -> np.ndarray:
    """(N, 8) atom-type logits of a small-molecule state's feature channels."""
    return f[:, 0:8] + f[:, 9:11] @ _HYB_MAP.T


def _valence_budgets(types: list[str]) -> np.ndarray:
    """Per-atom V_MAX of each type label's element (4 for an unknown one)."""
    return np.array([V_MAX.get(t.split(".")[0], 4.0) for t in types])


#: Ring/functional-group templates with atom-type logit bias profiles.
MOTIF_TEMPLATES = {
    "benzene": np.array([0, 1, 0, 0, 0, 0, 0, 0], dtype=float),
    "pyridine": np.array([0, 0.8, 0, 0, 0, 0, 0.2, 0], dtype=float),
    "furan": np.array([0, 0.8, 0, 0, 0.2, 0, 0, 0], dtype=float),
    "pyrrole": np.array([0, 0.8, 0, 0, 0, 0, 0.2, 0], dtype=float),
    "thiophene": np.array([0, 0.8, 0, 0, 0, 0, 0, 0.2], dtype=float),
    "imidazole": np.array([0, 0.6, 0, 0, 0, 0, 0.4, 0], dtype=float),
    "carboxyl": np.array([0.4, 0, 0, 0.3, 0.3, 0, 0, 0], dtype=float),
    "amide": np.array([0.3, 0.1, 0, 0, 0.3, 0.3, 0, 0], dtype=float),
}
_SIX_RING = ("benzene", "pyridine")
_FIVE_RING = ("furan", "pyrrole", "thiophene", "imidazole")
_FUNCTIONAL = ("carboxyl", "amide")

class RepairError(RuntimeError):
    """Validity repair failed to reach a fixed point."""


@dataclass
class InversionState:
    """Differentiable ligand state: coordinates and feature channels."""

    x: np.ndarray                       # (N, 3)
    f: np.ndarray                       # (N, d_f)
    molecule_type: str                  # "small-molecule" | "protein"

    def copy(self) -> "InversionState":
        return InversionState(self.x.copy(), self.f.copy(), self.molecule_type)


@dataclass
class DecodedMolecule:
    structure: MolecularStructure


@dataclass
class DecodedProtein:
    sequence: list[str]
    phi: np.ndarray
    psi: np.ndarray
    rotamers: np.ndarray               # rotamer class per residue: 0, 1 or 2

    def to_text(self) -> str:
        lines = ["residue phi psi rotamer"]
        for i, aa in enumerate(self.sequence):
            lines.append(f"{aa} {self.phi[i]:.3f} {self.psi[i]:.3f} {int(self.rotamers[i])}")
        return "\n".join(lines) + "\n"


def anneal_step_size(t: int, total: int, eta_max: float, eta_min: float) -> float:
    """Cosine schedule from eta_max at t=0 to eta_min at t=total."""
    if not 0 <= t < max(total, 1):
        raise ValueError(f"step index {t} outside [0, {total})")
    return eta_min + 0.5 * (eta_max - eta_min) * (1.0 + math.cos(math.pi * t / total))


def wrap_torsion(value: float) -> float:
    """Wrap degrees into the canonical (-180, 180] interval."""
    wrapped = (value + 180.0) % 360.0 - 180.0
    return 180.0 if wrapped == -180.0 else wrapped


# ---------------------------------------------------------------------------
# differentiable featurization bridge (state -> stage-1 feature layout)
# ---------------------------------------------------------------------------

def _pairwise_omega(x: Tensor, x_np: np.ndarray, r_chem: float, r_probe: float, eps: float):
    """Probe-scaled weight matrix over ligand points with a frozen cutoff mask.

    Each point counts itself at an effective probe distance; off-diagonal
    weights use the live distances, masked by the current-neighborhood cutoff.

    One autodiff node (op ``"omega"``) with a hand-written vjp; the vjp keeps
    only the (n, n) weight derivative, and only when ``x`` requires grad.
    """
    n = x_np.shape[0]
    dist_np = neighbors.distances(x_np, x_np)
    mask = ((dist_np <= r_chem) & ~np.eye(n, dtype=bool)).astype(float)
    xv = x.values
    diff = xv.reshape(n, 1, 3) - xv.reshape(1, n, 3)
    d = ((diff * diff).sum(axis=2) + 1e-24) ** 0.5
    omega_raw = 1.0 / (d * (1.0 / r_probe) + eps)
    out = omega_raw * mask + (1.0 / (1.0 + eps)) * np.eye(n)
    if not x.requires_grad:
        return ad.primitive(out, "omega", (x,), None)
    # -d omega / d diff = coef * diff, with d d / d diff = diff / d
    coef = mask * (omega_raw * omega_raw) / (r_probe * d)

    def vjp(g):
        g_diff = (g * coef).reshape(n, n, 1) * (xv.reshape(n, 1, 3) - xv.reshape(1, n, 3))
        return (g_diff.sum(axis=0) - g_diff.sum(axis=1),)

    return ad.primitive(out, "omega", (x,), vjp)


def _neighborhood_average(omega: Tensor, denom: Tensor, values: Tensor) -> Tensor:
    """Rows of ``values`` averaged with ``omega``'s weights; ``denom`` is ``omega @ 1``."""
    if values.ndim == 1:
        values = ad.reshape(values, (-1, 1))
    return ad.div(ad.matmul(omega, values), denom)


def _geom_block(x: Tensor, x_np: np.ndarray, k_geom: int) -> Tensor:
    """Differentiable geometric descriptors over frozen k-NN neighborhoods:
    scaled covariance trace, covariance determinant, and a squashed density.

    One autodiff node (op ``"geom-block"``) with a hand-written vjp; the vjp
    keeps its intermediates only when ``x`` requires grad.
    """
    n = x_np.shape[0]
    k = min(k_geom, n - 1)
    nbr, _ = neighbors.knn(x_np, x_np, k, exclude_self=True)
    flat = nbr.reshape(-1)

    nbr_pts = x.values[flat].reshape(n, k, 3)
    c = nbr_pts - nbr_pts.mean(axis=1, keepdims=True)                 # (n, k, 3)
    c00, c01, c02, c11, c12, c22 = ((c[:, :, a] * c[:, :, b]).mean(axis=1)
                                    for a in range(3) for b in range(a, 3))
    trace = c00 + c11 + c22
    det = ((c00 * (c11 * c22 - c12 * c12) + c02 * (c01 * c12 - c11 * c02))
           - c01 * (c01 * c22 - c12 * c02))
    diffs = nbr_pts - x.values.reshape(n, 1, 3)
    dists = ((diffs * diffs).sum(axis=2) + 1e-24) ** 0.5
    d_raw = dists.mean(axis=1)
    density = d_raw / (d_raw + 2.0)
    out = np.concatenate([(trace * 0.1).reshape(n, 1), det.reshape(n, 1), density.reshape(n, 1)],
                         axis=1)
    if not x.requires_grad:
        return ad.primitive(out, "geom-block", (x,), None)

    # cofactors of the symmetric covariance: d det / d cov
    cof = np.empty((n, 3, 3))
    cof[:, 0, 0] = c11 * c22 - c12 * c12
    cof[:, 1, 1] = c00 * c22 - c02 * c02
    cof[:, 2, 2] = c00 * c11 - c01 * c01
    cof[:, 0, 1] = cof[:, 1, 0] = c02 * c12 - c01 * c22
    cof[:, 0, 2] = cof[:, 2, 0] = c01 * c12 - c11 * c02
    cof[:, 1, 2] = cof[:, 2, 1] = c01 * c02 - c00 * c12
    unit = diffs / dists[:, :, None]
    d_density = 2.0 / ((d_raw + 2.0) * (d_raw + 2.0) * k)                 # d density / d dist

    def vjp(g):
        # d loss / d cov as a symmetric matrix m, so that with
        # cov_ab = mean_j c_ja c_jb the gradient of c is (2/k) c m; it sums
        # to zero over each neighbourhood (as c does), so it passes through
        # the mean subtraction unchanged
        m = cof * g[:, 1, None, None]
        m[:, [0, 1, 2], [0, 1, 2]] += 0.1 * g[:, :1]
        g_diffs = unit * (g[:, 2] * d_density)[:, None, None]
        g_x = np.zeros((n, 3))
        np.add.at(g_x, flat, ((2.0 / k) * (c @ m) + g_diffs).reshape(-1, 3))
        return (g_x - g_diffs.sum(axis=1),)

    return ad.primitive(out, "geom-block", (x,), vjp)


def state_features(x: Tensor, f: Tensor, molecule_type: str, cfg: RunConfig) -> Tensor:
    """Map the differentiable state onto the stage-1 feature layout.

    Soft atom-type probabilities stand in for the hard element indicators of
    surface featurization, so the output matches the encoder's expected
    [chem | atom | geom | flag | coords] layout and is differentiable in both
    coordinates and feature channels. The neighbourhood averages share
    one ``omega`` node and its row sums.
    """
    x_np = x.values
    n = x_np.shape[0]
    omega = _pairwise_omega(x, x_np, cfg.r_chem, cfg.r_probe, cfg.eps_omega)
    denom = ad.matmul(omega, np.ones((n, 1)))

    if molecule_type == "small-molecule":
        logits = ad.add(f[:, 0:8], ad.matmul(f[:, 9:11], _HYB_MAP.T))
        p = ad.softmax(logits, axis=1)
        charge = f[:, 8]
        polarity = f[:, 11]
        hb_atom = ad.mul(ad.matmul(p, _SET_ONS[:, None]), ad.reshape(ad.sigmoid(polarity), (n, 1)))
        chg_atom = ad.matmul(p, (_SET_ON - _SET_CS)[:, None])
        phob_atom = ad.matmul(p, _SET_C[:, None])
        atom_block = _neighborhood_average(omega, denom, p)
        charge_shift = ad.tanh(_neighborhood_average(omega, denom, charge))
        flag = 1.0
    elif molecule_type == "protein":
        p = ad.softmax(f[:, 0:20], axis=1)
        elem = ad.matmul(p, AA_ELEMENT_PROFILE)               # (n, 6): C H O N S Se
        hb_atom = ad.reshape(
            ad.add(ad.add(elem[:, 2], elem[:, 3]), elem[:, 4]), (n, 1)
        )
        chg_atom = ad.reshape(
            ad.sub(ad.add(elem[:, 2], elem[:, 3]), ad.add(elem[:, 0], elem[:, 4])), (n, 1)
        )
        phob_atom = ad.reshape(elem[:, 0], (n, 1))
        atom_block = _neighborhood_average(omega, denom, elem)
        charge_shift = ad.constant(np.zeros((n, 1)))
        flag = 0.0
    else:
        raise ValueError(f"unknown molecule type {molecule_type!r}")

    h_bond = _neighborhood_average(omega, denom, hb_atom)
    chg = ad.clip(ad.add(_neighborhood_average(omega, denom, chg_atom),
                         ad.mul(charge_shift, 0.25)), -1.0, 1.0)
    phob = _neighborhood_average(omega, denom, phob_atom)
    aro = ad.clip(ad.mul(phob, 1.0 / 4.5), 0.0, 1.0)
    chem_block = ad.concat([h_bond, chg, phob, aro], axis=1)
    geom_block = _geom_block(x, x_np, cfg.k_geom)
    flags = np.full((n, 1), flag)
    return ad.concat([chem_block, atom_block, geom_block, ad.constant(flags), x], axis=1)


# ---------------------------------------------------------------------------
# composite objective
# ---------------------------------------------------------------------------

@dataclass
class ReceptorContext:
    """Receptor-side constants reused across every inversion step.

    ``field_values`` holds the receptor encoding's ``HEAD_ORDERS`` channels
    as numpy arrays (order 0 only): attention and the heads read nothing
    else, so :func:`prepare_receptor` encodes no other order.
    """

    points: np.ndarray
    field_values: dict                  # {order: (n, c, 2l+1) numpy channel}

    def field(self):
        from .equivariant import IrrepsField

        return IrrepsField({l: v for l, v in self.field_values.items()})


def prepare_receptor(mdl: PipelineModel, params: dict, cloud) -> ReceptorContext:
    field = mdl.encode(params, cloud.features, cloud.points, "protein",
                       geom=mdl.precompute_geometry(cloud.points, "protein"), orders=HEAD_ORDERS)
    # Copied after the encoder's large temporaries are freed: the originals sit
    # between those temporaries, and keeping them would split the free heap
    # that the next receptor's encode needs in one piece.
    values = {l: v.copy() for l, v in field.values().items()}
    return ReceptorContext(np.asarray(cloud.points), values)


def pocket_prior(mdl: PipelineModel, params: dict, ctx: ReceptorContext) -> np.ndarray:
    """Pocket probabilities with a zeroed attended block (no ligand yet)."""
    d = mdl.d0
    zr0 = ctx.field_values[0].reshape(-1, d)
    per_point = np.concatenate([zr0, np.zeros_like(zr0)], axis=1)
    return mdl.pocket_head(params, ad.constant(per_point)).values


def composite_objective(state: InversionState, ctx: ReceptorContext, mdl: PipelineModel,
                        params: dict, cfg: RunConfig, frozen: dict | None = None,
                        need_grad: bool = True):
    """Evaluate F = alpha * pocket + beta * interaction + affinity and its
    gradients with respect to the ligand state; returns (parts, gx, gf,
    frozen), with the gradients None when ``need_grad`` is false.

    F is stage 3's objective for one complex with the receptor field fixed:
    ``PipelineModel.complex_heads`` with fine-tuning's ``pocket_loss``
    (against the geometric pseudo-labels), ``interaction_loss`` (target 1)
    and ``affinity_loss`` (target ``dg_target``).

    Neighborhood structure (conv KNN, pseudo-labels) is frozen per call in
    ``frozen`` so finite-difference checks see a smooth function; pass the
    returned dict back in to reuse it.
    """
    if len(ctx.points) == 0:
        raise ad.DomainError("composite objective needs a non-empty receptor cloud")
    from .equivariant import conv_geometry, knn_indices

    x_t = Tensor(state.x, requires_grad=need_grad, op="param")
    f_t = Tensor(state.f, requires_grad=need_grad, op="param")
    enc = mdl.encoder_for(state.molecule_type)
    if frozen is None:
        frozen = {
            "nbr": knn_indices(state.x, enc.conv_k),
            "y_geom": geometric_pseudolabels(ctx.points, state.x,
                                             cfg.interface_cutoff_ligand),
        }
    feats = state_features(x_t, f_t, state.molecule_type, cfg)
    geom = conv_geometry(x_t, frozen["nbr"], enc.basis)
    z_l = mdl.encode(params, feats, x_t, state.molecule_type, geom=geom, orders=HEAD_ORDERS)
    pocket, y_int, dg_hat, gate = mdl.complex_heads(params, ctx.field(), z_l)
    y_geom = frozen["y_geom"]
    l_pocket = pocket_loss(pocket, y_geom, y_geom, cfg.lambda_p)
    l_int = interaction_loss(pocket, y_int, 1.0)
    l_dg = affinity_loss(gate, dg_hat, cfg.dg_target, cfg.tau_conf)
    total = ad.add(ad.add(ad.mul(l_pocket, cfg.alpha), ad.mul(l_int, cfg.beta)), l_dg)

    parts = {
        "F": total.item(),
        "pocket": l_pocket.item(),
        "interaction": l_int.item(),
        "dg_hat": dg_hat.item(),
    }
    if not np.isfinite(parts["F"]):
        raise ad.DomainError("non-finite composite objective")
    if need_grad:
        ad.backward(total)
        gx = x_t.grad if x_t.grad is not None else np.zeros_like(state.x)
        gf = f_t.grad if f_t.grad is not None else np.zeros_like(state.f)
        return parts, gx, gf, frozen
    return parts, None, None, frozen


# ---------------------------------------------------------------------------
# continuous-state repair and the PGD step
# ---------------------------------------------------------------------------

def _close_pairs(dist: np.ndarray, lo: float, hi: float) -> list[tuple]:
    """Pairs (d, i, j) with i < j and lo <= d <= hi, sorted by (d, i, j)."""
    n = dist.shape[0]
    return sorted(
        (dist[i, j], i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if lo <= dist[i, j] <= hi
    )


def _greedy_bonds(dist: np.ndarray, budgets: np.ndarray, bond_max: float):
    """Provisional single bonds: pairs within range accepted by ascending
    distance subject to per-point valence budgets."""
    remaining = budgets.astype(float).copy()
    accepted = []
    for _, i, j in _close_pairs(dist, -np.inf, bond_max):
        if remaining[i] >= 1.0 and remaining[j] >= 1.0:
            accepted.append((i, j))
            remaining[i] -= 1.0
            remaining[j] -= 1.0
    return accepted


_REPAIR_MARGIN = 1.02  # overshoot when fixing violations; damps pair ping-pong


def _pair_target(d: float, is_bonded: bool, cfg: RunConfig) -> float:
    """Valid distance for a pair; violations land slightly inside the region."""
    if is_bonded:
        if d < cfg.bond_min:
            return min(cfg.bond_min * _REPAIR_MARGIN, cfg.bond_max)
        if d > cfg.bond_max:
            return max(cfg.bond_max / _REPAIR_MARGIN, cfg.bond_min)
        return d
    return d if d >= cfg.clash_floor else cfg.clash_floor * _REPAIR_MARGIN


def _pair_sweep(pts: np.ndarray, bonded: np.ndarray, cfg: RunConfig) -> float:
    """One in-place pass of sequential pairwise projections onto each pair's
    valid distance; returns the largest shift applied."""
    n = len(pts)
    moved = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            # numpy's norm of a 1-D array is sqrt(v.dot(v)): the same bits
            v = pts[j] - pts[i]
            d = math.sqrt(v.dot(v))
            target = _pair_target(d, bool(bonded[i, j]), cfg)
            if target == d:
                continue
            axis = v / d if d > 1e-12 else _tiebreak_axis(i, j)
            shift = 0.5 * (target - d)
            pts[i] -= shift * axis
            pts[j] += shift * axis
            moved = max(moved, abs(shift))
    return moved


def repair_state(x: np.ndarray, types: list[str], cfg: RunConfig,
                 rounds: int | None = None) -> np.ndarray:
    """Project coordinates onto the validity region (continuous mode).

    Provisional bonds are the greedily accepted close pairs; bonded pairs are
    pushed into [bond_min, bond_max] and everything else out to the clash
    floor, iterating to a fixed point.
    """
    pts = np.array(x, dtype=float)
    n = len(pts)
    if n < 2:
        return pts
    budgets = _valence_budgets(types)
    bonded = np.zeros((n, n), dtype=bool)
    for i, j in _greedy_bonds(neighbors.distances(pts, pts), budgets, cfg.bond_max):
        bonded[i, j] = bonded[j, i] = True
    rounds = cfg.max_repair_rounds if rounds is None else rounds
    for _ in range(rounds):
        if _pair_sweep(pts, bonded, cfg) < 1e-9:
            return pts
    raise RepairError(f"state repair did not stabilize in {rounds} rounds")


def _tiebreak_axis(i: int, j: int) -> np.ndarray:
    rng = np.random.default_rng(i * 100000 + j)
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def _argmax_types(f: np.ndarray, molecule_type: str) -> list[str]:
    if molecule_type == "small-molecule":
        return [MOLECULE_TYPES[i] for i in _type_logits(f).argmax(axis=1)]
    return ["C"] * len(f)  # residue-level points behave like carbon centers


def pgd_step(state: InversionState, gx: np.ndarray, gf: np.ndarray, eta: float,
             cfg: RunConfig) -> tuple[InversionState, np.ndarray, float]:
    """One projected descent update; returns (new state, gradient mapping, eta used).

    Repair failures halve the step size and retry up to the configured limit.
    """
    if eta <= 0:
        raise ValueError("step size must be positive")
    eta_try = eta
    for _ in range(cfg.max_step_retries + 1):
        x_prop = state.x - eta_try * gx
        f_prop = state.f - eta_try * gf
        try:
            x_rep = repair_state(x_prop, _argmax_types(f_prop, state.molecule_type), cfg)
        except RepairError:
            eta_try *= 0.5
            continue
        new = InversionState(x_rep, f_prop, state.molecule_type)
        delta = np.concatenate([(state.x - x_rep).ravel(), (state.f - f_prop).ravel()])
        g_eta = delta / eta_try
        return new, g_eta, eta_try
    raise RepairError("pgd step exhausted repair retries")


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------

def sample_atom_types(logits: np.ndarray, grad_f: np.ndarray, gamma: float,
                      rng: np.random.Generator) -> np.ndarray:
    """Gradient-biased categorical draw per row; returns the drawn indices."""
    z = logits - gamma * grad_f
    z = z - z.max(axis=1, keepdims=True)
    p = np.exp(z)
    p /= p.sum(axis=1, keepdims=True)
    cum = np.cumsum(p, axis=1)
    u = rng.random(len(p))
    return (u[:, None] > cum).sum(axis=1)


def infer_bonds(types: list[str], pairs: list[tuple], pair_logits: list,
                rng: np.random.Generator) -> list[Bond]:
    """Sample bonds over the candidate pairs ``(d, i, j)`` in the given order.

    ``pair_logits`` holds one row per pair. Each pair's type is drawn from the
    softmax of its row over {single, double, triple, aromatic, none} and
    accepted subject to the running valence budget of both endpoints.
    """
    orders = np.array([1.0, 2.0, 3.0, 1.5])
    remaining = _valence_budgets(types)
    bonds: list[Bond] = []
    for (_, i, j), logits in zip(pairs, pair_logits):
        z = np.asarray(logits, dtype=float)
        z = z - z.max()
        p = np.exp(z)
        p /= p.sum()
        choice = int((rng.random() > np.cumsum(p)).sum())
        if choice == 4:  # no bond
            continue
        cost = orders[choice]
        if remaining[i] < cost or remaining[j] < cost:
            continue
        bonds.append(Bond(i, j, float(orders[choice])))
        remaining[i] -= cost
        remaining[j] -= cost
    return bonds


def motif_prior(points: np.ndarray, kappa1: np.ndarray, density: np.ndarray,
                valid: np.ndarray, cfg: RunConfig, seed: int):
    """Cluster high-curvature, high-density points and assign ring/functional
    templates by cluster size; returns (per-point weights, template names,
    per-point cluster assignment). Points that are not ``valid`` weigh 0."""
    n = len(points)
    score = np.asarray(kappa1) * (1.0 - np.asarray(density))
    if n == 0 or not np.any(np.isfinite(score)):
        return np.zeros(n), [], np.full(n, -1)
    threshold = np.quantile(score, 0.75)
    sel = np.where(score >= threshold)[0]
    if len(sel) == 0:
        return np.zeros(n), [], np.full(n, -1)
    k = max(1, len(sel) // 8)
    rng = np.random.default_rng(seed)
    centers = points[rng.choice(sel, size=min(k, len(sel)), replace=False)]
    for _ in range(20):
        assign = neighbors.distances(points[sel], centers).argmin(axis=1)
        new_centers = np.array([
            points[sel][assign == c].mean(axis=0) if np.any(assign == c) else centers[c]
            for c in range(len(centers))
        ])
        if np.allclose(new_centers, centers):
            break
        centers = new_centers

    templates = []
    for c in range(len(centers)):
        size = int((assign == c).sum())
        if size >= 6:
            templates.append(_SIX_RING[c % len(_SIX_RING)])
        elif size == 5:
            templates.append(_FIVE_RING[c % len(_FIVE_RING)])
        else:
            templates.append(_FUNCTIONAL[c % len(_FUNCTIONAL)])

    d_all = neighbors.distances(points, centers)
    nearest = d_all.argmin(axis=1)
    weights = np.exp(-d_all.min(axis=1) ** 2 / cfg.sigma_motif**2)
    weights = weights * np.asarray(valid, dtype=float)
    return weights, templates, nearest


def _find_ring(bonds_adj: dict, i: int, j: int, sizes=(5, 6)) -> bool:
    """True when edge (i, j) lies on a simple cycle of one of the given sizes."""
    max_len = max(sizes) - 1

    def dfs(node, target, depth, visited):
        if depth > max_len:
            return False
        for nxt in bonds_adj.get(node, ()):
            if nxt == target and depth + 1 in sizes:
                return True
            if nxt not in visited and depth + 1 < max_len + 1:
                if dfs(nxt, target, depth + 1, visited | {nxt}):
                    return True
        return False

    # walk from j back to i without immediately reusing the (i, j) edge
    for start in bonds_adj.get(j, ()):
        if start == i:
            continue
        if start not in (i, j) and dfs(start, i, 2, {i, j, start}):
            return True
    return False


def validity_repair(molecule: MolecularStructure, cfg: RunConfig) -> MolecularStructure:
    """Fixed-order repair passes until stable: demote non-ring aromatics,
    drop excess valence (longest bonds first), project bond lengths into
    range, then push clashes apart. Raises RepairError on oscillation."""
    coords = molecule.coords.copy()
    bonds = list(molecule.bonds)
    budgets = _valence_budgets([a.type_label for a in molecule.atoms])
    n = len(coords)

    for _ in range(cfg.max_repair_rounds):
        changed = False
        # aromatic bonds must sit on 5/6-rings
        adj: dict[int, set] = {}
        for b in bonds:
            adj.setdefault(b.i, set()).add(b.j)
            adj.setdefault(b.j, set()).add(b.i)
        new_bonds = []
        for b in bonds:
            if b.aromatic and not _find_ring(adj, b.i, b.j):
                new_bonds.append(Bond(b.i, b.j, 1.0))
                changed = True
            else:
                new_bonds.append(b)
        bonds = new_bonds

        # valence pass: drop longest bonds past the budget
        dist = neighbors.distances(coords, coords)
        while True:
            load = np.zeros(n)
            for b in bonds:
                load[b.i] += b.order
                load[b.j] += b.order
            over = [i for i in range(n) if load[i] > budgets[i]]
            if not over:
                break
            i = over[0]
            incident = [b for b in bonds if b.i == i or b.j == i]
            incident.sort(key=lambda b: (-dist[b.i, b.j], b.i, b.j))
            bonds.remove(incident[0])
            changed = True

        # geometric passes
        bonded = np.zeros((n, n), dtype=bool)
        for b in bonds:
            bonded[b.i, b.j] = bonded[b.j, b.i] = True
        moved = _pair_sweep(coords, bonded, cfg)
        if not changed and moved < 1e-9:
            atoms = [
                Atom(a.element, tuple(coords[k]), a.radius, a.hybridization, a.name)
                for k, a in enumerate(molecule.atoms)
            ]
            return MolecularStructure(atoms, bonds, [], "small-molecule")
    raise RepairError(f"validity repair did not stabilize in {cfg.max_repair_rounds} rounds")


def decode_molecule(state: InversionState, grad_f: np.ndarray | None, params: dict,
                    cfg: RunConfig, seed: int) -> DecodedMolecule:
    """Decode the continuous state into a repaired molecule."""
    rng = np.random.default_rng(seed)
    f = state.f
    logits = _type_logits(f)
    g = grad_f[:, 0:8] if grad_f is not None else np.zeros_like(logits)

    if len(state.x) >= 2:
        # geometry block columns: covariance-trace proxy, determinant, density
        geom = _geom_block(ad.constant(state.x), state.x, cfg.k_geom).values
        hydrogens = logits.argmax(axis=1) == MOLECULE_TYPES.index("H")
        weights, templates, nearest = motif_prior(state.x, geom[:, 0], geom[:, 2], ~hydrogens,
                                                  cfg, seed)
        for k, name in enumerate(templates):
            members = np.where((nearest == k) & (weights > 1e-3))[0]
            if len(members):
                logits = logits.copy()
                logits[members] += cfg.motif_bias * weights[members, None] * MOTIF_TEMPLATES[name]

    types = [MOLECULE_TYPES[i] for i in sample_atom_types(logits, g, cfg.gamma_bias, rng)]

    # bond candidates: the pairs in the bond-length window, by ascending distance
    w, b = params["bond.w"], params["bond.b"]
    w = w.values if isinstance(w, Tensor) else w
    b = b.values if isinstance(b, Tensor) else b
    pairs = _close_pairs(neighbors.distances(state.x, state.x), cfg.bond_min, cfg.bond_max)
    pair_logits = []
    for d, i, j in pairs:
        summary = np.array([d - 1.5, 0.5 * (f[i, 8] + f[j, 8])])
        pair_logits.append(summary @ w + b)
    bonds = infer_bonds(types, pairs, pair_logits, rng)

    atoms = []
    for k, t in enumerate(types):
        elem = t.split(".")[0]
        hyb = t.split(".")[1] if "." in t else None
        atoms.append(Atom(elem, tuple(state.x[k]), VDW_RADII[elem], hyb))
    structure = MolecularStructure(atoms, bonds, [], "small-molecule")
    repaired = validity_repair(structure, cfg)
    return DecodedMolecule(repaired)


def decode_protein(state: InversionState, grad_f: np.ndarray | None, cfg: RunConfig,
                   seed: int) -> DecodedProtein:
    """Decode residue identities, wrapped backbone torsions, and rotamers."""
    rng = np.random.default_rng(seed)
    f = state.f
    g = grad_f if grad_f is not None else np.zeros_like(f)
    res_idx = sample_atom_types(f[:, 0:20], g[:, 0:20], cfg.gamma_bias, rng)
    sequence = [AMINO_ACIDS[i] for i in res_idx]
    phi = np.array([wrap_torsion(v) for v in f[:, 20]])
    psi = np.array([wrap_torsion(v) for v in f[:, 21]])
    rot_idx = sample_atom_types(f[:, 22:25], g[:, 22:25], cfg.gamma_bias, rng)
    return DecodedProtein(sequence, phi, psi, rot_idx)


def accept_modification(candidates: list, ddg: np.ndarray, tau_acc: float,
                        rng: np.random.Generator):
    """Draw one candidate with probability softmax(-ddg / tau); None if empty."""
    if not candidates:
        return None
    z = -np.asarray(ddg, dtype=float) / tau_acc
    z = z - z.max()
    p = np.exp(z)
    p /= p.sum()
    choice = int((rng.random() > np.cumsum(p)).sum())
    return candidates[choice]


# ---------------------------------------------------------------------------
# the inversion loop
# ---------------------------------------------------------------------------

@dataclass
class InversionResult:
    best: object                         # DecodedMolecule | DecodedProtein; None if none decoded
    best_objective: float
    state: InversionState
    trace: list
    stop_reason: str                     # "target" | "plateau" | "budget" | "repair_failed"


def initial_state(ctx: ReceptorContext, mdl: PipelineModel, params: dict, cfg: RunConfig,
                  molecule_type: str, seed: int) -> InversionState:
    """Gaussian point blob at the predicted pocket centroid, repaired into the
    validity region, with small random feature logits."""
    rng = np.random.default_rng(seed)
    prior = pocket_prior(mdl, params, ctx)
    cutoff = np.quantile(prior, 0.9)
    chosen = ctx.points[prior >= cutoff]
    centroid = chosen.mean(axis=0) if len(chosen) else ctx.points.mean(axis=0)
    if molecule_type == "small-molecule":
        n, d_f = cfg.n_init_points, MOLECULE_FEATURE_DIM
    else:
        n, d_f = cfg.n_init_residues, PROTEIN_FEATURE_DIM
    x = centroid + cfg.sigma_init * rng.standard_normal((n, 3))
    f = 0.1 * rng.standard_normal((n, d_f))
    # the raw blob is dense; a one-time generous repair starts the loop valid
    x = repair_state(x, _argmax_types(f, molecule_type), cfg, rounds=100 * cfg.max_repair_rounds)
    return InversionState(x, f, molecule_type)


def _decode(state, grad_f, params, cfg, seed):
    if state.molecule_type == "small-molecule":
        return decode_molecule(state, grad_f, params, cfg, seed)
    return decode_protein(state, grad_f, cfg, seed)


def run_inversion(ctx: ReceptorContext, mdl: PipelineModel, params: dict, cfg: RunConfig,
                  seed: int = 0, molecule_type: str = "small-molecule",
                  mode: str = "continuous-pgd", start: InversionState | None = None,
                  steps: int | None = None) -> InversionResult:
    """Full stage-4 loop: descend, repair, periodically decode, track the best.

    Each mode is a step ``(state, gx, gf, eta) -> (new state, gradient
    mapping, eta used)`` that raises RepairError when repair fails; this loop
    alone decides when to stop, what to decode and what a failed step means.
    Every decoded state is decoded with its own gradient.

    The run stops when the predicted affinity plateaus (|change| < eps over a
    10-step window), when it reaches the target, at the step budget, or at the
    first failed step; the terminal state is decoded when it improves on the
    best, and the result keeps the best candidate decoded so far.
    """
    if mode == "continuous-pgd":
        step = functools.partial(pgd_step, cfg=cfg)
    elif mode == "discrete-accept":
        rng = np.random.default_rng(np.random.SeedSequence([seed, 101]))
        step = functools.partial(_discrete_step, ctx=ctx, mdl=mdl, params=params, cfg=cfg,
                                 rng=rng)
    else:
        raise ValueError(f"unknown inversion mode {mode!r}")
    check_descent = cfg.assert_descent and mode == "continuous-pgd"
    t_total = cfg.t_invert if steps is None else steps
    state = start.copy() if start is not None else initial_state(
        ctx, mdl, params, cfg, molecule_type, seed)
    decode_seed = seed * 7919 + 13
    best, best_f = None, np.inf
    trace: list[dict] = []
    stop_reason = None if t_total > 0 else "budget"

    for t in itertools.count():
        parts, gx, gf, _ = composite_objective(state, ctx, mdl, params, cfg)
        if stop_reason is None:
            # step before decoding: a failed step makes this state the terminal one
            eta = anneal_step_size(t, t_total, cfg.eta_max, cfg.eta_min)
            try:
                new_state, g_eta, eta_used = step(state, gx, gf, eta)
            except RepairError:
                stop_reason = "repair_failed"
        if (stop_reason or t % cfg.decode_every == 0) and parts["F"] < best_f:
            try:
                best, best_f = _decode(state, gf, params, cfg, decode_seed), parts["F"]
            except RepairError:
                pass
        if stop_reason:
            return InversionResult(best, best_f, state, trace, stop_reason)
        if check_descent:
            parts_after, *_ = composite_objective(new_state, ctx, mdl, params, cfg,
                                                  need_grad=False)
            bound = parts["F"] - 0.5 * eta_used * float(g_eta @ g_eta) + 1e-6
            if parts_after["F"] > bound:
                raise AssertionError(
                    f"descent violated at t={t}: {parts_after['F']:.6g} > {bound:.6g}"
                )
        trace.append({
            "t": t, "eta": eta_used, "F": parts["F"], "pocket": parts["pocket"],
            "interaction": parts["interaction"], "dg_hat": parts["dg_hat"],
            "g_norm": float(np.linalg.norm(g_eta)),
        })
        state = new_state
        if len(trace) > 10 and abs(trace[-1]["dg_hat"] - trace[-10]["dg_hat"]) < cfg.eps_dg:
            stop_reason = "plateau"
        elif parts["dg_hat"] <= cfg.dg_target:
            stop_reason = "target"
        elif len(trace) == t_total:
            stop_reason = "budget"


def _discrete_step(state, gx, gf, eta, ctx, mdl, params, cfg, rng):
    """Gradient-guided add/modify/delete with softmax acceptance on predicted
    affinity changes; returns (new state, raw gradient, eta)."""
    mags = np.linalg.norm(gx, axis=1)
    hot = int(np.argmax(mags))
    candidates = []
    # modify: nudge the hot point's features against the gradient
    mod = state.copy()
    mod.f[hot] -= 0.5 * gf[hot]
    candidates.append(mod)
    # add: new point near the hot position
    addx = state.x[hot] + 0.5 * rng.standard_normal(3)
    add = InversionState(np.vstack([state.x, addx]),
                         np.vstack([state.f, 0.1 * rng.standard_normal(state.f.shape[1])]),
                         state.molecule_type)
    candidates.append(add)
    # delete: drop the hot point when enough points remain
    if len(state.x) > 4:
        keep = np.arange(len(state.x)) != hot
        candidates.append(InversionState(state.x[keep], state.f[keep], state.molecule_type))
    ddg = []
    for cand in candidates:
        parts, *_ = composite_objective(cand, ctx, mdl, params, cfg, need_grad=False)
        ddg.append(parts["dg_hat"])
    chosen = accept_modification(candidates, np.asarray(ddg) - min(ddg), cfg.tau_acc, rng)
    new = chosen.copy()
    new.x = repair_state(new.x, _argmax_types(new.f, new.molecule_type), cfg)
    return new, np.concatenate([gx.ravel(), gf.ravel()]), eta
