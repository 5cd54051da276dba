"""Executable checks on the shipped stage-4 objective, plus evaluation metrics.

``dockinv verify`` runs the checks on real pipeline objects: the composite
objective's invariance under a joint rigid motion of receptor and ligand,
its gradients against central differences, and state repair as a
projection onto the validity region. The rest of the module is a runtime
scaling-exponent fit and the sequence/structure metrics (recovery,
diversity, novelty, stability).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import inversion, neighbors
from .equivariant import random_rotation
from .surface import SurfacePointCloud

__all__ = [
    "VerifyReport",
    "verify_invariance",
    "objective_of",
    "verify_gradient",
    "verify_repair",
    "fit_scaling_exponent",
    "metric_aar",
    "metric_div",
    "metric_nov",
    "metric_sta_protein",
    "metric_sta_molecule",
    "clash_count",
    "torsion_coherence",
    "accessibility_proxy",
]


@dataclass
class VerifyReport:
    """One check's outcome; ``details`` holds plain Python values."""

    name: str
    violations: list
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.violations

    def lines(self) -> list[str]:
        status = "PASS" if self.passed else "FAIL"
        out = [f"[{status}] {self.name}"]
        for v in self.violations:
            out.append(f"    violation: {v}")
        for k, v in sorted(self.details.items()):
            out.append(f"    {k} = {v}")
        return out


def verify_invariance(mdl, params: dict, cloud: SurfacePointCloud, ctx,
                      state: inversion.InversionState, cfg, seed: int) -> VerifyReport:
    """F and the predicted affinity are invariant, and the coordinate
    gradient rotates, when the receptor cloud (``ctx`` is its prepared
    receptor) and the ligand state move by one seeded rigid motion."""
    rng = np.random.default_rng(seed)
    rot, shift = random_rotation(rng), rng.uniform(-10.0, 10.0, 3)
    moved = SurfacePointCloud(cloud.points @ rot.T + shift, cloud.features, cloud.molecule_type)
    moved_state = inversion.InversionState(state.x @ rot.T + shift, state.f.copy(),
                                           state.molecule_type)
    parts, gx, _, _ = inversion.composite_objective(state, ctx, mdl, params, cfg)
    ctx_m = inversion.prepare_receptor(mdl, params, moved)
    parts_m, gx_m, _, _ = inversion.composite_objective(moved_state, ctx_m, mdl, params, cfg)
    errors = {
        "F": (abs(parts_m["F"] - parts["F"]), abs(parts["F"])),
        "dg_hat": (abs(parts_m["dg_hat"] - parts["dg_hat"]), abs(parts["dg_hat"])),
        "gx": (float(np.abs(gx_m - gx @ rot.T).max()), float(np.abs(gx).max())),
    }
    violations = [f"{name} moved by {err:.3e} under the rigid motion"
                  for name, (err, size) in errors.items() if err > 1e-9 * max(1.0, size)]
    details = {f"{name}_change": err for name, (err, _) in errors.items()}
    return VerifyReport("invariance: rigid motion of receptor and ligand", violations, details)


def objective_of(kind: str, state: inversion.InversionState, ctx, mdl, params: dict, cfg,
                 frozen: dict, grad_scale: float = 1.0):
    """F as a function of the state's ``x`` or ``f`` block, for ad.grad_check.

    The returned node's VJP is ``grad_scale`` times composite_objective's own
    gradient at the point, so grad_check compares that gradient with central
    differences of F (neighbourhoods and pseudo-labels held in ``frozen``).
    """

    def fn(t):
        probe = state.copy()
        setattr(probe, kind, t.values.copy())
        parts, gx, gf, _ = inversion.composite_objective(
            probe, ctx, mdl, params, cfg, frozen=frozen, need_grad=t.requires_grad)
        grad = gx if kind == "x" else gf
        return ad.primitive(np.array(parts["F"]), "objective", (t,),
                            lambda g: (g * grad_scale * grad,))

    return fn


def verify_gradient(state: inversion.InversionState, ctx, mdl, params: dict, cfg,
                    grad_scale: float = 1.0) -> VerifyReport:
    """composite_objective's gradients in ``x`` and ``f`` against central
    differences on sampled coordinates, with neighbourhoods and pseudo-labels
    held; a near-zero gradient would match them vacuously, so it fails."""
    frozen = inversion.frozen_structure(state, ctx, mdl, cfg)
    violations, details = [], {}
    for seed, kind in enumerate(("x", "f")):
        fn = objective_of(kind, state, ctx, mdl, params, cfg, frozen, grad_scale)
        report = ad.grad_check(fn, getattr(state, kind), step=1e-5, tolerance=1e-5, sample=8,
                               rng=np.random.default_rng(seed))
        largest = float(np.abs(report.analytic).max())
        details[f"max_rel_err_{kind}"] = report.max_rel_err
        details[f"max_abs_grad_{kind}"] = largest
        if not report.passed:
            violations.append(f"{kind}: relative error {report.max_rel_err:.3e} at coordinate "
                              f"{report.worst_index}")
        if largest <= 1e-4:
            violations.append(f"{kind}: largest gradient entry {largest:.3e} is vacuous")
    name = "gradient: F in x and f" if grad_scale == 1.0 else \
        f"negative-control: gradient scaled x{grad_scale:g}"
    return VerifyReport(name, violations, details)


def verify_repair(state: inversion.InversionState, cfg) -> VerifyReport:
    """repair_state as a projection onto the validity region, on the state
    contracted x0.5 toward its centroid: a valid start would leave it
    nothing to do. Its bonds are the greedy bonds of its input."""
    name = "repair: projection of the start contracted x0.5"
    centroid = state.x.mean(axis=0)
    x = centroid + 0.5 * (state.x - centroid)
    types = inversion._argmax_types(state.f, state.molecule_type)
    try:
        out = inversion.repair_state(x, types, cfg)
        again = inversion.repair_state(out, types, cfg)
    except inversion.RepairError as err:
        return VerifyReport(name, [str(err)])
    bonded = inversion._greedy_bonds(neighbors.distances(x, x),
                                     inversion._valence_budgets(types), cfg.bond_max)
    dist = neighbors.distances(out, out)
    details = {
        "max_shift": float(np.linalg.norm(out - x, axis=1).max()),
        "bonds": len(bonded),
        "bonds_out_of_range": sum(not cfg.bond_min <= dist[i, j] <= cfg.bond_max
                                  for i, j in bonded),
        "clashes": clash_count(out, cfg.clash_floor, set(bonded)),
    }
    checks = {
        "repair moved no atom, so it checked nothing": details["max_shift"] == 0.0,
        "a second repair moved the repaired state": again.tobytes() != out.tobytes(),
        f"bonds outside [{cfg.bond_min}, {cfg.bond_max}]": details["bonds_out_of_range"] > 0,
        f"non-bonded pairs closer than {cfg.clash_floor}": details["clashes"] > 0,
    }
    return VerifyReport(name, [msg for msg, failed in checks.items() if failed], details)


# ---------------------------------------------------------------------------
# scaling fit
# ---------------------------------------------------------------------------

def fit_scaling_exponent(samples: list[tuple[float, float]]):
    """Least-squares slope of log T against log N; returns (gamma, stderr).

    Needs at least 4 distinct sizes with at least 3 timings each.
    """
    by_n: dict[float, list[float]] = {}
    for n, t in samples:
        if n <= 0 or t <= 0:
            raise ValueError("sizes and runtimes must be positive")
        by_n.setdefault(float(n), []).append(float(t))
    if len(by_n) < 4:
        raise ValueError(f"need >= 4 distinct sizes, got {len(by_n)}")
    for n, ts in by_n.items():
        if len(ts) < 3:
            raise ValueError(f"need >= 3 timings per size, got {len(ts)} at N={n:g}")
    xs = np.log(np.array([n for n, ts in sorted(by_n.items()) for _ in ts]))
    ys = np.log(np.array([t for n, ts in sorted(by_n.items()) for t in ts]))
    a = np.stack([xs, np.ones_like(xs)], axis=1)
    coef, residuals, *_ = np.linalg.lstsq(a, ys, rcond=None)
    gamma = float(coef[0])
    dof = max(len(xs) - 2, 1)
    resid = ys - a @ coef
    var = float(resid @ resid) / dof
    cov = var * np.linalg.inv(a.T @ a)
    return gamma, float(np.sqrt(cov[0, 0]))


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def metric_aar(generated: list, references: list) -> float:
    """Positional identity between paired equal-length sequences, in percent."""
    if len(generated) != len(references):
        raise ValueError("generated and reference sets differ in size")
    matches = 0
    total = 0
    for g, r in zip(generated, references):
        if len(g) != len(r):
            raise ValueError(f"length mismatch: {len(g)} vs {len(r)}")
        matches += sum(1 for a, b in zip(g, r) if a == b)
        total += len(g)
    if total == 0:
        raise ValueError("empty sequences")
    return 100.0 * matches / total


def metric_div(items: list, distance) -> float:
    """Mean pairwise dissimilarity 2/(N(N-1)) * sum_{i<j} D(i, j)."""
    n = len(items)
    if n < 2:
        raise ValueError("diversity needs at least 2 items")
    total = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            total += float(distance(items[i], items[j]))
    return 2.0 * total / (n * (n - 1))


def seq_identity(a, b) -> float:
    n = min(len(a), len(b))
    if n == 0:
        return 0.0
    return sum(1 for i in range(n) if a[i] == b[i]) / n


def metric_nov(generated: list, references: list) -> float:
    """1 - mean over generated sequences of their highest identity to a reference."""
    if not references:
        raise ValueError("novelty needs a non-empty reference set")
    if not generated:
        raise ValueError("novelty needs generated items")
    total = sum(max(seq_identity(g, r) for r in references) for g in generated)
    return 1.0 - total / len(generated)


def clash_count(coords: np.ndarray, floor: float = 1.7,
                bonded: set[tuple[int, int]] | None = None) -> int:
    """Non-bonded pairs closer than the clash floor (steric proxy)."""
    pts = np.asarray(coords, dtype=float).reshape(-1, 3)
    close = np.triu(neighbors.distances(pts, pts) < floor, k=1)
    for i, j in bonded or ():
        close[i, j] = close[j, i] = False
    return int(close.sum())


def torsion_coherence(phi: np.ndarray, psi: np.ndarray) -> float:
    """Fraction of residues whose backbone torsions fall in broadly favored
    regions (helix-like or sheet-like); the secondary-structure proxy."""
    phi = np.asarray(phi, dtype=float)
    psi = np.asarray(psi, dtype=float)
    helix = (phi > -120) & (phi < -30) & (psi > -80) & (psi < 20)
    sheet = (phi > -170) & (phi < -70) & (psi > 90) & (psi < 180)
    return float(np.mean(helix | sheet)) if len(phi) else 0.0


def accessibility_proxy(structure) -> float:
    """Heavy-atom / ring-count synthetic-accessibility heuristic (lower is easier)."""
    heavy = sum(1 for a in structure.atoms if a.element != "H")
    aromatic = sum(1 for b in structure.bonds if b.order == 1.5)
    rings = aromatic / 6.0
    return 1.0 + 0.05 * heavy + 0.8 * rings


def metric_sta_protein(proteins: list[dict], alpha: float = 0.4, beta: float = 0.6,
                       sigma: float = 10.0, mu: float = 0.5, tau: float = 1.5) -> float:
    """Weighted composite of a clash sub-score and torsion coherence.

    Each protein is a dict with ``scs`` (clash count) and ``ssc`` (coherence).
    Proxy-backed: not comparable to externally scored absolute values.
    """
    if not proteins:
        raise ValueError("stability needs at least one structure")
    total = 0.0
    for p in proteins:
        total += alpha * np.exp(-p["scs"] / sigma) + beta * (1.0 - abs(p["ssc"] - mu) / tau) ** 2
    return total / len(proteins)


def metric_sta_molecule(molecules: list[dict], gamma: float = 0.5, delta: float = 0.5,
                        lam: float = 10.0, kappa: float = 1.5, mu: float = 3.0) -> float:
    """Weighted composite of strain (``cse``) and accessibility (``sai``) proxies."""
    if not molecules:
        raise ValueError("stability needs at least one structure")
    total = 0.0
    for m in molecules:
        total += gamma * np.exp(-m["cse"] / lam) + delta * (1.0 - (m["sai"] - mu) / kappa) ** 2
    return total / len(molecules)
