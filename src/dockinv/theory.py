"""Executable verification on synthetic landscapes, plus evaluation metrics.

Covers the projected-gradient descent inequality and its telescoped bound,
stationarity at the iteration limit for convex instances, the
containment/strict-improvement comparison against generate-then-optimize,
a runtime scaling-exponent fit, and the sequence/structure metrics
(recovery, diversity, novelty, stability).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import neighbors

__all__ = [
    "SyntheticLandscape",
    "GeneratorStub",
    "VerifyReport",
    "pgd",
    "verify_descent",
    "double_well",
    "containment_demo",
    "random_psd_quadratic",
    "quadratic_1d",
    "box_quadratic",
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
class SyntheticLandscape:
    """Closed-form objective with exact gradient and known smoothness."""

    name: str
    f: callable
    grad: callable
    smoothness: float
    lower: np.ndarray
    upper: np.ndarray
    minimum: float | None = None        # inf of f over the constraint set
    mu: float | None = None             # strong convexity constant when known
    f_each: callable | None = None      # 1-D landscapes: f at each entry of an array

    def project(self, x: np.ndarray) -> np.ndarray:
        return np.clip(x, self.lower, self.upper)

    def check_gradient(self, n_points: int = 1000, tol: float = 1e-8, seed: int = 0) -> float:
        """Max relative discrepancy of grad vs central differences."""
        rng = np.random.default_rng(seed)
        dim = len(np.atleast_1d(self.lower))
        worst = 0.0
        h = 1e-6
        for _ in range(n_points):
            x = rng.uniform(self.lower, self.upper, size=dim)
            g = np.atleast_1d(self.grad(x))
            for i in range(dim):
                e = np.zeros(dim)
                e[i] = h
                fd = (self.f(x + e) - self.f(x - e)) / (2 * h)
                scale = max(abs(g[i]), abs(fd), 1.0)
                worst = max(worst, abs(g[i] - fd) / scale)
        if worst > tol:
            raise AssertionError(f"{self.name}: analytic gradient off by {worst:.2e}")
        return worst


@dataclass
class GeneratorStub:
    """Sampler with declared support, standing in for a trained generator."""

    low: float
    high: float

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(self.low, self.high, size=n)


@dataclass
class VerifyReport:
    name: str
    passed: bool
    violations: list = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def lines(self) -> list[str]:
        status = "PASS" if self.passed else "FAIL"
        out = [f"[{status}] {self.name}"]
        for v in self.violations:
            out.append(f"    violation: {v}")
        for k, v in sorted(self.details.items()):
            out.append(f"    {k} = {v}")
        return out


def pgd(f, grad, project, x0, eta: float, steps: int):
    """Projected gradient descent; returns (trajectory, objectives, gradient maps)."""
    x = np.atleast_1d(np.asarray(x0, dtype=float))
    xs = [x.copy()]
    fs = [float(f(x))]
    gmaps = []
    for _ in range(steps):
        x_new = project(x - eta * np.atleast_1d(grad(x)))
        gmaps.append((x - x_new) / eta)
        x = x_new
        xs.append(x.copy())
        fs.append(float(f(x)))
    return np.array(xs), np.array(fs), np.array(gmaps)


def verify_descent(landscape: SyntheticLandscape, eta: float, steps: int,
                   starts: np.ndarray, stationarity_tol: float = 1e-6,
                   slack: float = 1e-10) -> VerifyReport:
    """Assert, per start: the per-step descent inequality, the telescoped
    cumulative bound, and (for convex instances with a known minimum)
    stationarity of the gradient mapping at the horizon."""
    violations = []
    min_gmap_overall = np.inf
    for s_idx, x0 in enumerate(np.atleast_2d(np.asarray(starts, dtype=float))):
        xs, fs, gmaps = pgd(landscape.f, landscape.grad, landscape.project, x0, eta, steps)
        for t in range(steps):
            bound = fs[t] - 0.5 * eta * float(gmaps[t] @ gmaps[t]) + slack
            if fs[t + 1] > bound:
                violations.append(
                    f"descent at start {s_idx} step {t}: F={fs[t + 1]:.8g} > {bound:.8g}"
                )
        total = float((gmaps * gmaps).sum())
        f_star = landscape.minimum if landscape.minimum is not None else fs.min()
        cap = (2.0 / eta) * (fs[0] - f_star) + slack
        if total > cap:
            violations.append(
                f"cumulative bound at start {s_idx}: {total:.8g} > {cap:.8g}"
            )
        min_gmap = float(np.sqrt((gmaps * gmaps).sum(axis=1)).min())
        min_gmap_overall = min(min_gmap_overall, min_gmap)
        if landscape.mu is not None and min_gmap > stationarity_tol:
            violations.append(
                f"stationarity at start {s_idx}: min |g_eta| = {min_gmap:.3e}"
            )
    return VerifyReport(
        name=f"descent[{landscape.name}] eta={eta:g}",
        passed=not violations,
        violations=violations,
        details={"min_gradient_mapping": min_gmap_overall, "starts": len(np.atleast_2d(starts))},
    )


# ---------------------------------------------------------------------------
# shipped landscapes
# ---------------------------------------------------------------------------

def quadratic_1d(smoothness: float = 4.0) -> SyntheticLandscape:
    l = smoothness
    return SyntheticLandscape(
        name="quadratic-1d",
        f=lambda x: 0.5 * l * float(np.sum(x * x)),
        grad=lambda x: l * np.atleast_1d(x),
        smoothness=l,
        lower=np.array([-10.0]),
        upper=np.array([10.0]),
        minimum=0.0,
        mu=l,
    )


def random_psd_quadratic(dim: int, rng: np.random.Generator) -> SyntheticLandscape:
    """0.5 x'Ax + b'x with random PSD A; box wide enough to contain the minimum."""
    m = rng.standard_normal((dim, dim))
    a = m @ m.T + 0.1 * np.eye(dim)
    b = rng.standard_normal(dim)
    eigs = np.linalg.eigvalsh(a)
    x_star = -np.linalg.solve(a, b)
    f_star = 0.5 * x_star @ a @ x_star + b @ x_star
    span = max(10.0, 2.0 * float(np.abs(x_star).max()))
    return SyntheticLandscape(
        name=f"psd-quadratic-{dim}d",
        f=lambda x: float(0.5 * x @ a @ x + b @ x),
        grad=lambda x: a @ x + b,
        smoothness=float(eigs.max()),
        lower=np.full(dim, -span),
        upper=np.full(dim, span),
        minimum=float(f_star),
        mu=float(eigs.min()),
    )


def box_quadratic() -> SyntheticLandscape:
    """1-D quadratic whose unconstrained minimizer lies outside the box, so the
    constrained minimizer sits on the box face (KKT: gradient mapping -> 0)."""
    l = 2.0
    target = 5.0
    lo, hi = -1.0, 1.0
    f_star = 0.5 * l * (hi - target) ** 2
    return SyntheticLandscape(
        name="box-quadratic",
        f=lambda x: float(0.5 * l * np.sum((x - target) ** 2)),
        grad=lambda x: l * (np.atleast_1d(x) - target),
        smoothness=l,
        lower=np.array([lo]),
        upper=np.array([hi]),
        minimum=f_star,
        mu=l,
    )


def double_well(tilt: float = 0.3) -> SyntheticLandscape:
    """(x^2 - 1)^2 + tilt * x on [-2, 2]: two basins, the left one deeper."""

    def f_each(x):
        # np.float_power is libm's pow, as Python's float ** is, so an array
        # gets bitwise the values that Python floats get
        return np.float_power(x * x - 1.0, 2.0) + tilt * x

    def f(x):
        return float(f_each(float(np.atleast_1d(x)[0])))

    def grad(x):
        x = np.atleast_1d(x)
        return 4.0 * x * (x * x - 1.0) + tilt

    # max |f''| = |12 x^2 - 4| at x = +-2
    return SyntheticLandscape(
        name="double-well",
        f=f,
        f_each=f_each,
        grad=grad,
        smoothness=44.0,
        lower=np.array([-2.0]),
        upper=np.array([2.0]),
    )


def minimize_on_grid(landscape: SyntheticLandscape, step: float = 1e-5):
    """Dense 1-D grid oracle for minimizers (used to pin basin values)."""
    xs = np.arange(float(landscape.lower[0]), float(landscape.upper[0]) + step, step)
    vals = landscape.f_each(xs)
    i = int(np.argmin(vals))
    return float(xs[i]), float(vals[i])


def containment_demo(landscape: SyntheticLandscape | None = None,
                     stub: GeneratorStub | None = None,
                     n_samples: int = 32, n_starts: int = 32,
                     eta: float | None = None, steps: int = 3000,
                     seed: int = 0) -> VerifyReport:
    """Compare generate-then-optimize against multi-start inversion.

    Inversion refines PGD from uniform starts over the full box; G+O refines
    from generator samples only. Weak dominance must always hold; strict
    dominance is asserted when the generator's support misses the better basin.
    The landscape is one-dimensional, and its ``grad``, ``project`` and
    ``f_each`` act elementwise, so each set of starts is refined as one batch
    and the grid oracle is one array expression.
    """
    landscape = landscape or double_well()
    stub = stub or GeneratorStub(0.5, 1.5)
    eta = eta if eta is not None else 1.0 / landscape.smoothness
    rng = np.random.default_rng(seed)

    def refine(starts):  # final points and objectives after `steps` PGD steps
        x = np.asarray(starts, dtype=float)
        for _ in range(steps):
            x = landscape.project(x - eta * landscape.grad(x))
        return x, landscape.f_each(x)

    go_best = min(refine(stub.sample(n_samples, rng))[1])
    inv_starts = np.linspace(float(landscape.lower[0]), float(landscape.upper[0]), n_starts)
    inv_best = min(refine(inv_starts)[1])

    violations = []
    if inv_best > go_best + 1e-9:
        violations.append(f"weak dominance violated: {inv_best:.8g} > {go_best:.8g}")

    # basin oracle: where PGD from starts across the generator's support ends
    ends, _ = refine(np.linspace(stub.low, stub.high, 16))
    basins = {round(float(x), 2) for x in ends}
    x_star, f_star = minimize_on_grid(landscape)
    misspecified = all(abs(b - x_star) > 0.05 for b in basins)
    details = {
        "go_best": go_best,
        "inv_best": inv_best,
        "global_min_x": x_star,
        "global_min_f": f_star,
        "misspecified": misspecified,
    }
    if misspecified:
        gap = go_best - f_star
        if not inv_best < go_best - (gap - 1e-4):
            violations.append(
                f"strict dominance shortfall: inv={inv_best:.8g}, go={go_best:.8g}, gap={gap:.8g}"
            )
    return VerifyReport("containment", not violations, violations, details)


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
