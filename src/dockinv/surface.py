"""Stage 1: differentiable surface point clouds, features, and patches.

The molecular surface is the ``r_probe`` iso-level of a smoothed distance
field over atom centers. Candidate points sampled around atoms are projected
onto the iso-surface by Newton steps, downsampled, equipped with normals
and per-point chemical/atomic/geometric features, and partitioned into
fixed-size patches via farthest point sampling + KNN.

Construction is rigid-motion equivariant: candidate perturbations are drawn
in a structure-intrinsic frame, and every later step depends only on pairwise
distances. Distances and neighbour order (ties to the lowest index) come from
:mod:`dockinv.neighbors`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import neighbors
from .config import RunConfig
from .structures import MOLECULE_TYPES, PROTEIN_ELEMENTS, MolecularStructure

__all__ = [
    "SurfaceError",
    "InsufficientSurfaceError",
    "SurfacePointCloud",
    "PatchSet",
    "sdf_value_grad",
    "intrinsic_frame",
    "sample_candidates",
    "project_to_isosurface",
    "estimate_normals",
    "chemical_features",
    "atomic_features",
    "geometric_features",
    "assemble_features",
    "fps",
    "knn",
    "pool_patch_stats",
    "interface_labels",
    "build_patches",
    "build_surface",
]


class SurfaceError(ValueError):
    pass


class InsufficientSurfaceError(SurfaceError):
    """Fewer projected points survived than the requested sample size."""

    def __init__(self, survivors: int, requested: int):
        super().__init__(
            f"only {survivors} points converged to the iso-surface, need {requested}"
        )
        self.survivors = survivors
        self.requested = requested


class SurfacePointCloud:
    """Surface sample: points (N,3), unit normals (N,3) and features (N,d)."""

    def __init__(self, points, normals, features, molecule_type):
        self.points = np.ascontiguousarray(points, dtype=float)
        self.normals = np.ascontiguousarray(normals, dtype=float)
        self.features = np.ascontiguousarray(features, dtype=float)
        self.molecule_type = molecule_type
        for name in ("points", "normals", "features"):
            if not np.isfinite(getattr(self, name)).all():
                raise SurfaceError(f"{name} must be finite")
        if len(self.points):
            lengths = np.linalg.norm(self.normals, axis=1)
            if np.any(np.abs(lengths - 1.0) > 1e-9):
                raise SurfaceError("normals must be unit length within 1e-9")
            if self.features.ndim != 2 or self.features.shape[0] != self.points.shape[0]:
                raise SurfaceError("feature matrix must be (N, d)")

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass
class PatchSet:
    """FPS center indices, each with the indices of its fixed-size KNN members."""

    center_indices: np.ndarray          # (P,)
    member_indices: np.ndarray          # (P, K)


# ---------------------------------------------------------------------------
# smoothed signed distance field
# ---------------------------------------------------------------------------

# Points are evaluated in row blocks of about this many bytes of point-atom
# differences: 109 rows at A = 200, 21 rows at A = 1000. Blocks from 256 KiB
# to 2 MiB ran equally fast at both sizes; larger ones spill out of cache.
_SDF_BLOCK_BYTES = 1 << 19


def sdf_value_grad(points: np.ndarray, coords: np.ndarray, radii: np.ndarray):
    """The smoothed SDF at ``points`` ((3,) or (P, 3)) and its spatial gradient.

    The value is ``-fbar(x) * log sum_j exp(-|x - c_j| / r_j)``, with ``fbar``
    the exp(-distance)-weighted mean radius; both sums are stabilized by
    subtracting their largest exponent.

    Points are taken in row blocks, so memory stays O(rows x A) for any
    number of points, and every row comes out bitwise the same whatever block
    it falls in. The atom sum is never truncated. With ``q`` and ``p`` the
    softmaxes of ``-d/r`` and ``-d`` over atoms and ``s`` the log-sum-exp of
    ``-d/r``, the gradient of ``-fbar * s`` is ``sum_j w_j (x - c_j)`` with
    ``w_j = [s p_j (r_j - fbar) + fbar q_j / r_j] / max(d_j, 1e-12)``.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    coords = np.asarray(coords, dtype=float)
    radii = np.asarray(radii, dtype=float)
    if coords.size == 0:
        raise SurfaceError("sdf_value_grad needs at least one atom")
    coords_t = np.ascontiguousarray(coords.T)                   # (3, A)
    rows = max(1, _SDF_BLOCK_BYTES // (coords_t.size * 8))
    sdf = np.empty(points.shape[0])
    grad = np.empty((points.shape[0], 3))
    for lo in range(0, points.shape[0], rows):
        block = slice(lo, lo + rows)
        diff = points[block, :, None] - coords_t                # (rows, 3, A)
        sq = diff * diff
        d = np.sqrt(sq[:, 0] + sq[:, 1] + sq[:, 2])             # (rows, A)

        a = -d / radii
        m = a.max(axis=1, keepdims=True)
        e = np.exp(a - m)
        z = e.sum(axis=1, keepdims=True)
        s = np.log(z) + m
        q = e / z

        b = -d
        eb = np.exp(b - b.max(axis=1, keepdims=True))
        p = eb / eb.sum(axis=1, keepdims=True)
        fbar = (p * radii).sum(axis=1, keepdims=True)

        sdf[block] = (-fbar * s)[:, 0]
        w = (s * p * (radii - fbar) + fbar * q / radii) / np.maximum(d, 1e-12)
        grad[block] = np.einsum("pka,pa->pk", diff, w)
    return sdf, grad


# ---------------------------------------------------------------------------
# equivariant candidate sampling and projection
# ---------------------------------------------------------------------------

def intrinsic_frame(coords: np.ndarray) -> np.ndarray:
    """Right-handed orthonormal frame computed from the structure itself.

    Axes are covariance eigenvectors (descending eigenvalue) with signs fixed
    by odd coordinate moments, so the frame rotates with the structure. Highly
    symmetric structures (a single atom, a perfect tetrahedron) have no
    canonical frame and fall back to deterministic but frame-fixed axes.
    """
    coords = np.asarray(coords, dtype=float)
    center = coords.mean(axis=0)
    x = coords - center
    cov = x.T @ x / max(len(x), 1)
    w, v = np.linalg.eigh(cov)
    order = np.argsort(w)[::-1]
    v = v[:, order]
    scale = max(float(np.abs(x).max()), 1.0)
    for k in range(2):
        proj = x @ v[:, k]
        s = (proj**3).sum()
        if abs(s) < 1e-9 * scale**3:
            s = (proj * (x * x).sum(axis=1)).sum()
        if s < 0:
            v[:, k] = -v[:, k]
    v[:, 2] = np.cross(v[:, 0], v[:, 1])
    return v


def sample_candidates(
    structure: MolecularStructure,
    n_per_atom: int,
    sigma: float,
    rng: np.random.Generator,
    minimum: int = 0,
) -> np.ndarray:
    """Gaussian perturbations around atom centers, drawn in the intrinsic frame."""
    coords = structure.coords
    n_atoms = len(coords)
    per_atom = n_per_atom
    if minimum > 0:
        per_atom = max(per_atom, int(np.ceil(minimum / n_atoms)))
    frame = intrinsic_frame(coords)
    eps = rng.standard_normal((n_atoms, per_atom, 3)) * sigma
    cands = coords[:, None, :] + eps @ frame.T
    return cands.reshape(-1, 3)


def project_to_isosurface(
    candidates: np.ndarray,
    coords: np.ndarray,
    radii: np.ndarray,
    r_iso: float,
    t_sdf: int,
    tol: float = 1e-3,
    m: int | None = None,
    rng: np.random.Generator | None = None,
):
    """Newton-project candidates onto the ``r_iso`` level set.

    Each of at most ``t_sdf`` iterations evaluates the points still active and
    moves each by ``-(s - r_iso) grad s / max(|grad s|^2, 1e-6)``; a point
    leaves the active set once ``|s - r_iso| <= 0.1 tol``. One final
    evaluation over every candidate drops points outside the ``tol`` band,
    and (optionally) the survivors are downsampled to exactly ``m`` points
    uniformly at random with the supplied generator.
    """
    pts = np.array(candidates, dtype=float)
    active = np.arange(len(pts))
    for _ in range(t_sdf):
        sdf, grad = sdf_value_grad(pts[active], coords, radii)
        resid = sdf - r_iso
        moving = np.abs(resid) > 0.1 * tol
        active, resid, grad = active[moving], resid[moving], grad[moving]
        if not len(active):
            break
        step = resid / np.maximum((grad * grad).sum(axis=1), 1e-6)
        pts[active] -= step[:, None] * grad
    sdf, _ = sdf_value_grad(pts, coords, radii)
    keep = np.abs(sdf - r_iso) <= tol
    survivors = pts[keep]
    if m is None:
        return survivors
    if len(survivors) < m:
        raise InsufficientSurfaceError(len(survivors), m)
    if rng is None:
        rng = np.random.default_rng(0)
    sel = np.sort(rng.choice(len(survivors), size=m, replace=False))
    return survivors[sel]


def estimate_normals(points: np.ndarray, coords: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Unit outward normals: the normalized gradient of the smoothed SDF."""
    _, grad = sdf_value_grad(points, coords, radii)
    return grad / np.linalg.norm(grad, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# per-point features
# ---------------------------------------------------------------------------

_CHEM_SETS = {
    "hbond": {"O", "N", "S"},
    "pos": {"O", "N"},
    "neg": {"C", "S"},
    "phob": {"C"},
}


def _probe_weights(points, structure: MolecularStructure, r_chem: float, r_probe: float,
                   eps: float) -> np.ndarray:
    """(P, A) weights ``1 / (d / r_probe + eps)`` of the atoms within ``r_chem``."""
    dist = neighbors.distances(np.atleast_2d(points), structure.coords)
    return 1.0 / (dist / r_probe + eps) * (dist <= r_chem)


def chemical_features(
    points: np.ndarray,
    structure: MolecularStructure,
    r_chem: float = 5.0,
    r_probe: float = 1.4,
    eps: float = 1e-6,
):
    """(H_bond, charge, hydrophobicity, aromaticity) per point.

    All four are probe-weighted neighborhood statistics over atoms within
    ``r_chem``; an empty neighborhood yields the all-zero row.
    """
    elems = np.array([a.element for a in structure.atoms])
    w = _probe_weights(points, structure, r_chem, r_probe, eps)
    denom = w.sum(axis=1)
    empty = denom == 0.0
    safe = np.where(empty, 1.0, denom)

    is_hbond = np.isin(elems, list(_CHEM_SETS["hbond"])).astype(float)
    is_pos = np.isin(elems, list(_CHEM_SETS["pos"])).astype(float)
    is_neg = np.isin(elems, list(_CHEM_SETS["neg"])).astype(float)
    is_phob = np.isin(elems, list(_CHEM_SETS["phob"])).astype(float)

    h_bond = (w * is_hbond).sum(axis=1) / safe
    charge = (w * (is_pos - is_neg)).sum(axis=1) / safe
    h_phob = (w * is_phob).sum(axis=1) / safe
    a_aro = np.clip(h_phob / 4.5, 0.0, 1.0)
    out = np.stack([h_bond, charge, h_phob, a_aro], axis=1)
    out[empty] = 0.0
    return out


def atomic_features(
    points: np.ndarray,
    structure: MolecularStructure,
    r_chem: float = 5.0,
    r_probe: float = 1.4,
    eps: float = 1e-6,
):
    """Probe-weighted one-hot element statistics (6-D protein / 8-D molecule);
    an empty neighborhood yields the all-zero row."""
    if structure.molecule_type == "protein":
        vocab = PROTEIN_ELEMENTS
        labels = np.array([a.element for a in structure.atoms])
    else:
        vocab = MOLECULE_TYPES
        labels = np.array([a.type_label for a in structure.atoms])
    onehot = np.stack([(labels == v).astype(float) for v in vocab], axis=1)  # (A, V)
    raw = _probe_weights(points, structure, r_chem, r_probe, eps) @ onehot
    denom = raw.sum(axis=1)
    empty = denom == 0.0
    out = raw / np.where(empty, 1.0, denom)[:, None]
    out[empty] = 0.0
    return out


def geometric_features(cloud_points: np.ndarray, normals: np.ndarray, k_geom: int = 10):
    """(mean normal variation, covariance-eigenvalue product, local density).

    Density is the mean neighbor distance min-max normalized over the cloud.
    """
    pts = np.asarray(cloud_points, dtype=float)
    n = len(pts)
    if n < k_geom + 1:
        raise SurfaceError(f"geometric features need >= {k_geom + 1} points, got {n}")
    nbr, nbr_dist = neighbors.knn(pts, pts, k_geom, exclude_self=True)  # (N, k)

    dn = normals[nbr] - normals[:, None, :]                            # (N, k, 3)
    kappa1 = np.linalg.norm(dn, axis=2).mean(axis=1)

    nbr_pts = pts[nbr]                                                 # (N, k, 3)
    mu = nbr_pts.mean(axis=1, keepdims=True)
    centered = nbr_pts - mu
    cov = np.einsum("nki,nkj->nij", centered, centered) / k_geom
    kappa2 = np.linalg.det(cov)

    d_raw = nbr_dist.mean(axis=1)
    lo, hi = d_raw.min(), d_raw.max()
    density = np.zeros(n) if hi == lo else (d_raw - lo) / (hi - lo)
    return np.stack([kappa1, kappa2, density], axis=1)


def assemble_features(
    chem: np.ndarray, atom: np.ndarray, geom: np.ndarray, molecule_type: str, points: np.ndarray
) -> np.ndarray:
    """Fixed layout [4 chem | 6-or-8 atom | 3 geom | type flag | 3 coords]."""
    flag = 0.0 if molecule_type == "protein" else 1.0
    n = len(points)
    flags = np.full((n, 1), flag)
    out = np.concatenate([chem, atom, geom, flags, points], axis=1)
    expected = 17 if molecule_type == "protein" else 19
    if out.shape[1] != expected:
        raise SurfaceError(f"feature layout is {out.shape[1]}-D, expected {expected}")
    return out


# ---------------------------------------------------------------------------
# patch partition
# ---------------------------------------------------------------------------

def fps(points: np.ndarray, count, start: int | None = None) -> np.ndarray:
    """Greedy farthest-first selection; deterministic.

    ``count`` may be an int or a ratio in (0, 1]. The default start point
    maximizes distance from the centroid (ties to the lowest index).
    """
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    if isinstance(count, float):
        if not (0.0 < count <= 1.0):
            raise SurfaceError(f"fps ratio must lie in (0, 1], got {count}")
        count = max(1, int(round(count * n)))
    if count > n:
        raise SurfaceError(f"fps requested {count} of {n} points")
    if start is None:
        centroid = pts.mean(axis=0)
        start = int(np.argmax(np.linalg.norm(pts - centroid, axis=1)))
    chosen = np.empty(count, dtype=int)
    chosen[0] = start
    min_d = np.linalg.norm(pts - pts[start], axis=1)
    for i in range(1, count):
        nxt = int(np.argmax(min_d))
        chosen[i] = nxt
        np.minimum(min_d, np.linalg.norm(pts - pts[nxt], axis=1), out=min_d)
    return chosen


def knn(centers: np.ndarray, points: np.ndarray, k: int) -> np.ndarray:
    """(P, k) member table: the k nearest points per center (ties to the lowest index)."""
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    pts = np.asarray(points, dtype=float)
    if len(pts) < k:
        raise SurfaceError(f"knn needs at least k={k} points, got {len(pts)}")
    return neighbors.knn(centers, pts, k)[0]


# No stage calls the next two functions; they stay while perfbench/spans.py names them.
def pool_patch_stats(features: np.ndarray, member_indices: np.ndarray):
    """Per-patch mean and population variance over member features."""
    grouped = features[member_indices]             # (P, K, d)
    mean = grouped.mean(axis=1)
    var = grouped.var(axis=1)
    return mean, var


def interface_labels(
    points: np.ndarray,
    member_indices: np.ndarray,
    partner: np.ndarray | None,
    cutoff: float,
):
    """Patch label 1 iff any member point lies within ``cutoff`` of the partner."""
    n_patches = member_indices.shape[0]
    if partner is None or len(partner) == 0:
        return np.zeros(n_patches), False
    near = neighbors.distances(points, partner).min(axis=1) <= cutoff
    labels = near[member_indices].any(axis=1).astype(float)
    return labels, True


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------

def build_patches(cloud: SurfacePointCloud, cfg: RunConfig) -> PatchSet:
    """Partition a cloud into patches: farthest-point centers at the ratio
    ``rho`` (see :func:`fps`), each with its ``patch_k`` nearest members."""
    points = cloud.points
    centers = fps(points, float(cfg.rho))   # a float is a ratio, an int a count
    return PatchSet(centers, knn(points[centers], points, cfg.patch_k))


def build_surface(structure: MolecularStructure, cfg: RunConfig,
                  seed: int = 0) -> tuple[SurfacePointCloud, PatchSet]:
    """Run the full stage-1 construction for one structure."""
    rng = np.random.default_rng(seed)
    coords, radii = structure.coords, structure.radii
    is_protein = structure.molecule_type == "protein"
    m = cfg.m_for(structure.molecule_type, len(coords))
    per_atom = cfg.eta_protein if is_protein else cfg.eta_molecule
    cands = sample_candidates(structure, per_atom, cfg.sigma_upsample, rng, minimum=2 * m)
    points = project_to_isosurface(
        cands, coords, radii, cfg.r_probe, cfg.t_sdf, tol=cfg.projection_tol, m=m, rng=rng,
    )
    normals = estimate_normals(points, coords, radii)
    chem = chemical_features(points, structure, cfg.r_chem, cfg.r_probe, cfg.eps_omega)
    atom = atomic_features(points, structure, cfg.r_chem, cfg.r_probe, cfg.eps_omega)
    geom = geometric_features(points, normals, cfg.k_geom)
    features = assemble_features(chem, atom, geom, structure.molecule_type, points)
    cloud = SurfacePointCloud(points, normals, features, structure.molecule_type)
    return cloud, build_patches(cloud, cfg)
