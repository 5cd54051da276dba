"""Per-op references for computations the package builds as hand-VJP nodes.

``conv_geometry``, ``pairwise_omega``, ``pair_sweep`` and ``close_pairs`` are
the package's earlier implementations, kept as references: the hand-VJP forms
must give bitwise the same values and the same gradients up to rounding.
``attention``, ``mlp_head`` and ``bce`` are the op graphs that
``equivariant._attend``, ``PipelineModel._mlp_head`` and ``finetune.bce``
replace; those must match them bitwise in values and gradients. ``power``,
``cos``, ``exp``, ``einsum``, ``norm`` and ``transpose`` are the autodiff ops
those references were written in; no stage uses them any more, so they live
here, each built with ``ad.primitive`` and the numpy call and vjp the op had.
``smoothed_sdf`` is the distance field as a graph of those ops, the reference
for ``surface.sdf_value_grad``; ``sdf_value_grad`` is that kernel's earlier
numpy body, softmaxes and an einsum over (rows, 3, A) differences.
"""

import math

import numpy as np

from dockinv import autodiff as ad
from dockinv import equivariant as eq
from dockinv import neighbors
from dockinv.inversion import _pair_target, _tiebreak_axis


def power(a, p: float) -> ad.Tensor:
    a = ad.as_tensor(a)
    av, p = a.values, float(p)
    return ad.primitive(av**p, "power", (a,), lambda g: (g * p * av ** (p - 1.0),))


def cos(a) -> ad.Tensor:
    a = ad.as_tensor(a)
    av = a.values
    return ad.primitive(np.cos(av), "cos", (a,), lambda g: (-g * np.sin(av),))


def exp(a) -> ad.Tensor:
    a = ad.as_tensor(a)
    with np.errstate(over="ignore"):
        out = np.exp(a.values)
    return ad.primitive(out, "exp", (a,), lambda g: (g * out,))


def einsum(spec: str, a, b) -> ad.Tensor:
    """Two-operand ``np.einsum`` whose every subscript appears in two terms."""
    a, b = ad.as_tensor(a), ad.as_tensor(b)
    ins, _, so = spec.partition("->")
    sa, _, sb = ins.partition(",")
    av, bv = a.values, b.values
    return ad.primitive(np.einsum(spec, av, bv), "einsum", (a, b),
                        lambda g: (np.einsum(f"{so},{sb}->{sa}", g, bv),
                                   np.einsum(f"{so},{sa}->{sb}", g, av)))


def norm(a, axis: int = -1) -> ad.Tensor:
    """Euclidean norm along ``axis``. Exactly-zero vectors are a domain error."""
    a = ad.as_tensor(a)
    av = a.values
    sq = (av * av).sum(axis=axis, keepdims=True)
    if np.any(sq == 0.0):
        raise ad.DomainError("euclidean-norm of zero vector (gradient undefined)")
    out_kd = np.sqrt(sq)
    return ad.primitive(np.squeeze(out_kd, axis=axis), "euclidean-norm", (a,),
                        lambda g: (av / out_kd * np.expand_dims(g, axis),))


def transpose(a, axes=None) -> ad.Tensor:
    a = ad.as_tensor(a)
    inv = None if axes is None else np.argsort(axes)
    return ad.primitive(np.transpose(a.values, axes), "transpose", (a,),
                        lambda g: (np.transpose(g, inv),))


def attention(receptor, ligand, wq, wk, wv) -> ad.Tensor:
    """The attended matrix of ``equivariant.equivariant_attention`` as autodiff ops."""
    d = ad.as_tensor(receptor).shape[1]
    q = ad.matmul(receptor, wq)
    k = ad.matmul(ligand, wk)
    scores = ad.softmax(ad.mul(ad.matmul(q, transpose(k)), 1.0 / math.sqrt(d)), axis=1)
    return ad.matmul(scores, ad.matmul(ligand, wv))


def mlp_head(x, w1, b1, w2, b2, sigmoid: bool) -> ad.Tensor:
    """``model.PipelineModel._mlp_head`` as autodiff ops."""
    h = ad.tanh(ad.add(ad.matmul(x, w1), ad.reshape(b1, (1, -1))))
    out = ad.add(ad.matmul(h, w2), ad.reshape(b2, (1, -1)))
    return ad.sigmoid(out) if sigmoid else out


def bce(pred, target) -> ad.Tensor:
    """``finetune.bce`` as autodiff ops."""
    p = ad.clip(pred, 1e-7, 1.0 - 1e-7)
    t = np.asarray(target, dtype=float)
    return ad.neg(ad.add(ad.mul(t, ad.log(p)), ad.mul(1.0 - t, ad.log(ad.sub(1.0, p)))))


def smoothed_sdf(x, coords: np.ndarray, radii: np.ndarray) -> ad.Tensor:
    """The smoothed SDF at ``x`` ((3,) or (P, 3)) as autodiff ops.

    Value is ``-fbar(x) * log sum_j exp(-|x - c_j| / sigma_j)`` with ``fbar``
    the exp(-distance)-weighted mean radius, stabilized via log-sum-exp.
    """
    if np.size(coords) == 0:
        raise ad.DomainError("smoothed_sdf needs at least one atom")
    xt = ad.as_tensor(x)
    single = xt.ndim == 1
    pts = ad.reshape(xt, (-1, 1, 3))
    d = norm(ad.sub(pts, np.asarray(coords, dtype=float)[None, :, :]), axis=2)     # (P, A)
    s = ad.logsumexp(ad.mul(d, -1.0 / radii), axis=1)
    fbar = ad.reduce_sum(ad.mul(ad.softmax(ad.neg(d), axis=1), radii), axis=1)
    out = ad.neg(ad.mul(fbar, s))
    return out[0] if single else out


def radial_basis(basis: eq.RadialBasis, r: ad.Tensor) -> ad.Tensor:
    """``RadialBasis.evaluate`` as autodiff ops on a Tensor of edge lengths."""
    mask = (r.values < basis.cutoff).astype(float)
    env_raw = ad.mul(ad.add(cos(ad.div(ad.mul(r, np.pi), basis.cutoff)), 1.0), 0.5)
    env = ad.mul(env_raw, mask)
    rr = ad.reshape(r, (-1, 1))
    g = exp(ad.mul(power(ad.sub(rr, basis.centers[None, :]), 2.0), -basis.inv_two_sq))
    return ad.mul(g, ad.reshape(env, (-1, 1)))


def _sph_matrix(l: int, unit: ad.Tensor) -> ad.Tensor:
    """``equivariant._sph_matrix`` for l = 1, 2 as autodiff ops, product by product."""
    x, y, z = unit[:, 0], unit[:, 1], unit[:, 2]
    if l == 1:
        cols = [ad.mul(y, eq._C1), ad.mul(z, eq._C1), ad.mul(x, eq._C1)]
    else:
        xx, yy = ad.mul(x, x), ad.mul(y, y)
        cols = [
            ad.mul(ad.mul(x, eq._C2A), y),
            ad.mul(ad.mul(y, eq._C2A), z),
            ad.mul(ad.sub(ad.sub(ad.mul(ad.mul(z, 2.0), z), xx), yy), eq._C2B),
            ad.mul(ad.mul(z, eq._C2A), x),
            ad.mul(ad.sub(xx, yy), eq._C2C),
        ]
    return ad.concat([ad.reshape(c, (-1, 1)) for c in cols], axis=1)


def conv_geometry(coords, nbr_idx: np.ndarray, basis: eq.RadialBasis) -> dict:
    """``equivariant.conv_geometry`` with ``pool`` and ``sph`` built op by op."""
    n, k = nbr_idx.shape
    flat = nbr_idx.reshape(-1)
    src = np.repeat(np.arange(n), k)
    edge_scale = (flat != src).astype(float)[:, None, None] / k
    coords = ad.as_tensor(coords)
    dvec = ad.sub(ad.gather(coords, flat), ad.gather(coords, src))
    rsq = ad.reduce_sum(ad.mul(dvec, dvec), axis=1)
    r = power(ad.add(rsq, 1e-24), 0.5)
    unit = ad.div(dvec, ad.reshape(r, (-1, 1)))
    sph = {l_f: _sph_matrix(l_f, unit) for l_f in (1, 2)}
    pool = transpose(ad.reshape(radial_basis(basis, r), (n, k, basis.n_basis)), (0, 2, 1))
    return {"n": n, "k": k, "flat": flat, "edge_scale": edge_scale, "pool": pool,
            "sph": sph, "kc": {}}


def pairwise_omega(x: ad.Tensor, x_np: np.ndarray, r_chem: float, r_probe: float,
                   eps: float) -> ad.Tensor:
    """``inversion._pairwise_omega`` as autodiff ops."""
    n = x_np.shape[0]
    dist_np = neighbors.distances(x_np, x_np)
    mask = ((dist_np <= r_chem) & ~np.eye(n, dtype=bool)).astype(float)
    diff = ad.sub(ad.reshape(x, (n, 1, 3)), ad.reshape(x, (1, n, 3)))
    d = power(ad.add(ad.reduce_sum(ad.mul(diff, diff), axis=2), 1e-24), 0.5)
    omega_raw = ad.div(1.0, ad.add(ad.mul(d, 1.0 / r_probe), eps))
    self_weight = (1.0 / (1.0 + eps)) * np.eye(n)
    return ad.add(ad.mul(omega_raw, mask), self_weight)


def pair_sweep(pts: np.ndarray, bonded: np.ndarray, cfg) -> float:
    """``inversion._pair_sweep`` with two ``np.linalg.norm`` calls per pair."""
    n = len(pts)
    moved = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            d = float(np.linalg.norm(pts[j] - pts[i]))
            target = _pair_target(d, bool(bonded[i, j]), cfg)
            if target == d:
                continue
            axis = pts[j] - pts[i]
            norm = np.linalg.norm(axis)
            axis = axis / norm if norm > 1e-12 else _tiebreak_axis(i, j)
            shift = 0.5 * (target - d)
            pts[i] -= shift * axis
            pts[j] += shift * axis
            moved = max(moved, abs(shift))
    return moved


def close_pairs(dist: np.ndarray, lo: float, hi: float) -> list[tuple]:
    """``inversion._close_pairs`` as a sorted generator over every pair i < j."""
    n = dist.shape[0]
    return sorted(
        (dist[i, j], i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if lo <= dist[i, j] <= hi
    )


def sdf_value_grad(points, coords: np.ndarray, radii: np.ndarray):
    """The smoothed SDF and its gradient as the package computed them before its
    in-place kernel: explicit softmaxes ``q`` and ``p`` and an einsum, in one block."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    radii = np.asarray(radii, dtype=float)
    diff = points[:, :, None] - np.asarray(coords, dtype=float).T   # (P, 3, A)
    sq = diff * diff
    d = np.sqrt(sq[:, 0] + sq[:, 1] + sq[:, 2])                     # (P, A)

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

    w = (s * p * (radii - fbar) + fbar * q / radii) / np.maximum(d, 1e-12)
    return (-fbar * s)[:, 0], np.einsum("pka,pa->pk", diff, w)
