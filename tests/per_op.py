"""Per-op references for computations the package builds as hand-VJP nodes.

``conv_geometry``, ``conv``, ``pairwise_omega``, ``geom_block``,
``pair_sweep`` and ``close_pairs`` are the package's earlier
implementations, kept as references: the hand-VJP forms must give bitwise
the same values and the same gradients up to rounding. ``attention``,
``mlp_head``, ``pool``, ``confidence``, ``gate_order``, ``encoder_vec``,
``state_block``, ``pocket_loss``, ``interaction_loss``, ``affinity_loss`` and
``weighted_total`` are the op graphs that the package's other hand-VJP nodes
replace; those must match them bitwise in values and gradients. ``power``,
``cos``, ``exp``, ``einsum``, ``norm``, ``transpose``, ``div``, ``sigmoid``
and ``reduce_max`` are the autodiff ops those references were written in;
no stage uses them any more, so they live here, each built with
``ad.primitive`` and the numpy call and vjp the op had. ``softmax`` is
``ad.softmax`` written out apart from the package's copy, whose arithmetic
the hand-VJP nodes share. ``smoothed_sdf`` is
the distance field as a graph of those ops, the reference for
``surface.sdf_value_grad``; ``sdf_value_grad`` is that kernel's earlier
numpy body, softmaxes and an einsum over (rows, 3, A) differences.

``REGISTRY`` maps each op name the package passes to ``ad.primitive`` to a
function that makes its :class:`Case` list; ``tests/test_hand_vjp.py`` runs them and
``tests/test_package.py`` fails when an op has no entry.
"""

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from dockinv import autodiff as ad
from dockinv import equivariant as eq
from dockinv import finetune, inversion, model, neighbors, theory, toydata
from dockinv.inversion import _pair_target, _tiebreak_axis
from dockinv.model import HEAD_ORDERS, PipelineModel
from dockinv.structures import AA_ELEMENT_PROFILE
from dockinv.surface import build_cloud


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


def div(a, b) -> ad.Tensor:
    a, b = ad.as_tensor(a), ad.as_tensor(b)
    if (b.values == 0.0).any():
        raise ad.DomainError("division by zero")
    sa, sb, av, bv = a.shape, b.shape, a.values, b.values
    return ad.primitive(av / bv, "div", (a, b),
                        lambda g: (ad._unbroadcast(g / bv, sa),
                                   ad._unbroadcast(-g * av / (bv * bv), sb)))


def sigmoid(a) -> ad.Tensor:
    a = ad.as_tensor(a)
    out = ad.sigmoid_values(a.values)
    return ad.primitive(out, "sigmoid", (a,), lambda g: (g * out * (1.0 - out),))


def softmax(a, axis: int = -1) -> ad.Tensor:
    """``ad.softmax`` written out here, so that the references below do not
    share ``ad.softmax_values``/``ad.softmax_vjp`` with the nodes they check."""
    a = ad.as_tensor(a)
    e = np.exp(a.values - a.values.max(axis=axis, keepdims=True))
    out = e / e.sum(axis=axis, keepdims=True)
    return ad.primitive(out, "softmax", (a,),
                        lambda g: (out * (g - (g * out).sum(axis=axis, keepdims=True)),))


def reduce_max(a, axis=None, keepdims: bool = False) -> ad.Tensor:
    """The largest entry along ``axis``; the gradient goes to the first largest."""
    a = ad.as_tensor(a)
    av = a.values
    hit = av == np.max(av, axis=axis, keepdims=True)
    if axis is None:
        mask = np.zeros(a.size)
        mask[np.argmax(hit.reshape(-1))] = 1.0
        mask = mask.reshape(a.shape)
    else:
        mask = np.zeros(a.shape)
        np.put_along_axis(mask, np.expand_dims(np.argmax(hit, axis=axis), axis), 1.0, axis=axis)

    def vjp(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (mask * g,)

    return ad.primitive(np.max(av, axis=axis, keepdims=keepdims), "max", (a,), vjp)


def attention(receptor, ligand, wq, wk, wv) -> ad.Tensor:
    """The attended matrix of ``equivariant.equivariant_attention`` as autodiff ops."""
    d = ad.as_tensor(receptor).shape[1]
    q = ad.matmul(receptor, wq)
    k = ad.matmul(ligand, wk)
    scores = softmax(ad.mul(ad.matmul(q, transpose(k)), 1.0 / math.sqrt(d)), axis=1)
    return ad.matmul(scores, ad.matmul(ligand, wv))


def mlp_head(x, w1, b1, w2, b2, sigmoid_out: bool, shape: tuple) -> ad.Tensor:
    """``model.PipelineModel._mlp_head`` as autodiff ops: a list ``x`` is
    joined along its columns and a vector taken as one row."""
    if isinstance(x, list):
        x = ad.concat(x, axis=1)
    elif x.ndim == 1:
        x = ad.reshape(x, (1, -1))
    h = ad.tanh(ad.add(ad.matmul(x, w1), ad.reshape(b1, (1, -1))))
    out = ad.add(ad.matmul(h, w2), ad.reshape(b2, (1, -1)))
    return ad.reshape(sigmoid(out) if sigmoid_out else out, shape)


def confidence(pocket, y_int) -> ad.Tensor:
    """``model._confidence`` as autodiff ops."""
    return ad.mul(reduce_max(pocket), y_int)


def pool(receptor, attended) -> ad.Tensor:
    """``equivariant._pool`` as autodiff ops."""
    summary = ad.add(receptor, attended)
    return ad.concat([ad.reduce_mean(summary, axis=0), reduce_max(summary, axis=0)], axis=0)


def bce(pred, target) -> ad.Tensor:
    """Clamped binary cross-entropy, the op graph of ``finetune._BCE``."""
    p = ad.clip(pred, 1e-7, 1.0 - 1e-7)
    t = np.asarray(target, dtype=float)
    return ad.neg(ad.add(ad.mul(t, ad.log(p)), ad.mul(1.0 - t, ad.log(ad.sub(1.0, p)))))


def pocket_loss(pred, labels, geom_labels, lambda_p: float) -> ad.Tensor:
    """``finetune.pocket_loss`` as autodiff ops."""
    base = ad.reduce_mean(bce(pred, labels))
    dev = ad.sub(ad.clip(pred, 1e-7, 1.0 - 1e-7), np.asarray(geom_labels, dtype=float))
    reg = ad.reduce_mean(ad.mul(dev, dev))
    return ad.add(base, ad.mul(reg, lambda_p))


def interaction_loss(pocket_pred, int_pred, y_int) -> ad.Tensor:
    """``finetune.interaction_loss`` as autodiff ops."""
    n_r = pocket_pred.shape[0]
    int_pred = ad.gather(ad.reshape(int_pred, (1,)), np.zeros(n_r, dtype=int))
    return ad.reduce_mean(ad.mul(pocket_pred, bce(int_pred, y_int)))


def affinity_loss(gate, pred_dg, target_dg: float, tau_conf: float) -> ad.Tensor:
    """``finetune.affinity_loss`` as autodiff ops."""
    w = ad.clip(gate, tau_conf, None)
    err = ad.sub(pred_dg, float(target_dg))
    return ad.mul(w, ad.mul(err, err))


def weighted_total(lp, li, lg, alpha: float, beta: float) -> ad.Tensor:
    """``finetune.weighted_total`` as autodiff ops."""
    return ad.add(ad.add(ad.mul(lp, alpha), ad.mul(li, beta)), lg)


def gate_order(scalars, l: int, c: int, channel) -> ad.Tensor:
    """``equivariant._gate_order`` as autodiff ops."""
    if channel is None:
        return ad.tanh(scalars[:, :c, :])
    return ad.mul(channel, sigmoid(scalars[:, c * l:c * (l + 1), :]))


def encoder_vec(points) -> ad.Tensor:
    """The order-1 channel of ``equivariant.encoder_input`` as autodiff ops."""
    points = ad.as_tensor(points)
    rel = ad.sub(points, points[:1])
    rel = ad.sub(rel, ad.reduce_mean(rel, axis=0, keepdims=True))
    return ad.reshape(ad.mul(rel, 0.1)[:, [1, 2, 0]], (points.shape[0], 1, 3))


# indicator rows over MOLECULE_TYPES = (C.sp3, C.sp2, H, O.sp3, O.sp2, N.sp3, N.sp2, S.sp2)
_SET_ONS = np.array([0, 0, 0, 1, 1, 1, 1, 1], dtype=float)
_SET_ON = np.array([0, 0, 0, 1, 1, 1, 1, 0], dtype=float)
_SET_CS = np.array([1, 1, 0, 0, 0, 0, 0, 1], dtype=float)
_SET_C = np.array([1, 1, 0, 0, 0, 0, 0, 0], dtype=float)


def _neighborhood_average(omega, denom, values) -> ad.Tensor:
    if values.ndim == 1:
        values = ad.reshape(values, (-1, 1))
    return div(ad.matmul(omega, values), denom)


def state_block(omega, f, geom, molecule_type: str) -> ad.Tensor:
    """``inversion._state_block`` as autodiff ops: ``inversion.state_features``
    as it ran before that node, given its omega weights and geom descriptors."""
    f = ad.as_tensor(f)
    n = f.shape[0]
    denom = ad.matmul(omega, np.ones((n, 1)))
    if molecule_type == "small-molecule":
        logits = ad.add(f[:, 0:8], ad.matmul(f[:, 9:11], inversion._HYB_MAP.T))
        p = softmax(logits, axis=1)
        charge = f[:, 8]
        polarity = f[:, 11]
        hb_atom = ad.mul(ad.matmul(p, _SET_ONS[:, None]), ad.reshape(sigmoid(polarity), (n, 1)))
        chg_atom = ad.matmul(p, (_SET_ON - _SET_CS)[:, None])
        phob_atom = ad.matmul(p, _SET_C[:, None])
        atom_block = _neighborhood_average(omega, denom, p)
        charge_shift = ad.tanh(_neighborhood_average(omega, denom, charge))
        flag = 1.0
    else:
        p = softmax(f[:, 0:20], axis=1)
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

    h_bond = _neighborhood_average(omega, denom, hb_atom)
    chg = ad.clip(ad.add(_neighborhood_average(omega, denom, chg_atom),
                         ad.mul(charge_shift, 0.25)), -1.0, 1.0)
    phob = _neighborhood_average(omega, denom, phob_atom)
    aro = ad.clip(ad.mul(phob, 1.0 / 4.5), 0.0, 1.0)
    chem_block = ad.concat([h_bond, chg, phob, aro], axis=1)
    flags = np.full((n, 1), flag)
    return ad.concat([chem_block, atom_block, geom, ad.constant(flags)], axis=1)


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
    env_raw = ad.mul(ad.add(cos(div(ad.mul(r, np.pi), basis.cutoff)), 1.0), 0.5)
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
    unit = div(dvec, ad.reshape(r, (-1, 1)))
    sph = {l_f: _sph_matrix(l_f, unit) for l_f in (1, 2)}
    pool = transpose(ad.reshape(radial_basis(basis, r), (n, k, basis.n_basis)), (0, 2, 1))
    return {"n": n, "k": k, "flat": flat, "edge_scale": edge_scale, "pool": pool,
            "sph": sph, "kc": {}}


def geom_block(x, x_np, k_geom):
    """inversion._geom_block as about 59 autodiff ops, as it ran before its
    hand-written vjp: the same numpy calls in the same order."""
    n = x_np.shape[0]
    k = min(k_geom, n - 1)
    nbr, _ = neighbors.knn(x_np, x_np, k, exclude_self=True)
    nbr_pts = ad.reshape(ad.gather(x, nbr.reshape(-1)), (n, k, 3))
    mu = ad.reduce_mean(nbr_pts, axis=1, keepdims=True)
    c = ad.sub(nbr_pts, mu)
    cov = {}
    for a in range(3):
        for b in range(a, 3):
            cov[(a, b)] = ad.reduce_mean(ad.mul(c[:, :, a], c[:, :, b]), axis=1)
    trace = ad.add(ad.add(cov[(0, 0)], cov[(1, 1)]), cov[(2, 2)])
    det = ad.sub(
        ad.add(
            ad.mul(cov[(0, 0)], ad.sub(ad.mul(cov[(1, 1)], cov[(2, 2)]),
                                       ad.mul(cov[(1, 2)], cov[(1, 2)]))),
            ad.mul(cov[(0, 2)], ad.sub(ad.mul(cov[(0, 1)], cov[(1, 2)]),
                                       ad.mul(cov[(1, 1)], cov[(0, 2)])))),
        ad.mul(cov[(0, 1)], ad.sub(ad.mul(cov[(0, 1)], cov[(2, 2)]),
                                   ad.mul(cov[(1, 2)], cov[(0, 2)]))),
    )
    diffs = ad.sub(nbr_pts, ad.reshape(x, (n, 1, 3)))
    dists = power(ad.add(ad.reduce_sum(ad.mul(diffs, diffs), axis=2), 1e-24), 0.5)
    d_raw = ad.reduce_mean(dists, axis=1)
    density = div(d_raw, ad.add(d_raw, 2.0))
    return ad.concat([ad.reshape(ad.mul(trace, 0.1), (n, 1)), ad.reshape(det, (n, 1)),
                      ad.reshape(density, (n, 1))], axis=1)


def bmm(a, b):
    """Batched matmul (B, n, k) @ (B, k, m) as one node."""
    return ad.primitive(a.values @ b.values, "bmm", (a, b),
                        lambda g: (g @ b.values.transpose(0, 2, 1), a.values.transpose(0, 2, 1) @ g))


def conv(layer, params, field, geom, orders=None):
    """The conv as about ten autodiff ops per path, as it ran before the
    one-node-per-order primitive: the same numpy calls in the same order,
    over the paths into ``orders`` (default: every output order). Each
    path's coupled harmonics are an op over ``geom["sph"]``, cached in
    ``geom["kc"]`` as a Tensor."""
    n, k, flat, pool = geom["n"], geom["k"], geom["flat"], geom["pool"]
    n_basis = layer.basis.n_basis
    orders = layer.layout_out if orders is None else orders
    gathered, sums = {}, {}
    for (l_in, l_f, l_out) in layer.paths:
        if l_out not in orders:
            continue
        c_in, c_out = layer.layout_in[l_in], layer.layout_out[l_out]
        ni, no = 2 * l_in + 1, 2 * l_out + 1
        if l_in not in gathered:
            gathered[l_in] = ad.gather(field.channels[l_in], flat)
        cg = eq.coupling_tensor(l_out, l_f, l_in)
        if l_f == 0:
            kc = cg[:, 0, :].T * (eq._C0 / k)
            y = ad.matmul(ad.reshape(gathered[l_in], (-1, ni)), kc)
        else:
            kc = geom["kc"].get((l_out, l_f, l_in))
            if kc is None:
                kc = ad.mul(einsum("ef,fio->eio", geom["sph"][l_f], cg.transpose(1, 2, 0)),
                            geom["edge_scale"])
                geom["kc"][(l_out, l_f, l_in)] = kc
            y = bmm(gathered[l_in], kc)
        pooled = bmm(pool, ad.reshape(y, (n, k, c_in * no)))
        rows = transpose(ad.reshape(pooled, (n, n_basis, c_in, no)), (0, 3, 1, 2))
        w = ad.reshape(params[f"{layer.name}.w{l_in}{l_f}{l_out}"], (n_basis * c_in, c_out))
        msg = ad.matmul(ad.reshape(rows, (n * no, n_basis * c_in)), w)
        sums[l_out] = msg if l_out not in sums else ad.add(sums[l_out], msg)
    out = {l: transpose(ad.reshape(s, (n, 2 * l + 1, -1)), (0, 2, 1)) for l, s in sums.items()}
    bias_key = f"{layer.name}.bias0"
    if 0 in out and bias_key in params:
        out[0] = ad.add(out[0], ad.reshape(params[bias_key], (1, -1, 1)))
    return eq.IrrepsField(out)


def pairwise_omega(x: ad.Tensor, x_np: np.ndarray, r_chem: float, r_probe: float,
                   eps: float) -> ad.Tensor:
    """``inversion._pairwise_omega`` as autodiff ops."""
    n = x_np.shape[0]
    dist_np = neighbors.distances(x_np, x_np)
    mask = ((dist_np <= r_chem) & ~np.eye(n, dtype=bool)).astype(float)
    diff = ad.sub(ad.reshape(x, (n, 1, 3)), ad.reshape(x, (1, n, 3)))
    d = power(ad.add(ad.reduce_sum(ad.mul(diff, diff), axis=2), 1e-24), 0.5)
    omega_raw = div(1.0, ad.add(ad.mul(d, 1.0 / r_probe), eps))
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


# ---------------------------------------------------------------------------
# registry: each op name the package passes to ad.primitive, with its cases
# ---------------------------------------------------------------------------

@dataclass
class Case:
    """One check of a hand-VJP node against its op graph.

    ``node`` and ``reference`` take the ``data`` arrays and then the
    ``weights``, each lifted to a grad-requiring Tensor (a weight may also
    come as its numpy array), and return one Tensor. Values must match
    bitwise; gradients bitwise when ``grad_rtol`` is 0, else to that
    fraction of the largest reference entry (the nodes that predate the
    registry differentiate with other arithmetic than their op graphs).
    ``grad_check`` is off for a case that sits on a clamp's kink;
    ``check_step`` is the central-difference step of the one that runs.
    """

    node: Callable
    reference: Callable
    data: list
    weights: list = field(default_factory=list)
    grad_rtol: float = 0.0
    grad_check: bool = True
    check_step: float = 1e-6


REGISTRY: dict[str, Callable[[], list[Case]]] = {}


def _cases(op: str):
    def register(make):
        REGISTRY[op] = make
        return make
    return register


def _edge_geometry(n: int, seed: int):
    """Toy points, their conv neighbour table (self-edges included) and basis."""
    cfg = toydata.toy_config()
    pts = np.random.default_rng(seed).standard_normal((n, 3)) * 2.0
    return pts, eq.knn_indices(pts, cfg.conv_k), eq.RadialBasis(cfg.conv_cutoff,
                                                                 cfg.n_radial_basis)


@_cases("radial-pool")
def _radial_pool():
    pts, nbr, basis = _edge_geometry(16, 40)
    return [Case(lambda x: eq.conv_geometry(x, nbr, basis)["pool"],
                 lambda x: conv_geometry(x, nbr, basis)["pool"], [pts], grad_rtol=1e-12)]


@_cases("edge-harmonics")
def _edge_harmonics():
    pts, nbr, basis = _edge_geometry(16, 41)
    n, k = nbr.shape
    # a self-edge has no direction to differentiate, and the conv reads none
    neighbour = (nbr.reshape(-1) != np.repeat(np.arange(n), k)).astype(float)[:, None]

    def harmonics(build):
        return lambda x: ad.mul(ad.concat(list(build(x, nbr, basis)["sph"].values()), axis=1),
                                neighbour)

    return [Case(harmonics(eq.conv_geometry), harmonics(conv_geometry), [pts], grad_rtol=1e-12)]


@_cases("conv")
def _conv():
    pts, nbr, basis = _edge_geometry(16, 42)
    n, k = nbr.shape
    geom = eq.conv_geometry(pts, nbr, basis)
    layer = eq.ConvLayer("c", {0: 3, 1: 2, 2: 2}, {0: 3, 1: 2}, basis)
    rng = np.random.default_rng(43)
    names = sorted(layer.param_shapes())
    weights = [rng.standard_normal(layer.param_shapes()[key]) / 3.0 for key in names]
    data = [geom["pool"].values, geom["sph"][1].values, geom["sph"][2].values,
            *(rng.standard_normal((n, c, 2 * l + 1)) for l, c in layer.layout_in.items())]

    def build(apply):
        def fn(pool, s1, s2, c0, c1, c2, *w):
            g = {**geom, "pool": pool, "sph": {1: s1, 2: s2}, "kc": {}}
            out = apply(layer, dict(zip(names, w)), eq.IrrepsField({0: c0, 1: c1, 2: c2}), g)
            return ad.concat([ad.reshape(out.channels[l], (-1,)) for l in (0, 1)])
        return fn

    return [Case(build(eq.ConvLayer.apply), build(conv), data, weights, grad_rtol=1e-12)]


@_cases("encoder-input")
def _encoder_input():
    pts = np.random.default_rng(44).standard_normal((12, 3)) * 2.0
    feats = np.ones((12, 4))
    return [Case(lambda p: eq.encoder_input(feats, p).channels[1], encoder_vec, [pts])]


@_cases("gate")
def _gate():
    rng = np.random.default_rng(45)
    c = 2
    data = [rng.standard_normal((10, 3 * c, 1)), rng.standard_normal((10, c, 3)),
            rng.standard_normal((10, c, 5))]

    def build(order):
        return lambda s, c1, c2: ad.concat(
            [ad.reshape(order(s, l, c, ch), (-1,)) for l, ch in ((0, None), (1, c1), (2, c2))])

    return [Case(build(eq._gate_order), build(gate_order), data)]


@_cases("attention")
def _attention():
    rng = np.random.default_rng(30)
    d = 6
    receptor, ligand = rng.standard_normal((40, d)), rng.standard_normal((24, d))
    weights = [rng.standard_normal((d, d)) / 2.0 for _ in range(3)]

    def node(r, lig, wq, wk, wv):
        return eq.equivariant_attention(r, lig, {"attn.wq": wq, "attn.wk": wk, "attn.wv0": wv})[0]

    # stage 4's case: a constant receptor field, gradients for the ligand only
    fixed = ad.constant(receptor)
    return [Case(node, attention, [receptor, ligand], weights),
            Case(lambda *a: node(fixed, *a), lambda *a: attention(fixed, *a), [ligand], weights)]


@_cases("pool")
def _pool():
    rng = np.random.default_rng(46)
    receptor, attended = rng.standard_normal((30, 6)), rng.standard_normal((30, 6))
    fixed = ad.constant(receptor)
    return [Case(eq._pool, pool, [receptor, attended]),
            Case(lambda a: eq._pool(fixed, a), lambda a: pool(fixed, a), [attended])]


@_cases("mlp-head")
def _mlp_head():
    mdl = PipelineModel(toydata.toy_config())
    rng = np.random.default_rng(31)
    weights = [rng.standard_normal((12, 16)) / 3.0, rng.standard_normal(16),
               rng.standard_normal((16, 1)) / 4.0, rng.standard_normal(1)]
    own = rng.standard_normal((30, 6))

    def build(x_of, sigmoid_out, shape):
        def node(*args):
            x, (w1, b1, w2, b2) = x_of(args[:-4]), args[-4:]
            params = {"h.w1": w1, "h.b1": b1, "h.w2": w2, "h.b2": b2}
            return mdl._mlp_head(params, "h", x, sigmoid_out, shape)

        def reference(*args):
            return mlp_head(x_of(args[:-4]), *args[-4:], sigmoid_out, shape)

        return node, reference

    cases = []
    for x_of, data, sigmoid_out, shape in (
            (lambda a: a[0], [rng.standard_normal((30, 12))], True, (30,)),
            (lambda a: a[0], [rng.standard_normal((1, 12))], False, (1, 1)),
            (lambda a: a[0], [rng.standard_normal(12)], True, ()),
            (lambda a: a[0], [rng.standard_normal(12)], False, ()),
            # the pocket head's input: a constant receptor block next to the attended one
            (lambda a: [ad.constant(own), a[0]], [rng.standard_normal((30, 6))], True, (-1,)),
            (lambda a: list(a), [own, rng.standard_normal((30, 6))], True, (-1,))):
        cases.append(Case(*build(x_of, sigmoid_out, shape), data, weights))
    return cases


@_cases("confidence")
def _confidence():
    rng = np.random.default_rng(47)
    return [Case(model._confidence, confidence,
                 [rng.uniform(0.05, 0.95, 30), np.array(rng.uniform(0.05, 0.95))])]


@_cases("pocket-loss")
def _pocket_loss():
    rng = np.random.default_rng(32)
    pred = rng.uniform(0.05, 0.95, 200)
    geom_labels = rng.integers(0, 2, 200) * 1.0
    clamp = np.array([0.0, 1e-7, 0.5, 1.0 - 1e-7, 1.0])
    cases = [Case(lambda p, t=t: finetune.pocket_loss(p, t, geom_labels, 0.3),
                  lambda p, t=t: pocket_loss(p, t, geom_labels, 0.3), [pred])
             for t in (rng.integers(0, 2, 200) * 1.0, rng.uniform(0.0, 1.0, 200), 1.0)]
    # at and beyond the clamp the clip masks zero the gradient, with labels
    # and with a scalar target
    return cases + [Case(lambda p, t=t: finetune.pocket_loss(p, t, clamp, 0.3),
                         lambda p, t=t: pocket_loss(p, t, clamp, 0.3), [clamp], grad_check=False)
                    for t in (np.array([1.0, 0.0, 1.0, 1.0, 0.0]), clamp > 0.4, 0.0)]


@_cases("interaction-loss")
def _interaction_loss():
    rng = np.random.default_rng(48)
    pocket = rng.uniform(0.05, 0.95, 50)
    return [Case(lambda p, i, y=y: finetune.interaction_loss(p, i, y),
                 lambda p, i, y=y: interaction_loss(p, i, y), [pocket, np.array(i_pred)],
                 grad_check=check)
            for y, i_pred, check in ((1.0, 0.37, True), (0.3, 0.81, True), (0.0, 1.0, False))]


@_cases("affinity-loss")
def _affinity_loss():
    cfg = toydata.toy_config()
    return [Case(lambda g, p: finetune.affinity_loss(g, p, -1.0, cfg.tau_conf),
                 lambda g, p: affinity_loss(g, p, -1.0, cfg.tau_conf),
                 [np.array(gate), np.array(-0.3)])
            for gate in (0.6, 0.5 * cfg.tau_conf)]


@_cases("weighted-total")
def _weighted_total():
    cfg = toydata.toy_config()
    return [Case(lambda lp, li, lg: finetune.weighted_total(lp, li, lg, cfg),
                 lambda lp, li, lg: weighted_total(lp, li, lg, cfg.alpha, cfg.beta),
                 [np.array(0.7), np.array(0.4), np.array(1.3)])]


@_cases("state-features")
def _state_features():
    cfg = toydata.toy_config()
    rng = np.random.default_rng(49)
    cases = []
    # the protein's projected output sums 196 terms whose magnitudes add to
    # about 45 while the sum is 2.4: at step 1e-6 their rounding (about
    # 3e-9 on a 5e-6 entry) exceeds grad_check's allowance, which scales with
    # the sum; at 1e-4 the check keeps its margin (max_rel_err 6e-8)
    for molecule_type, width, step in (("small-molecule", 12, 1e-6), ("protein", 25, 1e-4)):
        x = rng.standard_normal((14, 3)) * 2.0
        omega = inversion._pairwise_omega(ad.constant(x), x, cfg.r_chem, cfg.r_probe,
                                          cfg.eps_omega).values
        data = [omega, rng.standard_normal((14, width)), rng.standard_normal((14, 3))]
        cases.append(Case(lambda o, f, g, t=molecule_type: inversion._state_block(o, f, g, t),
                          lambda o, f, g, t=molecule_type: state_block(o, f, g, t), data,
                          check_step=step))
    return cases


@_cases("omega")
def _omega():
    cfg = toydata.toy_config()
    x_np = np.random.default_rng(22).standard_normal((12, 3)) * 2.0
    args = (x_np, cfg.r_chem, cfg.r_probe, cfg.eps_omega)
    return [Case(lambda x: inversion._pairwise_omega(x, *args),
                 lambda x: pairwise_omega(x, *args), [x_np], grad_rtol=1e-12)]


@_cases("geom-block")
def _geom_block():
    x_np = np.random.default_rng(20).standard_normal((12, 3))
    return [Case(lambda x: inversion._geom_block(x, x_np, 6), lambda x: geom_block(x, x_np, 6),
                 [x_np], grad_rtol=1e-12)]


@_cases("objective")
def _objective():
    """``theory.objective_of``'s node holds F and its gradient; its reference
    is the graph composite_objective differentiates, built afresh."""
    cfg = toydata.toy_config()
    mdl = PipelineModel(cfg)
    params = mdl.init_params(0)
    cloud = build_cloud(toydata.fixture_receptor(), cfg, seed=11)
    ctx = inversion.prepare_receptor(mdl, params, cloud)
    state = inversion.initial_state(ctx, mdl, params, cfg, "small-molecule", 0)
    frozen = inversion.frozen_structure(state, ctx, mdl, cfg)

    def reference(x):
        f = ad.Tensor(state.f, requires_grad=x.requires_grad)
        feats = inversion.state_features(x, f, state.molecule_type, cfg)
        geom = eq.conv_geometry(x, frozen["nbr"], mdl.encoder_for(state.molecule_type).basis)
        z_l = mdl.encode(params, feats, x, state.molecule_type, geom=geom, orders=HEAD_ORDERS)
        terms = finetune.complex_terms(mdl, params, ctx.field(), z_l, frozen["y_geom"],
                                       frozen["y_geom"], 1.0, cfg.dg_target, cfg)
        return finetune.weighted_total(*terms[:3], cfg)

    # the node scales its stored gradient by the seed last, the graph first
    return [Case(theory.objective_of("x", state, ctx, mdl, params, cfg, frozen), reference,
                 [state.x], grad_rtol=1e-12)]
