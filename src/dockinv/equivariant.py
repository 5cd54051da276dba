"""Rotation-equivariant building blocks: harmonics, tensor-field convolution,
order-wise rotation operators, and scalar-scored cross-attention.

Per-point features live in an :class:`IrrepsField`, a dict of channels indexed
by angular order ``l``; the order-``l`` channel has shape ``(N, c_l, 2l+1)``.
Order 0 is rotation-invariant; higher orders transform by the operators from
:func:`rotation_operator`, which are built numerically from the harmonics'
transformation rule. Component order follows the harmonics: the ``l=1`` basis
is ``(y, z, x)``.

The encoder lifts numpy points and features to constant Tensors (numpy
weights are read in place), so receptors (no grad), training samples
(parameter grads) and ligand states (coordinate grads) run the same code;
``requires_grad`` on the inputs decides what the graph keeps.

The encoder's output holds orders 0 and 1, the orders the stages read: order
0 (attention and the heads) and orders 0 and 1 (pretraining's patch tokens).
Each caller names the output orders it reads (``orders`` of
:meth:`Encoder.apply` and :meth:`ConvLayer.apply`): the last conv layer runs
only the paths into those orders, and each order it returns is bitwise the
one an encode over both orders returns. Attention attends order 0 only.

Harmonic and hidden orders stop at 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import neighbors
from .autodiff import Tensor

__all__ = [
    "IrrepsField",
    "RadialBasis",
    "EquivariantError",
    "rotation_operator",
    "coupling_tensor",
    "allowed_paths",
    "random_rotation",
    "ConvLayer",
    "Encoder",
    "encoder_input",
    "equivariant_attention",
    "knn_indices",
]

_C0 = 1.0 / (2.0 * math.sqrt(math.pi))
_C1 = math.sqrt(3.0 / (4.0 * math.pi))
_C2A = 0.5 * math.sqrt(15.0 / math.pi)
_C2B = 0.25 * math.sqrt(5.0 / math.pi)
_C2C = 0.25 * math.sqrt(15.0 / math.pi)


class EquivariantError(ValueError):
    pass


def _sph_matrix(l: int, unit: np.ndarray) -> np.ndarray:
    """(E, 2l+1) real orthonormal harmonics of order ``l`` at the (E, 3) unit directions."""
    x, y, z = unit[:, 0], unit[:, 1], unit[:, 2]
    if l == 0:
        cols = [x * 0.0 + _C0]
    elif l == 1:
        cols = [_C1 * y, _C1 * z, _C1 * x]
    elif l == 2:
        cols = [
            _C2A * x * y,
            _C2A * y * z,
            _C2B * (2.0 * z * z - x * x - y * y),
            _C2A * z * x,
            _C2C * (x * x - y * y),
        ]
    else:
        raise EquivariantError(f"unsupported harmonic order {l}")
    return np.stack(cols, axis=-1)


def _sph_matrix_vjp(l: int, unit: np.ndarray, g: np.ndarray) -> np.ndarray:
    """(E, 3) gradient on the directions of the (E, 2l+1) harmonics' gradient ``g``."""
    x, y, z = unit[:, 0], unit[:, 1], unit[:, 2]
    if l == 1:
        return _C1 * g[:, [2, 0, 1]]
    g0, g1, g2, g3, g4 = g.T
    return np.stack([
        _C2A * (y * g0 + z * g3) + x * (2.0 * _C2C * g4 - 2.0 * _C2B * g2),
        _C2A * (x * g0 + z * g1) - y * (2.0 * _C2B * g2 + 2.0 * _C2C * g4),
        _C2A * (y * g1 + x * g3) + z * (4.0 * _C2B * g2),
    ], axis=1)


# ---------------------------------------------------------------------------
# rotation operators and coupling coefficients
# ---------------------------------------------------------------------------

_FIT_DIRS = None


def _fit_dirs() -> np.ndarray:
    global _FIT_DIRS
    if _FIT_DIRS is None:
        rng = np.random.default_rng(20240001)
        v = rng.standard_normal((9, 3))
        _FIT_DIRS = v / np.linalg.norm(v, axis=1, keepdims=True)
    return _FIT_DIRS


def rotation_operator(l: int, rotation: np.ndarray) -> np.ndarray:
    """Order-``l`` operator D with Y_l(R u) = D Y_l(u).

    l=0 is the identity; l=1 is the rotation in (y, z, x) component order;
    l=2 is solved from harmonic evaluations at fixed generic directions.
    """
    r = np.asarray(rotation, dtype=float)
    if l == 0:
        return np.eye(1)
    if l == 1:
        perm = [1, 2, 0]
        return r[np.ix_(perm, perm)]
    if l == 2:
        v = _fit_dirs()
        a = _sph_matrix(2, v)
        b = _sph_matrix(2, v @ r.T)
        d_t, *_ = np.linalg.lstsq(a, b, rcond=None)
        return d_t.T
    raise EquivariantError(f"unsupported rotation order {l}")


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform-ish random rotation via QR with a deterministic sign fix."""
    m = rng.standard_normal((3, 3))
    q, r = np.linalg.qr(m)
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 2] = -q[:, 2]
    return q


_COUPLING_CACHE: dict[tuple[int, int, int], np.ndarray] = {}
_COUPLING_OPERATORS = None


def _coupling_operators() -> list[dict[int, np.ndarray]]:
    """Order-0/1/2 operators of the four fixed rotations that constrain every
    coupling solve, built once per process."""
    global _COUPLING_OPERATORS
    if _COUPLING_OPERATORS is None:
        rng = np.random.default_rng(20240002)
        rotations = [random_rotation(rng) for _ in range(4)]
        _COUPLING_OPERATORS = [{l: rotation_operator(l, rot) for l in range(3)}
                               for rot in rotations]
    return _COUPLING_OPERATORS


def coupling_tensor(l_out: int, l_f: int, l_in: int) -> np.ndarray:
    """Real coupling coefficients C[m_out, m_f, m_in] intertwining
    Y_{l_f} (x) f_{l_in} -> order l_out.

    Solved once per triple as the (one-dimensional) nullspace of the
    equivariance constraint over four fixed rotations, normalized to unit
    Frobenius norm with a deterministic sign.
    """
    key = (l_out, l_f, l_in)
    if key in _COUPLING_CACHE:
        return _COUPLING_CACHE[key]
    if not abs(l_f - l_in) <= l_out <= l_f + l_in:
        raise EquivariantError(f"path (l_in={l_in}, l_f={l_f}, l_out={l_out}) violates triangle rule")
    no, nf, ni = 2 * l_out + 1, 2 * l_f + 1, 2 * l_in + 1
    blocks = []
    for ops in _coupling_operators():
        d_fi = np.kron(ops[l_f], ops[l_in])
        # constraint D_out T = T D_fi on T of shape (no, nf*ni)
        blocks.append(np.kron(np.eye(nf * ni), ops[l_out]) - np.kron(d_fi.T, np.eye(no)))
    system = np.vstack(blocks)
    _, s, vh = np.linalg.svd(system, full_matrices=False)
    null_dim = int(np.sum(s < 1e-8 * max(float(s.max()), 1.0)))
    if null_dim != 1:
        raise EquivariantError(f"coupling space for {key} has dimension {null_dim}")
    t = vh[-1].reshape(nf * ni, no).T  # column-major vec inverse
    t = t / np.linalg.norm(t)
    flat = t.reshape(-1)
    lead = flat[np.argmax(np.abs(flat))]
    if lead < 0:
        t = -t
    tensor = t.reshape(no, nf, ni)
    _COUPLING_CACHE[key] = tensor
    return tensor


def allowed_paths(layout_in: dict[int, int], orders_out):
    """All (l_in, l_f, l_out) triples, l_f = 0..2, within the triangle rule."""
    paths = []
    for l_in in sorted(layout_in):
        for l_f in range(3):
            for l_out in orders_out:
                if abs(l_in - l_f) <= l_out <= l_in + l_f:
                    paths.append((l_in, l_f, l_out))
    return paths


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

@dataclass
class IrrepsField:
    """Per-point equivariant features: ``channels[l]`` has shape (N, c_l, 2l+1)."""

    channels: dict[int, object]  # numpy arrays or Tensors

    def __post_init__(self):
        for l, ch in self.channels.items():
            if ch.shape[-1] != 2 * l + 1:
                raise EquivariantError(
                    f"order-{l} channel has width {ch.shape[-1]}, expected {2 * l + 1}"
                )

    def values(self) -> dict[int, np.ndarray]:
        return {
            l: (ch.values if isinstance(ch, Tensor) else np.asarray(ch))
            for l, ch in self.channels.items()
        }


# ---------------------------------------------------------------------------
# radial basis
# ---------------------------------------------------------------------------

class RadialBasis:
    """Gaussian bumps on [0, cutoff] under a smooth cosine cutoff envelope."""

    def __init__(self, cutoff: float, n_basis: int = 8):
        self.cutoff = float(cutoff)
        self.n_basis = int(n_basis)
        self.centers = np.linspace(0.0, self.cutoff, self.n_basis)
        spacing = self.cutoff / max(self.n_basis - 1, 1)
        self.inv_two_sq = 1.0 / (2.0 * spacing * spacing)

    def evaluate(self, r: np.ndarray) -> np.ndarray:
        """(E, n_basis) basis values at the (E,) edge lengths ``r``."""
        mask = (r < self.cutoff).astype(float)
        env = ((np.cos((r * np.pi) / self.cutoff) + 1.0) * 0.5) * mask
        g = np.exp(((r.reshape(-1, 1) - self.centers) ** 2.0) * -self.inv_two_sq)
        return g * env.reshape(-1, 1)

    def derivative(self, r: np.ndarray) -> np.ndarray:
        """(E, n_basis) derivatives of :meth:`evaluate` in ``r``."""
        mask = (r < self.cutoff).astype(float)
        arg = (r * np.pi) / self.cutoff
        env = ((np.cos(arg) + 1.0) * 0.5) * mask
        d_env = (-0.5 * np.pi / self.cutoff) * np.sin(arg) * mask
        diff = r.reshape(-1, 1) - self.centers
        g = np.exp((diff ** 2.0) * -self.inv_two_sq)
        return g * (d_env.reshape(-1, 1) - (2.0 * self.inv_two_sq) * diff * env.reshape(-1, 1))


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

def knn_indices(points: np.ndarray, k: int) -> np.ndarray:
    """(N, min(k, N)) conv neighbour table over one point set, each point included."""
    return neighbors.knn(points, points, k)[0]


def conv_geometry(coords, nbr_idx: np.ndarray, basis: RadialBasis) -> dict:
    """Edge quantities shared by every conv layer over one neighbor table.

    ``pool`` (n, n_basis, k) holds each point's radial basis values over its
    k neighbours, laid out to pool a path's per-edge products with one
    batched matmul; ``sph[l_f]`` (E, 2 l_f + 1) holds the order-l_f harmonics
    of the edge directions, for l_f = 1, 2. Each is one autodiff node
    (ops ``"radial-pool"`` and ``"edge-harmonics"``) computed in numpy, whose
    one parent is ``coords`` lifted with :func:`ad.as_tensor`: they are
    differentiable through positions exactly when ``coords`` requires grad,
    and a vjp saves only the edge arrays its gradient reads.

    ``edge_scale`` (E, 1, 1) is 1/k on a neighbour edge and 0 on a self-edge,
    whose direction is zero: it masks every l_f > 0 path and carries the
    neighbour mean's 1/k. ``kc`` starts empty: :meth:`ConvLayer.apply` fills
    one numpy entry per (l_out, l_f, l_in) path with l_f > 0 the first time
    the path runs, and every later layer or encode over this geometry reuses
    it.
    """
    n, k = nbr_idx.shape
    flat = nbr_idx.reshape(-1)
    src = np.repeat(np.arange(n), k)
    edge_scale = (flat != src).astype(float)[:, None, None] / k
    coords = ad.as_tensor(coords)
    x = coords.values
    dvec = x[flat] - x[src]
    r = ((dvec * dvec).sum(axis=1) + 1e-24) ** 0.5
    unit = dvec / r.reshape(-1, 1)
    n_basis = basis.n_basis
    pool_v = np.ascontiguousarray(basis.evaluate(r).reshape(n, k, n_basis).transpose(0, 2, 1))
    pool_vjp = sph_vjp = None
    if coords.requires_grad:
        d_basis = basis.derivative(r)                                   # (E, n_basis)

        def edges_to_points(g_dvec):
            # dvec = x[flat] - x[src], and src repeats each point k times
            return (ad.scatter_add(flat, g_dvec, n) - g_dvec.reshape(n, k, 3).sum(axis=1),)

        def pool_vjp(g):
            # dr / d dvec = dvec / r = unit, the 1e-24 notwithstanding
            g_r = (g.transpose(0, 2, 1).reshape(-1, n_basis) * d_basis).sum(axis=1)
            return edges_to_points(unit * g_r.reshape(-1, 1))

        def sph_vjp(l_f):
            def vjp(g):
                g_unit = _sph_matrix_vjp(l_f, unit, g)
                radial = (g_unit * unit).sum(axis=1, keepdims=True)
                return edges_to_points((g_unit - unit * radial) / r.reshape(-1, 1))
            return vjp

    pool = ad.primitive(pool_v, "radial-pool", (coords,), pool_vjp)
    sph = {l_f: ad.primitive(_sph_matrix(l_f, unit), "edge-harmonics", (coords,),
                             None if sph_vjp is None else sph_vjp(l_f))
           for l_f in (1, 2)}
    return {"n": n, "k": k, "flat": flat, "edge_scale": edge_scale, "pool": pool,
            "sph": sph, "kc": {}}


class ConvLayer:
    """One tensor-field convolution with per-path learnable radial mixing.

    Output at point i is the mean of messages from its neighbor list: the
    order-l_f harmonic of the edge direction couples an order-l_in input
    channel into an order-l_out output through fixed coupling coefficients,
    mixed from c_in to c_out channels by a learned radial function of the
    edge length. Self-edges contribute only through l_f = 0 paths.

    The radial function is linear in the basis, ``sum_b phi_b(r) W_b``, so a
    path first pools its coupled inputs over the neighbours once per basis
    function (``geom["pool"]``) and then applies the (n_basis * c_in, c_out)
    weights once per point. No per-edge weight matrix is formed.

    Each output order is one autodiff node (op ``"conv"``) with a
    hand-written vjp, built by :func:`_conv_order` over every path into that
    order. Its parents are ``geom["pool"]`` and, of the input channels, the
    edge harmonics ``geom["sph"][l_f]`` of its l_f > 0 paths, each path's
    weight and (order 0) the bias, those that are grad-requiring Tensors;
    through ``pool`` and ``sph`` coordinate gradients reach
    :func:`conv_geometry`. Weights and bias given as numpy arrays are read in
    place. A path's coupled harmonics ``kc`` are a numpy constant of the
    geometry, cached in ``geom["kc"]``, that the node differentiates through
    itself. The vjp scatters each input channel's per-edge gradient back to
    its points with :func:`ad.scatter_add`, path by path onto a running sum.
    """

    def __init__(self, name: str, layout_in: dict[int, int], layout_out: dict[int, int],
                 basis: RadialBasis):
        self.name = name
        self.layout_in = dict(layout_in)
        self.layout_out = dict(layout_out)
        self.basis = basis
        self.paths = allowed_paths(layout_in, sorted(layout_out))

    def param_shapes(self) -> dict[str, tuple]:
        shapes = {}
        for (l_in, l_f, l_out) in self.paths:
            key = f"{self.name}.w{l_in}{l_f}{l_out}"
            shapes[key] = (self.basis.n_basis, self.layout_in[l_in] * self.layout_out[l_out])
        for l_out, c in self.layout_out.items():
            if l_out == 0:
                shapes[f"{self.name}.bias0"] = (c,)
        return shapes

    def apply(self, params: dict, field: IrrepsField, geom: dict, orders=None) -> IrrepsField:
        """The output field over ``orders`` (default: every order of ``layout_out``).

        Only the paths into those orders run, so an order left out costs
        nothing and fills no ``geom["kc"]`` entry; each order computed is
        bitwise the same as in a call over every order.
        """
        orders = set(self.layout_out if orders is None else orders)
        if not orders <= self.layout_out.keys():
            raise EquivariantError(f"{self.name} has no output orders {sorted(orders)}; "
                                   f"its layout is {self.layout_out}")
        k = geom["k"]
        channels = {l: ad.as_tensor(ch) for l, ch in field.channels.items()}
        gathered = {l: ch.values[geom["flat"]] for l, ch in channels.items()}   # (E, c_in, ni)
        terms: dict[int, list] = {}
        for (l_in, l_f, l_out) in self.paths:
            if l_out not in orders:
                continue
            cg = coupling_tensor(l_out, l_f, l_in)                             # (no, nf, ni)
            sph = None
            if l_f == 0:
                kc = np.ascontiguousarray(cg[:, 0, :].T * (_C0 / k))           # (ni, no) constant
            else:
                sph = geom["sph"][l_f]
                kc = geom["kc"].get((l_out, l_f, l_in))
                if kc is None:
                    # (E, ni, no): coupling contracted with the harmonics,
                    # scaled by edge_scale, laid out for the per-edge product
                    kc = (np.einsum("ef,fio->eio", sph.values,
                                    np.ascontiguousarray(cg.transpose(1, 2, 0)))
                          * geom["edge_scale"])
                    geom["kc"][(l_out, l_f, l_in)] = kc
            terms.setdefault(l_out, []).append(
                (l_in, kc, sph, cg, params[f"{self.name}.w{l_in}{l_f}{l_out}"]))
        bias = params.get(f"{self.name}.bias0")
        out = {l_out: _conv_order(terms[l_out], channels, gathered, geom, self.basis.n_basis,
                                  bias if l_out == 0 else None)
               for l_out in sorted(terms)}
        return IrrepsField(out)


def _conv_order(terms: list, channels: dict, gathered: dict, geom: dict, n_basis: int,
                bias) -> Tensor:
    """The (n, c_out, 2 l_out + 1) output of every path into one order, as one node.

    ``terms`` holds one ``(l_in, kc, sph, cg, w)`` per path, ``cg`` its
    (no, nf, ni) coupling: ``kc`` is the (ni, no) constant coupling of an
    l_f = 0 path (``sph`` None) or the (E, ni, no) numpy coupled harmonics of
    an l_f > 0 path, ``cg`` contracted with the (E, nf) harmonics Tensor
    ``sph`` and scaled by ``edge_scale``. A path computes ``y = G @ kc`` per
    edge (G the gathered input channel), pools it with ``pool @ y``, lays the
    result out as one row per (point, output component) and applies its
    weights ``w``; the paths' messages are summed, then ``bias`` is added.
    ``w`` and ``bias`` are Tensors or numpy arrays.

    The parents are ``pool`` and the grad-requiring channels, harmonics,
    weights and bias; the vjp maps ``G^T g_y`` through ``edge_scale`` and the
    coupling onto ``sph``. It keeps G only for an ``sph`` that requires grad,
    y only when ``pool`` does, and a path's rows only when its weight does.
    A channel's gradient is scattered with :func:`ad.scatter_add` as each
    path's per-edge block is made, starting from the sum of the paths before
    it: each point sums its edges' terms path by path, edge by edge, in the
    order a scatter per path into a zeroed array would, so the result is
    bitwise that sequence, and only one path's block is alive at a time.
    """
    n, k, flat, pool = geom["n"], geom["k"], geom["flat"], geom["pool"]
    pool_v = pool.values
    edge_scale = geom["edge_scale"].reshape(-1, 1)
    parents, slots = [pool], {}

    def slot(t) -> int | None:
        """Position of a grad-requiring parent; None for one that needs no gradient."""
        if not isinstance(t, Tensor) or not t.requires_grad:
            return None
        if id(t) not in slots:
            slots[id(t)] = len(parents)
            parents.append(t)
        return slots[id(t)]

    def values(t) -> np.ndarray:
        return t.values if isinstance(t, Tensor) else t

    # the vjp reads these records, never the parent Tensors: a parent in the
    # closure would keep an intermediate field alive for as long as the graph
    s, saved = None, []
    for l_in, kc, sph, cg, w in terms:
        G = gathered[l_in]
        c_in, ni = G.shape[1:]
        no = kc.shape[-1]
        w_mat = values(w).reshape(n_basis * c_in, -1)
        if kc.ndim == 3:
            y = G @ kc                                                          # (E, c_in, no)
        else:
            y = G.reshape(-1, ni) @ kc                                          # (E*c_in, no)
        pooled = pool_v @ y.reshape(n, k, c_in * no)                        # (n, n_basis, c_in*no)
        # one row per (point, output component), one column per (basis, input channel)
        rows = pooled.reshape(n, n_basis, c_in, no).transpose(0, 3, 1, 2).reshape(n * no, -1)
        msg = rows @ w_mat                                                      # (n*no, c_out)
        s = msg if s is None else s + msg
        ch_slot, sph_slot, w_slot = slot(channels[l_in]), slot(sph), slot(w)
        saved.append((ch_slot, G.shape, None if ch_slot is None else kc, sph_slot, cg,
                      None if sph_slot is None else G, w_slot, w.shape, w_mat,
                      y if pool.requires_grad else None, None if w_slot is None else rows))
        # freed before the next path allocates its own: paths into one order
        # have the same sizes, so keeping them doubles the forward's peak
        del y, pooled, rows
    out = s.reshape(n, no, -1).transpose(0, 2, 1)
    bias_slot = None
    if bias is not None:
        out = out + values(bias).reshape(1, -1, 1)
        bias_slot = slot(bias)
    n_parents = len(parents)

    def accumulate(grads, i, g):
        grads[i] = g if grads[i] is None else grads[i] + g

    def vjp(g):
        grads = [None] * n_parents
        gs = g.transpose(0, 2, 1).reshape(n * no, -1)                          # (n*no, c_out)
        if bias_slot is not None:
            grads[bias_slot] = g.sum(axis=(0, 2))
        for ch_slot, g_shape, kc, sph_slot, cg, G, w_slot, w_shape, w_mat, y, rows in saved:
            if rows is not None:
                grads[w_slot] = (rows.T @ gs).reshape(w_shape)
            if ch_slot is None and sph_slot is None and y is None:
                continue
            e, c_in, ni = g_shape
            g_pooled = (gs @ w_mat.T).reshape(n, no, n_basis, c_in).transpose(0, 2, 3, 1)
            g_pooled = g_pooled.reshape(n, n_basis, c_in * no)
            if y is not None:
                accumulate(grads, 0, g_pooled @ y.reshape(n, k, c_in * no).transpose(0, 2, 1))
            if ch_slot is None and sph_slot is None:
                continue
            g_y = pool_v.transpose(0, 2, 1) @ g_pooled                          # (n, k, c_in*no)
            if sph_slot is not None:
                # kc = einsum("ef,fio->eio", sph, cg^T) * edge_scale
                g_kc = G.transpose(0, 2, 1) @ g_y.reshape(e, c_in, no)          # (E, ni, no)
                cg_io = cg.transpose(2, 0, 1).reshape(ni * no, -1)              # (ni*no, nf)
                accumulate(grads, sph_slot, (g_kc.reshape(e, -1) @ cg_io) * edge_scale)
            if ch_slot is None:
                continue
            if kc.ndim == 2:
                g_g = g_y.reshape(-1, no) @ kc.T                               # (E*c_in, ni)
            else:
                g_g = g_y.reshape(e, c_in, no) @ kc.transpose(0, 2, 1)         # (E, c_in, ni)
            # each path's block is scattered onto its channel's running sum
            # at once, in path order, as the op graph added each path's
            # gather gradient: only one path's block is alive at a time
            grads[ch_slot] = ad.scatter_add(flat, g_g.reshape(g_shape), n,
                                            start=grads[ch_slot])
        return tuple(grads)

    return ad.primitive(out, "conv", tuple(parents), vjp)


# ---------------------------------------------------------------------------
# encoder
# ---------------------------------------------------------------------------

def encoder_input(features, points) -> IrrepsField:
    """Build the encoder input Tensor field from a stage-1 feature matrix
    (numpy or Tensor ``features`` and ``points``).

    Every feature column enters as a scalar; the points enter as one order-1
    channel of centered positions (in harmonic component order), which keeps
    the encoder translation-invariant.
    Centring works on differences from the first point (``rel - rel.mean(0)``
    with ``rel = points - points[0]``): the same function as ``points -
    points.mean(0)``, but a shift that keeps those differences exact (for
    example half-integer points moved by whole numbers) leaves the field
    bitwise unchanged, whereas the rounding of a mean over absolute
    coordinates depends on where the cloud sits.

    The order-1 channel is one node (op ``"encoder-input"``). It repeats the
    numpy expressions of the slice, ``ad.sub``, ``ad.reduce_mean``,
    ``ad.mul`` and ``ad.reshape`` ops it replaces and chains their vjps; it
    lists ``points`` twice as a parent, once for the difference and once for
    the first point it subtracts, so the backward sweep adds those two
    gradients to the points' in the op graph's order, and values and
    gradients are bitwise those of the op graph.
    """
    scalars = ad.as_tensor(features)
    points = ad.as_tensor(points)
    n, c = scalars.shape
    pv = points.values
    rel = pv - pv[:1]
    centred = rel - rel.mean(axis=0, keepdims=True)
    vec = (centred * 0.1)[:, [1, 2, 0]].reshape(n, 1, 3)

    def vjp(g):
        g_vec = np.zeros((n, 3))
        g_vec[:, [1, 2, 0]] = g.reshape(n, 3)
        g_centred = g_vec * 0.1
        g_mean = (-g_centred).sum(axis=(0,), keepdims=True)
        g_rel = g_centred + np.broadcast_to(g_mean, (n, 3)).copy() / n
        g_first = np.zeros((n, 3))
        g_first[:1] = (-g_rel).sum(axis=(0,), keepdims=True)
        return g_rel, g_first

    return IrrepsField({
        0: ad.reshape(scalars, (n, c, 1)),
        1: ad.primitive(vec, "encoder-input", (points, points), vjp),
    })


class Encoder:
    """Two gated tensor-field conv layers producing an order-0/1 field.

    ``enc0`` maps the input field (``{0: n_scalar_in, 1: 1}``) to 3c scalars
    and c channels each of orders 1 and 2; the gate passes c scalars through
    tanh and scales the order-1 and order-2 channels by sigmoids of the other
    2c. ``enc1`` maps that field to c channels each of orders 0 and 1
    (``out_layout``), the orders the stages read.

    Its parameter names are ``{prefix}enc{i}.w{l_in}{l_f}{l_out}`` and
    ``{prefix}enc{i}.bias0``, so one flat dict can hold several encoders.
    """

    def __init__(self, n_scalar_in: int, cfg, prefix: str = ""):
        c = self.mult = cfg.multiplicity
        self.conv_k = cfg.conv_k
        self.basis = RadialBasis(cfg.conv_cutoff, cfg.n_radial_basis)
        self.out_layout = {0: c, 1: c}
        self.layers = [
            ConvLayer(f"{prefix}enc0", {0: n_scalar_in, 1: 1}, {0: 3 * c, 1: c, 2: c}, self.basis),
            ConvLayer(f"{prefix}enc1", {0: c, 1: c, 2: c}, self.out_layout, self.basis),
        ]

    def param_shapes(self) -> dict[str, tuple]:
        shapes = {}
        for layer in self.layers:
            shapes.update(layer.param_shapes())
        return shapes

    def _gate(self, field: IrrepsField) -> IrrepsField:
        return IrrepsField({l: _gate_order(field.channels[0], l, self.mult,
                                           field.channels[l] if l else None)
                            for l in (0, 1, 2)})

    def apply(self, params: dict, features, points, geom: dict | None = None,
              orders=None) -> IrrepsField:
        """Encode one cloud. ``features``/``points`` may be numpy or Tensors.

        Pass a precomputed ``geom`` (from :func:`conv_geometry`) to skip the
        per-call edge geometry when encoding the same cloud repeatedly.

        ``orders`` (default: both orders of ``out_layout``) picks the output
        orders. ``enc0`` always computes every order, since each output order
        reads all of them; ``enc1`` runs only the paths into ``orders``, and
        each order returned is bitwise the one a call over both orders
        returns.
        """
        points = ad.as_tensor(points)
        if geom is None:
            geom = conv_geometry(points, knn_indices(points.values, self.conv_k), self.basis)
        enc0, enc1 = self.layers
        hidden = self._gate(enc0.apply(params, encoder_input(features, points), geom))
        return enc1.apply(params, hidden, geom, orders)


def _gate_order(scalars: Tensor, l: int, c: int, channel: Tensor | None) -> Tensor:
    """Order ``l`` of the encoder's gate as one node (op ``"gate"``).

    Order 0 is ``tanh`` of the first c scalars; order l > 0 is ``channel``
    scaled by the sigmoid of scalars ``c*l .. c*(l+1)``. The forward repeats
    the numpy expressions of the slice, tanh, sigmoid and ``ad.mul`` ops it
    replaces (``tests/per_op.py::gate_order``), and the vjp chains their
    vjps: the scalars' gradient is a zero array holding the block, as a
    slice's is, so values and gradients are bitwise those of the op graph.
    """
    sv = scalars.values
    block = (slice(None), slice(c * l, c * (l + 1)), slice(None))
    part = np.ascontiguousarray(sv[block])
    s_on = scalars.requires_grad

    def to_scalars(g_part):
        g_s = np.zeros(sv.shape)
        g_s[block] = g_part
        return g_s

    if channel is None:
        out = np.tanh(part)
        return ad.primitive(out, "gate", (scalars,),
                            lambda g: (to_scalars(g * (1.0 - out * out)),))
    cv = channel.values
    sig = ad.sigmoid_values(part)
    c_on = channel.requires_grad

    def vjp(g):
        g_s = None
        if s_on:
            g_sig = (g * cv).sum(axis=(2,), keepdims=True)
            g_s = to_scalars(g_sig * sig * (1.0 - sig))
        return (g * sig if c_on else None), g_s

    return ad.primitive(cv * sig, "gate", (channel, scalars), vjp)


# ---------------------------------------------------------------------------
# attention
# ---------------------------------------------------------------------------

def equivariant_attention(receptor: Tensor, ligand: Tensor, params: dict):
    """Scalar-scored cross-attention between order-0 feature matrices.

    ``receptor`` (n_r, d) and ``ligand`` (n_l, d) are the order-0 channels of
    two fields, their width-1 component axis dropped; order 0 is invariant,
    so the scores are rigid-motion invariant. No stage reads an attended
    higher order, so only order 0 is attended. Returns (attended (n_r, d)
    matrix, fused vector, score matrix). The attended matrix is one autodiff
    node (:func:`_attend`); the score matrix is its (n_r, n_l) softmax
    weights as a numpy array, outside the graph. The fused vector, of length
    2d, is mean- and max-pooling over receptor points of the sum of original
    and attended features.
    """
    if ligand.shape[0] == 0:
        raise ad.DomainError("equivariant attention needs a non-empty ligand field")
    attended, scores = _attend(receptor, ligand, params["attn.wq"], params["attn.wk"],
                               params["attn.wv0"])
    return attended, _pool(ad.as_tensor(receptor), attended), scores


def _pool(receptor: Tensor, attended: Tensor) -> Tensor:
    """``[mean | max]`` over rows of ``receptor + attended`` as one node (op
    ``"pool"``). The forward repeats the numpy expressions of the add, mean,
    max and concat ops it replaces (``tests/per_op.py::pool``), and the vjp
    chains their vjps (the max routes to the first maximal row), so values
    and gradients are bitwise those of the op graph."""
    summary = receptor.values + attended.values
    n, d = summary.shape
    top = np.max(summary, axis=0)
    out = np.concatenate([summary.mean(axis=0), top])
    if not (receptor.requires_grad or attended.requires_grad):
        return ad.primitive(out, "pool", (receptor, attended), None)
    first = np.argmax(summary == top, axis=0)

    def vjp(g):
        g_mean, g_max = np.ascontiguousarray(g[:d]), np.ascontiguousarray(g[d:])
        g_sum = np.broadcast_to(g_mean.reshape(1, d), (n, d)).copy() / n
        mask = np.zeros((n, d))
        mask[first, np.arange(d)] = 1.0
        g_sum = g_sum + mask * g_max.reshape(1, d)
        return g_sum, g_sum

    return ad.primitive(out, "pool", (receptor, attended), vjp)


def _attend(receptor: Tensor, ligand: Tensor, wq, wk, wv):
    """The attended (n_r, d) matrix ``softmax(q k^T / sqrt(d)) v`` as one node
    (op ``"attention"``), and its softmax weights as a numpy array.

    ``q = receptor @ wq``, ``k = ligand @ wk`` and ``v = ligand @ wv``; a
    weight is a Tensor (then a parent) or a numpy array, read in place. The
    forward repeats the numpy expressions of ``ad.matmul``, ``ad.mul`` and
    ``ad.softmax`` over a C-ordered copy of ``k^T``, and the vjp chains those
    ops' vjps in the order the backward sweep ran them, so values and
    gradients are bitwise those of the op-by-op graph.
    """
    operands = (receptor, ligand, wq, wk, wv)
    parents = tuple(t for t in operands if isinstance(t, Tensor))
    rv, lv, wq_v, wk_v, wv_v = (t.values if isinstance(t, Tensor) else t for t in operands)
    r_on, l_on, wq_on, wk_on, wv_on = (isinstance(t, Tensor) and t.requires_grad
                                       for t in operands)
    scale = 1.0 / math.sqrt(rv.shape[1])
    q = rv @ wq_v
    kT = np.ascontiguousarray((lv @ wk_v).T)
    scaled = (q @ kT) * scale
    scores = ad.softmax_values(scaled, 1)
    v = lv @ wv_v
    attended = scores @ v

    def vjp(g):
        g_r = g_l = g_wq = g_wk = g_wv = None
        if l_on or wv_on:
            g_v = scores.T @ g
            g_l = g_v @ wv_v.T if l_on else None
            g_wv = lv.T @ g_v if wv_on else None
        if r_on or l_on or wq_on or wk_on:
            g_s = g @ v.T
            g_qk = ad.softmax_vjp(scores, g_s, 1) * scale
            if r_on or wq_on:
                g_q = g_qk @ kT.T
                g_r = g_q @ wq_v.T if r_on else None
                g_wq = rv.T @ g_q if wq_on else None
            if l_on or wk_on:
                g_k = np.transpose(q.T @ g_qk)
                if l_on:
                    g_l = g_k @ wk_v.T + g_l
                g_wk = lv.T @ g_k if wk_on else None
        grads = (g_r, g_l, g_wq, g_wk, g_wv)
        return tuple(gt for gt, t in zip(grads, operands) if isinstance(t, Tensor))

    return ad.primitive(attended, "attention", parents, vjp), scores
