"""Reverse-mode automatic differentiation over dense float64 arrays.

Every differentiable quantity in the pipeline is carried by :class:`Tensor`,
a thin immutable wrapper around a numpy array that records the operation
which produced it. Calling :func:`backward` on a scalar builds a :class:`Tape`
(a topological ordering of the reachable graph) and accumulates gradients in
one reverse sweep, visiting each node exactly once.

Besides the elementwise, linear-algebra and structural primitives here, a
module may build a larger computation as one graph node with
:func:`primitive`: it runs the forward in numpy and hands over a hand-written
vjp. The vjp closure keeps the arrays its gradients read, and a no-grad
call keeps nothing, since no graph records its vjp. Its output is checked
for finiteness once, like any op output; its intermediates are not. These
are built this way:

- the encoder's edge geometry (``equivariant.conv_geometry``: the radial
  pool and the edge harmonics), its order-1 input channel
  (``equivariant.encoder_input``), its convolution
  (``equivariant.ConvLayer.apply``, one node per output order) and its gate
  (one node per order);
- the attended block of ``equivariant.equivariant_attention`` (q, k and v
  projections, scaled scores, softmax and value mix) and its mean/max
  pooling;
- the pocket, interaction and affinity heads
  (``model.PipelineModel._mlp_head``), the affinity gate, the three loss
  terms of ``finetune`` and their weighted total;
- the ligand descriptors of ``inversion.state_features``
  (``_pairwise_omega``, ``_geom_block`` and ``_state_block``).

Every node except the geometry, conv, omega and geom-block nodes repeats
the numpy expressions of the ops it replaces and chains those ops' vjps,
summing the gradients that several ops sent to one input in the order the
op graph's backward sweep did, so its values and gradients are bitwise
those of the op graph. ``tests/per_op.py`` keeps each op graph and
``tests/test_hand_vjp.py`` checks every node against it. Every gradient
scatter (a gather's vjp, and those of the conv, geometry and geom-block
nodes) goes through :func:`scatter_add`.

Each op pays a fixed Python cost, so the core keeps it small: a binary op
lets numpy broadcast and turns numpy's ``ValueError`` into a
:class:`ShapeError` naming both shapes, and op outputs skip the coercion of
``Tensor.__init__``.

Only first-order gradients are supported. All values are float64.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "ShapeError",
    "DomainError",
    "ContractError",
    "GradCheckReport",
    "as_tensor",
    "constant",
    "param",
    "backward",
    "grad_check",
    "primitive",
    "add",
    "sub",
    "mul",
    "neg",
    "matmul",
    "log",
    "sigmoid_values",
    "tanh",
    "clip",
    "softmax",
    "softmax_values",
    "softmax_vjp",
    "logsumexp",
    "gather",
    "scatter_add",
    "concat",
    "reduce_sum",
    "reduce_mean",
    "reduce_min",
    "reshape",
]


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested primitive."""


class DomainError(ValueError):
    """Input lies outside the mathematical domain of the primitive."""


class ContractError(ValueError):
    """A caller violated an interface contract (wrong arity, unknown op, ...)."""


_node_counter = itertools.count()


def _check_finite(values: np.ndarray, op: str) -> None:
    # a finite sum proves every entry finite; only a non-finite sum (a NaN or
    # inf entry, or a sum that overflows) needs the elementwise scan. On a
    # freshly computed op output the sum is the faster test at every size
    # from 1e3 to 4e6 entries (5-40%, 2-core VM), so no size starts with the scan.
    if not math.isfinite(np.add.reduce(values, None)) and not np.isfinite(values).all():
        raise DomainError(f"non-finite values produced by '{op}'")


class _Node:
    """Graph record of one grad-requiring op output, without its values.

    ``parents`` holds the graph entries of the op's grad-requiring inputs
    (their ``_Node``, or the tensor itself for a leaf) and ``slots`` their
    positions in the vjp's output. The vjp closure saves only the arrays its
    gradients read, so an intermediate whose values no vjp reads is freed as
    soon as the forward code drops its tensor.
    """

    __slots__ = ("op", "parents", "slots", "vjp")

    def __init__(self, op: str, parents: tuple, vjp: Callable[[np.ndarray], tuple]):
        entries, slots = [], []
        for slot, p in enumerate(parents):
            if p.requires_grad:
                entries.append(p._node if p._node is not None else p)
                slots.append(slot)
        self.op = op
        self.parents = tuple(entries)
        self.slots = tuple(slots)
        self.vjp = vjp


class Tensor:
    """Immutable value in the differentiation graph.

    ``values`` is always a C-contiguous float64 array. ``requires_grad``
    propagates from parents; gradient accumulation only touches the
    grad-requiring subgraph, and ``grad`` is filled on grad-requiring leaves
    only. A grad-requiring op output keeps its graph in a values-free
    ``_Node``; a tensor computed without any grad-requiring parent records no
    ``parents`` and no vjp, so a no-grad evaluation keeps no intermediate
    alive once its tensors are dropped.

    The constructor makes leaves and constants and copies what it is given.
    Op outputs, including those of a :func:`primitive` with a hand-written
    vjp, are built by ``_make`` without that coercion: a fresh C-contiguous
    float64 array is frozen in place, and only a scalar or a non-contiguous
    view is copied. Every tensor, leaf or op output, draws the next
    ``node_id``.
    """

    __slots__ = ("values", "requires_grad", "grad", "op", "_node", "node_id")

    def __init__(self, values, requires_grad: bool = False, op: str = "leaf"):
        # external arrays are always copied so callers keep theirs writable
        # (and 0-d shapes are preserved)
        arr = np.array(values, dtype=np.float64, order="C")
        arr.flags.writeable = False
        self.values = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self.op = op
        self._node = None
        self.node_id = next(_node_counter)

    @property
    def parents(self) -> tuple:
        """Graph entries of the grad-requiring inputs; empty for a leaf or a no-grad value."""
        return self._node.parents if self._node is not None else ()

    @property
    def shape(self) -> tuple:
        return self.values.shape

    @property
    def ndim(self) -> int:
        return self.values.ndim

    @property
    def size(self) -> int:
        return self.values.size

    def item(self) -> float:
        if self.values.size != 1:
            raise ContractError(f"item() on tensor of shape {self.shape}")
        return float(self.values.reshape(()))

    def backward(self, seed=None) -> "Tape":
        return backward(self, seed)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, op={self.op!r}, requires_grad={self.requires_grad})"

    def __getitem__(self, key):
        return _getitem(self, key)


def as_tensor(x) -> Tensor:
    """Lift numpy arrays / scalars to constant tensors; pass tensors through."""
    if isinstance(x, Tensor):
        return x
    return Tensor(x, requires_grad=False, op="const")


def constant(x) -> Tensor:
    return Tensor(x, requires_grad=False, op="const")


def param(x) -> Tensor:
    return Tensor(x, requires_grad=True, op="param")


# reshape only moves entries: its output is finite when its input is a
# checked op output; leaves (params, constants) are never checked on entry
_LEAF_OPS = frozenset({"leaf", "const", "param"})


def _make(values, op, parents, vjp) -> Tensor:
    # a fresh C-contiguous float64 result is frozen in place; anything else
    # (a numpy scalar, a transposed or sliced view) becomes a C-ordered copy
    if (type(values) is not np.ndarray or values.dtype != np.float64
            or not values.flags.c_contiguous):
        values = np.array(values, dtype=np.float64, order="C")
    if op != "reshape" or any(p.op in _LEAF_OPS for p in parents):
        _check_finite(values, op)
    values.flags.writeable = False
    t = object.__new__(Tensor)
    t.values = values
    t.grad = None
    t.op = op
    for p in parents:
        if p.requires_grad:
            t.requires_grad = True
            t._node = _Node(op, parents, vjp)
            break
    else:
        t.requires_grad = False
        t._node = None
    t.node_id = next(_node_counter)
    return t


def primitive(values: np.ndarray, op: str, parents: tuple,
              vjp: Callable[[np.ndarray], tuple] | None) -> Tensor:
    """One graph node for a computation with a hand-written vjp.

    ``values`` is the forward result, computed in numpy from the ``values``
    of ``parents`` (a tuple of Tensors); a fresh C-contiguous array is frozen
    in place and becomes the output's, so the caller must not write to it
    afterwards. ``vjp(g)`` returns one gradient per
    parent, in order, each of its parent's shape; it is called only when some
    parent requires grad, and may return None for a parent that does not.
    The output is checked for finiteness under the name ``op``. The vjp
    closure should hold only the arrays its gradients read, and only for
    parents that require grad: the graph keeps it until the backward sweep.
    """
    return _make(values, op, parents, vjp)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _shape_error(a: Tensor, b: Tensor, op: str) -> ShapeError:
    return ShapeError(f"'{op}' cannot broadcast shapes {a.shape} and {b.shape}")


# ---------------------------------------------------------------------------
# elementwise primitives
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        out = a.values + b.values
    except ValueError:
        raise _shape_error(a, b, "add") from None
    sa, sb = a.shape, b.shape
    return _make(out, "add", (a, b), lambda g: (_unbroadcast(g, sa), _unbroadcast(g, sb)))


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        out = a.values - b.values
    except ValueError:
        raise _shape_error(a, b, "sub") from None
    sa, sb = a.shape, b.shape
    return _make(out, "sub", (a, b), lambda g: (_unbroadcast(g, sa), _unbroadcast(-g, sb)))


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        out = a.values * b.values
    except ValueError:
        raise _shape_error(a, b, "mul") from None
    sa, sb = a.shape, b.shape
    # each operand's values are saved only for the other operand's gradient
    av = a.values if b.requires_grad else None
    bv = b.values if a.requires_grad else None

    def vjp(g):
        return (None if bv is None else _unbroadcast(g * bv, sa),
                None if av is None else _unbroadcast(g * av, sb))

    return _make(out, "mul", (a, b), vjp)


def neg(a) -> Tensor:
    a = as_tensor(a)
    return _make(-a.values, "neg", (a,), lambda g: (-g,))


def log(a) -> Tensor:
    a = as_tensor(a)
    if np.any(a.values <= 0.0):
        raise DomainError("log of non-positive input")
    av = a.values
    out = np.log(av)
    return _make(out, "log", (a,), lambda g: (g / av,))


def sigmoid_values(a: np.ndarray) -> np.ndarray:
    """The logistic function of a numpy array, split by sign so no exp overflows,
    for hand-VJP nodes that apply one."""
    out = np.empty_like(a)
    pos = a >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-a[pos]))
    e = np.exp(a[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def tanh(a) -> Tensor:
    a = as_tensor(a)
    out = np.tanh(a.values)
    return _make(out, "tanh", (a,), lambda g: (g * (1.0 - out * out),))


def clip(a, lo=None, hi=None) -> Tensor:
    a = as_tensor(a)
    lo_v = -np.inf if lo is None else float(lo)
    hi_v = np.inf if hi is None else float(hi)
    out = np.clip(a.values, lo_v, hi_v)
    mask = ((a.values > lo_v) & (a.values < hi_v)).astype(np.float64) if a.requires_grad else None
    return _make(out, "clip", (a,), lambda g: (g * mask,))


# ---------------------------------------------------------------------------
# linear algebra / reductions
# ---------------------------------------------------------------------------

def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dimensions differ: {a.shape} vs {b.shape}")
    out = a.values @ b.values
    av = a.values if b.requires_grad else None
    bv = b.values if a.requires_grad else None

    def vjp(g):
        return (None if bv is None else g @ bv.T, None if av is None else av.T @ g)

    return _make(out, "matmul", (a, b), vjp)


def _norm_axis(axis, ndim):
    if axis is None:
        return None
    if isinstance(axis, int):
        return (axis % ndim,)
    return tuple(ax % ndim for ax in axis)


def reduce_sum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out = a.values.sum(axis=axis, keepdims=keepdims)
    axes = _norm_axis(axis, a.ndim)
    shape = a.shape

    def vjp(g):
        if axes is not None and not keepdims:
            g = np.expand_dims(g, axes)
        return (np.broadcast_to(g, shape).copy(),)

    return _make(out, "sum", (a,), vjp)


def reduce_mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out = a.values.mean(axis=axis, keepdims=keepdims)
    axes = _norm_axis(axis, a.ndim)
    count = a.size if axes is None else int(np.prod([a.shape[ax] for ax in axes]))
    shape = a.shape

    def vjp(g):
        if axes is not None and not keepdims:
            g = np.expand_dims(g, axes)
        return (np.broadcast_to(g, shape).copy() / count,)

    return _make(out, "mean", (a,), vjp)


def reduce_min(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    if axis is not None and not isinstance(axis, int):
        raise ContractError("min reduction over multiple axes is unsupported")
    out = np.min(a.values, axis=axis, keepdims=keepdims)
    if not a.requires_grad:
        return _make(out, "min", (a,), None)
    # route gradient to the first extremal entry along the reduced axes
    hit = a.values == np.min(a.values, axis=axis, keepdims=True)
    if axis is None:
        mask = np.zeros(a.size)
        mask[np.argmax(hit.reshape(-1))] = 1.0
        mask = mask.reshape(a.shape)
    else:
        ax = axis % a.ndim
        mask = np.zeros(a.shape)
        np.put_along_axis(mask, np.expand_dims(np.argmax(hit, axis=ax), ax), 1.0, axis=ax)

    def vjp(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (mask * g,)

    return _make(out, "min", (a,), vjp)


def softmax_values(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """The softmax of a numpy array along ``axis``, shifted by its largest
    entry so no exp overflows, for :func:`softmax` and hand-VJP nodes."""
    e = np.exp(a - a.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def softmax_vjp(out: np.ndarray, g: np.ndarray, axis: int = -1) -> np.ndarray:
    """The gradient of a softmax along ``axis`` with output ``out``."""
    return out * (g - (g * out).sum(axis=axis, keepdims=True))


def softmax(a, axis: int = -1) -> Tensor:
    a = as_tensor(a)
    out = softmax_values(a.values, axis)
    return _make(out, "softmax", (a,), lambda g: (softmax_vjp(out, g, axis),))


def logsumexp(a, axis: int = -1, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    m = a.values.max(axis=axis, keepdims=True)
    e = np.exp(a.values - m)
    s = e.sum(axis=axis, keepdims=True)
    out_kd = np.log(s) + m
    out = out_kd if keepdims else np.squeeze(out_kd, axis=axis)
    soft = e / s

    def vjp(g):
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (soft * g,)

    return _make(out, "log-sum-exp", (a,), vjp)


# ---------------------------------------------------------------------------
# structural primitives
# ---------------------------------------------------------------------------

def gather(a, index) -> Tensor:
    """Select rows ``a[index]`` along axis 0. Out-of-range indices are a hard error."""
    a = as_tensor(a)
    idx = np.asarray(index)
    if idx.dtype.kind not in "iu":
        raise ContractError("gather index must be integer-typed")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise DomainError(
            f"gather index out of range [0, {a.shape[0]}): min={idx.min()}, max={idx.max()}"
        )
    out = a.values[idx]
    n, tail = a.shape[0], a.shape[1:]
    flat = idx.reshape(-1)

    def vjp(g):
        return (scatter_add(flat, g.reshape((flat.size,) + tail), n),)

    return _make(out, "gather", (a,), vjp)


# weights per bincount call in scatter_add (or the output size, if larger):
# the bin index and the copy that puts the running sum first are transient
# arrays of about this length, whatever the size of the scattered block
_SCATTER_CHUNK = 1 << 18


def scatter_add(index: np.ndarray, values: np.ndarray, n_rows: int,
                start: np.ndarray | None = None) -> np.ndarray:
    """Row sums into ``n_rows`` bins: row ``e`` of ``values`` is added to bin ``index[e]``.

    ``index`` is a 1-D integer array of bins in ``[0, n_rows)`` and
    ``values`` has shape ``(len(index),) + tail``; the result has shape
    ``(n_rows,) + tail``. Without ``start`` the result is bitwise that of
    adding ``values`` into a zeroed array with the unbuffered ``at`` method of
    ``np.add``: ``np.bincount`` over the flattened (bin, column) indices adds
    the weights one by one in input order, from 0.0, so every bin sums its
    terms in the same order. It takes about a third of the time of that call.

    With ``start`` (shape ``(n_rows,) + tail``, holding no ``-0.0``) the sums
    continue from it: it enters the bincount first, one weight per bin, and
    ``0.0 + v == v`` for every ``v`` but ``-0.0``. A result of this function
    holds no ``-0.0``, so scattering blocks in turn, each call starting from
    the last one's result, is bitwise adding each block in turn into a zeroed
    array with that ``at`` method. The rows are scattered in chunks chained that way, so the
    transient index and weights stay near ``_SCATTER_CHUNK`` entries.
    """
    tail = values.shape[1:]
    width = math.prod(tail)
    index = index.astype(np.intp, copy=False)
    weights = values.reshape(len(index), width)
    n_bins = n_rows * width
    rows = max(1, max(_SCATTER_CHUNK, n_bins) // max(width, 1))
    out = None if start is None else start.reshape(-1)
    for lo in range(0, len(index), rows):
        bins = index[lo:lo + rows]
        if width != 1:
            bins = (bins * width)[:, None] + np.arange(width)
        bins, w = bins.reshape(-1), weights[lo:lo + rows].reshape(-1)
        if out is not None:
            bins = np.concatenate([np.arange(n_bins), bins])
            w = np.concatenate([out, w])
        out = np.bincount(bins, w, minlength=n_bins)
    if out is None:
        out = np.zeros(n_bins)
    return out.reshape((n_rows,) + tail)


def concat(tensors: Sequence, axis: int = 0) -> Tensor:
    ts = [as_tensor(t) for t in tensors]
    if not ts:
        raise ContractError("concat of empty sequence")
    out = np.concatenate([t.values for t in ts], axis=axis)
    sizes = [t.shape[axis % t.ndim] for t in ts]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.ascontiguousarray(p) for p in np.split(g, splits, axis=axis))

    return _make(out, "concat", tuple(ts), vjp)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    out = a.values.reshape(shape)
    in_shape = a.shape
    return _make(out, "reshape", (a,), lambda g: (g.reshape(in_shape),))


def _getitem(a: Tensor, key) -> Tensor:
    out = a.values[key]
    shape = a.shape

    def vjp(g):
        ga = np.zeros(shape)
        ga[key] = g
        return (ga,)

    return _make(out, "slice", (a,), vjp)


# ---------------------------------------------------------------------------
# tape and backward pass
# ---------------------------------------------------------------------------

class Tape:
    """Topologically ordered record of the graph reachable from a root.

    ``nodes`` lists the grad-requiring subgraph with inputs before outputs:
    a ``_Node`` for each op output and the leaf tensors themselves, each with
    the ``parents`` it reaches. A root that requires no grad is its own
    one-entry tape. ``visit_count`` is the number of vjp invocations
    performed by the backward sweep that produced this tape (one per
    non-leaf node).
    """

    def __init__(self, nodes: list):
        self.nodes = nodes
        self.visit_count = 0

    def __len__(self) -> int:
        return len(self.nodes)

    @staticmethod
    def trace(root: Tensor) -> "Tape":
        order: list = []
        seen: set[int] = set()
        stack: list[tuple] = [(root._node if root._node is not None else root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node.parents:
                if id(p) not in seen:
                    stack.append((p, False))
        return Tape(order)


def backward(root: Tensor, seed=None) -> Tape:
    """Accumulate gradients of ``root`` into every reachable grad-requiring leaf.

    Returns the tape used for the sweep. Each node's vjp runs exactly once,
    after all its downstream contributions have been accumulated; an op
    output's gradient is dropped once its vjp has run.
    """
    if seed is None:
        if root.values.size != 1:
            raise ContractError(f"backward on non-scalar of shape {root.shape} needs a seed")
        seed = np.ones_like(root.values)
    else:
        seed = np.asarray(seed, dtype=np.float64)
        if seed.shape != root.shape:
            raise ShapeError(f"seed shape {seed.shape} != root shape {root.shape}")

    tape = Tape.trace(root)
    grads: dict[int, np.ndarray] = {id(tape.nodes[-1]): seed}
    for node in reversed(tape.nodes):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if isinstance(node, Tensor):
            if node.requires_grad:
                node.grad = g if node.grad is None else node.grad + g
            continue
        tape.visit_count += 1
        parent_grads = node.vjp(g)
        for p, slot in zip(node.parents, node.slots):
            pg = parent_grads[slot]
            acc = grads.get(id(p))
            grads[id(p)] = pg if acc is None else acc + pg
    return tape


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------

class GradCheckReport:
    """Outcome of comparing tape gradients against central differences.

    ``max_rel_err`` is what the check judges: the error left after each
    coordinate's rounding allowance, relative to the gradient. ``max_abs_err``
    is the raw largest ``|ad - fd|`` and ``rounding`` the largest allowance,
    so a report shows how much margin the check had.
    """

    def __init__(self, passed, max_rel_err, worst_index, analytic, numeric, max_abs_err,
                 rounding):
        self.passed = bool(passed)
        self.max_rel_err = float(max_rel_err)
        self.worst_index = worst_index
        self.analytic = analytic
        self.numeric = numeric
        self.max_abs_err = float(max_abs_err)
        self.rounding = float(rounding)

    def __repr__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"GradCheckReport({status}, max_rel_err={self.max_rel_err:.3e}, "
            f"worst_index={self.worst_index}, max_abs_err={self.max_abs_err:.3e}, "
            f"rounding={self.rounding:.3e})"
        )


def grad_check(
    fn: Callable[[Tensor], Tensor],
    point,
    step: float = 1e-5,
    tolerance: float = 1e-6,
    abs_floor: float = 1e-6,
    sample: int | None = None,
    rng: np.random.Generator | None = None,
) -> GradCheckReport:
    """Compare the tape gradient of a scalar function with central differences.

    A central difference carries a rounding error of about ``eps * |f| /
    step`` whatever the true gradient, so each coordinate is first allowed a
    rounding term ``4 * eps * max(|f(x+h)|, |f(x-h)|, 1) / step`` (``eps`` the
    float64 machine epsilon). What is left of ``|ad - fd|`` is divided by
    ``max(|ad|, |fd|, abs_floor)``; ``max_rel_err`` is the largest such ratio
    and the check passes when it is at most ``tolerance``. The report also
    holds the raw largest ``|ad - fd|`` and the largest allowance. With ``sample``
    set, only a seeded random subset of coordinates is differenced (the full
    analytic gradient is still computed in one sweep).
    """
    x0 = np.ascontiguousarray(point.values if isinstance(point, Tensor) else point, dtype=np.float64)
    xt = Tensor(x0, requires_grad=True, op="param")
    out = fn(xt)
    if not isinstance(out, Tensor) or out.values.size != 1:
        raise ContractError("grad_check requires a scalar-valued function")
    backward(out)
    analytic = np.zeros(x0.shape) if xt.grad is None else xt.grad

    flat = x0.reshape(-1)
    n = flat.size
    if sample is not None and sample < n:
        gen = rng if rng is not None else np.random.default_rng(0)
        coords = np.sort(gen.choice(n, size=sample, replace=False))
    else:
        coords = np.arange(n)

    numeric = np.full(n, np.nan)
    f_scale = np.ones(n)
    for i in coords:
        plus = flat.copy()
        plus[i] += step
        minus = flat.copy()
        minus[i] -= step
        f_plus = fn(Tensor(plus.reshape(x0.shape))).item()
        f_minus = fn(Tensor(minus.reshape(x0.shape))).item()
        numeric[i] = (f_plus - f_minus) / (2 * step)
        f_scale[i] = max(abs(f_plus), abs(f_minus), 1.0)

    a = analytic.reshape(-1)[coords]
    b = numeric[coords]
    rounding = 4 * np.finfo(np.float64).eps * f_scale[coords] / step
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), abs_floor)
    abs_err = np.abs(a - b)
    rel = np.maximum(abs_err - rounding, 0.0) / scale
    worst = int(np.argmax(rel))
    return GradCheckReport(
        passed=bool(rel[worst] <= tolerance),
        max_rel_err=rel[worst],
        worst_index=int(coords[worst]),
        analytic=analytic,
        numeric=numeric.reshape(-1),
        max_abs_err=abs_err.max(),
        rounding=rounding.max(),
    )
