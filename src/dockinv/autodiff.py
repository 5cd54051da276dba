"""Reverse-mode automatic differentiation over dense float64 arrays.

Every differentiable quantity in the pipeline is carried by :class:`Tensor`,
a thin immutable wrapper around a numpy array that records the operation
which produced it. Calling :func:`backward` on a scalar builds a :class:`Tape`
(a topological ordering of the reachable graph) and accumulates gradients in
one reverse sweep, visiting each node exactly once.

Besides the elementwise, linear-algebra and structural primitives here, a
module may build a larger computation as one graph node with
:func:`primitive`: it runs the forward in numpy and hands over a hand-written
vjp. Such a vjp saves only the arrays its gradients read, and only for
parents that require grad, so a no-grad call saves nothing. Its output is
checked for finiteness once, like any op output; its intermediates are not.
The encoder's edge geometry (``equivariant.conv_geometry``: the radial
pool and the edge harmonics), its convolution (``equivariant.ConvLayer.apply``,
one node per output order) and the ligand descriptors of
``inversion.state_features`` (``_pairwise_omega``, ``_geom_block``) are built
this way.

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
    "div",
    "neg",
    "matmul",
    "log",
    "sigmoid",
    "tanh",
    "clip",
    "softmax",
    "logsumexp",
    "norm",
    "gather",
    "concat",
    "reduce_sum",
    "reduce_mean",
    "reduce_max",
    "reduce_min",
    "reshape",
    "transpose",
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

    # -- operator sugar -------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

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


# ops that only move entries: their output is finite when every input is a
# checked op output; leaves (params, constants) are never checked on entry
_STRUCTURAL_OPS = frozenset({"reshape", "transpose"})
_LEAF_OPS = frozenset({"leaf", "const", "param"})


def _make(values, op, parents, vjp) -> Tensor:
    # a fresh C-contiguous float64 result is frozen in place; anything else
    # (a numpy scalar, a transposed or sliced view) becomes a C-ordered copy
    if (type(values) is not np.ndarray or values.dtype != np.float64
            or not values.flags.c_contiguous):
        values = np.array(values, dtype=np.float64, order="C")
    if op not in _STRUCTURAL_OPS or any(p.op in _LEAF_OPS for p in parents):
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


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if (b.values == 0.0).any():
        raise DomainError("division by zero")
    try:
        out = a.values / b.values
    except ValueError:
        raise _shape_error(a, b, "div") from None
    sa, sb, bv = a.shape, b.shape, b.values
    a_grad = a.requires_grad
    av = a.values if b.requires_grad else None

    def vjp(g):
        return (_unbroadcast(g / bv, sa) if a_grad else None,
                None if av is None else _unbroadcast(-g * av / (bv * bv), sb))

    return _make(out, "div", (a, b), vjp)


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


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    out = np.empty_like(a.values)
    pos = a.values >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-a.values[pos]))
    e = np.exp(a.values[~pos])
    out[~pos] = e / (1.0 + e)
    return _make(out, "sigmoid", (a,), lambda g: (g * out * (1.0 - out),))


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


def _extreme(a, axis, keepdims, kind):
    a = as_tensor(a)
    red = np.max if kind == "max" else np.min
    if axis is not None and not isinstance(axis, int):
        raise ContractError(f"{kind} reduction over multiple axes is unsupported")
    out = red(a.values, axis=axis, keepdims=keepdims)
    if not a.requires_grad:
        return _make(out, kind, (a,), None)
    # route gradient to the first extremal entry along the reduced axes
    hit = a.values == red(a.values, axis=axis, keepdims=True)
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

    return _make(out, kind, (a,), vjp)


def reduce_max(a, axis=None, keepdims: bool = False) -> Tensor:
    return _extreme(a, axis, keepdims, "max")


def reduce_min(a, axis=None, keepdims: bool = False) -> Tensor:
    return _extreme(a, axis, keepdims, "min")


def softmax(a, axis: int = -1) -> Tensor:
    a = as_tensor(a)
    shifted = a.values - a.values.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        inner = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - inner),)

    return _make(out, "softmax", (a,), vjp)


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


def norm(a, axis: int = -1, keepdims: bool = False) -> Tensor:
    """Euclidean norm along ``axis``. Exactly-zero vectors are a domain error."""
    a = as_tensor(a)
    sq = (a.values * a.values).sum(axis=axis, keepdims=True)
    if np.any(sq == 0.0):
        raise DomainError("euclidean-norm of zero vector (gradient undefined)")
    out_kd = np.sqrt(sq)
    out = out_kd if keepdims else np.squeeze(out_kd, axis=axis)
    av = a.values

    def vjp(g):
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (av / out_kd * g,)

    return _make(out, "euclidean-norm", (a,), vjp)


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
    shape = a.shape

    def vjp(g):
        ga = np.zeros(shape)
        np.add.at(ga, idx, g)
        return (ga,)

    return _make(out, "gather", (a,), vjp)


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


def transpose(a, axes=None) -> Tensor:
    a = as_tensor(a)
    out = np.transpose(a.values, axes)
    inv = None if axes is None else np.argsort(axes)
    return _make(out, "transpose", (a,), lambda g: (np.transpose(g, inv),))


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
    """Outcome of comparing tape gradients against central differences."""

    def __init__(self, passed, max_rel_err, worst_index, analytic, numeric):
        self.passed = bool(passed)
        self.max_rel_err = float(max_rel_err)
        self.worst_index = worst_index
        self.analytic = analytic
        self.numeric = numeric

    def __repr__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"GradCheckReport({status}, max_rel_err={self.max_rel_err:.3e}, "
            f"worst_index={self.worst_index})"
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
    and the check passes when it is at most ``tolerance``. With ``sample``
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
    rel = np.maximum(np.abs(a - b) - rounding, 0.0) / scale
    worst = int(np.argmax(rel))
    report = GradCheckReport(
        passed=bool(rel[worst] <= tolerance),
        max_rel_err=rel[worst],
        worst_index=int(coords[worst]),
        analytic=analytic,
        numeric=numeric.reshape(-1),
    )
    return report
