"""Every hand-VJP node against the op graph it replaces (``per_op.REGISTRY``),
and the scatter those nodes' gradients share."""

import numpy as np
import pytest

import per_op
from dockinv import autodiff as ad
from dockinv import finetune


def _inputs(case, weights_as_tensors):
    """The case's data as grad-requiring Tensors, then its weights as such or as numpy."""
    return ([ad.param(a) for a in case.data]
            + [ad.param(w) if weights_as_tensors else w for w in case.weights])


def _grads(fn, case, weights_as_tensors):
    """(output, gradient of every Tensor input) under a fixed random seed gradient."""
    inputs = _inputs(case, weights_as_tensors)
    out = fn(*inputs)
    ad.backward(out, seed=np.random.default_rng(3).standard_normal(out.shape))
    return out, [t.grad for t in inputs if isinstance(t, ad.Tensor)]


def _ops(root) -> set:
    return {node.op for node in ad.Tape.trace(root).nodes if not isinstance(node, ad.Tensor)}


def _assert_grad_check(case):
    arrays = case.data + case.weights
    proj = np.random.default_rng(4).standard_normal(case.node(*_inputs(case, False)).shape)

    def fn(flat):
        parts, start = [], 0
        for a in arrays:
            parts.append(ad.reshape(flat[start:start + a.size], a.shape))
            start += a.size
        return ad.reduce_sum(ad.mul(case.node(*parts), proj))

    report = ad.grad_check(fn, np.concatenate([np.ravel(a) for a in arrays]),
                           step=case.check_step, tolerance=1e-6)
    assert report.passed, report
    assert np.abs(report.analytic).max() > 1e-2   # not a vacuous match


@pytest.mark.parametrize("op", sorted(per_op.REGISTRY))
def test_hand_vjp_node_matches_its_op_graph(op):
    # the value and each input's gradient, with the weights as grad-requiring
    # Tensors and as numpy arrays read in place; a no-grad call records no
    # graph; one grad_check over every input coordinate
    for index, case in enumerate(per_op.REGISTRY[op]()):
        for weights_as_tensors in ((True, False) if case.weights else (True,)):
            where = (index, weights_as_tensors)
            (out, grads), (ref, ref_grads) = (_grads(fn, case, weights_as_tensors)
                                              for fn in (case.node, case.reference))
            assert op in _ops(out), where
            assert out.shape == ref.shape and out.values.tobytes() == ref.values.tobytes(), where
            assert len(grads) == len(case.data) + (len(case.weights) if weights_as_tensors else 0)
            for i, (got, want) in enumerate(zip(grads, ref_grads)):
                if case.grad_rtol == 0.0:
                    assert got.tobytes() == want.tobytes(), (where, i)
                else:
                    assert np.abs(got - want).max() <= case.grad_rtol * np.abs(want).max(), (where, i)
        constants = [ad.constant(a) for a in case.data + case.weights]
        out = case.node(*constants)
        assert out._node is None and not out.requires_grad, index
        assert out.values.tobytes() == case.reference(*constants).values.tobytes(), index
        if case.grad_check:
            _assert_grad_check(case)


def test_loss_target_must_broadcast_to_the_prediction():
    pred = ad.param(np.full(5, 0.5))
    with pytest.raises(ad.ShapeError):
        finetune.pocket_loss(pred, np.ones((2, 5)), np.ones(5), 0.3)
    with pytest.raises(ad.ShapeError):
        finetune.interaction_loss(pred, ad.param(np.array(0.5)), np.ones((2, 5)))


@pytest.mark.parametrize("chunk", [None, 7], ids=["one-call", "chunked"])
@pytest.mark.parametrize("tail", [(), (3,), (4, 5)], ids=["1d", "rows", "n-c-m"])
def test_scatter_add_is_bitwise_add_at_in_sequence(tail, chunk, monkeypatch):
    # repeated bins, bins no row reaches, -0.0 entries and magnitudes 1e-8..1e8,
    # over one to three blocks summed in turn, each call starting from the
    # last one's result; with a small chunk every call chains several bincounts
    if chunk is not None:
        monkeypatch.setattr(ad, "_SCATTER_CHUNK", chunk)
    rng = np.random.default_rng(len(tail))
    for trial in range(40):
        n = int(rng.integers(1, 12))
        index = rng.integers(0, n, int(rng.integers(1, 60)))
        want, got = np.zeros((n,) + tail), None
        for _ in range(1 + trial % 3):
            b = rng.standard_normal((len(index),) + tail) * 10.0 ** rng.integers(-8, 9)
            b[rng.random(b.shape) < 0.2] = -0.0
            np.add.at(want, index, b)
            got = ad.scatter_add(index, b, n, start=got)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), trial


def test_scatter_add_of_an_empty_index_is_its_start():
    for tail in ((), (2, 3)):
        got = ad.scatter_add(np.zeros(0, dtype=int), np.zeros((0,) + tail), 4)
        assert got.shape == (4,) + tail and got.tobytes() == np.zeros((4,) + tail).tobytes()
        start = np.arange(4 * int(np.prod(tail)), dtype=float).reshape((4,) + tail)
        got = ad.scatter_add(np.zeros(0, dtype=int), np.zeros((0,) + tail), 4, start=start)
        assert got.tobytes() == start.tobytes()


def test_scatter_add_keeps_a_negative_zero_only_where_add_at_does():
    # np.add.at adds into 0.0, so a lone -0.0 term leaves +0.0
    got = ad.scatter_add(np.array([0, 0, 1]), np.array([-0.0, -0.0, -0.0]), 3)
    assert got.tobytes() == np.zeros(3).tobytes()
