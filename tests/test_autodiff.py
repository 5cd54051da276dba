"""Reverse-mode differentiation: primitive gradients, tape discipline, errors."""

import weakref
import zlib

import numpy as np
import pytest

from dockinv import autodiff as ad


def square(t):
    return ad.mul(t, t)


PRIMITIVE_CASES = {
    "add": lambda x: ad.reduce_sum(square(ad.add(ad.add(x, 0.7), x))),
    "sub": lambda x: ad.reduce_sum(square(ad.sub(x, 0.3))),
    "mul": lambda x: ad.reduce_sum(ad.mul(x, x)),
    "div": lambda x: ad.reduce_sum(ad.div(1.0, ad.add(ad.mul(x, x), 1.0))),
    "matmul": lambda x: ad.reduce_sum(
        square(ad.matmul(ad.reshape(x, (4, 3)), np.arange(6.0).reshape(3, 2)))),
    "log": lambda x: ad.reduce_sum(ad.log(ad.add(ad.mul(x, x), 1.0))),
    "sum": lambda x: square(ad.reduce_sum(x)),
    "mean": lambda x: square(ad.reduce_mean(ad.mul(x, x))),
    "max": lambda x: ad.reduce_sum(square(ad.reduce_max(ad.reshape(x, (3, 4)), axis=1))),
    "min": lambda x: ad.reduce_sum(square(ad.reduce_min(ad.reshape(x, (3, 4)), axis=1))),
    "softmax": lambda x: ad.reduce_sum(square(ad.softmax(ad.reshape(x, (3, 4)), axis=1))),
    "log-sum-exp": lambda x: ad.reduce_sum(square(ad.logsumexp(ad.reshape(x, (3, 4)), axis=1))),
    "euclidean-norm": lambda x: ad.reduce_sum(ad.norm(ad.reshape(ad.add(x, 3.0), (4, 3)), axis=1)),
    "gather": lambda x: ad.reduce_sum(
        square(ad.gather(ad.reshape(x, (6, 2)), np.array([0, 3, 3, 5])))),
    "concat": lambda x: ad.reduce_sum(square(ad.concat([x, ad.mul(x, 2.0)], axis=0))),
    "clip": lambda x: ad.reduce_sum(square(ad.clip(x, -0.5, 0.5))),
    "sigmoid": lambda x: ad.reduce_sum(square(ad.sigmoid(x))),
    "tanh": lambda x: ad.reduce_sum(square(ad.tanh(x))),
    "reshape": lambda x: ad.reduce_sum(square(ad.reshape(x, (2, 6)))),
    "transpose": lambda x: ad.reduce_sum(square(ad.transpose(ad.reshape(x, (3, 4))))),
}


def kink_gap(name, x0):
    """Distance of a draw from the nearest point where the case's gradient jumps."""
    if name in ("max", "min"):
        rows = np.sort(np.reshape(x0, (3, 4)), axis=1)
        gaps = rows[:, -1] - rows[:, -2] if name == "max" else rows[:, 1] - rows[:, 0]
        return gaps.min()
    if name == "clip":
        return np.abs(np.abs(x0) - 0.5).min()
    return np.inf


@pytest.mark.parametrize("name", sorted(PRIMITIVE_CASES))
def test_primitive_gradients_match_central_differences(name):
    # crc32, unlike hash(), gives every process the same draws
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    builder = PRIMITIVE_CASES[name]
    checked = 0
    for trial in range(100):
        x0 = rng.standard_normal(12)
        if kink_gap(name, x0) < 1e-3:
            # a difference across a kink measures no gradient
            continue
        report = ad.grad_check(builder, x0, step=1e-5, tolerance=1e-6)
        assert report.passed, (
            f"draw {trial}: max rel err {report.max_rel_err:.3e} at {report.worst_index}"
        )
        checked += 1
    assert checked >= 80


def test_logsumexp_example():
    x = ad.param(np.array([0.0, 0.0]))
    y = ad.logsumexp(x, axis=0)
    y.backward()
    assert abs(y.item() - np.log(2)) < 1e-15
    np.testing.assert_allclose(x.grad, [0.5, 0.5], atol=1e-15)


def test_matmul_gradient_vs_finite_differences():
    rng = np.random.default_rng(0)
    a0 = rng.standard_normal((4, 3))
    b0 = rng.standard_normal((3, 2))

    def f(a):
        return ad.reduce_sum(square(ad.matmul(a, ad.constant(b0))))

    report = ad.grad_check(f, a0, step=1e-5, tolerance=1e-6)
    assert report.passed


def test_grad_check_simple_example():
    report = ad.grad_check(lambda x: ad.reduce_sum(x * x), np.array([1.0, 2.0]))
    assert report.passed
    np.testing.assert_allclose(report.analytic, [2.0, 4.0], atol=1e-12)


def test_grad_check_allows_rounding_at_small_gradient():
    # the gradient 2e-8 of the first coordinate is below the rounding error
    # of a central difference of f ~ 15, which must not read as a failure
    x0 = np.array([1e-8, 2.0, -1.5, 3.0])
    report = ad.grad_check(lambda x: ad.reduce_sum(x * x), x0)
    assert report.passed, f"max rel err {report.max_rel_err:.3e} at {report.worst_index}"
    np.testing.assert_allclose(report.analytic, 2 * x0, atol=1e-12)


def test_grad_check_negative_control_names_coordinate():
    # a deliberately wrong gradient rule: forward x^2 but gradient of 3x
    def wrong(x):
        y = ad.mul(x, x)
        bad = ad.primitive(y.values, "bad", (x,), lambda g: (3.0 * np.ones_like(g) * g,))
        return ad.reduce_sum(bad)

    report = ad.grad_check(wrong, np.array([1.0, 2.0, 3.0]))
    assert not report.passed
    assert report.worst_index in (0, 1, 2)
    assert report.max_rel_err > 0.1


def test_grad_check_rejects_non_scalar():
    with pytest.raises(ad.ContractError):
        ad.grad_check(lambda x: x, np.array([1.0, 2.0]))


def test_no_double_accumulation():
    x = ad.param(1.0)
    y = x + x
    y.backward()
    assert float(np.asarray(x.grad)) == 2.0


def test_backward_visits_each_node_once():
    x = ad.param(np.array([1.0, 2.0]))
    a = x * x
    b = a + a          # reuses a twice
    c = ad.reduce_sum(b * a)
    tape = c.backward()
    non_leaf = sum(1 for node in tape.nodes if node.parents)
    assert tape.visit_count == non_leaf


def test_tape_topological_order():
    x = ad.param(np.array([1.0, 2.0]))
    y = ad.reduce_sum(ad.tanh(x) * x)
    tape = ad.Tape.trace(y)
    position = {id(n): i for i, n in enumerate(tape.nodes)}
    for node in tape.nodes:
        for parent in node.parents:
            assert position[id(parent)] < position[id(node)]


def test_bitwise_reproducibility():
    def run():
        rng = np.random.default_rng(42)
        x = ad.param(rng.standard_normal((5, 5)))
        y = ad.reduce_sum(square(ad.softmax(ad.matmul(x, ad.transpose(x)), axis=1)))
        ad.backward(y)
        return y.values.tobytes(), x.grad.tobytes()

    v1, g1 = run()
    v2, g2 = run()
    assert v1 == v2 and g1 == g2


@pytest.mark.parametrize("op", [ad.add, ad.sub, ad.mul, ad.div], ids=lambda f: f.__name__)
def test_shape_mismatch_names_both_shapes(op):
    with pytest.raises(ad.ShapeError) as err:
        op(ad.constant(np.zeros((2, 3))), ad.constant(np.ones((4, 5))))
    assert type(err.value) is ad.ShapeError
    assert "(2, 3)" in str(err.value) and "(4, 5)" in str(err.value)
    assert f"'{op.__name__}'" in str(err.value)


def test_matmul_inner_dim_error():
    with pytest.raises(ad.ShapeError):
        ad.matmul(ad.constant(np.zeros((2, 3))), ad.constant(np.zeros((4, 2))))


def test_log_domain_error():
    with pytest.raises(ad.DomainError):
        ad.log(ad.constant(np.array([1.0, 0.0])))
    with pytest.raises(ad.DomainError):
        ad.log(ad.constant(np.array([-1.0])))


def test_norm_zero_vector_error():
    with pytest.raises(ad.DomainError):
        ad.norm(ad.constant(np.zeros((2, 3))), axis=1)


def test_gather_out_of_range_is_hard_error():
    x = ad.constant(np.zeros((3, 2)))
    with pytest.raises(ad.DomainError):
        ad.gather(x, np.array([0, 3]))
    with pytest.raises(ad.DomainError):
        ad.gather(x, np.array([-1]))


@pytest.mark.filterwarnings("error")
def test_division_by_zero_error():
    # raised before dividing, so numpy warns about nothing
    with pytest.raises(ad.DomainError):
        ad.div(ad.constant(1.0), ad.constant(0.0))
    with pytest.raises(ad.DomainError):
        ad.div(ad.param(np.ones(3)), ad.param(np.array([1.0, 0.0, 2.0])))


def test_values_are_immutable():
    x = ad.param(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        x.values[0] = 5.0


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_forward_rejects_non_finite_results():
    with pytest.raises(ad.DomainError, match="'mul'"):
        ad.mul(ad.constant(1e200), ad.constant(1e200))
    with pytest.raises(ad.DomainError, match="'add'"):
        ad.add(ad.constant(np.array([1.0, np.nan])), ad.constant(1.0))


@pytest.mark.parametrize("size", [8, 200_000])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_entry_raises_naming_the_op_at_any_size(size, bad):
    values = np.ones(size)
    values[size // 2] = bad
    with pytest.raises(ad.DomainError, match="'mul'"):
        ad.mul(ad.constant(values), 2.0)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("op, move", [("reshape", lambda t: ad.reshape(t, (2, 2))),
                                      ("transpose", ad.transpose)])
def test_structural_ops_skip_the_check_only_behind_a_checked_op(op, move, monkeypatch):
    bad = np.array([[1.0, np.nan], [2.0, 3.0]])
    # a leaf is unchecked, so the first op that moves its entries raises
    for leaf in (ad.constant(bad), ad.param(bad)):
        with pytest.raises(ad.DomainError, match=f"'{op}'"):
            move(leaf)
    # a non-finite op output raises at the op that made it
    with pytest.raises(ad.DomainError, match="'mul'"):
        move(ad.mul(ad.constant(np.array([[1.0, 1e200], [0.0, 0.0]])), 1e200))
    checked = []
    monkeypatch.setattr(ad, "_check_finite", lambda values, name: checked.append(name))
    move(ad.mul(ad.param(np.ones((2, 2))), 2.0))
    assert checked == ["mul"]


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_finite_values_whose_sum_overflows_pass():
    # the sum overflows to inf, so the elementwise scan decides
    for op, expected in ((ad.add, 1e308 + 1.0), (ad.mul, 1e308)):
        big = op(ad.constant(np.array([1e308, 1e308])), ad.constant(1.0))
        np.testing.assert_array_equal(big.values, [expected, expected])


def test_primitive_runs_its_vjp_only_for_grad_parents():
    calls = []

    def vjp(g):
        calls.append(g)
        return (2.0 * g, None)

    x, c = ad.param(np.array([1.0, 2.0])), ad.constant(np.array([3.0, 4.0]))
    y = ad.primitive(2.0 * x.values + c.values, "twice-plus", (x, c), vjp)
    assert y.requires_grad and y.op == "twice-plus" and not y.values.flags.writeable
    ad.backward(ad.reduce_sum(y))
    np.testing.assert_array_equal(x.grad, [2.0, 2.0])
    assert len(calls) == 1 and c.grad is None
    z = ad.primitive(c.values * 2.0, "twice", (c,), vjp)
    assert z._node is None and not z.requires_grad
    with pytest.raises(ad.DomainError, match="'overflowing'"):
        ad.primitive(np.array([np.inf, 1.0]), "overflowing", (c,), vjp)


def test_no_grad_nodes_record_no_graph():
    c = ad.constant(np.array([1.0, 2.0]))
    y = ad.reduce_sum(ad.tanh(c) * c)
    assert y.parents == () and y._node is None and not y.requires_grad
    assert len(ad.Tape.trace(y)) == 1

    x = ad.param(np.array([1.0, 2.0]))
    z = ad.reduce_sum(ad.tanh(c) * x)
    assert z.parents and z.requires_grad
    z.backward()
    np.testing.assert_array_equal(x.grad, np.tanh(c.values))


def test_graph_frees_values_no_vjp_reads():
    x = ad.param(np.array([1.0, 2.0]))
    m = ad.mul(x, 3.0)                # the sum's vjp reads only m's shape
    probe = weakref.ref(m.values)
    y = ad.reduce_sum(m)
    del m
    assert probe() is None
    tape = y.backward()
    np.testing.assert_array_equal(x.grad, [3.0, 3.0])
    assert len(tape) == 3 and tape.nodes[0] is x   # the constant 3.0 is not in the graph
