"""Tape, primitive ops, smoothed extrema, reverse sweep."""
import math

import pytest
from hypothesis import given, settings, strategies as st

from geometry_reference import sqrt_guarded
from gradcheck import central_difference, max_gradient_error
from polystl import autodiff as ad

finite = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
positive = st.floats(min_value=1e-3, max_value=50.0)


def grad_of(build, xs):
    """Analytic gradient of build(list_of_vars) at xs."""
    t = ad.Tape()
    vs = [t.var(v) for v in xs]
    out = build(vs)
    g = ad.backward(out)
    return out.value, [g.wrt(v) for v in vs]


def value_fn(build):
    return lambda xs: build(list(xs))


def unary(f, df):
    """A unary op on floats or tape variables from its value and derivative."""
    def op(x):
        v = ad.value_of(x)
        return ad.lift(f(v), (x,), (df(v),))
    return op


exp = unary(math.exp, math.exp)
log = unary(math.log, lambda v: 1.0 / v)


# -- tape basics ---------------------------------------------------------


def test_tape_records_in_topological_order():
    t = ad.Tape()
    a = t.var(2.0)
    b = t.var(3.0)
    c = a * b
    d = exp(c)
    assert [n.i for n in (a, b, c, d)] == [0, 1, 2, 3]
    assert d.value == math.exp(6.0)


def test_cross_tape_operands_rejected():
    t1, t2 = ad.Tape(), ad.Tape()
    a = t1.var(1.0)
    b = t2.var(2.0)
    for op, apply in (("add", lambda x, y: x + y), ("sub", lambda x, y: x - y),
                      ("mul", lambda x, y: x * y), ("div", lambda x, y: x / y),
                      ("lse_max", lambda x, y: ad.lse_max([x, y], 0.1))):
        for x, y in ((a, b), (b, a)):
            with pytest.raises(ad.EvaluationError,
                               match=f"{op}: operands live on different tapes"):
                apply(x, y)
    assert (len(t1), len(t2)) == (1, 1)


def test_node_records_value_and_partials():
    t = ad.Tape()
    a, b = t.var(2.0), t.var(-3.0)
    out = t.node(7.5, [a, b], [0.25, -4.0])
    assert (out.i, out.value) == (2, 7.5)
    g = ad.backward(out * 2.0)
    assert (g.wrt(a), g.wrt(b)) == (0.5, -8.0)


def test_node_accumulates_repeated_parents():
    t = ad.Tape()
    a, b = t.var(1.0), t.var(5.0)
    out = t.node(0.0, [a, b, a, a], [1.5, 2.0, -0.25, 3.0])
    g = ad.backward(out)
    assert g.wrt(a) == 1.5 - 0.25 + 3.0
    assert g.wrt(b) == 2.0


def test_node_rejects_parent_on_other_tape():
    t1, t2 = ad.Tape(), ad.Tape()
    a, b = t1.var(1.0), t2.var(2.0)
    with pytest.raises(ad.EvaluationError, match="fused: operands live on different tapes"):
        t1.node(3.0, [a, b], [1.0, 1.0], op="fused")
    assert len(t1) == 1   # nothing appended


# -- lift ----------------------------------------------------------------


def test_lift_of_floats_is_the_float_and_records_nothing():
    t = ad.Tape()
    t.var(1.0)
    out = ad.lift(2.5, (1.0, -3.0), (7.0, 8.0))
    assert out == 2.5 and not isinstance(out, ad.Var)
    assert len(t) == 1


def test_lift_parents_are_only_the_vars_with_their_partials():
    t = ad.Tape()
    a, b = t.var(1.0), t.var(2.0)
    out = ad.lift(9.0, (0.5, a, 4.0, b, a), (10.0, 0.25, 20.0, -3.0, 1.5))
    assert len(t) == 3 and (out.i, out.value) == (2, 9.0)
    assert t.par[out.i] == (a.i, b.i, a.i)
    assert t.dpar[out.i] == (0.25, -3.0, 1.5)
    g = ad.backward(out)
    assert (g.wrt(a), g.wrt(b)) == (0.25 + 1.5, -3.0)


def test_lift_rejects_operands_on_two_tapes():
    t1, t2 = ad.Tape(), ad.Tape()
    a, b = t1.var(1.0), t2.var(2.0)
    with pytest.raises(ad.EvaluationError, match="pair: operands live on different tapes"):
        ad.lift(3.0, (a, 0.0, b), (1.0, 1.0, 1.0), "pair")
    assert (len(t1), len(t2)) == (1, 1)


PRIMITIVES = [
    ("square", lambda v: ad.square(v[0]), [-1.7]),
    ("relu", lambda v: ad.relu(v[0]), [0.6]),
    ("relu_off", lambda v: ad.relu(v[0]), [-0.6]),
    ("sigmoid", lambda v: ad.sigmoid(v[0]), [0.8]),
    ("sigmoid_neg", lambda v: ad.sigmoid(v[0]), [-2.3]),
    ("abs_smooth", lambda v: ad.abs_smooth(v[0]), [-0.4]),
    ("sin", lambda v: ad.sin(v[0]), [1.1]),
    ("cos", lambda v: ad.cos(v[0]), [1.1]),
    ("wrap_angle", lambda v: ad.wrap_angle(v[0]), [7.5]),
    ("atan2", lambda v: ad.atan2(v[0], v[1]), [-0.7, -1.9]),
]


@pytest.mark.parametrize("name,build,xs", PRIMITIVES, ids=[c[0] for c in PRIMITIVES])
def test_primitive_is_one_path_in_both_modes(name, build, xs):
    """Each primitive gives the float mode's value bit for bit on the tape,
    as one node, and its partials match a central difference."""
    t = ad.Tape()
    vs = [t.var(v) for v in xs]
    out = build(vs)
    assert out.value == build(xs) and len(t) == len(xs) + 1
    g = ad.backward(out)
    numeric = central_difference(value_fn(build), xs, step=1e-6)
    assert max_gradient_error([g.wrt(v) for v in vs], numeric) < 1e-6


def test_domain_errors_name_the_op():
    t = ad.Tape()
    a = t.var(-1.0)
    with pytest.raises(ad.EvaluationError, match="div"):
        _ = a / 0.0
    with pytest.raises(ad.EvaluationError, match="atan2"):
        ad.atan2(t.var(0.0), 0.0)


def test_gradients_wrt_node_after_output_is_zero():
    t = ad.Tape()
    a = t.var(1.0)
    out = a * 3.0
    late = t.var(9.0)
    g = ad.backward(out)
    assert g.wrt(late) == 0.0
    assert g.wrt(a) == 3.0


def test_backward_is_deterministic():
    def run():
        t = ad.Tape()
        xs = [t.var(v) for v in (0.3, -1.2, 2.5)]
        y = ad.lse_max([exp(xs[0]) * xs[1], ad.sin(xs[2]), xs[0] / xs[2]], 0.05)
        g = ad.backward(y)
        return y.value, tuple(g.wrt(x) for x in xs)

    assert run() == run()


# -- frozen op values (worked by hand) -----------------------------------


def test_known_composite_gradient():
    # f(x, y) = x*y + exp(x) at (2, 3): df/dx = y + exp(x), df/dy = x
    val, grads = grad_of(lambda v: v[0] * v[1] + exp(v[0]), [2.0, 3.0])
    assert val == pytest.approx(6.0 + math.exp(2.0), rel=1e-15)
    assert grads[0] == pytest.approx(3.0 + math.exp(2.0), rel=1e-15)
    assert grads[1] == pytest.approx(2.0, rel=1e-15)


def test_lse_max_tie_adds_tau_log2():
    t = ad.Tape()
    out = ad.lse_max([t.var(0.0), t.var(0.0)], 0.01)
    assert out.value == pytest.approx(0.01 * math.log(2.0), abs=1e-15)


def test_lse_min_tie_subtracts_tau_log2():
    assert ad.lse_min([0.0, 0.0], 0.01) == pytest.approx(-0.01 * math.log(2.0), abs=1e-15)


def test_lse_max_singleton_is_identity():
    assert ad.lse_max([5.0], 0.3) == 5.0
    assert ad.lse_min([5.0], 1e-6) == 5.0


def test_lse_max_tie_partials_split_evenly():
    t = ad.Tape()
    x = t.var(0.0)
    out = ad.lse_max([x, 0.0], 0.1)
    g = ad.backward(out)
    assert g.wrt(x) == pytest.approx(0.5, abs=1e-15)


def test_relu_subgradient_zero_at_kink():
    t = ad.Tape()
    x = t.var(0.0)
    g = ad.backward(ad.relu(x))
    assert g.wrt(x) == 0.0


def test_wrap_angle_range_and_fixed_points():
    assert ad.wrap_angle(math.pi) == pytest.approx(math.pi)
    assert ad.wrap_angle(-math.pi) == pytest.approx(math.pi)
    assert ad.wrap_angle(3.0 * math.pi / 2.0) == pytest.approx(-math.pi / 2.0)
    assert ad.wrap_angle(0.0) == 0.0


def test_float_mode_matches_var_mode():
    def build(v):
        return ad.lse_min([sqrt_guarded(ad.square(v[0]) + ad.square(v[1])),
                           ad.sigmoid(v[0]) * v[1]], 0.05)

    xs = [0.7, -0.4]
    t = ad.Tape()
    assert build([t.var(v) for v in xs]).value == build(xs)


# -- smoothed extrema stay inside the gap bound ---------------------------


@given(st.lists(finite, min_size=1, max_size=64),
       st.sampled_from([1.0, 0.1, 0.01]))
@settings(max_examples=300, deadline=None)
def test_lse_bounds_property(xs, tau):
    hi = ad.lse_max(xs, tau)
    lo = ad.lse_min(xs, tau)
    gap = tau * math.log(len(xs))
    assert max(xs) <= hi <= max(xs) + gap + 1e-12
    assert min(xs) - gap - 1e-12 <= lo <= min(xs)


@given(st.lists(finite, min_size=1, max_size=16), positive)
@settings(max_examples=200, deadline=None)
def test_lse_min_is_negated_lse_max(xs, tau):
    direct = ad.lse_min(xs, tau)
    mirrored = -ad.lse_max([-x for x in xs], tau)
    assert direct == pytest.approx(mirrored, abs=1e-12)


@given(st.lists(finite, min_size=2, max_size=12))
@settings(max_examples=200, deadline=None)
def test_lse_approaches_hard_extrema_as_tau_shrinks(xs):
    assert ad.lse_max(xs, 1e-9) == pytest.approx(max(xs), abs=1e-7)
    assert ad.lse_min(xs, 1e-9) == pytest.approx(min(xs), abs=1e-7)


@given(st.lists(finite, min_size=1, max_size=10), positive)
@settings(max_examples=100, deadline=None)
def test_lse_max_softmax_partials_sum_to_one(xs, tau):
    t = ad.Tape()
    vs = [t.var(v) for v in xs]
    g = ad.backward(ad.lse_max(vs, tau))
    total = sum(g.wrt(v) for v in vs)
    assert total == pytest.approx(1.0, abs=1e-9)
    assert all(g.wrt(v) >= 0.0 for v in vs)


# -- finite-difference agreement ------------------------------------------


FD_CASES = [
    ("poly", lambda v: v[0] * v[1] - v[1] / (v[0] + 3.0), [1.3, -0.7]),
    ("exp_log", lambda v: log(exp(v[0]) + exp(v[1])), [0.2, -1.1]),
    ("sqrt_guarded", lambda v: sqrt_guarded(ad.square(v[0]) + ad.square(v[1])), [0.6, 0.8]),
    ("abs_smooth", lambda v: ad.abs_smooth(v[0] - v[1]), [1.5, 0.3]),
    ("sigmoid_relu", lambda v: ad.sigmoid(3.0 * v[0]) + ad.relu(v[1] - 0.2), [0.4, 1.0]),
    ("trig", lambda v: ad.sin(v[0]) * ad.cos(v[1]) + ad.atan2(v[0], v[1]), [0.9, 1.7]),
    ("lse", lambda v: ad.lse_max([v[0], v[1], v[0] * v[1]], 0.07), [0.25, -0.9]),
    ("wrap", lambda v: ad.square(ad.wrap_angle(v[0] - v[1])), [2.9, -2.8]),
]


@pytest.mark.parametrize("name,build,xs", FD_CASES, ids=[c[0] for c in FD_CASES])
def test_finite_difference_agreement(name, build, xs):
    _, analytic = grad_of(build, xs)
    numeric = central_difference(value_fn(build), xs, step=1e-5)
    assert max_gradient_error(analytic, numeric) < 1e-4
