import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grouphess import engine
from grouphess.engine import (
    EvaluationError,
    ParamVector,
    const,
    directional_derivative,
    dot,
    evaluate,
    gradient,
    gradient_expr,
    gradient_of_nested,
    nested_directional,
    reduce_mean,
    reduce_sum,
    var,
)
from grouphess.fd import fd_gradient
from grouphess.partition import canonical_partition, mask
from grouphess.problems import MlpSpec, make_mlp, mlp_labels, synth_dataset


def quad_diag12():
    # f(t) = t1^2 + 2 t2^2
    t = var("theta", (2,))
    return engine.segment(t, 0, 1) ** 2 + 2.0 * engine.segment(t, 1, 2) ** 2


def test_evaluate_quadratic():
    f = reduce_sum(quad_diag12())
    assert evaluate(f, np.array([1.0, 1.0])) == 3.0


def test_evaluate_sum_of_zeros():
    t = var("theta", (5,))
    assert evaluate(reduce_sum(t), np.zeros(5)) == 0.0


def test_evaluate_tanh_at_zero():
    t = var("theta", (1,))
    f = reduce_sum(engine.tanh(t))
    assert evaluate(f, np.zeros(1)) == 0.0


def test_gradient_quadratic():
    f = reduce_sum(quad_diag12())
    g = gradient(f, np.array([1.0, 1.0]))
    assert np.allclose(g, [2.0, 4.0], atol=0, rtol=0)


def test_gradient_sum_is_ones():
    t = var("theta", (4,))
    g = gradient(reduce_sum(t), np.array([3.0, -1.0, 0.0, 7.0]))
    assert np.array_equal(g, np.ones(4))


def test_gradient_zero_at_stationary_point():
    # f = 0.5 (t-c)^T A (t-c) has zero gradient at c
    c = np.array([0.3, -1.2, 2.0])
    A = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 3.0]])
    t = var("theta", (3,))
    d = t - const(c)
    f = 0.5 * dot(d, engine.matmul(const(A), d))
    assert np.array_equal(gradient(f, c), np.zeros(3))


def test_directional_derivative_value_and_nesting():
    f = reduce_sum(quad_diag12())
    e = directional_derivative(f, np.array([1.0, 1.0]), np.array([1.0, 1.0]))
    assert evaluate(e, np.array([1.0, 1.0])) == 6.0

    # f = t^3 differentiated twice along e1, evaluated at t=2: 6t = 12
    t = var("theta", (1,))
    cube = reduce_sum(t ** 3)
    theta = np.array([2.0])
    u = np.array([1.0])
    d1 = directional_derivative(cube, theta, u)
    d2 = directional_derivative(d1, theta, u)
    assert evaluate(d2, theta) == 12.0


def test_directional_derivative_zero_direction():
    f = reduce_sum(quad_diag12())
    e = directional_derivative(f, np.array([0.5, 0.5]), np.zeros(2))
    assert evaluate(e, np.array([0.5, 0.5])) == 0.0


def test_directional_derivative_length_mismatch():
    f = reduce_sum(quad_diag12())
    with pytest.raises(EvaluationError):
        directional_derivative(f, np.array([1.0, 1.0]), np.ones(3))


@pytest.mark.parametrize("build", [
    lambda t: reduce_sum(engine.tanh(t)) + reduce_sum(t ** 2),
    lambda t: dot(engine.exp(0.3 * t), engine.softplus(t)),
    lambda t: reduce_mean(engine.log(engine.exp(t) + const(np.ones(4)))),
])
def test_gradient_matches_finite_differences(build):
    t = var("theta", (4,))
    f = build(t)
    rng = np.random.default_rng(11)
    theta = rng.normal(size=4)
    g = gradient(f, theta)
    ref = fd_gradient(f, theta)
    assert np.all(np.abs(g - ref) <= 1e-6 * (1.0 + np.abs(ref)))


def test_nesting_exactness_on_polynomials():
    # f = t1^3 t2 + 2 t1 t2^2: directional derivatives along u=(u1,u2) are
    # polynomials; hand-differentiated values at theta=(1.5, -0.5), u=(1, 2).
    t = var("theta", (2,))
    t1 = reduce_sum(engine.segment(t, 0, 1))
    t2 = reduce_sum(engine.segment(t, 1, 2))
    f = t1 ** 3 * t2 + 2.0 * t1 * t2 ** 2
    theta = np.array([1.5, -0.5])
    u = np.array([1.0, 2.0])

    # order 1: fx u1 + fy u2, fx = 3 t1^2 t2 + 2 t2^2, fy = t1^3 + 4 t1 t2
    d1 = 3 * 1.5**2 * -0.5 + 2 * 0.25 + 2 * (1.5**3 + 4 * 1.5 * -0.5)
    # order 2: fxx u1^2 + 2 fxy u1 u2 + fyy u2^2
    fxx = 6 * 1.5 * -0.5
    fxy = 3 * 1.5**2 + 4 * -0.5
    fyy = 4 * 1.5
    d2 = fxx + 2 * fxy * 2 + fyy * 4
    # order 3: fxxx u1^3 + 3 fxxy u1^2 u2 + 3 fxyy u1 u2^2 + fyyy u2^3
    d3 = 6 * -0.5 + 3 * (6 * 1.5) * 2 + 3 * 4 * 4 + 0.0
    # order 4: only fxxxy = 6 survives, coefficient C(4,1) u1^3 u2
    d4 = 4 * 6 * 2

    for order, expect in [(1, d1), (2, d2), (3, d3), (4, d4)]:
        got = nested_directional(f, theta, [u] * order)
        assert got == pytest.approx(expect, rel=1e-10)
    # total degree 4: the 5th derivative vanishes identically
    assert abs(nested_directional(f, theta, [u] * 5)) <= 1e-10


def test_nested_directional_distinct_directions():
    # bilinear contraction of the Hessian: u^T H v for the quadratic
    f = reduce_sum(quad_diag12())  # H = diag(2, 4)
    theta = np.array([0.2, 0.7])
    u = np.array([1.0, 0.0])
    v = np.array([0.0, 1.0])
    assert nested_directional(f, theta, [u, v]) == 0.0
    assert nested_directional(f, theta, [u, u]) == 2.0
    assert nested_directional(f, theta, [v, v]) == 4.0


def test_gradient_of_nested_is_hessian_vector_product():
    A = np.array([[2.0, 1.0], [1.0, 3.0]])
    t = var("theta", (2,))
    f = 0.5 * dot(t, engine.matmul(const(A), t))
    theta = np.array([0.3, -0.4])
    v = np.array([1.0, 2.0])
    w = gradient_of_nested(f, theta, [v])
    assert np.allclose(w, A @ v, rtol=1e-14)


def test_determinism_bit_identical():
    t = var("theta", (6,))
    f = reduce_mean(engine.tanh(t) ** 2) + dot(t, engine.exp(-0.5 * t))
    rng = np.random.default_rng(3)
    theta = rng.normal(size=6)
    vals = {evaluate(f, theta) for _ in range(5)}
    assert len(vals) == 1
    g1 = gradient(f, theta)
    g2 = gradient(f, theta)
    assert np.array_equal(g1, g2)
    d1 = nested_directional(f, theta, [theta, theta])
    d2 = nested_directional(f, theta, [theta, theta])
    assert d1 == d2


def _counted_call(case):
    """The call of one pass-counting case, and whether it runs a row folded:
    a single masked-gradient HVP on a moons MLP whose derivative graph sits
    above the folding grain (hvp-folded) or below it (hvp), or an entry
    point on a quadratic."""
    if case.startswith("hvp"):
        widths, n = ((2, 32, 32, 2), 300) if case == "hvp-folded" else ((2, 8, 8, 8, 2), 100)
        f, theta0 = make_mlp(MlpSpec(widths, seed=2), synth_dataset("moons", n, seed=0))
        theta, part = theta0.values, canonical_partition(theta0.shapes, mlp_labels(widths))
        p = (theta.size,)
        grain = engine._planned(gradient_expr(engine._chain(f, 1, p), "theta", shape=p)).grain
        u = mask(gradient(f, theta), part, 0)
        return lambda: gradient_of_nested(f, theta, [u]), grain >= engine.FOLD_GRAIN
    f, theta, u = reduce_sum(quad_diag12()), np.array([1.0, 2.0]), np.array([1.0, 1.0])
    return {"evaluate": lambda: evaluate(f, theta), "gradient": lambda: gradient(f, theta),
            "nested-d3": lambda: nested_directional(f, theta, [u, u, u])}[case], False


@pytest.mark.parametrize("case, want", [
    ("evaluate", (1, 0, 0, 0)),
    ("gradient", (1, 1, 1, 1)),
    ("nested-d3", (1, 3, 1, 1)),
    ("hvp", (1, 2, 1, 1)),
    ("hvp-folded", (1, 2, 1, 1)),
], ids=["evaluate", "gradient", "nested-d3", "hvp", "hvp-folded"])
def test_pass_counting(case, want):
    # (forward, backward, passes, sweeps) of every entry point; a single
    # HVP counts alike on the full graph and on a folded one
    call, folds = _counted_call(case)
    assert folds == (case == "hvp-folded")
    before = engine.counter.own()
    call()
    used = engine.counter.own() - before
    assert (used.forward, used.backward, used.passes, used.sweeps) == want


def test_log_domain_error_names_primitive():
    t = var("theta", (1,))
    f = reduce_sum(engine.log(t))
    with pytest.raises(EvaluationError, match="log"):
        evaluate(f, np.array([-1.0]))


def test_unbound_variable_error():
    f = reduce_sum(var("other", (2,)))
    with pytest.raises(EvaluationError, match="other"):
        evaluate(f, np.ones(2))


def test_misshaped_theta_is_an_evaluation_error():
    # only direction leaves may carry a leading stack axis
    f = reduce_sum(quad_diag12())
    theta = np.ones((1, 2))
    calls = [lambda: evaluate(f, theta), lambda: gradient(f, theta),
             lambda: gradient_of_nested(f, theta, []),
             lambda: gradient_of_nested(f, theta, [np.ones((1, 2))])]
    for call in calls:
        with pytest.raises(EvaluationError, match=r"'theta' expects shape \(2,\), got \(1, 2\)"):
            call()
    # the failed calls leave nothing behind that breaks a well-shaped one
    assert np.array_equal(gradient_of_nested(f, np.ones(2), [np.ones(2)]), [2.0, 4.0])


def test_substitute_rescales_parameters():
    f = reduce_sum(quad_diag12())
    t = var("theta", (2,))
    scaled = engine.substitute(f, {"theta": t * const(np.array([0.5, 2.0]))})
    # evaluating the substituted graph at x equals f at (0.5 x1, 2 x2)
    assert evaluate(scaled, np.array([2.0, 0.5])) == evaluate(f, np.array([1.0, 1.0]))


def test_expr_nodes_immutable():
    f = quad_diag12()
    with pytest.raises(AttributeError):
        f.op = "hacked"


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-3, 3), min_size=2, max_size=6))
def test_gradient_fd_property_softplus_net(xs):
    theta = np.array(xs, dtype=np.float64)
    t = var("theta", theta.shape)
    f = reduce_sum(engine.softplus(t) * engine.tanh(0.5 * t)) + 0.1 * dot(t, t)
    g = gradient(f, theta)
    ref = fd_gradient(f, theta)
    assert np.all(np.abs(g - ref) <= 1e-6 * (1.0 + np.abs(ref)))


def test_gradient_graph_size_is_constant_multiple():
    # one differentiation grows the graph by at most a constant factor, so a
    # derivative evaluation costs a constant multiple of one evaluation
    t = var("theta", (8,))
    f = reduce_mean(engine.tanh(t) ** 2) + dot(engine.exp(0.1 * t), engine.softplus(t))
    base = len(engine._planned(f).order)
    grown = len(engine._planned(engine.gradient_expr(f)).order)
    assert grown <= 12 * base


def test_concurrent_evaluations_schedule_independent():
    import concurrent.futures

    t = var("theta", (10,))
    f = reduce_sum(engine.tanh(t) * engine.softplus(0.5 * t)) + dot(t, t)
    rng = np.random.default_rng(19)
    points = [rng.normal(size=10) for _ in range(16)]
    dirs = [rng.normal(size=10) for _ in range(16)]

    # each thread keeps its own point's theta-only values between passes
    def work(x, u):
        return gradient(f, x), gradient_of_nested(f, x, [u]), gradient(f, x)

    serial = [work(x, u) for x, u in zip(points, dirs)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
            parallel = list(pool.map(work, points, dirs, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    for a, b in zip(serial, parallel):
        for x, y in zip(a, b):
            assert np.array_equal(x, y)


def test_param_vector_structure():
    pv = ParamVector.from_tensors([np.arange(6.0).reshape(2, 3), np.array([7.0, 8.0, 9.0])])
    assert pv.size == 9
    assert pv.shapes == ((2, 3), (3,))
    ts = pv.tensors()
    assert np.array_equal(ts[0], np.arange(6.0).reshape(2, 3))
    assert np.array_equal(ts[1], [7.0, 8.0, 9.0])
    # flat values follow declaration order, row-major
    assert np.array_equal(pv.values, np.arange(1.0 * 0, 6.0).tolist() + [7.0, 8.0, 9.0])


def test_param_vector_size_mismatch():
    with pytest.raises(ValueError):
        ParamVector(np.zeros(5), ((2, 3),))


def test_param_vector_values_read_only():
    pv = ParamVector.flat([1.0, 2.0])
    with pytest.raises(ValueError):
        pv.values[0] = 5.0
