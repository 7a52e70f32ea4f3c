import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grouphess import engine, optimizers
from grouphess.engine import ParamVector, const, dot, log, matmul, reduce_sum, substitute, var
from grouphess.optimizers import (
    METHODS,
    RunResult,
    SolverError,
    StepConfig,
    cauchy_step,
    gd_step,
    newton_step,
    partitioned_newton_step,
    run,
    solve_pseudo_system,
    traces_to_csv,
    traces_to_json,
)
from grouphess.partition import (
    canonical_partition,
    custom_partition,
    discrete_partition,
    trivial_partition,
)
from grouphess.problems import MlpSpec, make_mlp, mlp_labels, synth_dataset
from grouphess.summaries import PseudoSystem, pseudo_hessian


def quadratic_expr(A, c=None):
    A = np.asarray(A, dtype=np.float64)
    t = var("theta", (A.shape[0],))
    d = t - const(c) if c is not None else t
    return 0.5 * dot(d, matmul(const(A), d))


def random_pd_quadratic(rng, p, lo=0.1, hi=10.0):
    q, _ = np.linalg.qr(rng.normal(size=(p, p)))
    eigs = rng.uniform(lo, hi, size=p)
    A = q @ np.diag(eigs) @ q.T
    A = 0.5 * (A + A.T)
    c = rng.normal(size=p)
    return quadratic_expr(A, c), A, c


# solve_pseudo_system --------------------------------------------------------

def _system(hbar, gbar, part):
    return PseudoSystem(np.asarray(hbar, float), np.asarray(gbar, float), part)


def test_solve_worked_example():
    sys2 = _system([[1.0, 0.0], [0.0, 8.0]], [1.0, 4.0], discrete_partition(2))
    eta, status = solve_pseudo_system(sys2)
    assert status == "clean"
    assert np.allclose(eta, [1.0, 0.5], rtol=1e-14)


def test_solve_scalar_cauchy_formula():
    sys1 = _system([[9.0]], [5.0], trivial_partition(2))
    eta, status = solve_pseudo_system(sys1)
    assert status == "clean"
    assert eta[0] == pytest.approx(5.0 / 9.0, rel=1e-15)


def test_solve_all_groups_zero():
    sys0 = _system(np.zeros((2, 2)), np.zeros(2), discrete_partition(2))
    eta, status = solve_pseudo_system(sys0)
    assert status == "zero-groups-dropped(all)"
    assert np.array_equal(eta, np.zeros(2))


def test_solve_drops_zero_groups():
    # group 2 has zero pseudo-gradient; its row/column is zero as well
    hbar = np.array([[2.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 3.0]])
    sys3 = _system(hbar, [1.0, 0.0, 2.0], custom_partition([(0,), (1,), (2,)]))
    eta, status = solve_pseudo_system(sys3)
    assert status == "zero-groups-dropped(2)"
    assert eta[1] == 0.0
    reduced = hbar[np.ix_([0, 2], [0, 2])]
    assert np.allclose(reduced @ eta[[0, 2]], [1.0, 2.0], rtol=1e-12)


def test_solve_indefinite_climbs_ladder():
    # negative curvature: plain solve gives a non-descent direction
    sys2 = _system([[-1.0, 0.0], [0.0, -2.0]], [1.0, 1.0], discrete_partition(2))
    eta, status = solve_pseudo_system(sys2)
    assert status.startswith("regularized(")
    assert float(eta @ sys2.gbar) > 0.0


def test_solve_cauchy_fallback():
    # the active block's negative curvature (-1e9) lies beyond the top rung
    # (1e8), so the ladder is exhausted, while the whole-system sums still
    # give a usable Cauchy step
    sys2 = _system([[-1e9, 0.0], [0.0, 2e9]], [1.0, 0.0], discrete_partition(2))
    eta, status = solve_pseudo_system(sys2)
    assert status == "cauchy-fallback"
    assert np.array_equal(eta, [1e-9, 1e-9])  # sum(gbar) / sum(hbar)

    # negative total curvature: even the Cauchy formula is unusable, so the
    # fallback degrades to a plain gradient step (eta = 1)
    sys1 = _system([[-1e9]], [1.0], trivial_partition(2))
    eta, status = solve_pseudo_system(sys1)
    assert status == "gd-fallback"
    assert np.array_equal(eta, [1.0])


def test_solve_regularized_with_r():
    sys2 = _system([[1.0, 0.0], [0.0, 8.0]], [1.0, 4.0], discrete_partition(2))
    cfg = StepConfig(regularization_eps=1.0)
    eta, status = solve_pseudo_system(sys2, cfg, r=np.array([1.0, 0.0]))
    assert status == "clean"
    assert np.allclose(eta, [0.5, 0.5], rtol=1e-14)
    with pytest.raises(ValueError, match="r vector"):
        solve_pseudo_system(sys2, cfg)


# step rules -------------------------------------------------------------------

def test_partitioned_step_discrete_is_newton_one_shot():
    f = quadratic_expr(np.diag([1.0, 2.0]))
    theta0 = ParamVector.flat([1.0, 1.0])
    theta1, trace = partitioned_newton_step(f, theta0, discrete_partition(2))
    assert np.allclose(theta1.values, [0.0, 0.0], atol=1e-12)
    assert trace.status == "clean"


def test_partitioned_step_trivial_is_cauchy():
    f = quadratic_expr(np.diag([1.0, 2.0]))
    theta1, _ = partitioned_newton_step(f, ParamVector.flat([1.0, 1.0]), trivial_partition(2))
    assert np.allclose(theta1.values, [4.0 / 9.0, -1.0 / 9.0], atol=1e-12)


def test_partitioned_step_fixed_point_at_minimizer():
    f = quadratic_expr(np.diag([1.0, 2.0]), c=np.array([0.2, -0.8]))
    theta0 = ParamVector.flat([0.2, -0.8])
    theta1, trace = partitioned_newton_step(f, theta0, discrete_partition(2))
    assert np.array_equal(theta1.values, theta0.values)
    assert trace.status == "zero-groups-dropped(all)"


def test_cauchy_step_worked_example():
    f = quadratic_expr(np.diag([1.0, 2.0]))
    theta1, trace = cauchy_step(f, ParamVector.flat([1.0, 1.0]))
    assert np.allclose(theta1.values, [4.0 / 9.0, -1.0 / 9.0], atol=1e-14)
    assert trace.eta[0] == pytest.approx(5.0 / 9.0, rel=1e-14)
    assert trace.status == "clean"


def test_cauchy_step_isotropic_one_shot():
    f = quadratic_expr(np.eye(3))
    theta1, _ = cauchy_step(f, ParamVector.flat([0.3, -2.0, 1.1]))
    assert np.allclose(theta1.values, 0.0, atol=1e-15)


def test_cauchy_step_stationary_point():
    f = quadratic_expr(np.eye(2), c=np.array([1.0, 2.0]))
    theta1, trace = cauchy_step(f, ParamVector.flat([1.0, 2.0]))
    assert np.array_equal(theta1.values, [1.0, 2.0])
    assert trace.grad_norm == 0.0


def test_cauchy_step_negative_curvature_falls_back_to_gd():
    f = quadratic_expr(-np.eye(2))
    theta1, trace = cauchy_step(f, ParamVector.flat([1.0, 0.0]), StepConfig(damping=0.1))
    assert trace.status == "gd-fallback"
    # gradient is -theta, fixed step 0.1 moves along +theta
    assert np.allclose(theta1.values, [1.1, 0.0], rtol=1e-14)


def test_newton_step_pd_quadratic_one_shot_and_damping():
    rng = np.random.default_rng(4)
    f, A, c = random_pd_quadratic(rng, 4)
    theta0 = ParamVector.flat(rng.normal(size=4))
    theta1, trace = newton_step(f, theta0)
    assert np.allclose(theta1.values, c, rtol=1e-10)
    assert trace.status == "clean"

    half, _ = newton_step(f, theta0, StepConfig(damping=0.5))
    assert np.allclose(half.values - theta0.values,
                       0.5 * (theta1.values - theta0.values), rtol=1e-12)


def test_newton_budget_guard():
    f = reduce_sum(var("theta", (5,)) ** 2)
    with pytest.raises(SolverError, match="budget"):
        newton_step(f, ParamVector.flat(np.ones(5)), StepConfig(dense_budget=4))


def test_gd_step_examples():
    f = quadratic_expr(np.eye(2))
    theta1, _ = gd_step(f, ParamVector.flat([0.7, -0.3]), StepConfig(damping=1.0))
    assert np.allclose(theta1.values, 0.0, atol=1e-16)

    f2 = quadratic_expr(np.diag([1.0, 2.0]))
    theta1, _ = gd_step(f2, ParamVector.flat([1.0, 1.0]), StepConfig(damping=0.1))
    assert np.allclose(theta1.values, [0.9, 0.8], rtol=1e-15)


def test_step_config_validation():
    with pytest.raises(ValueError):
        StepConfig(damping=0.0)
    with pytest.raises(ValueError):
        StepConfig(regularization_eps=-1.0)
    with pytest.raises(ValueError, match="reg_mode"):
        StepConfig(reg_mode="bogus")
    with pytest.raises(ValueError, match="reg_samples"):
        StepConfig(reg_samples=0)


# run loop ---------------------------------------------------------------------

def test_run_partitioned_discrete_converges_in_one_iteration():
    rng = np.random.default_rng(8)
    f, _, c = random_pd_quadratic(rng, 4)
    theta0 = ParamVector.flat(c + rng.normal(size=4))
    result = run(f, theta0, "partitioned", discrete_partition(4))
    assert result.termination == "converged"
    assert len(result.traces) == 1
    assert np.allclose(result.theta_final.values, c, atol=1e-8)


def test_run_already_converged_start():
    f = quadratic_expr(np.eye(2), c=np.array([0.5, 0.5]))
    result = run(f, ParamVector.flat([0.5, 0.5]), "gd")
    assert result.termination == "converged"
    assert result.traces == ()


def test_run_rejects_unknown_method():
    f = quadratic_expr(np.eye(2))
    with pytest.raises(ValueError, match="gd, cauchy, newton, partitioned"):
        run(f, ParamVector.flat([1.0, 1.0]), "sgd")


def test_run_aborts_on_nonfinite():
    # oversized gd steps on a quartic cube the iterate until it overflows
    t = var("theta", (1,))
    f = reduce_sum(t ** 4)
    result = run(f, ParamVector.flat([2.0]), "gd",
                 cfg=StepConfig(damping=100.0, max_iterations=50, grad_tolerance=0.0))
    assert result.termination == "aborted-nonfinite"
    assert all(np.isfinite(tr.loss_after) for tr in result.traces)
    assert np.all(np.isfinite(result.theta_final.values))


def test_run_aborts_on_evaluation_error_keeping_the_trace():
    # gd walks log(theta) downhill until it steps to a non-positive theta
    f = reduce_sum(log(var("theta", (1,))))
    result = run(f, ParamVector.flat([1.0]), "gd",
                 cfg=StepConfig(damping=0.5, max_iterations=5, grad_tolerance=0.0))
    assert result.termination == "aborted-eval"
    assert "log" in result.error
    assert len(result.traces) == 1
    assert np.array_equal(result.theta_final.values, [0.5])


def test_partitioned_steps_never_raise_the_loss():
    # without the rise test this recipe's steps rise nine times and end at a
    # loss of ~1.9e6; the ladder now climbs until each step descends
    spec = MlpSpec(widths=(2, 8, 8, 8, 2), seed=2)
    f, theta0 = make_mlp(spec, synth_dataset("moons", 100, seed=2))
    part = canonical_partition(theta0.shapes, mlp_labels(spec.widths))
    cfg = StepConfig(damping=0.3, max_iterations=50, grad_tolerance=0.0)

    def single_steps(f, theta, method, part, cfg):
        # the single-step functions share run's step, rise test included
        traces = []
        for it in range(cfg.max_iterations):
            theta, trace = partitioned_newton_step(f, theta, part, cfg, iteration=it)
            traces.append(trace)
        return RunResult(tuple(traces), theta, "max-iterations")

    for drive in (run, single_steps):
        before = engine.counter.snapshot()
        result = drive(f, theta0, "partitioned", part, cfg)
        used = engine.counter.snapshot() - before
        # the rejected candidates' forwards are charged to their steps
        for field in ("forward", "backward", "passes", "sweeps"):
            assert sum(getattr(tr.passes, field) for tr in result.traces) == getattr(used, field)
        assert len(result.traces) == 50
        assert all(tr.loss_after <= tr.loss_before for tr in result.traces), drive
        assert result.traces[-1].loss_after < result.traces[0].loss_before
        assert result.traces[-1].loss_after == engine.evaluate(f, result.theta_final)


def make_rosenbrock_expr():
    t = var("theta", (2,))
    x = reduce_sum(engine.segment(t, 0, 1))
    y = reduce_sum(engine.segment(t, 1, 2))
    return (1.0 - x) ** 2 + 100.0 * (y - x ** 2) ** 2


def test_newton_rosenbrock_converges_within_50_steps():
    f = make_rosenbrock_expr()
    result = run(f, ParamVector.flat([-1.2, 1.0]), "newton",
                 cfg=StepConfig(max_iterations=50, grad_tolerance=1e-8))
    assert result.termination == "converged"
    assert np.allclose(result.theta_final.values, [1.0, 1.0], atol=1e-6)
    g = engine.gradient(f, result.theta_final)
    assert np.linalg.norm(g) <= 1e-8


def test_cauchy_rosenbrock_monotone_under_fallback_policy():
    f = make_rosenbrock_expr()
    cfg = StepConfig(damping=1e-3, max_iterations=200, grad_tolerance=1e-10)
    result = run(f, ParamVector.flat([-1.2, 1.0]), "cauchy", cfg=cfg)
    losses = [tr.loss_before for tr in result.traces] + [result.traces[-1].loss_after]
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


# recovery and dominance properties ---------------------------------------------

def test_newton_recovery_on_random_pd_quadratics():
    rng = np.random.default_rng(123)
    for _ in range(20):
        p = int(rng.integers(2, 9))
        f, A, c = random_pd_quadratic(rng, p)
        theta0 = c + rng.normal(size=p)
        g = A @ (theta0 - c)
        if np.any(g == 0.0):
            continue
        pv = ParamVector.flat(theta0)
        t_part, _ = partitioned_newton_step(f, pv, discrete_partition(p))
        t_newton, _ = newton_step(f, pv)
        denom = np.linalg.norm(t_newton.values - theta0)
        assert np.linalg.norm(t_part.values - t_newton.values) <= 1e-8 * denom


def test_cauchy_recovery_on_random_pd_quadratics():
    rng = np.random.default_rng(321)
    for _ in range(20):
        p = int(rng.integers(2, 9))
        f, _, c = random_pd_quadratic(rng, p)
        theta0 = c + rng.normal(size=p)
        pv = ParamVector.flat(theta0)
        t_part, _ = partitioned_newton_step(f, pv, trivial_partition(p))
        t_cauchy, _ = cauchy_step(f, pv)
        denom = max(np.linalg.norm(t_cauchy.values - theta0), 1e-300)
        assert np.linalg.norm(t_part.values - t_cauchy.values) <= 1e-12 * denom


def random_partition(rng, p):
    s = int(rng.integers(1, p + 1))
    assign = rng.integers(0, s, size=p)
    for g in range(s):  # ensure non-empty groups
        if not np.any(assign == g):
            assign[rng.integers(0, p)] = g
    groups = [tuple(np.flatnonzero(assign == g)) for g in range(s)]
    groups = [g for g in groups if g]
    return custom_partition(groups)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_model_decrease_dominates_cauchy(seed):
    rng = np.random.default_rng(seed)
    p = int(rng.integers(2, 7))
    f, _, _ = random_pd_quadratic(rng, p, lo=0.5, hi=5.0)
    theta0 = ParamVector.flat(rng.normal(size=p))
    loss0 = engine.evaluate(f, theta0)

    t_cauchy, trace_c = cauchy_step(f, theta0)
    dec_cauchy = loss0 - engine.evaluate(f, t_cauchy)

    for part in (trivial_partition(p), random_partition(rng, p), discrete_partition(p)):
        t_part, trace_p = partitioned_newton_step(f, theta0, part)
        if not (trace_p.status == "clean" or trace_p.status.startswith("zero-groups")):
            continue
        dec_part = loss0 - engine.evaluate(f, t_part)
        assert dec_part >= dec_cauchy - 1e-12


def reparameterized(f, p, scale_per_coord):
    # loss of the rescaled variable: L~(x) = L(x / a)
    t = var("theta", (p,))
    return substitute(f, {"theta": t * const(1.0 / scale_per_coord)})


def test_reparameterization_invariance_quadratic():
    rng = np.random.default_rng(77)
    p = 6
    f, A, c = random_pd_quadratic(rng, p, lo=0.5, hi=3.0)
    part = custom_partition([(0, 1), (2, 3), (4, 5)])
    alphas = rng.uniform(0.25, 4.0, size=part.size)
    a = np.concatenate([np.full(len(g), alphas[s]) for s, g in enumerate(part.groups)])

    f_tilt = reparameterized(f, p, a)
    theta0 = rng.normal(size=p)
    cfg = StepConfig(max_iterations=10, grad_tolerance=0.0)
    base = run(f, ParamVector.flat(theta0), "partitioned", part, cfg)
    tilt = run(f_tilt, ParamVector.flat(a * theta0), "partitioned", part, cfg)

    assert all(tr.status == "clean" for tr in base.traces + tilt.traces)
    assert len(base.traces) == len(tilt.traces) == 10
    expected = a * base.theta_final.values
    err = np.abs(tilt.theta_final.values - expected) / (1e-300 + np.abs(expected))
    assert np.max(err) <= 1e-8


def cubic_quadratic_mix(p, cubic_groups, part):
    # quadratic everywhere plus a cubic term inside selected groups
    t = var("theta", (p,))
    expr = 0.5 * dot(t, t) * 2.0
    for s in cubic_groups:
        for i in part.groups[s]:
            expr = expr + 0.1 * reduce_sum(engine.segment(t, i, i + 1) ** 3)
    return expr


def test_regularized_invariance_holds_exactly_when_r_covaries():
    # scaling only the purely quadratic groups (r_s = 0 there) preserves the
    # trajectory; scaling a cubic group breaks it
    rng = np.random.default_rng(15)
    p = 4
    part = custom_partition([(0, 1), (2, 3)])
    f = cubic_quadratic_mix(p, cubic_groups=[1], part=part)
    cfg = StepConfig(max_iterations=5, grad_tolerance=0.0, regularization_eps=0.5)
    theta0 = rng.normal(size=p)

    # alpha != 1 only on the quadratic group 0
    a_ok = np.array([3.0, 3.0, 1.0, 1.0])
    base = run(f, ParamVector.flat(theta0), "partitioned", part, cfg)
    tilt = run(reparameterized(f, p, a_ok), ParamVector.flat(a_ok * theta0),
               "partitioned", part, cfg)
    expected = a_ok * base.theta_final.values
    assert np.max(np.abs(tilt.theta_final.values - expected)
                  / (1e-300 + np.abs(expected))) <= 1e-8

    # alpha != 1 on the cubic group: the literal max-entry regularizer scales
    # with the wrong power, so the correspondence must break
    a_bad = np.array([1.0, 1.0, 2.0, 2.0])
    tilt_bad = run(reparameterized(f, p, a_bad), ParamVector.flat(a_bad * theta0),
                   "partitioned", part, cfg)
    expected_bad = a_bad * base.theta_final.values
    assert np.max(np.abs(tilt_bad.theta_final.values - expected_bad)) > 1e-6


def test_clean_steps_descend_on_the_model():
    rng = np.random.default_rng(31)
    for _ in range(10):
        p = int(rng.integers(2, 6))
        f, _, _ = random_pd_quadratic(rng, p)
        theta0 = ParamVector.flat(rng.normal(size=p))
        part = random_partition(rng, p)
        system = pseudo_hessian(f, theta0, part)
        eta, status = solve_pseudo_system(system)
        if status == "clean":
            assert float(eta @ system.gbar) > 0.0


# pass accounting ----------------------------------------------------------------

def _moons_mlp():
    spec = MlpSpec(widths=(2, 4, 2), seed=2)
    f, theta0 = make_mlp(spec, synth_dataset("moons", 24, seed=0))
    return f, theta0, canonical_partition(theta0.shapes, mlp_labels(spec.widths))


def test_partitioned_step_costs_s_plus_one_passes():
    f, theta0, part = _moons_mlp()
    cfg = StepConfig(damping=0.3, max_iterations=4, grad_tolerance=0.0)
    result = run(f, theta0, "partitioned", part, cfg)
    assert len(result.traces) == 4
    assert all(tr.passes.passes == part.size + 1 for tr in result.traces)

    theta = theta0
    for it in range(3):
        before = engine.counter.snapshot()
        theta, trace = partitioned_newton_step(f, theta, part, cfg, it)
        assert trace.passes.passes == part.size + 1
        assert trace.passes == engine.counter.snapshot() - before


@pytest.mark.parametrize("method", METHODS)
def test_run_traces_account_for_every_pass(method):
    f, theta0, part = _moons_mlp()
    before = engine.counter.snapshot()
    result = run(f, theta0, method, part,
                 StepConfig(damping=0.3, max_iterations=3, grad_tolerance=0.0))
    used = engine.counter.snapshot() - before
    assert result.termination == "max-iterations"
    for field in ("forward", "backward", "passes", "sweeps"):
        assert sum(getattr(tr.passes, field) for tr in result.traces) == getattr(used, field)


def test_run_carries_the_loss_across_iterations(monkeypatch):
    spec = MlpSpec(widths=(2, 8, 8, 8, 2), seed=2)
    f, theta0 = make_mlp(spec, synth_dataset("moons", 100, seed=0))
    part = canonical_partition(theta0.shapes, mlp_labels(spec.widths))
    rejected = []  # per step, the candidates the rise test turned down
    solve = optimizers.solve_pseudo_system

    def spy(system, cfg, r, accept):
        verdicts = []

        def counted(eta):
            verdicts.append(accept(eta))
            return verdicts[-1]

        out = solve(system, cfg, r, counted)
        rejected.append(verdicts.count(False))
        return out

    monkeypatch.setattr(optimizers, "solve_pseudo_system", spy)
    before = engine.counter.snapshot()
    result = run(f, theta0, "partitioned", part,
                 StepConfig(damping=0.3, max_iterations=30, grad_tolerance=0.0))
    assert len(result.traces) == 30
    traces = result.traces
    assert all(a.loss_after == b.loss_before for a, b in zip(traces, traces[1:]))
    # gradient, loss before, S HVPs, one forward per rejected candidate and
    # the accepted one's, which is the loss after; later steps start from
    # the loss the previous step ended with
    assert len(rejected) == 30 and sum(rejected) > 0
    assert traces[0].passes.forward == part.size + 3 + rejected[0]
    assert all(tr.passes.forward == part.size + 2 + k for tr, k in zip(traces[1:], rejected[1:]))
    assert (engine.counter.snapshot() - before).forward == 301 + sum(rejected)


# serialization ------------------------------------------------------------------

def test_trace_csv_and_json():
    f = quadratic_expr(np.diag([1.0, 2.0]))
    result = run(f, ParamVector.flat([1.0, 1.0]), "partitioned", discrete_partition(2),
                 StepConfig(max_iterations=3))
    text = traces_to_csv(result.traces)
    lines = text.splitlines()
    assert lines[0] == "iter,loss,grad_norm,status,eta_1,eta_2"
    assert lines[1].startswith("0,1.5,")
    rows = __import__("json").loads(traces_to_json(result.traces))
    assert rows[0]["status"] == "clean"
    assert rows[0]["passes"]["passes"] >= 3
    assert 1 <= rows[0]["passes"]["sweeps"] <= rows[0]["passes"]["passes"]

    # byte-identical across reruns
    again = run(f, ParamVector.flat([1.0, 1.0]), "partitioned", discrete_partition(2),
                StepConfig(max_iterations=3))
    assert traces_to_csv(again.traces) == text


def test_json_writes_non_finite_values_as_null():
    nan, inf = float("nan"), float("inf")
    text = optimizers.strict_json({"b": [inf, 1.5, np.float64(-inf)], "a": (nan, {"c": 2})})
    assert text == optimizers.strict_json({"a": [None, {"c": 2}], "b": [None, 1.5, None]})
    assert "NaN" not in text and "Infinity" not in text
    f = quadratic_expr(np.diag([1.0, 2.0]))
    trace = run(f, ParamVector.flat([1.0, 1.0]), "gd", None, StepConfig(max_iterations=1)).traces[0]
    rows = __import__("json").loads(traces_to_json([dataclasses.replace(trace, grad_norm=inf)]))
    assert rows[0]["grad_norm"] is None
