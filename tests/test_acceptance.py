"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with ``pytest tests/test_acceptance.py -s`` to see them)."""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest
import yaml

from grouphess import engine
from grouphess.cli import main as cli_main
from grouphess.engine import ParamVector, const, evaluate, gradient, reduce_sum, substitute, var
from grouphess.fd import fd_pseudo_hessian
from grouphess.optimizers import (
    StepConfig,
    cauchy_step,
    newton_step,
    partitioned_newton_step,
    run,
)
from grouphess.partition import (
    canonical_partition,
    custom_partition,
    discrete_partition,
    trivial_partition,
)
from grouphess.problems import (
    MlpSpec,
    QuadraticProblem,
    QuadraticSpec,
    make_mlp,
    make_rosenbrock,
    mlp_labels,
    synth_dataset,
)
from grouphess.summaries import (
    pseudo_gradient,
    pseudo_hessian,
    regularization_vector,
    summary_tensor,
    taylor_term,
)


@contextmanager
def criterion(n, text):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {n}: {text}")
        raise
    print(f"PASS criterion {n}: {text}")


def pd_suite(count=50, seed=2024):
    """Random PD quadratics with a start point whose gradient has no zero
    entry (redrawn in the measure-zero case)."""
    rng = np.random.default_rng(seed)
    suite = []
    for _ in range(count):
        p = int(rng.integers(2, 9))
        prob = QuadraticProblem.generate(p, QuadraticSpec(0.1, 10.0, int(rng.integers(2**31))))
        while True:
            theta0 = prob.minimizer + rng.normal(size=p)
            if np.all(prob.A @ (theta0 - prob.minimizer) != 0.0):
                break
        suite.append((prob, theta0))
    return suite


SUITE = pd_suite()


def test_criterion_1_newton_recovery():
    with criterion(1, "discrete partition reproduces dense Newton on 50 PD quadratics"):
        t0 = time.perf_counter()
        for prob, theta0 in SUITE:
            f = prob.expr()
            pv = ParamVector.flat(theta0)
            stepped, _ = partitioned_newton_step(f, pv, discrete_partition(theta0.size))
            dense, _ = newton_step(f, pv)
            denom = np.linalg.norm(dense.values - theta0)
            assert np.linalg.norm(stepped.values - dense.values) <= 1e-8 * denom
        assert time.perf_counter() - t0 <= 5.0


def test_criterion_2_cauchy_recovery():
    with criterion(2, "trivial partition reproduces the analytic Cauchy step"):
        t0 = time.perf_counter()
        for prob, theta0 in SUITE:
            f = prob.expr()
            g = prob.A @ (theta0 - prob.minimizer)
            eta_star = float(g @ g) / float(g @ prob.A @ g)
            expected = theta0 - eta_star * g
            stepped, _ = partitioned_newton_step(
                f, ParamVector.flat(theta0), trivial_partition(theta0.size))
            denom = max(np.linalg.norm(expected - theta0), 1e-300)
            assert np.linalg.norm(stepped.values - expected) <= 1e-12 * denom
        assert time.perf_counter() - t0 <= 5.0


def test_criterion_3_worked_example():
    with criterion(3, "A=diag(1,2), theta0=(1,1): trivial (4/9,-1/9), discrete (0,0)"):
        prob = QuadraticProblem(np.diag([1.0, 2.0]), np.zeros(2), QuadraticSpec())
        f = prob.expr()
        pv = ParamVector.flat([1.0, 1.0])
        trivial, _ = partitioned_newton_step(f, pv, trivial_partition(2))
        assert np.max(np.abs(trivial.values - [4.0 / 9.0, -1.0 / 9.0])) <= 1e-12
        discrete, _ = partitioned_newton_step(f, pv, discrete_partition(2))
        assert np.max(np.abs(discrete.values)) <= 1e-12


def test_criterion_4_oracle_equivalence():
    with criterion(4, "pseudo-Hessian matches the finite-difference construction"):
        rng = np.random.default_rng(11)
        for prob, theta0 in SUITE[:6]:
            p = theta0.size
            part = custom_partition([tuple(range(0, p // 2)), tuple(range(p // 2, p))])
            f, pv = prob.expr(), ParamVector.flat(theta0)
            got = pseudo_hessian(f, pv, part).hbar
            ref = fd_pseudo_hessian(f, theta0, part, gradient(f, pv))
            assert np.all(np.abs(got - ref) <= 1e-5 * (1.0 + np.abs(ref)))

        data = synth_dataset("moons", 12, seed=5)
        spec = MlpSpec(widths=(2, 3, 2), seed=3)
        f, theta0 = make_mlp(spec, data)
        part = canonical_partition(theta0.shapes, mlp_labels(spec.widths))
        got = pseudo_hessian(f, theta0, part).hbar
        ref = fd_pseudo_hessian(f, theta0.values, part, gradient(f, theta0))
        assert np.all(np.abs(got - ref) <= 1e-5 * (1.0 + np.abs(ref)))


def _shipped_problems():
    prob = QuadraticProblem.generate(6, QuadraticSpec(0.5, 5.0, 7))
    quad = prob.expr()
    quad_theta = ParamVector.flat(prob.minimizer + 0.7)
    quad_part = custom_partition([(0, 3), (1, 4), (2, 5)])

    rosen = make_rosenbrock()
    rosen_theta = ParamVector.flat([-1.2, 1.0])
    rosen_part = discrete_partition(2)

    data = synth_dataset("moons", 12, seed=5)
    spec = MlpSpec(widths=(2, 3, 2), seed=3)
    mlp, mlp_theta = make_mlp(spec, data)
    mlp_part = canonical_partition(mlp_theta.shapes, mlp_labels(spec.widths))
    return [
        ("quadratic", quad, quad_theta, quad_part),
        ("rosenbrock", rosen, rosen_theta, rosen_part),
        ("mlp", mlp, mlp_theta, mlp_part),
    ]


def test_criterion_5_sum_collapse_and_symmetry():
    with criterion(5, "summary tensors collapse to Taylor terms and are symmetric"):
        rng = np.random.default_rng(99)
        for name, f, theta, part in _shipped_problems():
            for d in (1, 2, 3):
                for _ in range(20):
                    u = rng.normal(size=theta.size)
                    st_d = summary_tensor(f, theta, u, part, d)
                    tt = taylor_term(f, theta, u, d)
                    assert abs(st_d.total() - tt) <= 1e-10 * max(abs(tt), 1e-12), name
                    if d >= 2:
                        scale = max(float(np.max(np.abs(st_d.entries))), 1e-12)
                        for perm in ({2: [(1, 0)], 3: [(1, 0, 2), (2, 1, 0), (0, 2, 1)]}[d]):
                            delta = np.transpose(st_d.entries, perm) - st_d.entries
                            assert float(np.max(np.abs(delta))) / scale <= 1e-10, name


def test_criterion_6_cost_accounting():
    with criterion(6, "pseudo-Hessian uses exactly S+1 passes; tensors within budget"):
        rng = np.random.default_rng(42)
        for name, f, theta, part in _shipped_problems():
            s = part.size
            before = engine.counter.snapshot()
            pseudo_hessian(f, theta, part)
            assert (engine.counter.snapshot() - before).passes == s + 1, name
            for d in (1, 2, 3):
                before = engine.counter.snapshot()
                summary_tensor(f, theta, rng.normal(size=theta.size), part, d)
                used = (engine.counter.snapshot() - before).passes
                assert used <= s ** (d - 1) + s + 1, name


def test_criterion_7_model_decrease_dominance():
    with criterion(7, "partitioned decrease dominates the Cauchy decrease"):
        rng = np.random.default_rng(5150)
        for prob, theta0 in SUITE:
            p = theta0.size
            f = prob.expr()
            pv = ParamVector.flat(theta0)
            loss0 = evaluate(f, pv)
            after_cauchy, _ = cauchy_step(f, pv)
            dec_cauchy = loss0 - evaluate(f, after_cauchy)

            mid = int(rng.integers(1, p))
            grouping = custom_partition([tuple(range(mid)), tuple(range(mid, p))]) \
                if p > 1 else trivial_partition(p)
            for part in (trivial_partition(p), grouping, discrete_partition(p)):
                after, trace = partitioned_newton_step(f, pv, part)
                dec = loss0 - evaluate(f, after)
                assert dec >= dec_cauchy - 1e-12, trace.status


def _scaled_run(f, theta0, part, alphas, cfg):
    p = theta0.size
    a = np.empty(p)
    for s, grp in enumerate(part.groups):
        a[list(grp)] = alphas[s]
    t = var("theta", (p,))
    f_tilt = substitute(f, {"theta": t * const(1.0 / a)})
    base = run(f, theta0, "partitioned", part, cfg)
    tilt = run(f_tilt, ParamVector.flat(a * theta0.values), "partitioned", part, cfg)
    return base, tilt, a


def test_criterion_8_reparameterization_invariance():
    with criterion(8, "per-group rescaling maps 10-step trajectories onto each other"):
        cfg = StepConfig(max_iterations=10, grad_tolerance=0.0)
        rng = np.random.default_rng(31337)

        prob = QuadraticProblem.generate(6, QuadraticSpec(0.5, 4.0, 23))
        part = custom_partition([(0, 1), (2, 3), (4, 5)])
        theta0 = ParamVector.flat(prob.minimizer + rng.normal(size=6))
        alphas = rng.uniform(0.25, 4.0, size=part.size)
        base, tilt, a = _scaled_run(prob.expr(), theta0, part, alphas, cfg)
        assert all(tr.status == "clean" for tr in base.traces + tilt.traces)
        expected = a * base.theta_final.values
        err = np.abs(tilt.theta_final.values - expected) / (1e-300 + np.abs(expected))
        assert np.max(err) <= 1e-8

        data = synth_dataset("moons", 30, seed=1)
        spec = MlpSpec(widths=(2, 3, 2), seed=1)
        f, theta0 = make_mlp(spec, data)
        mpart = canonical_partition(theta0.shapes, mlp_labels(spec.widths))
        alphas = rng.uniform(0.25, 4.0, size=mpart.size)
        base, tilt, a = _scaled_run(f, theta0, mpart, alphas, cfg)
        assert all(tr.status == "clean" for tr in base.traces + tilt.traces)
        expected = a * base.theta_final.values
        err = np.abs(tilt.theta_final.values - expected) / (1e-300 + np.abs(expected))
        assert np.max(err) <= 1e-8


def test_criterion_9_regularizer():
    with criterion(9, "third-order regularizer: zero on quadratics, 6^(2/3) on a cube"):
        prob = QuadraticProblem.generate(5, QuadraticSpec(0.1, 10.0, 3))
        part = custom_partition([(0, 2), (1, 3, 4)])
        r = regularization_vector(prob.expr(), ParamVector.flat(np.ones(5)), part)
        assert np.array_equal(np.asarray(r), np.zeros(2))

        t = var("theta", (2,))
        cube = reduce_sum(engine.segment(t, 0, 1) ** 3) + reduce_sum(engine.segment(t, 1, 2) ** 2)
        r2 = regularization_vector(cube, ParamVector.flat([0.4, -0.7]), discrete_partition(2))
        expected = np.array([6.0 ** (2.0 / 3.0), 0.0])
        assert np.max(np.abs(np.asarray(r2) - expected)) <= 1e-10


MOONS_CONFIG = {
    "problem": {
        "kind": "mlp",
        "widths": [2, 8, 8, 8, 2],
        "dataset": {"kind": "moons", "n": 100, "seed": 0},
    },
    "method": "partitioned",
    "partition": "canonical",
    "seed": 2,
    "step": {"damping": 0.3, "max_iterations": 200, "grad_tolerance": 1e-10},
}


def test_criterion_10_heatmap_echo(tmp_path):
    with criterion(10, "after 200 steps the exported 8x8 system has off-diagonal mass"):
        cfg_path = tmp_path / "moons.yaml"
        cfg = dict(MOONS_CONFIG)
        cfg["out"] = str(tmp_path / "out")
        cfg_path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
        assert cli_main(["inspect", "--config", str(cfg_path), "--at", "checkpoint"]) == 0

        hbar = np.array(json.loads((tmp_path / "out" / "hbar.json").read_text())["hbar"])
        assert hbar.shape == (8, 8)
        diag_max = np.max(np.abs(np.diag(hbar)))
        off = hbar - np.diag(np.diag(hbar))
        assert np.max(np.abs(off)) > 1e-6 * diag_max


def test_criterion_11_end_to_end():
    with criterion(11, "moons MLP reaches loss 1e-3 in 500 steps; Newton solves Rosenbrock"):
        data = synth_dataset("moons", 100, seed=0)
        spec = MlpSpec(widths=(2, 8, 8, 8, 2), seed=2)
        f, theta0 = make_mlp(spec, data)
        part = canonical_partition(theta0.shapes, mlp_labels(spec.widths))
        cfg = StepConfig(damping=0.3, max_iterations=500, grad_tolerance=1e-10)
        result = run(f, theta0, "partitioned", part, cfg)
        assert min(tr.loss_after for tr in result.traces) <= 1e-3

        rosen = make_rosenbrock()
        res2 = run(rosen, ParamVector.flat([-1.2, 1.0]), "newton",
                   cfg=StepConfig(max_iterations=50, grad_tolerance=1e-8))
        assert res2.termination == "converged"
        assert len(res2.traces) <= 50
        final_g = gradient(rosen, res2.theta_final)
        assert float(np.linalg.norm(final_g)) <= 1e-8
