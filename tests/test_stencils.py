"""Finite-difference stencils as stacked rows.

``grouphess.fd`` hands every point of a batch of stencils to
``engine.evaluate_points`` in one call.  Each value must be bitwise the
one-``evaluate``-per-point loop below, below and above ``FOLD_GRAIN``, and
across calls of one sweep of the stencil plan; each point counts as one forward
evaluation and no pass.
"""

import gc
import itertools
import math
import weakref
from unittest import mock

import numpy as np
import pytest

from grouphess import engine
from grouphess.engine import PassCounts, evaluate, evaluate_points
from grouphess.fd import fd_gradient, fd_hessian, fd_nested_directional
from grouphess.problems import MlpSpec, make_mlp, make_rosenbrock, synth_dataset


def _scalar_stencil(f, theta, dirs, h):
    """The mixed central difference with one ``engine.evaluate`` per point."""
    total = None
    for signs in itertools.product((1, -1), repeat=len(dirs)):
        point = theta
        for s, u in zip(signs, dirs):
            point = point + (s * h) * u
        term = math.prod(signs) * evaluate(f, point)
        total = term if total is None else total + term
    return total / math.prod([2 * h] * len(dirs))


def _unit(n, i):
    return np.eye(1, n, i)[0]


def _scalar_gradient(f, theta, h=1e-5):
    n = theta.size
    return np.array([_scalar_stencil(f, theta, [_unit(n, i)], h) for i in range(n)])


def _mlp(widths, n):
    f, theta0 = make_mlp(MlpSpec(widths, seed=2), synth_dataset("moons", n, seed=0))
    return f, theta0.values


def _stencil_plan(f, p):
    graph = engine._unbind(f)[0]
    return engine._planned(f.program.derived[(graph.nid, (0, (p,)))])


@pytest.mark.parametrize("widths, n, folds", [((2, 8, 8, 8, 2), 100, False),
                                              ((2, 4, 2), 2000, True)],
                         ids=["below-the-grain", "above-the-grain"])
def test_fd_gradient_equals_the_scalar_evaluate_loop(widths, n, folds):
    f, theta = _mlp(widths, n)
    g = fd_gradient(f, theta)
    plan = _stencil_plan(f, theta.size)
    assert plan.slots and (plan.grain >= engine.FOLD_GRAIN) == folds
    assert plan.width > 1  # the points run stacked
    assert g.tobytes() == _scalar_gradient(f, theta).tobytes()


def test_fd_gradient_split_across_calls_is_unchanged():
    f, theta = _mlp((2, 3, 2), 20)
    want = _scalar_gradient(f, theta)
    calls = []
    points = engine.evaluate_points
    # the stencil plan's rows take 100 elements, so its sweeps are 6 points of 3 stencils
    with mock.patch.object(engine, "BUDGET", 8 * 100 * 2 * 3), \
            mock.patch.object(engine, "evaluate_points",
                              lambda f, p: calls.append(len(p)) or points(f, p)):
        assert fd_gradient(f, theta).tobytes() == want.tobytes()
    assert (_stencil_plan(f, theta.size).extent, _stencil_plan(f, theta.size).width) == (100, 6)
    assert calls == [6] * (theta.size // 3) + [2 * (theta.size % 3)] * (theta.size % 3 > 0)


def test_fd_hessian_and_higher_orders_equal_the_scalar_loop():
    f, theta = make_rosenbrock(), np.array([-1.2, 1.0])
    want = np.zeros((2, 2))
    for i, j in itertools.combinations_with_replacement(range(2), 2):
        want[i, j] = want[j, i] = _scalar_stencil(f, theta, [_unit(2, i), _unit(2, j)], 1e-4)
    assert fd_hessian(f, theta).tobytes() == want.tobytes()
    g, theta = _mlp((2, 3, 2), 10)
    u = np.random.default_rng(2).normal(size=theta.size)
    want = _scalar_stencil(g, theta, [u] * 3, 1e-2)
    assert fd_nested_directional(g, theta, [u, u, u], 1e-2) == want
    stacks = [np.random.default_rng(k).normal(size=(4, theta.size)) for k in range(2)]
    rows = fd_nested_directional(g, theta, stacks, 1e-3)
    for b in range(4):
        assert rows[b] == _scalar_stencil(g, theta, [stacks[0][b], stacks[1][b]], 1e-3)


def test_stencil_rows_count_one_forward_each_and_no_pass():
    f, theta = _mlp((2, 8, 8, 8, 2), 100)
    p = theta.size
    before = engine.counter.own()
    fd_gradient(f, theta)
    assert engine.counter.own() - before == PassCounts(forward=2 * p)
    before = engine.counter.own()
    fd_hessian(make_rosenbrock(), np.array([-1.2, 1.0]))
    assert engine.counter.own() - before == PassCounts(forward=4 * 3)  # 4 points per pair


def test_points_are_rows_of_one_kept_graph_that_dies_with_the_loss():
    f, theta = _mlp((2, 3, 2), 12)
    points = theta + np.random.default_rng(0).normal(size=(5, theta.size))
    values = evaluate_points(f, points)
    assert values.shape == (5,)
    assert [v.tobytes() for v in values] == [np.float64(evaluate(f, x)).tobytes() for x in points]
    derived = dict(f.program.derived)
    evaluate_points(f, points[:2])
    assert f.program.derived == derived  # the second call derives nothing
    with pytest.raises(engine.EvaluationError, match="shape"):  # theta has P entries
        evaluate_points(f, points[:, :-1])
    ref = weakref.ref(engine._unbind(f)[0])
    del f, derived
    gc.collect()
    assert ref() is None
