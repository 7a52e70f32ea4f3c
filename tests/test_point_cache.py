"""The engine evaluates each theta-only node once per point and thread.

Reusing those values must not change a single bit of any result, and no
stored array may be changed through an array handed to or from a caller.
"""

import collections
import dataclasses

import numpy as np
import pytest

from grouphess import engine
from grouphess.engine import ParamVector, evaluate, gradient, gradient_of_nested, var
from grouphess.optimizers import StepConfig, run
from grouphess.partition import canonical_partition
from grouphess.problems import MlpSpec, make_mlp, mlp_labels, synth_dataset
from grouphess.summaries import summary_tensor


_stored_point_values = engine._point_values


def _never_reuse(env, bound, point):
    """The point of a pass, with none of the values stored at it."""
    point.entry = None
    arrays, _ = _stored_point_values(env, bound, point)
    return arrays, {}


class _CountedValues(dict):
    """A value map that counts its lookups by node id."""

    def __init__(self):
        super().__init__()
        self.gets = collections.Counter()

    def get(self, key, default=None):
        self.gets[key] += 1
        return super().get(key, default)


def _moons():
    spec = MlpSpec(widths=(2, 8, 8, 8, 2), seed=2)
    f, theta0 = make_mlp(spec, synth_dataset("moons", 100, seed=0))
    return f, theta0, canonical_partition(theta0.shapes, mlp_labels(spec.widths))


def _run_and_tensor():
    f, theta0, part = _moons()
    result = run(f, theta0, "partitioned", part,
                 StepConfig(damping=0.3, max_iterations=20, grad_tolerance=0.0))
    traces = [dataclasses.replace(tr, wall_time=0.0) for tr in result.traces]
    u = np.random.default_rng(7).normal(size=theta0.size)
    tensor = summary_tensor(f, result.theta_final, u, part, 3)
    return traces, result.theta_final.values, tensor.entries


def test_reuse_is_bit_identical(monkeypatch):
    traces, theta, entries = _run_and_tensor()
    monkeypatch.setattr(engine, "_point_values", _never_reuse)
    fresh_traces, fresh_theta, fresh_entries = _run_and_tensor()
    assert len(traces) == 20
    assert traces == fresh_traces  # floats compare exactly; passes are logical
    assert theta.tobytes() == fresh_theta.tobytes()
    assert entries.tobytes() == fresh_entries.tobytes()


def test_each_point_only_value_is_looked_up_once_per_call(monkeypatch):
    f, theta0, _ = _moons()
    theta = theta0.values
    graph = engine._derivative(f, theta, 1, True)[0]
    plan = engine._planned(graph)
    stack = np.random.default_rng(5).normal(size=(3 * plan.width, theta.size))
    maps = []

    def counted(env, bound, point):
        point.entry = None
        arrays, _ = _stored_point_values(env, bound, point)
        maps.append(_CountedValues())
        return arrays, maps[-1]

    monkeypatch.setattr(engine, "_point_values", counted)
    before = engine.counter.own()
    rows = gradient_of_nested(f, theta, [stack])
    assert (engine.counter.own() - before).sweeps == 3
    fixed = [node.nid for node, is_fixed in zip([*plan.order, graph], plan.fixed)
             if is_fixed and node.op != "const"]
    assert len(maps) == 1 and dict(maps[0].gets) == dict.fromkeys(fixed, 1)
    monkeypatch.setattr(engine, "_point_values", _stored_point_values)
    assert rows.tobytes() == gradient_of_nested(f, theta, [stack]).tobytes()


def test_every_sweep_of_a_graph_reads_its_one_point_list(monkeypatch):
    f, theta0, part = _moons()
    handed, run = [], engine._run

    def spy(root, env, bound=None, stacked=False, arena=None, points=None):
        handed.append((root, points, len(points)))
        return run(root, env, bound, stacked, arena, points)

    monkeypatch.setattr(engine, "_run", spy)
    u = np.random.default_rng(8).normal(size=theta0.size)
    summary_tensor(f, theta0, u, part, 3)  # one order-2 graph in 4 sweeps
    assert len(handed) == 4 and len({id(root) for root, _, _ in handed}) == 1
    points = handed[0][1]
    assert all(p is points and n == len(points) > 0 for _, p, n in handed)  # one list, unchanged


def test_returned_arrays_do_not_alias_stored_values():
    f, theta0, part = _moons()
    theta = theta0.values
    u = np.random.default_rng(3).normal(size=theta.size)
    g = gradient(f, theta)
    h = gradient_of_nested(f, theta, [u])
    keep_g, keep_h = g.copy(), h.copy()
    g[:] = 7.0
    h[:] = 7.0
    assert np.array_equal(gradient(f, theta), keep_g)
    assert np.array_equal(gradient_of_nested(f, theta, [u]), keep_h)


def test_mutated_caller_theta_gives_fresh_results():
    f, theta0, _ = _moons()
    u = np.random.default_rng(4).normal(size=theta0.size)
    a = theta0.values.copy()
    b = a.copy()
    b += 0.25

    def hvp(x):
        return gradient_of_nested(f, x, [u])

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_point_values", _never_reuse)
        want = {"a": (gradient(f, a), hvp(a)), "b": (gradient(f, b), hvp(b))}

    x = a.copy()
    gradient(f, x)
    x += 0.25  # the caller reuses its writable array in place
    assert np.array_equal(gradient(f, x), want["b"][0])
    assert np.array_equal(hvp(b.copy()), want["b"][1])

    x = a.copy()
    gradient(f, x)
    x += 0.25
    # the stored point is a's bytes, kept in a copy the caller cannot reach
    assert np.array_equal(hvp(a.copy()), want["a"][1])
    assert np.array_equal(gradient(f, a), want["a"][0])


def test_signed_zeros_are_different_points():
    t = var("theta", (1,))
    flip = -t
    assert np.signbit(evaluate(flip, np.array([0.0])))[0]
    assert not np.signbit(evaluate(flip, np.array([-0.0])))[0]
    out = evaluate(flip, ParamVector.flat([1.0]))
    out[0] = 5.0
    assert evaluate(flip, ParamVector.flat([1.0]))[0] == -1.0
