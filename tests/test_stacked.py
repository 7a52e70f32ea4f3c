"""Stacked direction sweeps and last-use freeing in the engine.

``gradient_of_nested`` takes (B, P) direction stacks and evaluates every
direction-dependent node for a sweep of rows at once.  Each row must be
bitwise equal to the pass with that row alone, and to the pass with 1-D
directions; a sweep's arena stays within ``engine.BUDGET`` bytes; and the
counter stays logical while ``sweeps`` counts what ran.
"""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grouphess import engine
from grouphess.engine import (
    PARAM,
    EvaluationError,
    gradient_expr,
    gradient_of_nested,
    reduce_sum,
    var,
)
from grouphess.optimizers import StepConfig, run
from grouphess.partition import canonical_partition
from grouphess.problems import MlpSpec, make_mlp, make_quadratic, make_rosenbrock, mlp_labels, synth_dataset
from grouphess.summaries import pseudo_hessian, summary_tensor


MOONS_S = 8  # groups of the canonical moons partition


def _mlp(widths=(2, 5, 4, 3), activation="tanh", n=20):
    spec = MlpSpec(widths=widths, seed=2, activation=activation,
                   loss="softmax-cross-entropy" if activation == "softplus" else "mse")
    f, theta0 = make_mlp(spec, synth_dataset("moons", n, seed=0))
    return f, theta0.values, canonical_partition(theta0.shapes, mlp_labels(widths))


def _problem(name):
    if name == "quadratic":
        f, xstar = make_quadratic(6)
        return f, xstar
    if name == "rosenbrock":
        return make_rosenbrock(), np.array([-1.2, 1.0])
    if name == "scalar-sums":  # derivative graphs that sum rank-0 values
        theta = var(PARAM, (4,))
        s = reduce_sum(engine.tanh(theta))
        return engine.exp(reduce_sum(s * s)) + reduce_sum(s * theta), np.linspace(-0.5, 0.5, 4)
    return _mlp(activation=name)[:2]


def _derivative_graph(f, p, d):
    """The graph ``gradient_of_nested`` evaluates for d directions."""
    return gradient_expr(engine._chain(f, d, (p,)), PARAM, shape=(p,))


def _width(f, p, d):
    return engine._planned(_derivative_graph(f, p, d)).width


def _unstacked(expr, theta, dirs):
    """``expr`` evaluated by the pass with 1-D directions."""
    env = {PARAM: theta, **{engine._dir_name(k): u for k, u in enumerate(dirs, start=1)}}
    graph, bound = engine._unbind(expr)
    return np.array(engine._run(graph, env, bound), ndmin=1)


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(["quadratic", "rosenbrock", "scalar-sums", "tanh", "softplus"]),
       d=st.sampled_from([1, 2]),
       rows=st.sampled_from(["one", "width", "width+1", "S+3"]),
       seed=st.integers(0, 2**16))
def test_stacked_rows_equal_single_direction_calls(name, d, rows, seed):
    f, theta = _problem(name)
    p = theta.size
    rng = np.random.default_rng(seed)
    theta = theta + 0.3 * rng.normal(size=p)
    with mock.patch.object(engine, "BUDGET", 2**14):  # narrow sweeps, so that rows cross them
        width = _width(f, p, d)
    assert 1 <= width <= 2**11  # these graphs' widths are 1 to 2,048 at this budget
    b = {"one": 1, "width": width, "width+1": width + 1, "S+3": MOONS_S + 3}[rows]
    stacks = [rng.normal(size=(b, p)) for _ in range(d)]
    out = gradient_of_nested(f, theta, stacks)
    assert out.shape == (b, p)
    expr = _derivative_graph(f, p, d)
    for r in range(b):
        row = [u[r] for u in stacks]
        assert out[r].tobytes() == gradient_of_nested(f, theta, row).tobytes()
        assert out[r].tobytes() == _unstacked(expr, theta, row).tobytes()


def test_stacked_rows_match_the_unstacked_evaluator_on_a_wider_network():
    # stacked 2-D right operands of matmul keep their layout: a contiguous
    # copy of a transposed operand changes BLAS's result at these sizes
    f, theta, _ = _mlp((2, 32, 32, 2), n=300)
    p = theta.size
    rng = np.random.default_rng(0)
    for d in (1, 2):
        stacks = [rng.normal(size=(3, p)) for _ in range(d)]
        out = gradient_of_nested(f, theta, stacks)
        expr = _derivative_graph(f, p, d)
        for r in range(3):
            assert out[r].tobytes() == _unstacked(expr, theta, [u[r] for u in stacks]).tobytes()


def _transposed_sum_graph():
    """A loss whose derivative graphs hold direction-dependent values that
    are transposed (non-contiguous) and summed with ``axis=None``: the
    direction leaf enters the loss itself."""
    m, n = 7, 5
    theta = var(PARAM, (m * n,))
    u = var(engine._dir_name(1), (m * n,))
    w = engine.reshape(theta, (m, n))
    t = engine.transpose(engine.tanh(engine.mul(w, engine.reshape(u, (m, n)))))
    x = engine.const(np.random.default_rng(0).normal(size=(3, n)))
    f = reduce_sum(engine.mul(t, t)) + engine.dot(reduce_sum(engine.matmul(x, t), axis=0),
                                                  engine.const(np.arange(m, dtype=float)))
    return f, m * n


def test_stacked_sum_of_a_transposed_value_matches_rowwise():
    f, p = _transposed_sum_graph()
    plan = engine._planned(f)
    sums = [node for node, fixed in zip(plan.order, plan.fixed)
            if not fixed and node.op == "sum" and node.payload is None
            and node.inputs[0].op == "mul" and node.inputs[0].inputs[0].op == "transpose"]
    assert sums  # the graph does hold the case under test
    rng = np.random.default_rng(9)
    theta = rng.normal(size=p)
    for d in (1, 2):
        for b in (1, 4, 11):
            stacks = [rng.normal(size=(b, p)) for _ in range(d)]
            out = gradient_of_nested(f, theta, stacks)
            expr = _derivative_graph(f, p, d)
            for r in range(b):
                assert out[r].tobytes() == _unstacked(expr, theta, [u[r] for u in stacks]).tobytes()
    # the loss itself, evaluated for a stack of direction rows
    stack = rng.normal(size=(6, p))
    values = engine._run(f, {PARAM: theta, engine._dir_name(1): stack}, stacked=True)
    for r in range(6):
        assert values[r].tobytes() == _unstacked(f, theta, [stack[r]])[0].tobytes()


def test_stacked_call_with_other_variables_in_the_environment():
    # nodes that depend on a caller's variable but on no direction are not
    # theta-only, yet carry no stack axis
    theta, x = var(PARAM, (12,)), var("x", (4,))
    h = engine.matmul(engine.reshape(theta, (3, 4)), engine.transpose(engine.reshape(x, (1, 4))))
    f = reduce_sum(engine.tanh(engine.segment(engine.reshape(h, (3,)), 0, 2)) ** 3)
    rng = np.random.default_rng(5)
    env = {PARAM: rng.normal(size=12), "x": rng.normal(size=4)}
    stack = rng.normal(size=(5, 12))
    out = gradient_of_nested(f, env, [stack])
    expr = _derivative_graph(f, 12, 1)
    for r in range(5):
        single = gradient_of_nested(f, env, [stack[r]])
        plain = engine._run(expr, {**env, engine._dir_name(1): stack[r]})
        assert out[r].tobytes() == single.tobytes() == plain.tobytes()


def test_stacked_call_rejects_a_misshaped_caller_variable():
    # only direction leaves may be bound with a leading stack axis
    theta, x = var(PARAM, (12,)), var("x", (4,))
    h = engine.matmul(engine.reshape(theta, (3, 4)), engine.transpose(engine.reshape(x, (1, 4))))
    f = reduce_sum(engine.tanh(engine.segment(engine.reshape(h, (3,)), 0, 2)) ** 3)
    rng = np.random.default_rng(5)
    env = {PARAM: rng.normal(size=12), "x": rng.normal(size=(5, 4))}
    with pytest.raises(EvaluationError,
                       match=r"variable 'x' expects shape \(4,\), got \(5, 4\)"):
        gradient_of_nested(f, env, [rng.normal(size=(5, 12))])


def test_single_directions_run_as_one_plain_pass(monkeypatch):
    f, theta, _ = _mlp()
    p = theta.size
    bound = []
    run_pass = engine._run

    def spy(root, env, arrays, stacked=False, arena=None, points=None):
        bound.append(env[engine._dir_name(1)].shape)
        return run_pass(root, env, arrays, stacked, arena, points)

    monkeypatch.setattr(engine, "_run", spy)
    before = engine.counter.own()
    out = gradient_of_nested(f, theta, [np.ones(p)])
    used = engine.counter.own() - before
    assert out.shape == (p,)
    assert bound == [(p,)]
    assert (used.passes, used.sweeps) == (1, 1)


def test_direction_stacks_must_agree():
    f, theta = _problem("quadratic")
    p = theta.size
    with pytest.raises(EvaluationError, match="direction 2"):
        gradient_of_nested(f, theta, [np.ones((3, p)), np.ones((4, p))])
    with pytest.raises(EvaluationError, match="direction 2"):
        gradient_of_nested(f, theta, [np.ones((3, p)), np.ones(p)])
    with pytest.raises(EvaluationError, match="direction 1"):
        gradient_of_nested(f, theta, [np.ones(p + 1)])


def _held_and_peak(expr):
    """Direction-dependent elements of one row of ``expr``, and the most of
    them live at once under ``plan.frees``, the liveness the arena is packed by."""
    plan = engine._planned(expr)
    frees, nodes = plan.frees, [*plan.order, engine._unbind(expr)[0]]  # the root comes last
    size, alive, peak = {}, 0, 0
    for node, fixed in zip(nodes, plan.fixed):
        if fixed:
            continue
        for child in node.inputs:  # a consumer never runs after its input was freed
            assert child.nid in size or plan.fixed[nodes.index(child)]
        size[node.nid] = math.prod(node.shape)
        alive += size[node.nid]
        peak = max(peak, alive)
        for dead in frees.get(node.nid, ()):
            alive -= size.pop(dead)
    return sum(math.prod(node.shape) for node, fixed in zip(nodes, plan.fixed)
               if not fixed), peak


def test_sweep_width_keeps_a_sweep_within_the_byte_budget():
    for widths, n in (((2, 8, 8, 8, 2), 100), ((2, 32, 32, 2), 1000), ((2, 64, 64, 64, 2), 2000)):
        f, theta, _ = _mlp(widths, n=n)
        for d in (1, 2):
            engine._planned(_derivative_graph(f, theta.size, d))
        engine.evaluate_points(f, theta[None])  # the stencil graph
        plans = list(f.program.plans.values())
        assert len(plans) >= 6
        for plan in plans:  # the widest sweep within the budget, or one row
            assert plan.width == 1 or 8 * plan.width * plan.extent <= engine.BUDGET, widths
            assert plan.extent == 0 or 8 * (plan.width + 1) * plan.extent > engine.BUDGET
        if n == 100:  # the benchmark's moons-small: a step's S HVPs run in one sweep
            assert _width(f, theta.size, 1) >= MOONS_S


def test_freed_values_bound_one_hessian_vector_product():
    f, theta, _ = _mlp((2, 64, 64, 64, 2), n=2000)
    p = theta.size
    held = 8 * _held_and_peak(_derivative_graph(f, p, 1))[0]
    rng = np.random.default_rng(1)
    gradient_of_nested(f, theta, [rng.normal(size=p)])  # theta-only values now stored
    u = rng.normal(size=p)
    tracemalloc.start()
    try:
        gradient_of_nested(f, theta, [u])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert held > 50e6
    assert peak < held / 2


def test_stacked_calls_keep_logical_pass_counts():
    f, theta, part = _mlp((2, 8, 8, 8, 2), n=100)
    s, p = part.size, theta.size
    width = _width(f, p, 1)

    before = engine.counter.snapshot()
    pseudo_hessian(f, theta, part)
    used = engine.counter.snapshot() - before
    assert used.passes == s + 1
    assert used.sweeps == 1 + math.ceil(s / width)

    u = np.random.default_rng(2).normal(size=p)
    before = engine.counter.snapshot()
    summary_tensor(f, theta, u, part, 3)
    used = engine.counter.snapshot() - before
    # the pairs of groups of one color s % 2: C(5, 2) among the 4 even groups, as many among the odd
    assert s == 8
    rows = 2 * math.comb(5, 2)
    assert used.passes == rows == 20
    assert used.backward == 3 * rows
    assert used.sweeps == math.ceil(rows / _width(f, p, 2))


def test_partitioned_step_reports_passes_and_sweeps():
    f, theta, part = _mlp((2, 8, 8, 8, 2), n=100)
    s = part.size
    width = _width(f, theta.size, 1)
    result = run(f, theta, "partitioned", part,
                 StepConfig(damping=0.3, max_iterations=3, grad_tolerance=0.0))
    assert len(result.traces) == 3
    for tr in result.traces:
        assert tr.passes.passes == s + 1
        assert tr.passes.sweeps == 1 + math.ceil(s / width)
