"""Structural-zero folding of the direction-dependent graphs.

Above ``engine.FOLD_GRAIN`` each row of ``gradient_of_nested`` runs on the
derivative graph folded to the tensor ranges that hold its directions'
nonzeros.  Every row must stay bitwise equal to the full graph's row, the
folded graphs must be keyed by tensor range (so their number stays bounded
and they die with the loss), and the counter must stay logical.
"""

import functools
import gc
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grouphess import engine
from grouphess.engine import PARAM, Expr, gradient_expr, gradient_of_nested
from grouphess.partition import canonical_partition, mask
from grouphess.problems import MlpSpec, make_mlp, mlp_labels, synth_dataset
from grouphess.summaries import pseudo_hessian, regularization_vector, summary_tensor

WIDE = (2, 32, 32, 2)  # P = 1,218 in 6 tensors


def _network(widths=WIDE, n=300):
    f, theta0 = make_mlp(MlpSpec(widths, seed=2), synth_dataset("moons", n, seed=0))
    return f, theta0.values, canonical_partition(theta0.shapes, mlp_labels(widths))


@functools.lru_cache(maxsize=None)
def _wide():
    return _network()


def _fresh_network():
    """A wide network over a row count that no other test's loss keeps
    alive: losses of one network and row count share one program, so this
    one's program starts empty."""
    return _network(n=299)


def _full_graph(f, p, d):
    """The unfolded graph ``gradient_of_nested`` evaluates for d directions."""
    return gradient_expr(engine._chain(f, d, (p,)), PARAM, shape=(p,))


def _full_row(f, theta, dirs):
    env = {PARAM: theta, **{engine._dir_name(k): u for k, u in enumerate(dirs, start=1)}}
    graph, bound = engine._unbind(_full_graph(f, theta.size, len(dirs)))
    return np.array(engine._run(graph, env, bound))


def _folded_graphs(f):
    """The folded graphs kept in f's program: keyed by tensor range per level."""
    return [key for key in f.program.derived
            if isinstance(key[1], tuple) and key[1] and isinstance(key[1][0], tuple)]


def _live_exprs():
    gc.collect()
    return sum(1 for obj in gc.get_objects() if type(obj) is Expr)


def test_the_networks_sit_on_either_side_of_the_crossover():
    f, theta, _ = _wide()
    for d in (1, 2):
        assert engine._planned(_full_graph(f, theta.size, d)).grain >= engine.FOLD_GRAIN
    small, theta, _ = _network((2, 8, 8, 8, 2), n=100)
    for d in (1, 2):
        assert engine._planned(_full_graph(small, theta.size, d)).grain < engine.FOLD_GRAIN


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**16), group=st.integers(0, 5),
       kind=st.sampled_from(["masked", "zero-edges", "sub-range"]))
def test_folded_hessian_rows_equal_full_graph_rows(seed, group, kind):
    f, theta0, part = _wide()
    rng = np.random.default_rng(seed)
    theta = theta0 + 0.3 * rng.normal(size=theta0.size)
    g = engine.gradient(f, theta)
    lo, hi = part.groups[group][0], part.groups[group][-1] + 1
    u = mask(g, part, group)
    if kind == "zero-edges":  # exact zeros at the group's edges
        cut = int(rng.integers(0, (hi - lo - 1) // 2 + 1))  # leaves a nonzero
        u[lo:lo + cut] = 0.0
        u[hi - cut:hi] = 0.0
    elif kind == "sub-range":
        a = int(rng.integers(lo, hi))
        b = int(rng.integers(a, hi)) + 1
        u = np.zeros(theta.size)
        u[a:b] = rng.normal(size=b - a)
    row = gradient_of_nested(f, theta, [u])
    assert row.tobytes() == _full_row(f, theta, [u]).tobytes()
    assert ((lo, hi),) in [key[1] for key in _folded_graphs(f)]
    # the same row inside a stack of every group's masked gradient, reversed
    stack = np.array([mask(g, part, s) for s in reversed(range(part.size))])
    stack[part.size - 1 - group] = u
    rows = gradient_of_nested(f, theta, [stack])
    for r in range(part.size):
        assert rows[r].tobytes() == _full_row(f, theta, [stack[r]]).tobytes()


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**16), groups=st.tuples(st.integers(0, 5), st.integers(0, 5)))
def test_folded_order2_rows_equal_full_graph_rows(seed, groups):
    # regularization_vector's rows: unit vectors e_i, e_j
    f, theta0, part = _wide()
    rng = np.random.default_rng(seed)
    theta = theta0 + 0.3 * rng.normal(size=theta0.size)
    units = []
    for s in groups:
        e = np.zeros(theta.size)
        e[rng.choice(part.groups[s])] = 1.0
        units.append(e)
    row = gradient_of_nested(f, theta, units)
    assert row.tobytes() == _full_row(f, theta, units).tobytes()
    spans = tuple((part.groups[s][0], part.groups[s][-1] + 1) for s in groups)
    assert spans in [key[1] for key in _folded_graphs(f)]


def test_interleaved_rows_of_two_tensors_scatter_back_in_place():
    # sub-range rows of two tensors, interleaved in one stack, with more
    # rows per tensor than its folded graph's width: each group runs in
    # several sweeps, and each sweep's rows land at their own indices
    f, theta, part = _wide()
    rng = np.random.default_rng(8)
    spans = [(part.groups[s][0], part.groups[s][-1] + 1) for s in (0, 2)]

    def sub_range_row(lo, hi):
        a = int(rng.integers(lo, hi))
        b = int(rng.integers(a, hi)) + 1
        u = np.zeros(theta.size)
        u[a:b] = rng.normal(size=b - a)
        return u

    gradient_of_nested(f, theta, [np.array([sub_range_row(*span) for span in spans])])
    graph, _ = engine._unbind(_full_graph(f, theta.size, 1))
    widths = [engine._planned(f.program.derived[(graph.nid, (span,))]).width for span in spans]
    count = 2 * max(widths) + 1  # rows per tensor, alternating between the two
    stack = np.array([sub_range_row(*spans[t]) for t in [0, 1] * count])
    before = engine.counter.own()
    rows = gradient_of_nested(f, theta, [stack])
    used = engine.counter.own() - before
    for r in range(len(stack)):
        assert rows[r].tobytes() == _full_row(f, theta, [stack[r]]).tobytes()
    assert used.passes == len(stack)
    assert used.sweeps == sum(math.ceil(count / w) for w in widths)


def test_summaries_and_regularizer_equal_the_full_graphs(monkeypatch):
    f, theta0, part = _wide()
    rng = np.random.default_rng(3)
    theta, u = theta0 + 0.3 * rng.normal(size=theta0.size), rng.normal(size=theta0.size)
    folded = (pseudo_hessian(f, theta, part).hbar, summary_tensor(f, theta, u, part, 2).entries,
              summary_tensor(f, theta, u, part, 3).entries,
              regularization_vector(f, theta, part, "sampled", samples=4).values)
    monkeypatch.setattr(engine, "FOLD_GRAIN", 2**62)
    full = (pseudo_hessian(f, theta, part).hbar, summary_tensor(f, theta, u, part, 2).entries,
            summary_tensor(f, theta, u, part, 3).entries,
            regularization_vector(f, theta, part, "sampled", samples=4).values)
    for a, b in zip(folded, full):
        assert a.tobytes() == b.tobytes()


def test_a_row_across_a_tensor_boundary_runs_the_full_graph():
    f, theta, part = _fresh_network()
    u = np.zeros(theta.size)
    edge = part.groups[1][0]
    u[edge - 2:edge + 2] = 1.0
    stack = np.array([mask(u, part, 0), u])
    rows = gradient_of_nested(f, theta, [stack])
    assert _folded_graphs(f) == []
    for r in range(2):
        assert rows[r].tobytes() == _full_row(f, theta, [stack[r]]).tobytes()


def test_plain_gradient_with_a_caller_variable_above_the_grain():
    # data passed as the caller's direction leaf _u1 makes its nodes
    # direction-dependent, also in the plain gradient graph; with no
    # directions there is nothing to fold
    x = engine.var(engine._dir_name(1), (1000, 32))
    w = engine.reshape(engine.segment(engine.var(PARAM, (64,)), 0, 32), (32, 1))
    f = engine.reduce_sum(engine.tanh(engine.matmul(x, w)) ** 2)
    rng = np.random.default_rng(6)
    env = {PARAM: rng.normal(size=64), engine._dir_name(1): rng.normal(size=(1000, 32))}
    assert engine._planned(_full_graph(f, 64, 0)).grain >= engine.FOLD_GRAIN
    g = gradient_of_nested(f, env, [])
    assert g.tobytes() == np.array(engine._run(_full_graph(f, 64, 0), env)).tobytes()
    assert np.array_equal(g, engine.gradient(f, env))


def test_folded_graphs_stay_keyed_by_tensor_and_die_with_the_loss():
    start = _live_exprs()
    f, theta0, part = _fresh_network()
    rng = np.random.default_rng(4)
    for _ in range(50):
        pseudo_hessian(f, theta0 + 0.3 * rng.normal(size=theta0.size), part)
    assert 0 < len(_folded_graphs(f)) <= part.size  # one tensor per group
    del f
    assert _live_exprs() == start


def test_pseudo_hessian_passes_and_sweeps_at_a_folding_size():
    f, theta, part = _network()
    s = part.size
    before = engine.counter.snapshot()
    pseudo_hessian(f, theta, part)
    used = engine.counter.snapshot() - before
    assert used.passes == s + 1
    assert used.sweeps == 1 + s  # one group per tensor, one row each
    assert used.backward == 1 + 2 * s


def test_small_networks_fold_nothing():
    f, theta, part = _network((2, 8, 8, 8, 2), n=100)
    pseudo_hessian(f, theta, part)
    summary_tensor(f, theta, np.ones(theta.size), part, 2)
    assert _folded_graphs(f) == []


def test_substitute_folds_structural_zeros():
    x, y = engine.var("x", (2,)), engine.var("y", (6,))
    wide = engine.embed(x, 2, 6)
    assert engine.substitute(engine.segment(y, 2, 4), {"y": wide}) is x
    f = engine.reduce_sum(engine.mul(engine.segment(engine.mul(y, y), 0, 2),
                                     engine.const(np.ones(2))))
    out = engine.substitute(f, {"y": wide})
    assert out.op == "const" and out.shape == () and float(out.payload) == 0.0
    g = engine.add(engine.segment(engine.neg(y), 2, 4), engine.const(np.ones(2)))
    folded = engine.substitute(g, {"y": wide})
    # a plan's order leaves out its root
    assert sorted([folded.op] + [node.op for node in engine._planned(folded).order]) == [
        "add", "const", "neg", "var"]
    assert np.array_equal(engine.evaluate(folded, {"x": np.array([1.0, 2.0])}), [0.0, -1.0])
    # a zero that no rule removes becomes a zero constant of its shape
    for h, want in ((engine.add(engine.segment(y, 0, 2), engine.const(3.0)), [3.0, 3.0]),
                    (engine.tanh(engine.segment(y, 0, 2)), [0.0, 0.0])):
        folded = engine.substitute(h, {"y": wide})
        assert "var" not in [folded.op] + [node.op for node in engine._planned(folded).order]
        assert engine.evaluate(folded, {}).tolist() == want
    with pytest.raises(engine.EvaluationError, match="replacement has"):
        engine.substitute(g, {"y": x})
