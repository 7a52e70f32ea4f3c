"""The static memory plan of every plan, below and above ``engine.FOLD_GRAIN``.

Each value a kernel writes goes into a buffer: a value that depends on a
direction into an arena offset packed by liveness, a point-only value into
its node's point buffer.  Two values alive at once must never share arena
elements, but for an elementwise kernel that writes over an input read
last by it; a view must keep its base's elements until its own last use; no
result may alias a buffer; and threads must not see each other's buffers.
"""

import functools
import math
import threading

import numpy as np
import pytest

from grouphess import engine
from grouphess.engine import PARAM, gradient, gradient_expr, gradient_of_nested
from grouphess.fd import fd_gradient
from grouphess.partition import canonical_partition, mask
from grouphess.problems import MlpSpec, make_mlp, mlp_labels, synth_dataset

WIDE = (2, 32, 32, 2)  # P = 1,218 in 6 tensors
SMALL = (2, 8, 8, 8, 2)  # P = 186; on 100 points every plan is below the grain


@functools.lru_cache(maxsize=None)
def _loss(widths, n):
    f, theta0 = make_mlp(MlpSpec(widths, seed=2), synth_dataset("moons", n, seed=0))
    return f, theta0.values, canonical_partition(theta0.shapes, mlp_labels(widths))


def _wide():
    return _loss(WIDE, 300)


def _graph(f, p, d=1):
    """The unfolded graph ``gradient_of_nested`` evaluates for d directions."""
    return gradient_expr(engine._chain(f, d, (p,)), PARAM, shape=(p,))


def _stack(theta, part, seed=0):
    rng = np.random.default_rng(seed)
    return np.stack([mask(rng.normal(size=theta.size), part, s) for s in range(part.size)])


def _arena_values(graph):
    """The plan of ``graph`` and, for each value in its arena: (first
    position, last position it or a view of it is read, offset, size)."""
    plan = engine._planned(graph)
    nodes = plan.order + [engine._unbind(graph)[0]]
    position = {node.nid: k for k, node in enumerate(nodes)}
    end = {k: k for k, is_fixed in enumerate(plan.fixed) if not is_fixed}
    for consumer, dead in plan.frees.items():
        for nid in dead:
            end[position[nid]] = position[consumer]
    direct = dict(end)
    for k in reversed(range(len(nodes))):  # a view extends its input's life
        if nodes[k].op in engine._VIEWS and k in end:
            base = position[nodes[k].inputs[0].nid]
            end[base] = max(end[base], end[k])
    values = {nid: (position[nid], end[position[nid]], o, math.prod(nodes[position[nid]].shape))
              for nid, o in plan.slots.items() if o is not None}
    return plan, nodes, values, direct


def _handed_over(nodes, first, last, first2):
    """Whether the value at ``first2`` is an elementwise kernel that may
    write over the value at ``first``, an input of it read last there."""
    node = nodes[first2]
    return (first2 == last and node.op not in ("matmul", "sum", "embed")
            and nodes[first] in node.inputs and nodes[first].shape == node.shape)


@pytest.mark.parametrize("widths, n", [(SMALL, 100), (WIDE, 300)],
                         ids=["below-the-grain", "above-the-grain"])
def test_values_alive_at_once_never_share_arena_elements(monkeypatch, widths, n):
    f, theta, part = _loss(widths, n)
    arenas, run_pass = [], engine._run

    def spy(root, env, arrays, stacked=False, arena=None, points=None):
        if arena is not None:
            arenas.append(arena)
        return run_pass(root, env, arrays, stacked, arena, points)

    monkeypatch.setattr(engine, "_run", spy)
    stack = _stack(theta, part)
    results = [gradient_of_nested(f, theta, [stack]),  # HVP rows, folded above the grain
               gradient_of_nested(f, theta, [stack, stack]),  # order-2 rows
               fd_gradient(f, theta)]  # stencil points
    full = [_graph(f, theta.size, d) for d in (1, 2)]
    folds = [g for key, g in f.program.derived.items() if isinstance(key[1][0], tuple)]
    assert bool(folds) == (engine._planned(full[0]).grain >= engine.FOLD_GRAIN)
    assert all(len(_arena_values(graph)[2]) > 10 for graph in full)
    for graph in f.program.derived.values():  # every derived graph has its memory plan
        plan, nodes, values, direct = _arena_values(graph)
        assert plan.extent == max((o + n for _, _, o, n in values.values()), default=0)
        spans = sorted(values.values())
        handed = 0
        for k, (first, last, o, n) in enumerate(spans):
            for first2, _, o2, n2 in spans[k + 1:]:
                if first2 > last:
                    break
                if (o, n) == (o2, n2) and last == direct[first] and _handed_over(
                        nodes, first, last, first2):
                    handed += 1
                    continue
                assert o + n <= o2 or o2 + n2 <= o, (first, first2)
        if len(values) > 10:
            assert plan.extent < sum(n for _, _, _, n in values.values())  # elements are reused
            assert handed  # elementwise kernels write over inputs that die at them
    buffers = list(f.program.point.buffers.values())
    assert buffers and len(arenas) >= 3
    for result in results:
        for buffer in buffers + arenas:
            assert not np.shares_memory(result, buffer)


def test_a_view_keeps_its_base_alive():
    f, theta, _ = _wide()
    _, _, values, direct = _arena_values(_graph(f, theta.size))
    extended = [(first, direct[first], last, o, n) for first, last, o, n in values.values()
                if last > direct[first]]
    assert extended  # some value outlives its own last reader through a view
    for first, own_last, last, o, n in extended:
        for first2, _, o2, n2 in values.values():
            if own_last < first2 <= last:
                assert o + n <= o2 or o2 + n2 <= o


def test_no_result_aliases_a_buffer(monkeypatch):
    f, theta, part = _wide()
    graph, bound = engine._unbind(_graph(f, theta.size))
    arenas = []
    run_pass = engine._run

    def spy(root, env, arrays, stacked=False, arena=None, points=None):
        if arena is not None:
            arenas.append(arena)
        return run_pass(root, env, arrays, stacked, arena, points)

    monkeypatch.setattr(engine, "_run", spy)
    stack = _stack(theta, part)
    own = np.empty(engine._planned(graph).extent)
    results = [gradient_of_nested(f, theta, [stack]), gradient_of_nested(f, theta, [stack[0]]),
               gradient(f, theta), gradient_of_nested(f, theta, [stack, stack]),
               run_pass(graph, {PARAM: theta, "_u1": stack[1]}, bound, False, own)]
    buffers = list(f.program.point.buffers.values())
    assert buffers and len(arenas) >= 3
    assert engine._planned(gradient_expr(f)).slots  # the gradient's values have buffers too
    for result in results:
        for buffer in buffers + arenas + [own]:
            assert not np.shares_memory(result, buffer)


def test_a_result_held_across_a_new_point_is_unchanged():
    f, theta, part = _wide()
    graph, bound = engine._unbind(_graph(f, theta.size))
    stack = _stack(theta, part)
    rows = gradient_of_nested(f, theta, [stack])
    plain = engine._run(graph, {PARAM: theta, "_u1": stack[2]}, bound)
    kept = rows.copy(), plain.copy()
    for k in range(3):
        gradient_of_nested(f, theta + 0.1 * (k + 1), [stack])
    assert rows.tobytes() == kept[0].tobytes() and plain.tobytes() == kept[1].tobytes()
    assert gradient_of_nested(f, theta, [stack]).tobytes() == kept[0].tobytes()


def test_threads_at_different_points_keep_their_rows():
    f, theta, part = _wide()
    stack = _stack(theta, part, seed=1)
    points = [theta, theta * 0.9 + 0.05]
    want = [gradient_of_nested(f, point, [stack]) for point in points]
    barrier = threading.Barrier(len(points))
    got = [[] for _ in points]

    def worker(k):
        barrier.wait()
        for _ in range(4):
            got[k].append(gradient_of_nested(f, points[k], [stack]))

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(len(points))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for k in range(len(points)):
        assert [rows.tobytes() for rows in got[k]] == [want[k].tobytes()] * 4


def test_a_root_that_views_a_value_writes_into_no_buffer():
    rng = np.random.default_rng(4)
    env = {"_u1": rng.normal(size=(3, 4)), "x": rng.normal(size=(3, 4))}
    for leaf in ("_u1", "x"):
        inner = engine.exp(engine.var(leaf, (3, 4)))
        f = engine.segment(engine.reshape(inner, (12,)), 2, 7)
        arena = np.zeros(64)
        got = engine._run(f, env, None, False, arena)
        assert got.tobytes() == np.exp(env[leaf]).reshape(12)[2:7].tobytes()
        assert inner.nid not in engine._planned(f).slots
        buffers = list(getattr(f.program.point, "buffers", {}).values())
        assert not any(np.shares_memory(got, b) for b in buffers + [arena])


def test_an_input_with_a_live_view_is_not_written_over():
    u = engine.var("_u1", (3, 4))
    x = engine.exp(u)
    y = engine.tanh(x)  # read after transpose(x), whose view lives on to the matmul
    f = engine.reduce_sum(engine.matmul(y, engine.transpose(x)))
    slots = engine._planned(f).slots
    assert slots[y.nid] != slots[x.nid]
    a = np.random.default_rng(5).normal(size=(3, 4))
    e = np.exp(a)
    got = engine._run(f, {"_u1": a}, None, False, np.full(64, np.nan))
    assert got.tobytes() == np.add.reduce(np.tanh(e) @ e.T, (-2, -1)).tobytes()
