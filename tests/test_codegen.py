"""The generated code of a plan: every primitive, with its leaves plain,
stacked or point-only, gives bitwise the direct numpy call, and every
domain and binding check raises the same ``EvaluationError``."""

import itertools
import re
import sys
import threading

import numpy as np
import pytest

from grouphess import engine
from grouphess.engine import PARAM, EvaluationError, gradient_of_nested, var
from grouphess.problems import MlpSpec, make_mlp, synth_dataset

B = 4  # rows of a stack


def _embed(a):
    out = np.zeros(9)
    out[2:6] = a
    return out


def _sigmoid(a):
    return np.where(a >= 0, 1.0 / (1.0 + np.exp(-a)), np.exp(a) / (1.0 + np.exp(a)))


# name -> (graph of the leaves, numpy call on their values, leaf shapes)
PRIMITIVES = {
    "neg": (engine.neg, np.negative, [(3, 4)]),
    "add": (engine.add, np.add, [(3, 4), (3, 4)]),
    "add-lower-rank-right": (engine.add, np.add, [(3, 4), (4,)]),
    "add-lower-rank-left": (engine.add, np.add, [(4,), (2, 3, 4)]),
    "mul-scalar": (engine.mul, np.multiply, [(), (3, 4)]),
    "mul-lower-rank": (engine.mul, np.multiply, [(3, 4), (4,)]),
    "matmul": (engine.matmul, np.matmul, [(3, 4), (4, 2)]),
    "matmul-vector": (engine.matmul, np.matmul, [(3, 4), (4,)]),
    "transpose": (engine.transpose, np.transpose, [(3, 4)]),
    "reshape": (lambda a: engine.reshape(a, (2, 6)), lambda a: a.reshape(2, 6), [(3, 4)]),
    "segment": (lambda a: engine.segment(a, 2, 5), lambda a: a[2:5], [(7,)]),
    "embed": (lambda a: engine.embed(a, 2, 9), _embed, [(4,)]),
    "sum": (engine.reduce_sum, np.sum, [(3, 4)]),
    "sum-scalar": (engine.reduce_sum, np.sum, [()]),
    "sum-axis0": (lambda a: engine.reduce_sum(a, 0), lambda a: np.sum(a, axis=0), [(3, 4)]),
    "sum-axis1": (lambda a: engine.reduce_sum(a, 1), lambda a: np.sum(a, axis=1), [(3, 4)]),
    "exp": (engine.exp, np.exp, [(3, 4)]),
    "log": (engine.log, np.log, [(3, 4)]),
    "tanh": (engine.tanh, np.tanh, [(3, 4)]),
    "softplus": (engine.softplus, lambda a: np.logaddexp(0.0, a), [(3, 4)]),
    "sigmoid": (engine.sigmoid, _sigmoid, [(3, 4)]),
    "power-integer": (lambda a: engine.power(a, 3.0), lambda a: np.power(a, 3.0), [(3, 4)]),
    "power-negative": (lambda a: engine.power(a, -2.0), lambda a: np.power(a, -2.0), [(3, 4)]),
    "power-fractional": (lambda a: engine.power(a, 1.5), lambda a: np.power(a, 1.5), [(3, 4)]),
}


def _values(name, shapes, rng, rows=()):
    """Leaf values: positive where the primitive needs them to be."""
    positive = name.startswith(("log", "power"))
    return [np.abs(rng.normal(size=rows + s)) + 0.1 if positive else rng.normal(size=rows + s)
            for s in shapes]


def _check_primitive(name, wrap=lambda g: g):
    """The primitive ``name`` under ``wrap`` (which must give its argument's
    value bitwise), with each combination of leaf kinds, against its numpy
    call: plain, read back from the point store, and stacked.  Returns the
    roots and the primitive's nodes."""
    graph, call, shapes = PRIMITIVES[name]
    rng = np.random.default_rng(sorted(PRIMITIVES).index(name))
    made = []
    # each leaf a direction leaf _u<k> (computed every pass, stacked in a
    # stacked call) or a point leaf x<k> (computed once per point and stored)
    for kinds in itertools.product(("_u", "x"), repeat=len(shapes)):
        names = [kind + str(k) for k, kind in enumerate(kinds, start=1)]
        node = graph(*[var(n, s) for n, s in zip(names, shapes)])
        f = wrap(node)
        made.append((f, node))
        plain = dict(zip(names, _values(name, shapes, rng)))
        want = np.asarray(call(*plain.values()))
        for _ in range(2):  # computed, then read back from the point store
            got = np.asarray(engine._run(f, plain))
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), kinds
        if "_u" not in kinds:
            continue
        stacked = {n: v if n.startswith("x") else s
                   for (n, v), s in zip(plain.items(), _values(name, shapes, rng, (B,)))}
        got = np.asarray(engine._run(f, stacked, stacked=True))
        assert got.shape == (B,) + want.shape, kinds
        for b in range(B):
            row = call(*[v[b] if n.startswith("_u") else v for n, v in stacked.items()])
            assert got[b].tobytes() == np.asarray(row).tobytes(), (kinds, b)
    return made


@pytest.mark.parametrize("name", sorted(PRIMITIVES))
def test_each_primitive_equals_its_numpy_call(name):
    _check_primitive(name)


@pytest.mark.parametrize("name", sorted(PRIMITIVES))
def test_each_primitive_writes_into_its_buffer_bitwise(name):
    """Under a root that negates it and multiplies it by -1, so that it is
    not the root and the constants list holds more than an exponent, each
    primitive that writes into a buffer does so, into the arena when a leaf
    is a direction leaf and into a point buffer when none is, and still
    gives the numpy call."""
    made = _check_primitive(name, lambda g: engine.mul(engine.neg(g), engine.const(-1.0)))
    for f, node in made:
        slots = engine._planned(f).slots
        assert (node.nid in slots) == (node.op in engine._SLOTTED and node.shape != ())
        if node.nid in slots:
            point_only = all(leaf.payload.startswith("x") for leaf in node.inputs)
            assert (slots[node.nid] is None) == point_only


def _u(shape=(3,)):
    return var(engine._dir_name(1), shape)


ERRORS = [
    # graph, plain environment, message
    (lambda: engine.tanh(_u()) + var("x", (3,)), {"_u1": np.ones(3)}, "unbound variable 'x'"),
    (lambda: engine.tanh(_u()) + var("x", (3,)), {"_u1": np.ones(3), "x": np.ones(4)},
     "variable 'x' expects shape (3,), got (4,)"),
    (lambda: engine.log(_u()), {"_u1": np.array([1.0, 0.0, 2.0])}, "log: non-positive input"),
    (lambda: engine.power(_u(), 0.5), {"_u1": np.array([1.0, -1.0, 2.0])},
     "power: negative base with non-integer exponent"),
    (lambda: engine.power(_u(), -1.0), {"_u1": np.array([1.0, 0.0, 2.0])},
     "power: zero base with negative exponent"),
    (lambda: engine.power(var("x", (3,)), -1.0) * _u(), {"_u1": np.ones(3), "x": np.zeros(3)},
     "power: zero base with negative exponent"),
]


@pytest.mark.parametrize("case", range(len(ERRORS)))
def test_errors_keep_their_messages_plain_and_stacked(case):
    graph, env, message = ERRORS[case]
    f = graph()
    for rows in (None, B):
        if rows is not None:  # a first row that passes, then the plain values
            env = {**env, "_u1": np.stack([np.ones(3)] + [env["_u1"]] * (rows - 1))}
        with pytest.raises(EvaluationError, match=re.escape(message)):
            engine._run(f, env, stacked=rows is not None)


def test_a_misshaped_direction_stack_is_refused():
    with pytest.raises(EvaluationError, match=re.escape("variable '_u1' expects shape (3,), "
                                                        "got (4, 2)")):
        engine._run(engine.tanh(_u()), {"_u1": np.ones((4, 2))}, stacked=True)
    with pytest.raises(EvaluationError, match=re.escape("unbound variable '_u1'")):
        engine._run(engine.tanh(_u()), {})


def test_a_matrix_direction_leaf_passed_as_data_runs_plain():
    # a caller's _u1 of static shape (5, 3) passed as a (5, 3) array is one
    # plain value, not a stack of 5 rows: only the engine's row loop passes
    # stacks, and evaluate and gradient run plain
    x = _u((5, 3))
    w = engine.reshape(engine.segment(var(PARAM, (6,)), 0, 3), (3, 1))
    f = engine.reduce_sum(engine.reshape(engine.tanh(engine.matmul(x, w)), (5,)) ** 2)
    rng = np.random.default_rng(3)
    theta, data = rng.normal(size=6), rng.normal(size=(5, 3))
    t = np.tanh(data @ theta[:3].reshape(3, 1)).reshape(5)
    assert engine.evaluate(f, {PARAM: theta, "_u1": data}) == np.sum(np.power(t, 2.0))
    g = gradient_of_nested(f, {PARAM: theta, "_u1": data}, [])
    assert g.shape == (6,) and np.all(g[3:] == 0.0)
    stack = rng.normal(size=(B, 5, 3))
    rows = engine._run(f, {PARAM: theta, "_u1": stack}, stacked=True)
    for b in range(B):
        assert rows[b] == engine.evaluate(f, {PARAM: theta, "_u1": stack[b]})


def test_threads_that_generate_one_plan_at_once_agree(monkeypatch):
    # a fresh loss and an empty code cache, so the threads race to generate
    # and compile the same plans and to store them
    monkeypatch.setattr(engine, "_codes", {})
    spec = MlpSpec(widths=(2, 8, 8, 2), seed=4)
    f, theta0 = make_mlp(spec, synth_dataset("moons", 47, seed=1))
    stack = np.random.default_rng(8).normal(size=(3, theta0.size))
    start, results = threading.Barrier(4), [None] * 4

    def worker(i):
        start.wait()
        results[i] = gradient_of_nested(f, theta0, [stack]).tobytes()

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    fresh = make_mlp(spec, synth_dataset("moons", 47, seed=2))[0]  # another point, same graph
    gradient_of_nested(fresh, theta0, [stack])
    assert results == [gradient_of_nested(f, theta0, [stack]).tobytes()] * 4


def test_a_full_code_cache_forgets_its_oldest_and_still_runs_every_plan(monkeypatch):
    # the cache is full of entries older than any plan: each compile evicts
    # the oldest, and the plans of a fresh loss run as with an empty cache
    spec, data = MlpSpec(widths=(2, 5, 3, 2), seed=6), synth_dataset("moons", 23, seed=3)

    def calls():
        f, theta0 = make_mlp(spec, data)
        stack = np.random.default_rng(5).normal(size=(3, theta0.size))
        return [np.float64(engine.evaluate(f, theta0)).tobytes(),
                engine.gradient(f, theta0).tobytes(),
                gradient_of_nested(f, theta0, [stack]).tobytes(),
                gradient_of_nested(f, theta0, [stack, stack[::-1]]).tobytes(),
                engine.evaluate_points(f, theta0.values + stack).tobytes()]

    monkeypatch.setattr(engine, "_codes", {})
    want, compiled = calls(), len(engine._codes)
    assert 0 < compiled < 1024
    full = {("old", k): None for k in range(1024)}
    monkeypatch.setattr(engine, "_codes", dict(full))
    assert calls() == want
    assert len(engine._codes) == 1024
    assert [key for key in full if key in engine._codes] == list(full)[compiled:]


def test_generated_chunks_free_nothing_and_are_named_by_their_digest(monkeypatch):
    sources, compile_source = [], engine._compile
    monkeypatch.setattr(engine, "_codes", {})
    monkeypatch.setattr(engine, "_compile",
                        lambda source: sources.append(source) or compile_source(source))
    f, theta0 = make_mlp(MlpSpec((2, 8, 8, 8, 2), seed=2), synth_dataset("moons", 100, seed=0))
    graph = engine._derivative(f, theta0.values, 1, True)[0]  # the HVP graph
    plan = engine._planned(graph)
    for stacked in (False, True):
        names = [run.__code__.co_filename for chunks in engine._generated(graph, plan, stacked)
                 for run in chunks]
        assert len(set(names)) == len(names) > 2  # each chunk of the plan named apart
        assert all(re.fullmatch(r"<plan [0-9a-f]{12}>", name) for name in names)
    assert sources and not any(re.search(r"\bdel\b|\.clear\(", source) for source in sources)
