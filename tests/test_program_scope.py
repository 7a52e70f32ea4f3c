"""What the engine derives from a loss lives and dies with the loss, freed
by reference counting when the loss is dropped, and each thread is charged
for its own passes."""

import gc
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from grouphess import engine
from grouphess.engine import (PARAM, Expr, evaluate, evaluate_points, gradient_of_nested,
                              reduce_sum, var)
from grouphess.optimizers import StepConfig, partitioned_newton_step, run
from grouphess.partition import canonical_partition
from grouphess.problems import (MlpSpec, QuadraticSpec, make_mlp, make_quadratic, mlp_labels,
                                synth_dataset)
from grouphess.summaries import summary_tensor

WIDTHS = (2, 8, 8, 8, 2)


def _minibatch_losses(count, seed):
    """``count`` frozen 64-row minibatch losses of one network on 1,000
    moons points, built one at a time, with the initial point and the
    partition."""
    spec = MlpSpec(widths=WIDTHS, seed=2)
    data = synth_dataset("moons", 1000, seed=0)
    rng = np.random.default_rng(seed)
    _, theta0 = make_mlp(spec, data, subset=range(64))
    part = canonical_partition(theta0.shapes, mlp_labels(WIDTHS))
    losses = (make_mlp(spec, data, subset=rng.choice(1000, 64, replace=False))[0]
              for _ in range(count))
    return losses, theta0, part


def _exprs():
    """The ``Expr`` nodes alive, garbage in cycles included."""
    return sum(1 for obj in gc.get_objects() if type(obj) is Expr)


def _live_exprs():
    gc.collect()
    return _exprs()


def test_dropped_losses_are_freed():
    losses, theta0, part = _minibatch_losses(200, seed=1)
    refs, live = [], []
    for _ in range(2):
        for _ in range(100):
            loss = next(losses)
            partitioned_newton_step(loss, theta0, part, StepConfig(damping=0.3))
            refs.append(weakref.ref(loss))
            del loss
        live.append(_live_exprs())
    assert [ref for ref in refs if ref() is not None] == []
    assert live[1] <= live[0]


def test_values_at_one_point_stay_bounded():
    losses, theta0, part = _minibatch_losses(150, seed=2)

    def steps(count):
        for _ in range(count):
            partitioned_newton_step(next(losses), theta0, part, StepConfig(damping=0.3))
        gc.collect()

    steps(50)
    tracemalloc.start()  # traces what is allocated from here on and still held
    try:
        steps(100)
        grown = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # a loss's values at theta0 take ~0.1 MB, so keeping them grows ~10 MB here
    assert grown < 1_000_000


def test_each_structure_compiles_once(monkeypatch):
    # every loss is dropped after its step, so each step rebuilds the network
    # graph; its generated code comes from the cache of compiled structures
    compiled, graphs = [], []
    compile_source = engine._compile
    monkeypatch.setattr(engine, "_codes", {})
    monkeypatch.setattr(engine, "_compile",
                        lambda source: compiled.append(source) or compile_source(source))
    losses, theta0, part = _minibatch_losses(30, seed=3)
    for step in range(30):
        loss = next(losses)
        graphs.append(weakref.ref(engine._unbind(loss)[0]))
        partitioned_newton_step(loss, theta0, part, StepConfig(damping=0.3))
        del loss
        if step == 0:
            first = len(compiled)
    assert [graph() for graph in graphs] == [None] * 30
    assert 0 < first == len(compiled) == len(set(compiled))


def test_threads_are_charged_their_own_passes():
    spec = MlpSpec(widths=WIDTHS, seed=2)
    f, theta0 = make_mlp(spec, synth_dataset("moons", 100, seed=0))
    part = canonical_partition(theta0.shapes, mlp_labels(WIDTHS))
    cfg = StepConfig(damping=0.3, max_iterations=30, grad_tolerance=0.0)
    solo = run(f, theta0, "partitioned", part, cfg)
    results = [None, None]
    start = threading.Barrier(2)

    def worker(i):
        start.wait()
        results[i] = run(f, theta0, "partitioned", part, cfg)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(solo.traces) == 30
    for result in results:
        assert [tr.passes for tr in result.traces] == [tr.passes for tr in solo.traces]
        assert result.theta_final.values.tobytes() == solo.theta_final.values.tobytes()


def test_dropped_leaves_are_released():
    leaf = var("dropped", (3,))
    f = reduce_sum(engine.tanh(leaf))
    evaluate(f, {"dropped": np.ones(3)})
    ref = weakref.ref(leaf)
    del leaf, f
    gc.collect()
    assert ref() is None


def _without_the_collector(check):
    """Run ``check`` with the cyclic garbage collector off."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        check()
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("widths,n", [(WIDTHS, 37), ((2, 32, 32, 2), 298), (None, 5)])
def test_a_dropped_loss_is_freed_at_del(widths, n):
    # row counts that no other test uses, so nothing else holds the graph;
    # no widths: a bound loss without theta, whose points graph is itself
    def check():
        before = _exprs()
        if widths is None:
            x = var("theta_free", (n,))
            f = engine.bind(reduce_sum(engine.tanh(x) * x), {"theta_free": np.arange(n) / n})
            del x
            evaluate_points(f, np.zeros((3, 4)))
        else:
            spec = MlpSpec(widths=widths, seed=2)
            f, theta0 = make_mlp(spec, synth_dataset("moons", n, seed=0))
            part = canonical_partition(theta0.shapes, mlp_labels(widths))
            partitioned_newton_step(f, theta0, part, StepConfig(damping=0.3))
            summary_tensor(f, theta0, np.ones(theta0.size), part, 2)
            folded = [key for key in f.program.derived if isinstance(key[1][0], tuple)]
            assert bool(folded) == (widths != WIDTHS)  # the wide network's rows fold
        refs = [weakref.ref(obj) for obj in (f, engine._unbind(f)[0], f.program)]
        del f
        assert [ref() for ref in refs] == [None, None, None]
        assert _exprs() == before

    _without_the_collector(check)


def test_a_dropped_loss_frees_its_point_buffers():
    widths = (2, 32, 32, 2)  # a network whose plans have memory plans

    def check():
        spec = MlpSpec(widths=widths, seed=2)
        f, theta0 = make_mlp(spec, synth_dataset("moons", 297, seed=0))
        part = canonical_partition(theta0.shapes, mlp_labels(widths))
        partitioned_newton_step(f, theta0, part, StepConfig(damping=0.3))
        buffers = f.program.point.buffers
        refs = [weakref.ref(next(iter(buffers.values()))), weakref.ref(f.program)]
        del f, buffers
        assert [ref() for ref in refs] == [None, None]

    _without_the_collector(check)


def test_compiled_code_holds_no_graph(monkeypatch):
    monkeypatch.setattr(engine, "_codes", {})  # so that this loss's code is compiled here

    def check():
        spec = MlpSpec(widths=WIDTHS, seed=2)
        f, theta0 = make_mlp(spec, synth_dataset("moons", 43, seed=0))
        part = canonical_partition(theta0.shapes, mlp_labels(WIDTHS))
        partitioned_newton_step(f, theta0, part, StepConfig(damping=0.3))
        refs = [weakref.ref(obj) for obj in (f, engine._unbind(f)[0], f.program)]
        del f
        assert [ref() for ref in refs] == [None, None, None]
        assert engine._codes  # the compiled code outlives the loss

    _without_the_collector(check)


@pytest.mark.parametrize("op", [engine.tanh, engine.exp, engine.sigmoid])
def test_a_root_that_its_derivative_reads_is_freed_at_del(op):
    def check():
        f = op(reduce_sum(var(PARAM, (4,))))
        theta = np.array([0.3, -0.2, 0.1, 0.25])
        gradient_of_nested(f, theta, [np.ones(4)])
        refs = [weakref.ref(f), weakref.ref(f.program)]
        del f
        assert [ref() for ref in refs] == [None, None]

    _without_the_collector(check)


def test_the_derivative_of_a_root_reads_an_equal_value():
    theta = np.array([0.3, -0.2, 0.1, 0.25])
    g = gradient_of_nested(engine.tanh(reduce_sum(var(PARAM, (4,)))), theta, [])
    t = np.tanh(np.sum(theta))
    assert g.tobytes() == (1.0 * (1.0 + -(t * t)) * np.ones(4)).tobytes()


def test_an_unbound_loss_and_a_shared_graph_are_freed_at_del():
    def check():
        f, c = make_quadratic(6, QuadraticSpec(seed=1))
        gradient_of_nested(f, c + 1.0, [np.ones((3, 6))])
        refs = [weakref.ref(f), weakref.ref(f.program)]
        del f
        assert [ref() for ref in refs] == [None, None]

        spec, data = MlpSpec(widths=WIDTHS, seed=2), synth_dataset("moons", 1000, seed=0)
        first, theta0 = make_mlp(spec, data, subset=range(33))
        second = make_mlp(spec, data, subset=range(33, 66))[0]
        gradient_of_nested(first, theta0, [np.ones(theta0.size)])
        gradient_of_nested(second, theta0, [np.ones(theta0.size)])
        graph = weakref.ref(engine._unbind(first)[0])
        del first
        assert graph() is engine._unbind(second)[0]
        del second
        assert graph() is None

    _without_the_collector(check)


def test_a_derived_graph_that_outlives_its_loss_starts_a_fresh_program():
    f, c = make_quadratic(5, QuadraticSpec(seed=2))
    x = c + 0.5
    g = engine.gradient_expr(f)
    want = evaluate(g, x)
    program = weakref.ref(f.program)
    del f
    gc.collect()
    assert program() is None
    assert np.array_equal(evaluate(g, x), want)
    assert isinstance(g.program, engine._Program)
