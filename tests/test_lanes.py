"""Two lanes for large sweeps.

A call of ``engine._rows`` with two or more sweeps whose median arena holds
``engine.BUDGET`` bytes or more, in a process that may run on two CPUs, runs
its sweeps from the largest arena down in the calling thread and from the
smallest up in one worker thread.  Every row must be bitwise the row of the
same call on one lane (``engine.CPUS`` set to 1); the counts stay the
caller's; the caller runs each graph's point phase first, so no pass runs
on an empty stack, and the worker writes nothing to the caller's point
store and begins none of its own; and a failure in the worker reaches the
caller.
"""

import gc
import os
import signal
import sys
import threading
import time
import weakref

import numpy as np
import pytest

from grouphess import engine
from grouphess.engine import (EvaluationError, PassCounts, evaluate_points, gradient,
                              gradient_of_nested)
from grouphess.fd import fd_gradient, fd_nested_directional
from grouphess.partition import canonical_partition, mask
from grouphess.problems import MlpSpec, make_mlp, mlp_labels, synth_dataset
from grouphess.summaries import pseudo_hessian, summary_tensor

WIDE = (2, 64, 64, 64, 2)  # P = 8,642 on 2,000 points, as the moons-wide benchmark
MID = (2, 32, 32, 2)  # P = 1,218 in 6 tensors; on 3,000 points h-bar's median sweep takes 2.4 MB
SMALL = (2, 8, 8, 8, 2)  # P = 186 on 100 points, as the check-order3 benchmark; below the grain


def _loss(widths, n):
    f, theta0 = make_mlp(MlpSpec(widths, seed=3), synth_dataset("moons", n, seed=0))
    return f, theta0.values, canonical_partition(theta0.shapes, mlp_labels(widths))


@pytest.fixture(scope="module")
def wide():
    return _loss(WIDE, 2000)


@pytest.fixture(scope="module")
def mid():
    return _loss(MID, 3000)


def _masks(theta, part, seed=0):
    rng = np.random.default_rng(seed)
    return np.stack([mask(rng.normal(size=theta.size), part, s) for s in range(part.size)])


def _lanes(monkeypatch, f, call, cpus=2):
    """``call()`` on the loss ``f`` with ``engine.CPUS`` set to ``cpus``,
    and for each sweep it ran, whether the worker ran it.  On two lanes the
    caller's sweeps wait until the worker has run one, so that both lanes
    run, and a worker's sweep fails that stores a value in the caller's
    point store of f's program or begins a store of its own."""
    workers, ran, worker = [], threading.Event(), engine._LANE.submit(threading.get_ident).result()
    run, store = engine._run, vars(engine._program(f).point)  # the caller's store

    def spy(root, env, bound=None, stacked=False, arena=None, points=None):
        workers.append(threading.get_ident() == worker)
        if not workers[-1]:
            if cpus > 1 and not ran.wait(10):
                ran.set()  # the worker took no sweep: wait no more
            return run(root, env, bound, stacked, arena, points)
        stored = len(store["entry"][3]), len(store["buffers"])  # the point's values and buffers
        try:
            return run(root, env, bound, stacked, arena, points)
        finally:
            ran.set()
            assert (len(store["entry"][3]), len(store["buffers"])) == stored  # stored nothing
            assert vars(engine._program(root).point) == {}  # and began no store of its own

    with monkeypatch.context() as patch:
        patch.setattr(engine, "CPUS", cpus)
        patch.setattr(engine, "_run", spy)
        return call(), workers


def _counted(call):
    """``call()`` and what it added to the calling thread's counts."""
    before = engine.counter.own()
    out = call()
    return out, engine.counter.own() - before


def _one_and_two_lanes(monkeypatch, f, theta, call):
    """``call()`` on one lane and on two, each at a point new to its store,
    with its counts, and which lanes ran the two-lane call's sweeps."""
    gradient(f, theta + 1.0)
    one, _ = _lanes(monkeypatch, f, lambda: _counted(call), cpus=1)
    gradient(f, theta + 1.0)
    two, workers = _lanes(monkeypatch, f, lambda: _counted(call))
    assert True in workers and False in workers  # both lanes ran sweeps
    return one, two


def test_folded_hbar_rows_at_p_8642_are_bitwise_one_lane(monkeypatch, wide):
    f, theta, part = wide
    g = gradient(f, theta)
    (one, used1), (two, used2) = _one_and_two_lanes(
        monkeypatch, f, theta, lambda: pseudo_hessian(f, theta, part, g).hbar)
    assert two.tobytes() == one.tobytes()
    assert used2 == used1 and used1.sweeps == part.size  # one folded row per sweep
    assert engine._LANE.submit(engine.counter.own).result() == PassCounts()


def test_order2_rows_above_the_grain_are_bitwise_one_lane(monkeypatch, mid):
    f, theta, part = mid
    stacks = [_masks(theta, part, seed) for seed in (1, 2)]
    (one, used1), (two, used2) = _one_and_two_lanes(
        monkeypatch, f, theta, lambda: gradient_of_nested(f, theta, stacks))
    assert two.tobytes() == one.tobytes() and used2 == used1


def test_stencil_points_above_the_grain_are_bitwise_one_lane(monkeypatch, wide):
    f, theta, _ = wide
    dirs = np.random.default_rng(4).normal(size=(3, theta.size))
    points = theta + 1e-3 * dirs
    (one, used1), (two, used2) = _one_and_two_lanes(
        monkeypatch, f, theta,
        lambda: (evaluate_points(f, points), fd_nested_directional(f, theta, [dirs], 1e-4)))
    assert [a.tobytes() for a in two] == [a.tobytes() for a in one]
    assert used2 == used1 == PassCounts(forward=3 + 2 * 3)


def test_both_lanes_read_one_point_list_per_graph(monkeypatch, wide):
    f, theta, _ = wide
    stencil = theta + 1e-3 * np.random.default_rng(11).normal(size=(3, theta.size))
    handed, run = [], engine._run

    def spy(root, env, bound=None, stacked=False, arena=None, points=None):
        handed.append((root, points, len(points)))
        return run(root, env, bound, stacked, arena, points)

    monkeypatch.setattr(engine, "_run", spy)
    _, workers = _lanes(monkeypatch, f, lambda: evaluate_points(f, stencil))
    assert True in workers and False in workers  # one graph's sweeps on both lanes
    assert len(handed) == 3 and len({id(root) for root, _, _ in handed}) == 1
    points = handed[0][1]
    assert all(p is points and n == len(points) > 0 for _, p, n in handed)  # one list, unchanged


def test_no_pass_runs_on_an_empty_stack(monkeypatch, wide):
    f, theta, part = wide
    rows, run = [], engine._run

    def spy(root, env, bound=None, stacked=False, arena=None, points=None):
        if stacked:
            rows.append(len(env[engine._dir_name(1)]))
        return run(root, env, bound, stacked, arena, points)

    monkeypatch.setattr(engine, "_run", spy)
    g = gradient(f, theta * 0.7)  # a point new to the store
    _, workers = _lanes(monkeypatch, f, lambda: pseudo_hessian(f, theta * 0.7, part, g))
    assert True in workers and False in workers
    assert rows == [1] * part.size  # one folded row per sweep, and no sweep of none


@pytest.mark.parametrize("widths, n, call", [
    (MID, 300, lambda f, theta, part: gradient_of_nested(f, theta, [_masks(theta, part)])),
    (SMALL, 100, lambda f, theta, part: pseudo_hessian(f, theta, part)),
    (SMALL, 100, lambda f, theta, part: summary_tensor(f, theta, _masks(theta, part)[0] + 1.0,
                                                       part, 3)),
    (SMALL, 100, lambda f, theta, part: fd_gradient(f, theta)),
], ids=["hbar-above-the-grain", "pseudo-hessian", "order3-summary-tensor", "fd-gradient"])
def test_short_sweeps_run_on_one_lane(monkeypatch, widths, n, call):
    f, theta, part = _loss(widths, n)  # MID: h-bar's median sweep arena is 0.32 MB
    grain = engine._planned(engine._derivative(f, theta, 1, True)[0]).grain
    assert (grain >= engine.FOLD_GRAIN) == (widths == MID)
    threads, arenas, run = set(), [], engine._run

    def spy(root, env, bound=None, stacked=False, arena=None, points=None):
        threads.add(threading.get_ident())
        arenas.append(0 if arena is None else arena.size)
        return run(root, env, bound, stacked, arena, points)

    monkeypatch.setattr(engine, "CPUS", 2)
    monkeypatch.setattr(engine, "_run", spy)
    call(f, theta, part)
    assert threads == {threading.get_ident()}
    assert max(arenas) > 0  # its plans write into arenas


def test_callers_at_different_points_each_get_their_one_lane_rows(monkeypatch, mid):
    f, theta, part = mid
    stack = _masks(theta, part, seed=5)
    points = [theta, theta * 0.9 + 0.05, theta * 1.1]  # more callers than cores
    monkeypatch.setattr(engine, "CPUS", 1)
    want = [gradient_of_nested(f, point, [stack]) for point in points]
    monkeypatch.setattr(engine, "CPUS", 2)
    barrier = threading.Barrier(len(points))
    got = [[] for _ in points]

    def caller(k):
        barrier.wait()
        for _ in range(4):
            got[k].append(gradient_of_nested(f, points[k], [stack]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, to expose a lost update
    try:
        threads = [threading.Thread(target=caller, args=(k,)) for k in range(len(points))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for k in range(len(points)):
        assert [rows.tobytes() for rows in got[k]] == [want[k].tobytes()] * 4


def test_a_worker_failure_reaches_the_caller_and_starts_no_job(monkeypatch, mid):
    f, theta, part = mid
    stack = _masks(theta, part, seed=6)
    error, started, failed = EvaluationError("failed in the worker"), [], threading.Event()
    run, worker = engine._run, engine._LANE.submit(threading.get_ident).result()

    def spy(root, env, bound=None, stacked=False, arena=None, points=None):
        started.append(threading.get_ident() == worker)
        if started[-1]:
            failed.set()
            raise error
        failed.wait(10)
        return run(root, env, bound, stacked, arena, points)

    with monkeypatch.context() as patch:
        patch.setattr(engine, "CPUS", 2)
        patch.setattr(engine, "_run", spy)
        with pytest.raises(EvaluationError) as raised:
            gradient_of_nested(f, theta, [stack])
    assert raised.value is error
    assert sorted(started) == [False, True] and part.size > 2  # one sweep per lane
    monkeypatch.setattr(engine, "CPUS", 1)
    want = gradient_of_nested(f, theta, [stack])
    monkeypatch.setattr(engine, "CPUS", 2)
    assert gradient_of_nested(f, theta, [stack]).tobytes() == want.tobytes()


def test_a_dropped_loss_is_freed_at_del_after_two_lanes(monkeypatch):
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        f, theta, part = _loss(MID, 2996)  # a row count no other test uses
        stack = _masks(theta, part)
        _, workers = _lanes(monkeypatch, f, lambda: gradient_of_nested(f, theta, [stack]))
        assert True in workers
        refs = [weakref.ref(obj) for obj in (f, engine._unbind(f)[0], f.program)]
        del f
        assert [ref() for ref in refs] == [None, None, None]
    finally:
        if enabled:
            gc.enable()


def test_point_buffers_keep_their_identity_and_bytes_across_two_lanes(monkeypatch, mid):
    f, theta, part = mid
    stack = _masks(theta, part, seed=7)
    point = theta * 0.8
    gradient_of_nested(f, point, [stack])
    buffers = f.program.point.buffers
    kept = {nid: (buffer, buffer.tobytes()) for nid, buffer in buffers.items()}
    _, workers = _lanes(monkeypatch, f, lambda: gradient_of_nested(f, point, [stack]))
    assert True in workers
    assert f.program.point.buffers is buffers and buffers.keys() == kept.keys()
    for nid, (buffer, data) in kept.items():
        assert buffers[nid] is buffer and buffer.tobytes() == data
    # the worker read the caller's store and began no store of its own
    assert engine._LANE.submit(lambda: vars(f.program.point)).result() == {}


def test_a_busy_worker_does_not_stall_a_call(monkeypatch, mid):
    f, theta, part = mid
    stack = _masks(theta, part, seed=8)
    monkeypatch.setattr(engine, "CPUS", 1)
    want = gradient_of_nested(f, theta, [stack])
    monkeypatch.setattr(engine, "CPUS", 2)
    release = threading.Event()
    busy = engine._LANE.submit(release.wait, 30)  # the worker is taken
    try:
        got = []
        caller = threading.Thread(target=lambda: got.append(gradient_of_nested(f, theta, [stack])))
        caller.start()
        caller.join(10)
        assert not caller.is_alive() and got[0].tobytes() == want.tobytes()  # ran every sweep
    finally:
        release.set()
        busy.result()


def test_a_call_at_interpreter_exit_runs_on_one_lane(monkeypatch, mid):
    f, theta, part = mid
    stack = _masks(theta, part, seed=10)
    monkeypatch.setattr(engine, "CPUS", 1)
    want = gradient_of_nested(f, theta, [stack])
    closed = engine.ThreadPoolExecutor(1)
    closed.shutdown()  # as at interpreter exit: submitting raises RuntimeError
    monkeypatch.setattr(engine, "CPUS", 2)
    monkeypatch.setattr(engine, "_LANE", closed)
    assert gradient_of_nested(f, theta, [stack]).tobytes() == want.tobytes()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
def test_a_forked_child_runs_two_lanes_on_a_worker_of_its_own(mid):
    f, theta, part = mid
    stack = _masks(theta, part, seed=9)
    want = gradient_of_nested(f, theta, [stack])
    lane = engine._LANE
    lane.submit(threading.get_ident).result()  # the parent's worker is up
    pid = os.fork()
    if pid == 0:  # the child: report by exit code alone
        ok = False
        try:
            engine._LANE.submit(threading.get_ident).result(10)  # its worker runs jobs
            ok = (engine._LANE is not lane and
                  gradient_of_nested(f, theta * 0.9, [stack]) is not None and
                  gradient_of_nested(f, theta, [stack]).tobytes() == want.tobytes())
        finally:
            os._exit(0 if ok else 1)
    deadline = time.monotonic() + 60
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.05)
    if done[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert done[0] == pid and os.waitstatus_to_exitcode(done[1]) == 0
