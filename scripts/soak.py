#!/usr/bin/env python3
"""Soak run: does a long-lived process hold its memory flat?

    PYTHONPATH=src python scripts/soak.py [--steps 10000] [--wide 100] [--every 1000]

Phase 1 runs ``--steps`` partitioned steps in the manner of the
``minibatch-stream`` benchmark workload: the (2, 8, 8, 8, 2) moons network
on 1,000 points, one freshly built frozen 64-row minibatch loss per step,
each dropped after its step, with the parameters carried over and reset
every 16 steps.  Phase 2 builds ``--wide`` losses of the (2, 64, 64, 64, 2)
network on 2,000 points (P = 8,642, as the ``moons-wide`` workload), takes
one partitioned step on each, and drops it.  Every ``--every`` steps, and
every tenth wide loss, it prints the resident set size, the number of live
``Expr`` nodes after a full collection, the entries of the engine's cache
of compiled code (``engine._codes``, bounded at 1,024), and the number of
live threads (``threading.active_count()``).  All four should stay flat:
the wide losses' h-bar rows run on the engine's second lane, one worker
thread for the process, so there are at most 2 threads.
"""

import argparse
import gc
import os
import threading
import time

# BLAS sums must run in one order and on one thread: pin the threads before
# grouphess first imports numpy
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import numpy as np  # noqa: E402

from grouphess import engine  # noqa: E402
from grouphess.optimizers import StepConfig, partitioned_newton_step  # noqa: E402
from grouphess.partition import canonical_partition  # noqa: E402
from grouphess.problems import MlpSpec, make_mlp, mlp_labels, synth_dataset  # noqa: E402

CONFIG = StepConfig(damping=0.3, max_iterations=1)


def rss_mb() -> float:
    """The resident set size of this process, in MB."""
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 1e6


def report(phase: str, count: int, start: float) -> None:
    gc.collect()
    live = sum(1 for obj in gc.get_objects() if type(obj) is engine.Expr)
    print(f"{phase:9s} {count:6d}  rss_mb={rss_mb():7.1f}  live_exprs={live:6d}  "
          f"codes={len(engine._codes):5d}  threads={threading.active_count():2d}  "
          f"elapsed_s={time.perf_counter() - start:7.1f}",
          flush=True)


def minibatch_phase(steps: int, every: int, start: float) -> None:
    spec = MlpSpec((2, 8, 8, 8, 2), seed=1)
    data = synth_dataset("moons", 1000, seed=1)
    rng = np.random.default_rng(1)
    _, theta0 = make_mlp(spec, data, subset=range(64))
    part = canonical_partition(theta0.shapes, mlp_labels(spec.widths))
    theta = theta0
    for step in range(1, steps + 1):
        loss, _ = make_mlp(spec, data, subset=rng.choice(1000, 64, replace=False))
        theta, _ = partitioned_newton_step(loss, theta0 if step % 16 == 1 else theta, part, CONFIG)
        del loss
        if step % every == 0 or step == steps:
            report("minibatch", step, start)


def wide_phase(losses: int, start: float) -> None:
    spec = MlpSpec((2, 64, 64, 64, 2), seed=1)
    data = synth_dataset("moons", 2000, seed=1)
    for k in range(1, losses + 1):
        loss, theta0 = make_mlp(spec, data)
        part = canonical_partition(theta0.shapes, mlp_labels(spec.widths))
        partitioned_newton_step(loss, theta0, part, CONFIG)
        del loss
        if k % 10 == 0 or k == losses:
            report("wide", k, start)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=10_000, help="minibatch steps")
    parser.add_argument("--wide", type=int, default=100, help="dropped P = 8,642 losses")
    parser.add_argument("--every", type=int, default=1000, help="minibatch steps per report")
    args = parser.parse_args()
    start = time.perf_counter()
    report("start", 0, start)
    minibatch_phase(args.steps, args.every, start)
    wide_phase(args.wide, start)


if __name__ == "__main__":
    main()
