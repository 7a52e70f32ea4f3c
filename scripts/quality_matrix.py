#!/usr/bin/env python3
"""Training-quality matrix: how far each step rule gets on the moons network,
and whether any of its steps raised the loss.  Writes one tab-separated row
per run to OUT and prints the same table:

    PYTHONPATH=src python scripts/quality_matrix.py OUT

Runs: data seeds 0-15 x {gd, cauchy, partitioned} x damping {0.3, 1}, each
on ``MlpSpec((2, 8, 8, 8, 2), seed=2)`` with n = 100 moons points, canonical
partition, 50 steps and no gradient tolerance.  Columns: the loss at the
start and at the end; ``rises``, the steps whose loss rose; ``fallbacks``,
the steps whose status is ``cauchy-fallback`` or ``gd-fallback``, and
``fallback_rises``, the rising steps among them; max|theta| at the end; the
logical passes and the forward evaluations of the whole run; and its
termination.
"""

import argparse
import os
from pathlib import Path

# BLAS sums must run in one order on every commit compared: pin the threads
# before grouphess first imports numpy
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import numpy as np  # noqa: E402

from grouphess import engine  # noqa: E402
from grouphess.optimizers import StepConfig, run  # noqa: E402
from grouphess.partition import canonical_partition  # noqa: E402
from grouphess.problems import MlpSpec, make_mlp, mlp_labels, synth_dataset  # noqa: E402

SPEC = MlpSpec((2, 8, 8, 8, 2), seed=2)
COLUMNS = ("data_seed", "method", "damping", "start_loss", "final_loss", "rises", "fallbacks",
           "fallback_rises", "max_abs_theta", "passes", "forwards", "termination")


def one_run(data_seed: int, method: str, damping: float) -> tuple:
    f, theta0 = make_mlp(SPEC, synth_dataset("moons", 100, seed=data_seed))
    part = canonical_partition(theta0.shapes, mlp_labels(SPEC.widths))
    cfg = StepConfig(damping=damping, max_iterations=50, grad_tolerance=0.0)
    before = engine.counter.own()
    result = run(f, theta0, method, part, cfg)
    used = engine.counter.own() - before
    rising = [tr for tr in result.traces if tr.loss_after > tr.loss_before]
    fallback = [tr for tr in result.traces if tr.status.endswith("-fallback")]
    start = result.traces[0].loss_before if result.traces else engine.evaluate(f, theta0)
    final = result.traces[-1].loss_after if result.traces else start
    return (data_seed, method, damping, f"{start:.4g}", f"{final:.4g}", len(rising), len(fallback),
            sum(tr.status.endswith("-fallback") for tr in rising),
            f"{float(np.max(np.abs(result.theta_final.values))):.4g}", used.passes, used.forward,
            result.termination)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("out", type=Path, help="output file (tab-separated)")
    args = parser.parse_args()

    rows = [COLUMNS]
    for damping in (0.3, 1.0):
        for method in ("gd", "cauchy", "partitioned"):
            for data_seed in range(16):
                rows.append(one_run(data_seed, method, damping))
    text = "".join("\t".join(str(x) for x in row) + "\n" for row in rows)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(text, encoding="utf-8")
    print(text, end="")


if __name__ == "__main__":
    main()
