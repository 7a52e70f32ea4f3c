#!/usr/bin/env python3
"""Byte-identity matrix: run every CLI command on a fixed set of configs and
write one sha256 per artifact, plus each command's exit code, to
OUT/digests.txt.  Two commits then compare with ``diff``:

    PYTHONPATH=src python scripts/identity_matrix.py OUT

Cases: {quadratic, rosenbrock, mlp} x {gd, cauchy, newton, partitioned}
without mlp x newton, at seed 2, 30 iterations and damping 0.3; and the
default moons network with the third-order regularizer (eps 1, 4
iterations) in exact mode and in sampled mode with 64 samples.  Then the
failure paths: a negative eigenvalue bound, a one-point dataset, exact
regularization of a (2, 16, 16, 2) network (groups over 64 parameters), a
discrete partition of a size-101 quadratic (S^3 over the budget at order 3),
a partition file that is JSON but no partition, which the script writes
next to its configs, three non-finite config values (a NaN regularization
eps, an infinite damping, a NaN moons noise), and a softmax network whose
logits overflow, so that its curvature is non-finite.  Last, a (2, 32, 32, 2)
network on 1,000 moons points, partitioned, 5 iterations: its plans are
above the engine's ``FOLD_GRAIN``, so its rows fold, where every case
before it runs below the grain, unfolded.  Every case writes its values
into planned buffers.  Each case runs
``run``, ``inspect --at init``, ``inspect --at checkpoint`` and ``check
--order 3`` in-process through ``grouphess.cli.main``.  Wall times
(``wall_time`` in trace.json) and the output directory (``config.out`` in
manifests) change from run to run, so they are dropped before hashing.

Artifacts write a non-finite number as JSON null.  Against a commit that
still wrote bare NaN and Infinity tokens, exactly these lines differ:
rosenbrock-gd/run/manifest.json (an infinite ``final_grad_norm``), and of
mlp-nonfinite-curvature, run/manifest.json, inspect-init/hbar.json,
inspect-init/manifest.json (which holds hbar.json's hash) and
check/report.json.

Order-3 summary tensors read each entry from one of a covering set of
rows.  Against a commit that read every entry from the row of its two
largest indices, exactly these lines differ, in check/report.json's
sum-collapse ``max_error`` alone (for example 1.15e-14 against 4.09e-14):
the check/report.json of mlp-gd, mlp-cauchy, mlp-partitioned,
mlp-regularized-exact, mlp-regularized-sampled and
mlp-wide-regularized-exact.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

import yaml

# BLAS sums must run in one order on both commits: pin the threads before
# grouphess first imports numpy
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

from grouphess.cli import main as cli_main  # noqa: E402

STEP = {"max_iterations": 30, "damping": 0.3}
COMMANDS = {
    "run": ["run"],
    "inspect-init": ["inspect", "--at", "init"],
    "inspect-checkpoint": ["inspect", "--at", "checkpoint"],
    "check": ["check", "--order", "3"],
}


def cases(configs: Path):
    """(name, config) pairs of the matrix, in a fixed order; a config may
    name a file in ``configs``."""
    for kind in ("quadratic", "rosenbrock", "mlp"):
        for method in ("gd", "cauchy", "newton", "partitioned"):
            if (kind, method) != ("mlp", "newton"):  # dense Newton at P=186 is slow
                yield f"{kind}-{method}", {"problem": {"kind": kind}, "method": method,
                                           "seed": 2, "step": dict(STEP)}
    for mode, extra in (("exact", {}), ("sampled", {"reg_samples": 64})):
        yield f"mlp-regularized-{mode}", {
            "problem": {"kind": "mlp"}, "method": "partitioned", "seed": 2,
            "step": {"max_iterations": 4, "damping": 0.3, "regularization_eps": 1.0,
                     "reg_mode": mode, **extra}}
    yield "quadratic-negative-eig-lo", {"problem": {"kind": "quadratic", "eig_lo": -1.0}}
    yield "mlp-one-point", {"problem": {"kind": "mlp", "dataset": {"n": 1}}}
    yield "mlp-wide-regularized-exact", {
        "problem": {"kind": "mlp", "widths": [2, 16, 16, 2]}, "seed": 2,
        "step": {"max_iterations": 4, "damping": 0.3, "regularization_eps": 1.0}}
    yield "quadratic-discrete-101", {"problem": {"kind": "quadratic", "size": 101},
                                     "partition": "discrete", "seed": 2,
                                     "step": {"max_iterations": 2, "damping": 0.3}}
    yield "partition-file-malformed", {"problem": {"kind": "quadratic"},
                                       "partition": f"file:{configs / 'malformed-partition.json'}"}
    yield "nan-regularization-eps", {"step": {"regularization_eps": float("nan")}}
    yield "inf-damping", {"step": {"damping": float("inf")}}
    yield "mlp-nan-noise", {"problem": {"kind": "mlp", "dataset": {"noise": float("nan")}}}
    yield "mlp-nonfinite-curvature", {"problem": {"kind": "mlp", "loss": "softmax-cross-entropy",
                                                  "init_scale": 10000.0}}
    yield "mlp-wide-partitioned", {"problem": {"kind": "mlp", "widths": [2, 32, 32, 2],
                                               "dataset": {"n": 1000}},
                                   "method": "partitioned", "seed": 2,
                                   "step": {"max_iterations": 5, "damping": 0.3}}


def digest(path: Path) -> str:
    """sha256 of an artifact, without the fields that differ between runs."""
    data = path.read_bytes()
    if path.name == "trace.json":
        steps = json.loads(data)
        for step in steps:
            step.pop("wall_time", None)
        data = json.dumps(steps, sort_keys=True).encode()
    elif path.name == "manifest.json":
        manifest = json.loads(data)
        manifest["config"].pop("out", None)
        data = json.dumps(manifest, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def run_command(argv) -> str:
    """The exit code of one CLI call, or the name of the exception it raised."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return str(cli_main(argv))
        except Exception as exc:  # recorded as the outcome, so the matrix goes on
            return f"raised {type(exc).__name__}"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("out", type=Path, help="output directory (digests.txt goes here)")
    args = parser.parse_args()

    configs = args.out / "configs"
    configs.mkdir(parents=True, exist_ok=True)
    (configs / "malformed-partition.json").write_text('{"groups": 5}', encoding="utf-8")
    lines = []
    for name, config in cases(configs):
        config_path = configs / f"{name}.yaml"
        config_path.write_text(yaml.safe_dump(config), encoding="utf-8")
        for label, argv in COMMANDS.items():
            out_dir = args.out / name / label
            outcome = run_command(argv + ["--config", str(config_path), "--out", str(out_dir)])
            lines.append(f"{name}/{label} exit {outcome}")
            files = sorted(p for p in out_dir.rglob("*") if p.is_file())
            lines.extend(f"{p.relative_to(args.out)} {digest(p)}" for p in files)
        print(f"{name}: done", flush=True)
    (args.out / "digests.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"{len(lines)} lines -> {args.out / 'digests.txt'}")


if __name__ == "__main__":
    main()
