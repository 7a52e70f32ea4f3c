"""Steadiness of the benchmark: two sets of runs of the same code.

    python3 perfbench/steady.py

Two sets of 10 runs of every workload in ``BENCHMARK.json``, each run
``run_seconds`` long: set A uses seeds 1..10 and set B seeds 11..20; runs go
one at a time, cycling through the workloads.  For each workload and
end-to-end metric it prints both sets' medians, their spreads (interquartile
range over median), the shift of B's median from A's in the worse
direction, and whether both spreads and the shift stay within the bound in
``BENCHMARK.json``.  It also checks that the failed share is identical in
both sets.
The step-time reference figures from each run's result file are shown the
same way, marked "ref", and do not count towards the verdict.  The summary
is written to ``perfbench/out/steady.json``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = 10
REFERENCE = ("step_ms.p10", "step_ms.p50", "step_ms.p95")


def run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = json.loads((HERE / "out" / f"result-{workload}-seed{seed}-trace0.json").read_text(encoding="utf-8"))
    result["reference"] = {name: detail["info"][name] for name in REFERENCE}
    return result


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    results = {w: {"A": [], "B": []} for w in names}
    for label, first in (("A", 1), ("B", 1 + SEEDS)):
        for seed in range(first, first + SEEDS):
            for w in names:
                r = run(w, seed, bench["run_seconds"])
                results[w][label].append(r)
                print(f"set {label} seed {seed:3d} {w:<18} correct={r['correct']} "
                      f"failed={r['failed']}/{r['attempted']}", flush=True)

    ok = True
    summary = {}
    print(f"\n{'workload':<18} {'metric':<16} {'median A':>12} {'median B':>12} "
          f"{'spread A':>9} {'spread B':>9} {'shift':>8} {'bound':>6}  ok")
    for w in names:
        sets = results[w]
        shares = {k: sum(r["failed"] for r in v) / sum(r["attempted"] for r in v) for k, v in sets.items()}
        correct = all(r["correct"] for v in sets.values() for r in v)
        row_ok = correct and shares["A"] == shares["B"]
        ok &= row_ok
        summary[w] = {"correct": correct, "failed_share": shares, "metrics": {}}
        rows = [(m["name"], m["bound"], m["better"], "metrics") for m in bench["end_to_end"]]
        rows += [(name, None, "lower", "reference") for name in REFERENCE]
        for name, bound, better, where in rows:
            a = [r[where][name] for r in sets["A"]]
            b = [r[where][name] for r in sets["B"]]
            if where == "metrics":
                a, b = [v["value"] for v in a], [v["value"] for v in b]
            med_a, med_b = statistics.median(a), statistics.median(b)
            shift = (med_b - med_a) / med_a
            worse = shift if better == "lower" else -shift
            spreads = (spread(a), spread(b))
            if bound is None:
                verdict = "ref"
            else:
                good = worse <= bound and max(spreads) <= bound
                ok &= good
                verdict = "yes" if good else "NO"
            summary[w]["metrics"][name] = {"median": [med_a, med_b], "spread": list(spreads),
                                           "shift": shift, "bound": bound, "ok": verdict}
            shown = "-" if bound is None else f"{bound:.0%}"
            print(f"{w:<18} {name:<16} {med_a:>12.6g} {med_b:>12.6g} {spreads[0]:>9.2%} "
                  f"{spreads[1]:>9.2%} {shift:>+8.2%} {shown:>6}  {verdict}")
        print(f"{w:<18} failed share A {shares['A']:.4g}, B {shares['B']:.4g}; correct={correct}")
    out = HERE / "out"
    out.mkdir(parents=True, exist_ok=True)
    (out / "steady.json").write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
