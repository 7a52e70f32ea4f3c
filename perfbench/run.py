"""Benchmark of the partitioned second-order step, end to end and per layer.

    python3 perfbench/run.py --workload moons-small --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

One workload runs in this process; ``--workload all`` runs each workload in
a fresh child process and prints every metric by name with its unit.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The program is
imported from ``src/`` of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One BLAS thread: with two threads the wide network's matmuls use a second
# core and its results change (see README), so both timings and outputs would
# depend on the thread count.  Must be set before numpy is imported.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
BENCHMARK = ROOT / "BENCHMARK.json"


NAMES = ("moons-small", "moons-wide", "minibatch-stream", "check-order3")


def _import_program():
    """Put the checkout's ``src/`` first on the path and import the program
    and the benchmark modules that use it."""
    global workloads, Tracer
    src = ROOT / "src"
    if not (src / "grouphess" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {src / 'grouphess'}; "
                 "run from a checkout of the repository")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import grouphess
    import workloads
    from tracer import Tracer
    return grouphess


def _rss_kb() -> float:
    """Current resident set size, from /proc/self/statm."""
    with open("/proc/self/statm", encoding="ascii") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 1024.0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Phase:
    """Steps of one timed phase: durations, pass counts, statuses."""

    def __init__(self):
        self.durations: list[float] = []
        self.passes = 0
        self.forward = 0
        self.statuses: list[str] = []

    @property
    def steps(self) -> int:
        return len(self.durations)

    @property
    def busy(self) -> float:
        return sum(self.durations)


class Runner:
    """Runs whole rounds of a workload's steps, checking the sampled ones."""

    def __init__(self, workload, state, counter, tracer=None):
        self.w, self.s, self.counter, self.tracer = workload, state, counter, tracer
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def _untraced(self):
        return self.tracer.off() if self.tracer is not None else contextlib.nullcontext()

    def _traced_step(self, i):
        if self.tracer is None:
            return self.w.step(self.s, i)
        with self.tracer.span("bench.step"):
            return self.w.step(self.s, i)

    def round(self, phase: Phase | None) -> None:
        w, s = self.w, self.s
        w.start_round(s)
        self.rounds += 1
        for i in range(w.round_len):
            self.attempted += 1
            before = self.counter.snapshot()
            t0 = time.perf_counter()
            try:
                out = self._traced_step(i)
            except Exception:  # report, and give up the rest of the round
                self.failed += w.round_len - i
                self.attempted += w.round_len - i - 1
                self.failures.append(f"round {self.rounds} step {i}: {traceback.format_exc()}")
                return
            dt = time.perf_counter() - t0
            used = self.counter.snapshot() - before
            if phase is not None:
                phase.durations.append(dt)
                phase.passes += used.passes
                phase.forward += used.forward
                phase.statuses.append(w.status(out))
            if i in w.checked:
                with self._untraced():
                    try:
                        bad = w.check(s, i, out)
                    except Exception as exc:  # a check that cannot run fails the step
                        bad = [repr(exc)]
                if bad:
                    self.failed += 1
                    self.failures.append(f"round {self.rounds} step {i}: {', '.join(bad)}")

    def timed(self, seconds: float, setups: list, seed: int) -> Phase:
        """Whole rounds until the steps have taken ``seconds``; rounds that
        keep failing end the phase after a wall-clock limit instead.

        The workload's set-up is repeated between rounds at even intervals
        of step time, and each set-up time is appended to ``setups``: the
        machine's speed drifts over seconds, and set-ups spread over the run
        see the same drift as the steps do."""
        phase = Phase()
        limit = time.perf_counter() + 4.0 * seconds + 30.0
        interval = seconds / self.w.setups
        next_setup = interval
        while phase.busy < seconds and time.perf_counter() < limit:
            if phase.busy >= next_setup:
                t0 = time.perf_counter()
                self.w.setup(seed)
                setups.append(time.perf_counter() - t0)
                next_setup += interval
            self.round(phase)
        return phase


def end_to_end(args, pkg, w):
    t0 = time.perf_counter()
    state = w.setup(args.seed)
    setup_times = [time.perf_counter() - t0]
    w.prepare(state, args.seed)
    runner = Runner(w, state, pkg.engine.counter)
    runner.round(None)  # warm-up round: checked and counted, not timed
    # read before the timed phase, so that it does not grow with the number
    # of steps a faster program fits into the run
    peak = _peak_rss_mb()
    phase = runner.timed(args.seconds, setup_times, args.seed)
    w.finish(state)
    ms = [1000.0 * d for d in phase.durations]
    twentieths = statistics.quantiles(ms, n=20)
    metrics = {
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "steps_per_s": {"value": phase.steps / phase.busy, "unit": "steps/s"},
        "passes_per_step": {"value": phase.passes / phase.steps, "unit": "count"},
        "peak_rss_mb": {"value": peak, "unit": "MB"},
    }
    # Step-time percentiles are reference figures, kept out of
    # BENCHMARK.json: on a shared machine they do not repeat between runs
    # (see README).
    info = {"steps": phase.steps, "step_ms.p10": twentieths[1], "step_ms.p50": statistics.median(ms),
            "step_ms.p95": twentieths[18], "setups": len(setup_times),
            "rounds": runner.rounds, "self_check": state.extra.get("self_check")}
    return runner, state, metrics, info


def per_layer(args, pkg, w):
    """Traced run.  Set-ups run traced; the timed phase alternates untraced
    and traced rounds, so that both see the same drift in machine speed.
    Faults, CPU split and RSS growth come from the untraced rounds, spans
    from the traced ones."""
    tracer = Tracer(pkg)
    tracer.install()
    try:
        state, _, first = workloads.run_setups(w, args.seed)
    finally:
        tracer.uninstall()
    setup_spans = tracer.summary()
    w.prepare(state, args.seed)
    runner = Runner(w, state, pkg.engine.counter)
    runner.round(None)
    plain, traced = Phase(), Phase()
    faults = user = system = rss_growth = 0.0
    first_span = len(tracer.spans)
    limit = time.perf_counter() + 4.0 * args.seconds + 30.0
    while ((plain.busy + traced.busy < args.seconds or not traced.steps)
           and time.perf_counter() < limit):
        if plain.busy <= traced.busy:
            usage0, rss0 = resource.getrusage(resource.RUSAGE_SELF), _rss_kb()
            runner.round(plain)
            usage1, rss1 = resource.getrusage(resource.RUSAGE_SELF), _rss_kb()
            faults += usage1.ru_minflt - usage0.ru_minflt
            user += usage1.ru_utime - usage0.ru_utime
            system += usage1.ru_stime - usage0.ru_stime
            rss_growth += rss1 - rss0
        else:
            tracer.install()
            runner.tracer = tracer
            try:
                runner.round(traced)
            finally:
                runner.tracer = None
                tracer.uninstall()
    w.finish(state)
    live = sum(1 for o in gc.get_objects() if type(o) is pkg.engine.Expr)
    spans = tracer.summary(first_span)

    def row(name):
        return spans.get(name, {"calls": 0, "total": 0.0, "self": 0.0, "passes": 0})

    def per_call_ms(name, key="total"):
        r = row(name)
        return 1000.0 * r[key] / r["calls"] if r["calls"] else 0.0

    n = traced.steps
    engine_pass_spans = [k for k in spans if k in ("engine.gradient", "engine.hvp", "engine.nested_directional")
                         or k.startswith("engine.gradient_of_nested[")]
    pass_time = sum(spans[k]["total"] for k in engine_pass_spans)
    build_rows = [setup_spans.get(k, {"calls": 0, "total": 0.0}) for k in ("problems.make_mlp", "problems.synth_dataset")]
    build_rows += [row("problems.make_mlp"), row("problems.synth_dataset")]
    build_calls = build_rows[0]["calls"] + build_rows[2]["calls"]
    ph = row("summaries.pseudo_hessian")
    training = w.name != "check-order3"
    values = {
        "engine.hvp_ms": ("ms/call", per_call_ms("engine.hvp")),
        "engine.gradient_ms": ("ms/call", per_call_ms("engine.gradient")),
        "engine.evaluate_ms": ("ms/call", per_call_ms("engine.evaluate")),
        "engine.ms_per_pass": ("ms", 1000.0 * pass_time / traced.passes if traced.passes else 0.0),
        "engine.hvp_calls_per_step": ("count", row("engine.hvp")["calls"] / n),
        "engine.gradient_calls_per_step": ("count", row("engine.gradient")["calls"] / n),
        "engine.forward_per_step": ("count", traced.forward / n),
        "engine.first_call_ms": ("ms", 1000.0 * statistics.median(first)),
        "engine.minor_faults_per_step": ("count", faults / plain.steps),
        "engine.sys_share": ("ratio", system / (user + system) if user + system > 0 else 0.0),
        "engine.live_nodes": ("count", live),
        "engine.rss_growth_kb_per_step": ("KB", rss_growth / plain.steps),
        "problems.build_ms": ("ms/call", 1000.0 * sum(r["total"] for r in build_rows) / build_calls),
        "partition.maps_ms_per_step": ("ms", 1000.0 * sum(
            row(k)["total"] for k in ("partition.mask", "partition.group_sum", "partition.broadcast")) / n),
        "summaries.pseudo_hessian_ms": ("ms/call", per_call_ms("summaries.pseudo_hessian")),
        "summaries.assemble_ms": ("ms/call", per_call_ms("summaries.pseudo_hessian", "self")),
        "summaries.passes_per_system": ("count", ph["passes"] / ph["calls"] if ph["calls"] else 0.0),
        "summaries.summary_tensor_ms": ("ms/call", per_call_ms("summaries.summary_tensor")),
        "optimizers.solve_ms": ("ms/call", per_call_ms("optimizers.solve_pseudo_system")),
        "optimizers.factorizations_per_step": (
            "count", sum(workloads.factorizations(st) for st in traced.statuses) / n if training else 0.0),
        "optimizers.step_self_ms": ("ms", 1000.0 * row("optimizers.partitioned_newton_step")["self"] / n),
        "optimizers.loop_self_ms": ("ms", 1000.0 * row("optimizers.run")["self"] / n),
        "cli.self_ms": ("ms/battery", 1000.0 * row("cli.main")["self"] / n),
    }
    metrics = {k: {"value": v, "unit": u} for k, (u, v) in values.items()}
    plain_sps, traced_sps = plain.steps / plain.busy, traced.steps / traced.busy
    OUT.mkdir(parents=True, exist_ok=True)
    spans_path = OUT / f"spans-{w.name}-seed{args.seed}.jsonl"
    tracer.write(spans_path)
    info = {"steps_untraced": plain.steps, "steps_traced": n,
            "steps_per_s_untraced": plain_sps, "steps_per_s_traced": traced_sps,
            "tracing_overhead": 1.0 - traced_sps / plain_sps,
            "spans": len(tracer.spans), "spans_file": str(spans_path.relative_to(ROOT)),
            "self_check": state.extra.get("self_check"),
            "shares": {k: v["total"] / traced.busy for k, v in sorted(spans.items())},
            "self_shares": {k: v["self"] / traced.busy for k, v in sorted(spans.items())}}
    return runner, state, metrics, info


def run_one(args) -> int:
    pkg = _import_program()
    w = workloads.make(args.workload, OUT / f"scratch-{os.getpid()}")
    measure = per_layer if args.trace else end_to_end
    runner, state, metrics, info = measure(args, pkg, w)
    correct = runner.failed == 0 and state.extra["self_check"] <= workloads.TOL_SELF_CHECK
    result = {"correct": correct, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    OUT.mkdir(parents=True, exist_ok=True)
    detail = dict(result, workload=w.name, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, info=info, failures=runner.failures[:20])
    (OUT / f"result-{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=2) + "\n", encoding="utf-8")
    for name, m in metrics.items():
        print(f"{w.name:<18} {name:<34} {m['value']:>14.6g} {m['unit']}")
    if not args.trace:
        for name in ("step_ms.p10", "step_ms.p50", "step_ms.p95"):
            print(f"{w.name:<18} {name + ' (reference)':<34} {info[name]:>14.6g}")
    if args.trace:
        print(f"{w.name:<18} tracing overhead on steps_per_s: {100 * info['tracing_overhead']:.1f}% "
              f"({info['steps_per_s_untraced']:.4g} untraced, {info['steps_per_s_traced']:.4g} traced)")
    for line in runner.failures[:5]:
        print(f"{w.name:<18} FAILED {line}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh child process; one combined summary line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not BENCHMARK.is_file():
        sys.exit(f"perfbench: {BENCHMARK} not found")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
