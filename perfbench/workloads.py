"""The four benchmark workloads.

Each workload has a set-up (timed as ``setup_s``), a step (one operation of
the timed phase), and a check that compares a step's outputs against the
numpy reference in :mod:`reference` and against the method's own
properties.  Steps come in rounds of ``round_len``; a run attempts whole
rounds, and the steps listed in ``checked`` of every round are checked.

Every call into the program goes through a module attribute looked up at
call time (``optimizers.run``, not a name bound at import), so that the
traced run's wrappers see it.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import time
from dataclasses import dataclass, field
from itertools import permutations
from pathlib import Path

import numpy as np

from grouphess import cli, engine, optimizers, partition, problems, summaries
from reference import ReferenceMlp

DAMPING = 0.3
STEP_CONFIG = optimizers.StepConfig(damping=DAMPING, max_iterations=1)

# Relative tolerances.  Loss, gradient and group system are compared against
# values that are exact to rounding (closed forms and complex steps), which
# agree with the program to ~1e-15 of the largest entry; the third
# directional derivative against a difference stencil accurate to ~1e-8.
TOL_LOSS = 1e-10
TOL_GRAD = 1e-9
TOL_SYSTEM = 1e-9
TOL_SOLVE = 1e-9
TOL_UPDATE = 1e-8
TOL_THIRD = 1e-5
TOL_SELF_CHECK = 1e-7


@dataclass
class Setup:
    """What one set-up builds, plus the timings of its first calls."""

    loss: object
    theta0: object
    part: object
    data: object
    spec: object
    first_grad_s: float
    first_hvp_s: float
    extra: dict = field(default_factory=dict)


def build(widths, n, seed, subset=None) -> Setup:
    """Dataset, network graph and canonical partition, then the first
    gradient and the first HVP, which derive and cache their graphs."""
    data = problems.synth_dataset("moons", n, seed=seed)
    spec = problems.MlpSpec(widths, seed=seed)
    loss, theta0 = problems.make_mlp(spec, data, subset=subset)
    part = partition.canonical_partition(theta0.shapes, problems.mlp_labels(widths))
    t0 = time.perf_counter()
    g = engine.gradient(loss, theta0)
    t1 = time.perf_counter()
    engine.gradient_of_nested(loss, theta0, [partition.mask(g, part, 0)])
    t2 = time.perf_counter()
    return Setup(loss, theta0, part, data, spec, t1 - t0, t2 - t1)


def steady_call_s(s: Setup) -> float:
    """Time of one gradient plus one HVP on a loss whose graphs are cached."""
    t0 = time.perf_counter()
    g = engine.gradient(s.loss, s.theta0)
    engine.gradient_of_nested(s.loss, s.theta0, [partition.mask(g, s.part, 0)])
    return time.perf_counter() - t0


def run_setups(w, seed: int):
    """Repeat the workload's set-up ``w.setups`` times (the median is
    ``setup_s``).  Returns the last set-up, the set-up times, and the first
    calls' extra time over steady calls (``engine.first_call_ms``)."""
    times, first = [], []
    for _ in range(w.setups):
        t0 = time.perf_counter()
        state = w.setup(seed)
        times.append(time.perf_counter() - t0)
        steady = min(steady_call_s(state) for _ in range(3))
        first.append(state.first_grad_s + state.first_hvp_s - steady)
    return state, times, first


def reference_for(s: Setup, subset=None) -> ReferenceMlp:
    x, y = s.data.features, s.data.targets
    if subset is not None:
        x, y = x[subset], y[subset]
    return ReferenceMlp(s.spec.widths, x, y)


def _rel(a, b) -> float:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return float(np.max(np.abs(a - b))) / max(float(np.max(np.abs(b))), 1e-300)


def factorizations(status: str) -> int:
    """Symmetric solves a step attempted, read from its status: 1 for a
    clean solve, 2 plus the rung index for ``regularized(eps)``, the whole
    ladder for a fallback."""
    ladder = optimizers.DEFAULT_LADDER
    if status.startswith("regularized("):
        eps = float(status[len("regularized("):-1])
        return 2 + int(np.argmin([abs(np.log(eps / x)) for x in ladder]))
    if status.endswith("-fallback"):
        return 1 + len(ladder)
    return 1


def check_training_step(loss, ref: ReferenceMlp, part, theta, theta2, trace) -> list[str]:
    """Compare one partitioned step against the reference: loss, gradient,
    the group system and its pass cost, the solve, and the update."""
    bad = []
    th = np.asarray(theta.values)
    g_ref = ref.grad(th)
    if abs(trace.loss_before - ref.loss(th)) > TOL_LOSS * max(1.0, abs(trace.loss_before)):
        bad.append("loss")
    g = engine.gradient(loss, theta)
    if _rel(g, g_ref) > TOL_GRAD or abs(trace.grad_norm - np.linalg.norm(g_ref)) > TOL_GRAD * np.linalg.norm(g_ref):
        bad.append("gradient")

    before = engine.counter.snapshot()
    system = summaries.pseudo_hessian(loss, theta, part)
    if (engine.counter.snapshot() - before).passes != part.size + 1:
        bad.append("passes-per-system")
    hbar_ref, gbar_ref = ref.system(th)
    if _rel(system.hbar, hbar_ref) > TOL_SYSTEM or _rel(system.gbar, gbar_ref) > TOL_GRAD:
        bad.append("system")

    eta = np.asarray(trace.eta)
    status = trace.status
    active = np.flatnonzero(system.gbar != 0.0)
    if status.endswith("-fallback"):
        want = 1.0 if status == "gd-fallback" else float(np.sum(system.gbar) / np.sum(system.hbar))
        if _rel(eta, np.full_like(eta, want)) > TOL_SOLVE:
            bad.append("solve")
    else:
        shift = float(status[len("regularized("):-1]) if status.startswith("regularized(") else 0.0
        for hbar, gbar in ((system.hbar, system.gbar), (hbar_ref, gbar_ref)):
            m = hbar[np.ix_(active, active)] + shift * np.eye(active.size)
            residual = m @ eta[active] - gbar[active]
            scale = np.max(np.abs(m)) * np.max(np.abs(eta[active])) + np.max(np.abs(gbar[active]))
            if np.max(np.abs(residual)) > TOL_SOLVE * scale:
                bad.append("solve")
                break
        if np.any(eta[np.setdiff1d(np.arange(eta.size), active)] != 0.0):
            bad.append("dropped-groups")

    expected = th - DAMPING * g_ref * eta[ref.group_of]
    moved = max(float(np.max(np.abs(expected - th))), 1e-300)
    if float(np.max(np.abs(np.asarray(theta2.values) - expected))) > TOL_UPDATE * moved:
        bad.append("update")
    return bad


class Workload:
    name = ""
    round_len = 1
    checked: tuple = (0,)
    setups = 1

    def setup(self, seed: int) -> Setup:
        raise NotImplementedError

    def prepare(self, s: Setup, seed: int) -> None:
        """Untimed preparation after the last set-up: the reference, its
        self-check and the inputs of the timed phase."""

    def start_round(self, s: Setup) -> None:
        pass

    def step(self, s: Setup, i: int):
        raise NotImplementedError

    def check(self, s: Setup, i: int, out) -> list[str]:
        raise NotImplementedError

    @staticmethod
    def status(out) -> str:
        """The step's solver status, for ``factorizations``."""
        raise NotImplementedError

    def finish(self, s: Setup) -> None:
        pass


class FullBatch(Workload):
    """Partitioned training through ``optimizers.run``, one iteration per
    call.  A round is ``episodes`` short trainings of ``episode_len`` steps,
    each from its own seeded initial point, so that a run's mix of clean and
    shifted solves does not hang on a single trajectory."""

    def __init__(self, name, widths, n, episodes, episode_len, checked, setups):
        self.name, self.widths, self.n = name, widths, n
        self.episodes, self.episode_len = episodes, episode_len
        self.round_len = episodes * episode_len
        self.checked, self.setups = checked, setups

    def setup(self, seed):
        return build(self.widths, self.n, seed)

    def prepare(self, s, seed):
        s.extra["ref"] = reference_for(s)
        s.extra["self_check"] = s.extra["ref"].self_check(
            np.asarray(s.theta0.values), np.random.default_rng(seed))
        s.extra["inits"] = [s.theta0] + [
            problems.make_mlp(problems.MlpSpec(self.widths, seed=seed * 1000 + j), s.data)[1]
            for j in range(1, self.episodes)]

    def step(self, s, i):
        if i % self.episode_len == 0:
            s.extra["theta"] = s.extra["inits"][i // self.episode_len]
        theta = s.extra["theta"]
        result = optimizers.run(s.loss, theta, "partitioned", s.part, STEP_CONFIG)
        s.extra["theta"] = result.theta_final
        return theta, result

    def check(self, s, i, out):
        theta, result = out
        if len(result.traces) != 1:
            return [f"termination-{result.termination}"]
        return check_training_step(s.loss, s.extra["ref"], s.part, theta,
                                   result.theta_final, result.traces[0])

    @staticmethod
    def status(out):
        return out[1].traces[0].status if out[1].traces else "none"


class MinibatchStream(Workload):
    """One ``partitioned_newton_step`` per freshly built frozen-minibatch
    loss; the parameters carry over from batch to batch within a round."""

    name = "minibatch-stream"
    widths = (2, 8, 8, 8, 2)
    n = 1000
    batch = 64
    round_len = 16
    checked = (0, 8)
    setups = 50

    def setup(self, seed):
        rng = np.random.default_rng([seed, 1])
        return build(self.widths, self.n, seed,
                     subset=rng.choice(self.n, self.batch, replace=False))

    def prepare(self, s, seed):
        s.extra["rng"] = np.random.default_rng([seed, 2])
        s.extra["self_check"] = reference_for(s).self_check(
            np.asarray(s.theta0.values), np.random.default_rng(seed))

    def start_round(self, s):
        rng = s.extra["rng"]
        s.extra["batches"] = [rng.choice(self.n, self.batch, replace=False)
                              for _ in range(self.round_len)]
        s.extra["theta"] = s.theta0

    def step(self, s, i):
        theta = s.extra["theta"]
        loss, _ = problems.make_mlp(s.spec, s.data, subset=s.extra["batches"][i])
        theta2, trace = optimizers.partitioned_newton_step(loss, theta, s.part, STEP_CONFIG)
        s.extra["theta"] = theta2
        return loss, theta, theta2, trace

    def check(self, s, i, out):
        loss, theta, theta2, trace = out
        ref = reference_for(s, s.extra["batches"][i])
        return check_training_step(loss, ref, s.part, theta, theta2, trace)

    @staticmethod
    def status(out):
        return out[3].status


class CheckOrder3(Workload):
    """``grouphess check --order 3`` on the moons-small configuration,
    called in-process through ``cli.main``; one battery per step."""

    name = "check-order3"
    widths = (2, 8, 8, 8, 2)
    n = 100
    round_len = 1
    checked = (0,)
    setups = 50
    expected_checks = {"gradient-fd", "sum-collapse", "symmetry", "footnote-identity", "pass-audit"}

    def __init__(self, scratch: Path):
        self.scratch = scratch

    def setup(self, seed):
        s = build(self.widths, self.n, seed)
        config = {
            "problem": {"kind": "mlp", "widths": list(self.widths),
                        "dataset": {"kind": "moons", "n": self.n, "seed": seed}},
            "seed": seed,
        }
        self.scratch.mkdir(parents=True, exist_ok=True)
        path = self.scratch / "check.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        s.extra["argv"] = ["check", "--config", str(path), "--order", "3",
                           "--out", str(self.scratch / "check")]
        return s

    def prepare(self, s, seed):
        s.extra["ref"] = reference_for(s)
        s.extra["rng"] = np.random.default_rng([seed, 3])
        s.extra["self_check"] = s.extra["ref"].self_check(
            np.asarray(s.theta0.values), np.random.default_rng(seed))

    def step(self, s, i):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(s.extra["argv"])

    def check(self, s, i, rc):
        bad = []
        if rc != 0:
            bad.append(f"exit-{rc}")
        path = self.scratch / "check" / "report.json"
        if path.is_file():
            report = json.loads(path.read_text(encoding="utf-8"))
            path.unlink()
            if report["order"] != 3 or {c["check"] for c in report["checks"]} != self.expected_checks:
                bad.append("report-contents")
            if not all(c["passed"] for c in report["checks"]):
                bad.append("report-failed")
        else:
            bad.append("no-report")
        ref, th = s.extra["ref"], np.asarray(s.theta0.values)
        if _rel(engine.gradient(s.loss, s.theta0), ref.grad(th)) > TOL_GRAD:
            bad.append("gradient")
        u = s.extra["rng"].normal(size=th.size)
        st = summaries.summary_tensor(s.loss, s.theta0, u, s.part, 3)
        third = ref.third_directional(th, u)
        if abs(st.total() - third) > TOL_THIRD * max(abs(third), 1e-12):
            bad.append("summary-total")
        if any(np.any(np.transpose(st.entries, p) != st.entries) for p in permutations(range(3))):
            bad.append("summary-symmetry")
        return bad

    @staticmethod
    def status(out):
        return "battery"

    def finish(self, s):
        shutil.rmtree(self.scratch, ignore_errors=True)


def make(name: str, scratch: Path) -> Workload:
    if name == "moons-small":
        return FullBatch(name, (2, 8, 8, 8, 2), 100, episodes=5, episode_len=10,
                         checked=(0, 17, 34), setups=50)
    if name == "moons-wide":
        return FullBatch(name, (2, 64, 64, 64, 2), 2000, episodes=2, episode_len=3,
                         checked=(0,), setups=9)
    if name == "minibatch-stream":
        return MinibatchStream()
    if name == "check-order3":
        return CheckOrder3(scratch)
    raise KeyError(name)
