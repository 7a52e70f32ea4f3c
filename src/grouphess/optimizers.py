"""Optimization steps built on the group-level curvature system.

``partitioned_newton_step`` solves the S x S system hbar * eta = gbar and
moves the parameters by the gradient elementwise-scaled with the per-group
learning rates eta.  With the discrete partition (S = P, all gradient entries
nonzero) it reproduces dense Newton; with the trivial partition (S = 1) it
reproduces Cauchy's steepest descent with exact quadratic-model step size.
``gd_step``, ``cauchy_step``, and dense ``newton_step`` are the baselines.

The partitioned step has one damping mechanism, a ladder of increasing
diagonal shifts eps * I on the S x S system.  Groups with exactly zero
pseudo-gradient are dropped (their rows and columns vanish identically) and
get eta = 0.  A rung is accepted when its solve succeeds, descends
(eta . gbar > 0) and moves to a finite loss no higher than the loss before
the step; otherwise the step climbs to the next rung.  An exhausted ladder
falls back to the Cauchy solution embedded in R^S, or to a plain gradient
step when the total curvature is non-positive.  Dense Newton climbs the same
ladder on the descent test alone.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
import warnings
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np
import scipy.linalg

from . import engine
from .engine import (EvaluationError, Expr, ParamVector, PassCounts, evaluate, gradient,
                     gradient_of_nested)
from .partition import Partition, broadcast
from .summaries import PseudoSystem, nulled, pseudo_hessian, regularization_vector

__all__ = [
    "METHODS",
    "SolverError",
    "NonFiniteLossError",
    "StepConfig",
    "StepTrace",
    "RunResult",
    "solve_pseudo_system",
    "partitioned_newton_step",
    "cauchy_step",
    "newton_step",
    "gd_step",
    "run",
    "traces_to_csv",
    "traces_to_json",
]

METHODS = ("gd", "cauchy", "newton", "partitioned")

DEFAULT_LADDER = tuple(1e-8 * 10.0 ** k for k in range(17))


class SolverError(RuntimeError):
    """Dense Newton's solve failed beyond recovery, or its budget was exceeded."""


class NonFiniteLossError(ValueError):
    """A step produced a NaN/Inf loss; the run loop aborts on it."""


@dataclass(frozen=True)
class StepConfig:
    """Knobs shared by all step rules.

    ``damping`` scales every second-order displacement (1.0 keeps the raw
    update); ``regularization_eps`` switches on the third-order diagonal
    regularizer.  The shifts tried when a solve fails, does not descend or
    raises the loss are the fixed ``DEFAULT_LADDER``.
    """

    damping: float = 1.0
    regularization_eps: float = 0.0
    max_iterations: int = 100
    grad_tolerance: float = 1e-8
    reg_mode: str = "exact"
    reg_samples: int = 256
    dense_budget: int = 512

    def __post_init__(self) -> None:
        if not self.damping > 0:
            raise ValueError("damping must be positive")
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be non-negative")
        if self.regularization_eps < 0:
            raise ValueError("regularization_eps must be non-negative")
        if self.reg_mode not in ("exact", "sampled"):
            raise ValueError(f"reg_mode '{self.reg_mode}' invalid (exact, sampled)")
        if self.reg_samples < 1:
            raise ValueError("reg_samples must be at least 1")


@dataclass(frozen=True)
class StepTrace:
    iteration: int
    loss_before: float
    loss_after: float
    grad_norm: float
    eta: tuple[float, ...]
    status: str
    passes: PassCounts
    wall_time: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.loss_before) and math.isfinite(self.loss_after)):
            raise NonFiniteLossError("trace loss fields must be finite")


@dataclass(frozen=True)
class RunResult:
    traces: tuple[StepTrace, ...]
    theta_final: ParamVector
    termination: str  # converged | max-iterations | aborted-{nonfinite,solver,eval}
    error: str | None = None  # the message behind aborted-solver / aborted-eval


# ---------------------------------------------------------------------------
# linear algebra helpers
# ---------------------------------------------------------------------------


def _sym_solve(m: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """Symmetric-indefinite solve (LAPACK Bunch-Kaufman); None on failure."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            x = scipy.linalg.solve(m, b, assume_a="sym")
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError, ValueError):
        return None
    if not np.all(np.isfinite(x)):
        return None
    return x


def shift_ladder(m: np.ndarray):
    """Yield (None, m), then (eps, m + eps * I) for each rung of DEFAULT_LADDER."""
    yield None, m
    eye = np.eye(m.shape[0])
    for eps in DEFAULT_LADDER:
        yield eps, m + eps * eye


def _ladder_solve(m: np.ndarray, b: np.ndarray, accept=None):
    """Solve m x = b, requiring descent (x . b > 0) and ``accept(x)`` when
    given; climb the shift ladder otherwise.  Returns (x, eps_used) or
    (None, None)."""
    for eps, shifted in shift_ladder(m):
        x = _sym_solve(shifted, b)
        if x is not None and float(x @ b) > 0.0 and (accept is None or accept(x)):
            return x, eps
    return None, None


def _format_dropped(dropped: Sequence[int], total: int) -> str:
    if len(dropped) == total:
        return "zero-groups-dropped(all)"
    return "zero-groups-dropped(" + ",".join(str(s + 1) for s in dropped) + ")"


def solve_pseudo_system(system: PseudoSystem, cfg: StepConfig | None = None,
                        r: np.ndarray | None = None, accept=None) -> tuple[np.ndarray, str]:
    """Per-group learning rates solving (hbar + eps * Diag(r)) eta = gbar.

    Groups with exactly zero pseudo-gradient are dropped with eta = 0 (their
    hbar rows and columns are identically zero).  A failed factorization, a
    non-descent solution or one that ``accept(eta)`` rejects climbs the shift
    ladder; an exhausted ladder returns the Cauchy solution (all entries
    g.g / g.H.g, both recoverable from the system), or eta = 1 when the total
    curvature is non-positive.
    """
    cfg = cfg or StepConfig()
    s_count = system.size
    gbar = system.gbar
    eta = np.zeros(s_count)

    active = np.flatnonzero(gbar != 0.0)
    dropped = [s for s in range(s_count) if gbar[s] == 0.0]
    if active.size == 0:
        return eta, _format_dropped(dropped, s_count)

    m = system.hbar[np.ix_(active, active)]
    b = gbar[active]
    if cfg.regularization_eps > 0.0:
        if r is None:
            raise ValueError("regularization_eps > 0 requires the r vector")
        r = np.asarray(r, dtype=np.float64)
        m = m + cfg.regularization_eps * np.diag(r[active])

    def admits(x):
        eta[active] = x
        return accept(eta)

    x, eps_used = _ladder_solve(m, b, None if accept is None else admits)
    if x is not None:
        eta[active] = x
        if eps_used is not None:
            return eta, f"regularized({eps_used:g})"
        if dropped:
            return eta, _format_dropped(dropped, s_count)
        return eta, "clean"

    denom = float(np.sum(system.hbar))  # = g^T H g
    num = float(np.sum(gbar))           # = g^T g
    if denom > 0.0:
        eta[:] = num / denom
        return eta, "cauchy-fallback"
    # non-positive total curvature: same remedy as cauchy_step, a plain
    # gradient step (eta = 1 makes the update damping * g)
    eta[:] = 1.0
    return eta, "gd-fallback"


# ---------------------------------------------------------------------------
# step rules
# ---------------------------------------------------------------------------


def _as_pv(theta) -> ParamVector:
    if isinstance(theta, ParamVector):
        return theta
    return ParamVector.flat(np.asarray(theta, dtype=np.float64))


# A rate rule maps (f, theta, g, cfg, part, loss) to (displacement, eta,
# status, loss_after): the step moves theta to theta - displacement, or stays
# put when the displacement is None.  ``g`` and ``loss`` are the gradient and
# the loss at theta, computed by the caller; ``loss_after`` is the loss at the
# new point when the rule has already evaluated it, else None.


def _partitioned_rule(f, theta, g, cfg, part, loss):
    system = pseudo_hessian(f, theta, part, g)
    r = None
    if cfg.regularization_eps > 0.0:
        r = np.asarray(regularization_vector(
            f, theta, part, mode=cfg.reg_mode, samples=cfg.reg_samples))
    accepted = []

    def lowers(eta):
        """The rise test: a rung's step must reach a finite loss no higher
        than the loss before it."""
        after = evaluate(f, theta.with_values(theta.values - cfg.damping * g * broadcast(eta, part)))
        if not (math.isfinite(after) and after <= loss):
            return False
        accepted.append(after)
        return True

    eta, status = solve_pseudo_system(system, cfg, r, lowers)
    return cfg.damping * g * broadcast(eta, part), eta, status, accepted[0] if accepted else None


def _cauchy_rule(f, theta, g, cfg, part, loss):
    gg = float(g @ g)
    if gg == 0.0:
        return None, [0.0], "clean", None
    ghg = float(g @ gradient_of_nested(f, theta, [g]))
    if ghg <= 0.0:
        return cfg.damping * g, [cfg.damping], "gd-fallback", None
    step_size = gg / ghg
    return step_size * g, [step_size], "clean", None


def _newton_rule(f, theta, g, cfg, part, loss):
    p = theta.size
    if p > cfg.dense_budget:
        raise SolverError(
            f"dense Newton assembles the full Hessian; P={p} exceeds the "
            f"budget of {cfg.dense_budget}")
    if float(g @ g) == 0.0:
        return None, [cfg.damping], "clean", None
    h = gradient_of_nested(f, theta, [np.eye(p)])  # row j: H e_j
    h = 0.5 * (h + h.T)
    direction, eps_used = _ladder_solve(h, g)
    if direction is None:
        raise SolverError("Newton system singular after the full ladder")
    status = "clean" if eps_used is None else f"regularized({eps_used:g})"
    return cfg.damping * direction, [cfg.damping], status, None


def _gd_rule(f, theta, g, cfg, part, loss):
    return cfg.damping * g, [cfg.damping], "clean", None


_RULES = {"gd": _gd_rule, "cauchy": _cauchy_rule, "newton": _newton_rule,
          "partitioned": _partitioned_rule}


def _step(rule, f, theta: ParamVector, g: np.ndarray, part, cfg: StepConfig,
          iteration: int, t0: float, before: PassCounts,
          loss_before: float | None = None) -> tuple[ParamVector, StepTrace]:
    """The part every step shares: evaluate (unless the caller already has
    the loss at theta), apply the rule's displacement, evaluate again unless
    the rule already did, trace.  A non-finite loss or iterate raises
    NonFiniteLossError.  ``t0`` and ``before`` are the clock and this
    thread's counts taken before ``g`` was computed, so the trace is charged
    for that gradient and for every candidate the rule evaluated."""
    if loss_before is None:
        loss_before = evaluate(f, theta)
    displacement, eta, status, loss_after = rule(f, theta, g, cfg, part, loss_before)
    if displacement is None:
        theta2, loss_after = theta, loss_before
    else:
        theta2 = theta.with_values(theta.values - displacement)
        if loss_after is None:
            loss_after = evaluate(f, theta2)
    if not (math.isfinite(loss_after) and np.all(np.isfinite(theta2.values))):
        raise NonFiniteLossError("the step reached a non-finite loss or iterate")
    eta = tuple(float(x) for x in np.atleast_1d(eta))
    return theta2, StepTrace(iteration, loss_before, loss_after, float(np.linalg.norm(g)), eta,
                             status, engine.counter.own() - before, time.perf_counter() - t0)


def _fresh_step(rule, f, theta, part, cfg, iteration):
    theta = _as_pv(theta)
    t0, before = time.perf_counter(), engine.counter.own()
    g = gradient(f, theta)
    return _step(rule, f, theta, g, part, cfg or StepConfig(), iteration, t0, before)


def partitioned_newton_step(f: Expr, theta, part: Partition,
                            cfg: StepConfig | None = None,
                            iteration: int = 0) -> tuple[ParamVector, StepTrace]:
    """One partitioned second-order step:
    theta' = theta - damping * (g * broadcast(eta)) with eta from the
    group-level system at theta.  Costs S + 1 passes: the gradient and S
    Hessian-vector products, plus one forward per rung whose step the rise
    test rejected."""
    return _fresh_step(_partitioned_rule, f, theta, part, cfg, iteration)


def cauchy_step(f: Expr, theta, cfg: StepConfig | None = None,
                iteration: int = 0) -> tuple[ParamVector, StepTrace]:
    """Steepest descent with the exact quadratic-model step size
    g.g / g.H.g, the curvature obtained from a single Hessian-vector
    product.  Non-positive curvature falls back to a fixed gradient step of
    size ``damping``, flagged in the status."""
    return _fresh_step(_cauchy_rule, f, theta, None, cfg, iteration)


def newton_step(f: Expr, theta, cfg: StepConfig | None = None,
                iteration: int = 0) -> tuple[ParamVector, StepTrace]:
    """Damped dense Newton step; the Hessian is assembled column by column
    from P Hessian-vector products, so a budget guard keeps P small."""
    return _fresh_step(_newton_rule, f, theta, None, cfg, iteration)


def gd_step(f: Expr, theta, cfg: StepConfig | None = None,
            iteration: int = 0) -> tuple[ParamVector, StepTrace]:
    """Plain gradient descent with step size ``damping``."""
    return _fresh_step(_gd_rule, f, theta, None, cfg, iteration)


# ---------------------------------------------------------------------------
# run loop
# ---------------------------------------------------------------------------


def run(f: Expr, theta0, method: str, part: Partition | None = None,
        cfg: StepConfig | None = None) -> RunResult:
    """Iterate one step rule until the gradient norm drops below the
    configured tolerance or the iteration cap is reached.  Each iteration
    computes one gradient, for the convergence test and the step alike, and
    starts from the loss the previous step ended with.  A non-finite loss or
    iterate, a failed solve or a failed evaluation ends the run at the last
    good step, the latter two with ``RunResult.error``."""
    cfg = cfg or StepConfig()
    if method not in METHODS:
        raise ValueError(f"unknown method '{method}'; valid methods: {', '.join(METHODS)}")
    if method == "partitioned" and part is None:
        raise ValueError("the partitioned method needs a partition")
    rule = _RULES[method]
    theta = _as_pv(theta0)

    traces: list[StepTrace] = []
    termination, error = "max-iterations", None
    loss = None  # the loss at theta, once a step has evaluated it
    for it in range(cfg.max_iterations):
        t0, before = time.perf_counter(), engine.counter.own()
        try:
            g = gradient(f, theta)
            if float(np.linalg.norm(g)) <= cfg.grad_tolerance:
                termination = "converged"
                break
            theta2, trace = _step(rule, f, theta, g, part, cfg, it, t0, before, loss)
        except NonFiniteLossError:
            termination = "aborted-nonfinite"
            break
        except (SolverError, EvaluationError) as exc:
            kind = "solver" if isinstance(exc, SolverError) else "eval"
            termination, error = f"aborted-{kind}", str(exc)
            break
        traces.append(trace)
        theta, loss = theta2, trace.loss_after
    return RunResult(tuple(traces), theta, termination, error)


# ---------------------------------------------------------------------------
# trace serialization
# ---------------------------------------------------------------------------


def traces_to_csv(traces: Sequence[StepTrace]) -> str:
    """One row per step: iter, loss, grad_norm, status, eta_1..eta_S."""
    width = max((len(t.eta) for t in traces), default=0)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["iter", "loss", "grad_norm", "status"]
                    + [f"eta_{i + 1}" for i in range(width)])
    for t in traces:
        eta = list(t.eta) + [""] * (width - len(t.eta))
        writer.writerow([t.iteration, repr(t.loss_before), repr(t.grad_norm), t.status]
                        + [repr(x) if x != "" else "" for x in eta])
    return buf.getvalue()


def strict_json(obj) -> str:
    """``obj`` as indented JSON with sorted keys and every non-finite float
    written as ``null``, so that strict parsers read it."""
    return json.dumps(nulled(obj), indent=2, sort_keys=True, allow_nan=False)


def traces_to_json(traces: Sequence[StepTrace]) -> str:
    """Every StepTrace field, pass counts and wall time included."""
    return strict_json([asdict(t) for t in traces])
