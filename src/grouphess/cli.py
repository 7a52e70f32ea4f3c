"""Experiment command line.

Subcommands:

* ``run``      - optimize a configured problem, writing trace.csv/trace.json,
  final parameters, and a manifest that reproduces the run byte-for-byte;
* ``inspect``  - export the group-level curvature matrix and its inverse as
  heatmap-ready JSON plus per-block CSVs (weight-weight, bias-bias,
  weight-bias);
* ``check``    - run the derivative test battery against finite differences
  and the cost audit, writing a pass/fail report;
* ``config``   - print the documented defaults.

Exit codes: 0 ok, 2 config error, 3 runtime abort (partial trace kept),
4 failed check.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import yaml

from . import engine
from .engine import EvaluationError, ParamVector, evaluate, gradient
from .fd import fd_gradient, fd_pseudo_hessian
from .optimizers import (
    METHODS,
    SolverError,
    StepConfig,
    run,
    shift_ladder,
    strict_json,
    traces_to_csv,
    traces_to_json,
)
from .partition import Partition, canonical_partition, discrete_partition, trivial_partition
from .problems import (
    CsvSchema,
    DataError,
    MlpSpec,
    QuadraticProblem,
    QuadraticSpec,
    load_csv,
    make_mlp,
    make_rosenbrock,
    mlp_labels,
    synth_dataset,
)
from .summaries import BudgetError, pseudo_hessian, summary_rows, summary_tensor, taylor_term

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_CHECK = 4


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

DEFAULT_CONFIG = {
    "problem": {
        "kind": "quadratic",          # quadratic | rosenbrock | mlp
        "size": 6,                    # quadratic only
        "eig_lo": 0.1,
        "eig_hi": 10.0,
        "widths": [2, 8, 8, 8, 2],    # mlp only
        "activation": "tanh",         # tanh | softplus
        "loss": "mse",                # mse | softmax-cross-entropy
        "init_scale": 1.0,
        "dataset": {
            "kind": "moons",          # moons | blobs | csv
            "n": 100,
            "seed": None,             # defaults to the top-level seed
            "noise": None,            # per-kind default when omitted
            "path": None,             # csv only
            "label_column": "label",
        },
    },
    "method": "partitioned",          # gd | cauchy | newton | partitioned
    "partition": "canonical",         # trivial | discrete | canonical | file:PATH
    "seed": 0,
    "out": "out",
    "exports": {
        "trace_json": True,
        "final_params": True,
    },
    "step": {fld.name: fld.default for fld in fields(StepConfig)},
    "check": {
        "order": 2,
        "directions": 5,
        "tolerances": {},             # per-check overrides, e.g. gradient-fd: 1e-6
    },
}

CHECK_TOLERANCES = {
    "gradient-fd": 1e-6,
    "hessian-oracle": 1e-5,
    "sum-collapse": 1e-10,
    "symmetry": 1e-10,
    "footnote-identity": 1e-10,
    "pass-audit": 0.0,
}


def _fits(default, value) -> bool:
    """Whether ``value`` may stand where ``default`` does: a value of the same
    type (a bool is no int), except that a float also takes an int or a
    numeric string, as PyYAML reads 1e-08 as a string and manifests keep it,
    and must be finite."""
    if not isinstance(default, float):
        return type(value) is type(default)
    try:
        return np.isfinite(float(value)) and not isinstance(value, bool)
    except (TypeError, ValueError):
        return False


def _merge(defaults, override, path="config"):
    if override is None:
        return defaults
    if not isinstance(defaults, dict):
        if defaults is not None and not _fits(defaults, override):
            raise ConfigError(f"{path}: expected {type(defaults).__name__}, got {override!r}")
        return override
    if not isinstance(override, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(override).__name__}")
    if not defaults:  # open mapping (e.g. tolerance overrides)
        return dict(override)
    out = dict(defaults)
    for key, value in override.items():
        if key not in defaults:
            raise ConfigError(f"{path}: unknown key '{key}'")
        out[key] = _merge(defaults[key], value, f"{path}.{key}")
    return out


def load_config(path: str | None) -> dict:
    """Resolve a YAML config file (or a previously written manifest) against
    the documented defaults.  Types are checked here; the values are checked
    by :func:`_validate`, once the caller has applied its own overrides."""
    user: dict = {}
    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        try:
            user = yaml.safe_load(text) or {}
        except yaml.YAMLError as exc:
            raise ConfigError(f"cannot parse config file: {exc}") from exc
        if not isinstance(user, dict):
            raise ConfigError("config root must be a mapping")
        if "config" in user and "result" in user:  # a run manifest
            user = user["config"]
    return _merge(copy.deepcopy(DEFAULT_CONFIG), user)  # the caller may edit it


def _validate(cfg: dict) -> None:
    kind = cfg["problem"]["kind"]
    if kind not in ("quadratic", "rosenbrock", "mlp"):
        raise ConfigError(f"problem.kind '{kind}' invalid (quadratic, rosenbrock, mlp)")
    if cfg["method"] not in METHODS:
        raise ConfigError(
            f"method '{cfg['method']}' invalid; valid methods: {', '.join(METHODS)}")
    part = cfg["partition"]
    if part not in ("trivial", "discrete", "canonical") and not part.startswith("file:"):
        raise ConfigError(
            f"partition '{part}' invalid (trivial, discrete, canonical, file:PATH)")
    ds = cfg["problem"]["dataset"]
    if ds["kind"] not in ("moons", "blobs", "csv"):
        raise ConfigError(f"dataset.kind '{ds['kind']}' invalid (moons, blobs, csv)")
    for key, default in (("seed", 0), ("noise", 0.0), ("path", "")):  # None by default
        if ds[key] is not None and not _fits(default, ds[key]):
            raise ConfigError(f"dataset.{key}: expected {type(default).__name__}, got {ds[key]!r}")
    if ds["kind"] == "csv" and not ds["path"]:
        raise ConfigError("dataset.kind csv requires dataset.path")
    if ds["kind"] == "csv" and not Path(ds["path"]).is_file():
        raise ConfigError(f"no dataset file at {ds['path']}")
    if part.startswith("file:") and not Path(part[5:]).exists():
        raise ConfigError(f"partition file not found: {part[5:]}")
    if not 1 <= cfg["check"]["order"] <= 3:
        raise ConfigError("check.order must be 1, 2 or 3")
    if cfg["check"]["directions"] < 1:
        raise ConfigError("check.directions must be at least 1")
    for name, value in cfg["check"]["tolerances"].items():
        if name not in CHECK_TOLERANCES:
            raise ConfigError(f"check.tolerances: unknown check '{name}'")
        if not _fits(0.0, value):
            raise ConfigError(f"check.tolerances.{name}: expected float, got {value!r}")


def step_config(cfg: dict) -> StepConfig:
    """The StepConfig of cfg's step section, each key cast to its default's type."""
    try:
        return StepConfig(**{key: type(default)(cfg["step"][key])
                             for key, default in DEFAULT_CONFIG["step"].items()})
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"step: {exc}") from exc


def build_problem(cfg: dict):
    """Instantiate the configured problem.

    Returns (loss expression, initial ParamVector, group labels or None,
    dataset or None)."""
    prob = cfg["problem"]
    seed = int(cfg["seed"])
    try:
        if prob["kind"] == "quadratic":
            spec = QuadraticSpec(float(prob["eig_lo"]), float(prob["eig_hi"]), seed)
            q = QuadraticProblem.generate(int(prob["size"]), spec)
            start = q.minimizer + np.random.default_rng([seed, 1]).normal(size=q.A.shape[0])
            return q.expr(), ParamVector.flat(start), None, None
        if prob["kind"] == "rosenbrock":
            return make_rosenbrock(), ParamVector.flat([-1.2, 1.0]), None, None

        ds_cfg = prob["dataset"]
        ds_seed = seed if ds_cfg["seed"] is None else int(ds_cfg["seed"])
        if ds_cfg["kind"] == "csv":
            data = load_csv(ds_cfg["path"], CsvSchema(label_column=ds_cfg["label_column"]))
        else:
            noise = ds_cfg["noise"]
            data = synth_dataset(ds_cfg["kind"], int(ds_cfg["n"]), ds_seed,
                                 None if noise is None else float(noise))
        spec = MlpSpec(tuple(prob["widths"]), prob["activation"], prob["loss"],
                       seed, float(prob["init_scale"]))
        f, theta0 = make_mlp(spec, data)
    except DataError:  # malformed dataset contents are a runtime abort
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return f, theta0, mlp_labels(spec.widths), data


def build_partition(cfg: dict, theta0: ParamVector, labels) -> Partition:
    spec = cfg["partition"]
    if spec == "trivial":
        return trivial_partition(theta0.size)
    if spec == "discrete":
        return discrete_partition(theta0.size)
    if spec == "canonical":
        return canonical_partition(theta0.shapes, labels)
    try:
        part = Partition.from_json(Path(spec[5:]).read_text(encoding="utf-8"))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"partition file {spec[5:]}: {exc}") from exc
    if part.total != theta0.size:
        raise ConfigError(
            f"partition covers {part.total} parameters, problem has {theta0.size}")
    return part


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------


def _write(path: Path, text: str) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _json(obj) -> str:
    return strict_json(obj) + "\n"


def cmd_run(cfg: dict, out_dir: Path) -> int:
    f, theta0, labels, data = build_problem(cfg)
    part = build_partition(cfg, theta0, labels)
    scfg = step_config(cfg)

    before = engine.counter.own()
    result = run(f, theta0, cfg["method"], part, scfg)
    passes = engine.counter.own() - before

    hashes = {"trace_csv": _write(out_dir / "trace.csv", traces_to_csv(result.traces))}
    if cfg["exports"]["trace_json"]:
        # trace.json carries wall times, so it is not hashed in the manifest
        _write(out_dir / "trace.json", traces_to_json(result.traces) + "\n")
    if cfg["exports"]["final_params"]:
        hashes["final_params"] = _write(out_dir / "final_params.json", _json({
            "values": result.theta_final.values.tolist(),
            "shapes": [list(s) for s in result.theta_final.shapes],
        }))
    if data is not None:
        hashes["dataset"] = data.content_hash()

    final_loss = evaluate(f, result.theta_final)
    final_grad = float(np.linalg.norm(gradient(f, result.theta_final)))
    summary = {
        "iterations": len(result.traces),
        "termination": result.termination,
        "final_loss": final_loss,
        "final_grad_norm": final_grad,
    }
    if result.error is not None:
        summary["error"] = result.error
    _write(out_dir / "manifest.json", _json({
        "config": cfg,
        "hashes": hashes,
        "pass_totals": {"forward": passes.forward, "backward": passes.backward,
                        "passes": passes.passes, "sweeps": passes.sweeps},
        "result": summary,
    }))
    print(f"{cfg['method']}: {len(result.traces)} steps, {result.termination}, "
          f"final loss {final_loss:.6g}, |g| {final_grad:.3g}")
    if result.error is not None:
        print(f"runtime abort: {result.error}", file=sys.stderr)
    return EXIT_RUNTIME if result.termination.startswith("aborted") else EXIT_OK


def _invert_with_ladder(hbar: np.ndarray) -> tuple[np.ndarray | None, dict]:
    if not np.all(np.isfinite(hbar)):  # no finite inverse, and pinv's SVD raises on it
        return None, {}
    for eps, shifted in shift_ladder(hbar):
        try:
            inv = np.linalg.inv(shifted)
        except np.linalg.LinAlgError:
            continue
        if np.all(np.isfinite(inv)):
            return inv, {"pseudo_inverse": False, "ladder_eps": eps}
    inv = np.linalg.pinv(hbar)
    meta = {"pseudo_inverse": True, "ladder_eps": None}
    return (inv if np.all(np.isfinite(inv)) else None), meta


def _matrix_export(key: str, matrix: np.ndarray, gbar, labels,
                   step_stamp: int, extra: dict) -> dict:
    obj = {
        key: [[float(v) for v in row] for row in matrix],
        "labels": list(labels) if labels else None,
        "step": step_stamp,
        "suggested_scale": float(np.max(np.abs(matrix))) if matrix.size else 0.0,
    }
    if gbar is not None:
        obj["gbar"] = [float(v) for v in gbar]
    obj.update(extra)
    return obj


def _block_csv(matrix: np.ndarray, rows, cols, row_labels, col_labels) -> str:
    lines = ["," + ",".join(col_labels)]
    for i, r in enumerate(rows):
        lines.append(row_labels[i] + "," + ",".join(repr(float(matrix[r, c])) for c in cols))
    return "\n".join(lines) + "\n"


def _weight_bias_blocks(part: Partition):
    if part.labels is None:
        return None
    weights = [s for s, lab in enumerate(part.labels) if lab.endswith("/weight")]
    biases = [s for s, lab in enumerate(part.labels) if lab.endswith("/bias")]
    if not weights or not biases or len(weights) + len(biases) != part.size:
        return None
    return weights, biases


def cmd_inspect(cfg: dict, out_dir: Path, at: str) -> int:
    f, theta0, labels, _ = build_problem(cfg)
    part = build_partition(cfg, theta0, labels)
    scfg = step_config(cfg)

    theta, step_stamp = theta0, 0
    if at == "checkpoint":
        result = run(f, theta0, cfg["method"], part, scfg)
        if result.termination.startswith("aborted"):
            print(f"runtime abort: {result.error or result.termination}", file=sys.stderr)
            return EXIT_RUNTIME
        theta, step_stamp = result.theta_final, len(result.traces)

    system = pseudo_hessian(f, theta, part)
    lab = list(part.labels) if part.labels else None
    hashes = {"hbar": _write(out_dir / "hbar.json", _json(_matrix_export(
        "hbar", system.hbar, system.gbar, lab, step_stamp,
        {"point_fingerprint": hashlib.sha256(theta.values.tobytes()).hexdigest()[:16]})))}

    inv, meta = _invert_with_ladder(system.hbar)
    if inv is None:
        if not np.all(np.isfinite(system.hbar)):
            print("inspect: hbar is not finite; no inverse was written", file=sys.stderr)
        _write(out_dir / "hbar_inv.json", _json({
            "hbar_inv": None, "warning": "inversion failed even with the ladder",
            "step": step_stamp, "labels": lab}))
    else:
        hashes["hbar_inv"] = _write(out_dir / "hbar_inv.json", _json(
            _matrix_export("hbar_inv", inv, None, lab, step_stamp, meta)))

    blocks = _weight_bias_blocks(part)
    if blocks is not None:
        weights, biases = blocks
        wl = [part.labels[s].split("/")[0] for s in weights]
        bl = [part.labels[s].split("/")[0] for s in biases]
        for name, rows, cols, rl, cl in (
            ("ww", weights, weights, wl, wl),
            ("bb", biases, biases, bl, bl),
            ("wb", weights, biases, wl, bl),
        ):
            _write(out_dir / "blocks" / f"{name}.csv",
                   _block_csv(system.hbar, rows, cols, rl, cl))
            if inv is not None:
                _write(out_dir / "blocks" / f"{name}_inv.csv",
                       _block_csv(inv, rows, cols, rl, cl))

    _write(out_dir / "manifest.json", _json({
        "config": cfg, "at": at, "step": step_stamp, "hashes": hashes}))
    print(f"inspect: S={part.size} system at {at} (step {step_stamp}) -> {out_dir}")
    return EXIT_OK


def cmd_check(cfg: dict, out_dir: Path) -> int:
    f, theta0, labels, _ = build_problem(cfg)
    part = build_partition(cfg, theta0, labels)
    order = int(cfg["check"]["order"])
    n_dirs = int(cfg["check"]["directions"])
    tol = dict(CHECK_TOLERANCES)
    for name, value in cfg["check"]["tolerances"].items():
        tol[name] = float(value)

    rng = np.random.default_rng(int(cfg["seed"]))
    theta = theta0.values
    checks = []
    summary_max_abs = {}

    def record(name, err):
        checks.append({"check": name, "max_error": float(err),
                       "tolerance": tol[name], "passed": bool(err <= tol[name])})

    def spread(a, b):  # max |a - b| relative to max |b|
        return np.max(np.abs(a - b)) / max(float(np.max(np.abs(b))), 1e-12)

    # gradient vs central finite differences
    g = gradient(f, theta0)
    g_fd = fd_gradient(f, theta)
    record("gradient-fd", np.max(np.abs(g - g_fd) / (1.0 + np.abs(g_fd))))

    # one group system, counted for the pass audit, serves every check below
    before = engine.counter.own()
    system = pseudo_hessian(f, theta0, part)
    system_passes = (engine.counter.own() - before).passes

    # pseudo-Hessian vs the finite-difference construction (small P only)
    if theta.size <= 8:
        ref = fd_pseudo_hessian(f, theta, part, g)
        record("hessian-oracle", np.max(np.abs(system.hbar - ref) / (1.0 + np.abs(ref))))

    # sum-collapse and symmetry up to the requested order (np.max keeps a NaN);
    # the pass audit's excess, over the group system and each top-order tensor
    collapse, sym, excess = [], [], abs(system_passes - (part.size + 1))
    for d in range(1, order + 1):
        max_abs = []
        for _ in range(n_dirs):
            u = rng.normal(size=theta.size)
            before = engine.counter.own()
            st_d = summary_tensor(f, theta0, u, part, d)
            if d == order:  # each top-order tensor at its exact cost
                used = (engine.counter.own() - before).passes
                excess += abs(used - len(summary_rows(part.size, d)))
            tt = taylor_term(f, theta0, u, d)
            collapse.append(abs(st_d.total() - tt) / max(abs(tt), 1e-12))
            max_abs.append(np.max(np.abs(st_d.entries)))
            if d >= 2:  # a symmetric tensor is unchanged by a cyclic shift of its indices
                sym.append(spread(np.moveaxis(st_d.entries, 0, -1), st_d.entries))
        summary_max_abs[str(d)] = float(np.max(max_abs))
    record("sum-collapse", np.max(collapse))
    if order >= 2:
        record("symmetry", np.max(sym))
        # pseudo-gradient / pseudo-Hessian as order-1/2 summaries at u = g
        st2 = summary_tensor(f, theta0, g, part, 2)
        st1 = summary_tensor(f, theta0, g, part, 1)
        err = np.max([spread(system.hbar, st2.entries), spread(system.gbar, st1.entries)])
        record("footnote-identity", err)

    record("pass-audit", float(excess))

    failures = [c["check"] for c in checks if not c["passed"]]
    report = {
        "problem": cfg["problem"]["kind"],
        "order": order,
        "checks": checks,
        "summary_max_abs": summary_max_abs,
        "first_failure": failures[0] if failures else None,
    }
    _write(out_dir / "report.json", _json(report))
    for c in checks:
        flag = "PASS" if c["passed"] else "FAIL"
        print(f"{flag} {c['check']}: max_error={c['max_error']:.3e} "
              f"tolerance={c['tolerance']:.3e}")
    if failures:
        print(f"failed checks: {', '.join(failures)}", file=sys.stderr)
        return EXIT_CHECK
    return EXIT_OK


def cmd_config(print_defaults: bool) -> int:
    if print_defaults:
        print(yaml.safe_dump(DEFAULT_CONFIG, sort_keys=False), end="")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grouphess",
        description="Partitioned second-order optimization experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", metavar="PATH", help="YAML config file (or a manifest)")
        p.add_argument("--out", metavar="DIR", help="output directory")
        p.add_argument("--seed", type=int, metavar="N")
        p.add_argument("--method", choices=METHODS)
        p.add_argument("--partition", metavar="SPEC",
                       help="trivial | discrete | canonical | file:PATH")

    p_run = sub.add_parser("run", help="run an optimization experiment")
    common(p_run)

    p_ins = sub.add_parser("inspect", help="export the group curvature matrices")
    common(p_ins)
    p_ins.add_argument("--at", choices=("init", "checkpoint"), default="init",
                       help="evaluate at the initial point or after the configured run")

    p_chk = sub.add_parser("check", help="run the derivative test battery")
    common(p_chk)
    p_chk.add_argument("--order", type=int, choices=(1, 2, 3), help="highest order checked")

    p_cfg = sub.add_parser("config", help="configuration utilities")
    p_cfg.add_argument("--print-defaults", action="store_true")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "config":
        return cmd_config(args.print_defaults)
    try:
        cfg = load_config(args.config)
        for key in ("seed", "method", "partition", "out"):
            if getattr(args, key) is not None:
                cfg[key] = getattr(args, key)
        if args.command == "check" and args.order is not None:
            cfg["check"]["order"] = args.order
        _validate(cfg)
        out_dir = Path(cfg["out"])

        if args.command == "run":
            return cmd_run(cfg, out_dir)
        if args.command == "inspect":
            return cmd_inspect(cfg, out_dir, args.at)
        return cmd_check(cfg, out_dir)
    except (ConfigError, BudgetError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, SolverError, EvaluationError) as exc:
        print(f"runtime abort: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
