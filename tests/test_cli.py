import hashlib
import json
import math

import numpy as np
import pytest
import yaml

from grouphess import cli, engine
from grouphess.cli import DEFAULT_CONFIG, build_problem, load_config, main


def write_config(tmp_path, name="config.yaml", **overrides):
    cfg = overrides
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
    return path


def test_config_print_defaults(capsys):
    assert main(["config", "--print-defaults"]) == 0
    printed = yaml.safe_load(capsys.readouterr().out)
    assert printed == DEFAULT_CONFIG


def test_load_config_rejects_unknown_keys(tmp_path):
    path = write_config(tmp_path, metod="gd")
    assert main(["run", "--config", str(path)]) == 2


def test_flags_leave_the_defaults_alone(tmp_path):
    # a config without a check section, so --order lands in the resolved
    # copy of the defaults, never in DEFAULT_CONFIG itself
    pristine = yaml.safe_dump(DEFAULT_CONFIG)
    path = write_config(tmp_path, problem={"kind": "quadratic", "size": 3})
    assert main(["check", "--config", str(path), "--order", "3",
                 "--out", str(tmp_path / "out")]) == 0
    assert DEFAULT_CONFIG["check"]["order"] == 2
    assert yaml.safe_dump(DEFAULT_CONFIG) == pristine
    assert load_config(None)["check"]["order"] == 2


def test_run_quadratic_partitioned_discrete(tmp_path, capsys):
    path = write_config(
        tmp_path,
        problem={"kind": "quadratic", "size": 5},
        method="partitioned",
        partition="discrete",
        out=str(tmp_path / "out"),
    )
    assert main(["run", "--config", str(path)]) == 0
    trace = (tmp_path / "out" / "trace.csv").read_text()
    rows = trace.strip().splitlines()
    assert len(rows) == 2  # header + one productive Newton-equivalent step
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["result"]["termination"] == "converged"
    assert manifest["result"]["iterations"] == 1
    totals = manifest["pass_totals"]
    steps = json.loads((tmp_path / "out" / "trace.json").read_text())
    for field in ("passes", "sweeps"):  # the traces plus the converged gradient
        assert totals[field] == sum(step["passes"][field] for step in steps) + 1
    assert totals["sweeps"] < totals["passes"]  # the step's 5 HVPs share sweeps


def test_run_invalid_method_lists_valid_ones(tmp_path, capsys):
    path = write_config(tmp_path, method="sgd")
    assert main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "gd" in err and "cauchy" in err and "newton" in err and "partitioned" in err


def test_run_byte_identical_reruns(tmp_path):
    path = write_config(
        tmp_path,
        problem={"kind": "mlp", "widths": [2, 4, 2],
                 "dataset": {"kind": "moons", "n": 24}},
        step={"max_iterations": 5},
        seed=3,
        out=str(tmp_path / "a"),
    )
    assert main(["run", "--config", str(path)]) == 0
    first = (tmp_path / "a" / "trace.csv").read_bytes()
    first_manifest = (tmp_path / "a" / "manifest.json").read_bytes()
    assert main(["run", "--config", str(path)]) == 0
    assert (tmp_path / "a" / "trace.csv").read_bytes() == first
    assert (tmp_path / "a" / "manifest.json").read_bytes() == first_manifest


def test_rerun_from_manifest_reproduces_trace(tmp_path):
    path = write_config(
        tmp_path,
        problem={"kind": "quadratic", "size": 4},
        method="cauchy",
        step={"max_iterations": 20},
        out=str(tmp_path / "a"),
    )
    assert main(["run", "--config", str(path)]) == 0
    trace = (tmp_path / "a" / "trace.csv").read_bytes()
    manifest_path = tmp_path / "a" / "manifest.json"
    assert main(["run", "--config", str(manifest_path), "--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "b" / "trace.csv").read_bytes() == trace


def test_seed_flag_changes_artifacts(tmp_path):
    path = write_config(
        tmp_path,
        problem={"kind": "quadratic", "size": 4},
        out=str(tmp_path / "a"),
        step={"max_iterations": 3},
    )
    assert main(["run", "--config", str(path)]) == 0
    a = (tmp_path / "a" / "trace.csv").read_text()
    assert main(["run", "--config", str(path), "--seed", "9",
                 "--out", str(tmp_path / "b")]) == 0
    b = (tmp_path / "b" / "trace.csv").read_text()
    assert a != b


def test_runtime_abort_keeps_partial_trace(tmp_path, capsys):
    path = write_config(
        tmp_path,
        problem={"kind": "quadratic", "size": 6},
        method="newton",
        step={"dense_budget": 1},
        out=str(tmp_path / "out"),
    )
    assert main(["run", "--config", str(path)]) == 3
    assert "budget" in capsys.readouterr().err
    out = tmp_path / "out"
    assert (out / "trace.csv").read_text().splitlines() == ["iter,loss,grad_norm,status"]
    assert json.loads((out / "trace.json").read_text()) == []
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["result"]["termination"] == "aborted-solver"
    assert manifest["result"]["iterations"] == 0
    assert "budget" in manifest["result"]["error"]
    assert "trace_csv" in manifest["hashes"]
    # inspect at a checkpoint needs the whole run, so the abort stops it
    assert main(["inspect", "--config", str(path), "--at", "checkpoint",
                 "--out", str(tmp_path / "ins")]) == 3
    assert not (tmp_path / "ins" / "hbar.json").exists()


def test_inspect_checkpoint_stops_on_a_nonfinite_abort(tmp_path, capsys):
    path = write_config(
        tmp_path,
        problem={"kind": "rosenbrock"},
        method="gd",
        step={"max_iterations": 30},
        out=str(tmp_path / "out"),
    )
    assert main(["run", "--config", str(path)]) == 3
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["result"]["termination"] == "aborted-nonfinite"
    capsys.readouterr()
    assert main(["inspect", "--config", str(path), "--at", "checkpoint",
                 "--out", str(tmp_path / "ins")]) == 3
    assert "runtime abort: aborted-nonfinite" in capsys.readouterr().err
    assert not (tmp_path / "ins" / "hbar.json").exists()


def test_inspect_mlp_blocks(tmp_path):
    path = write_config(
        tmp_path,
        problem={"kind": "mlp", "widths": [2, 3, 3, 2],
                 "dataset": {"kind": "moons", "n": 20}},
        out=str(tmp_path / "out"),
    )
    assert main(["inspect", "--config", str(path), "--at", "init"]) == 0
    hbar = json.loads((tmp_path / "out" / "hbar.json").read_text())
    m = np.array(hbar["hbar"])
    assert m.shape == (6, 6)
    assert np.max(np.abs(m - m.T)) <= 1e-12 * max(np.max(np.abs(m)), 1e-300)
    assert hbar["labels"][0] == "layer1/weight"

    for name in ("ww", "bb", "wb"):
        block = (tmp_path / "out" / "blocks" / f"{name}.csv").read_text().splitlines()
        assert len(block) == 4  # header + 3 layers
        assert len(block[1].split(",")) == 4

    inv = json.loads((tmp_path / "out" / "hbar_inv.json").read_text())
    assert "hbar_inv" in inv
    assert "pseudo_inverse" in inv


def test_inspect_quadratic_trivial_is_1x1(tmp_path):
    path = write_config(
        tmp_path,
        problem={"kind": "quadratic", "size": 5},
        partition="trivial",
        out=str(tmp_path / "out"),
    )
    assert main(["inspect", "--config", str(path)]) == 0
    hbar = json.loads((tmp_path / "out" / "hbar.json").read_text())
    assert np.array(hbar["hbar"]).shape == (1, 1)
    assert not (tmp_path / "out" / "blocks").exists()


def test_inspect_export_round_trip_idempotent(tmp_path):
    path = write_config(
        tmp_path,
        problem={"kind": "quadratic", "size": 4},
        partition="discrete",
        out=str(tmp_path / "out"),
    )
    assert main(["inspect", "--config", str(path)]) == 0
    text = (tmp_path / "out" / "hbar.json").read_text()
    obj = json.loads(text)
    again = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    assert again == text


def test_inspect_checkpoint_stamps_steps(tmp_path):
    path = write_config(
        tmp_path,
        problem={"kind": "quadratic", "size": 4},
        partition="discrete",
        step={"max_iterations": 7},
        out=str(tmp_path / "out"),
    )
    assert main(["inspect", "--config", str(path), "--at", "checkpoint"]) == 0
    hbar = json.loads((tmp_path / "out" / "hbar.json").read_text())
    assert hbar["step"] >= 1


@pytest.mark.parametrize("at", ["init", "checkpoint"])
def test_inspect_fingerprints_the_point_it_inspects(tmp_path, at):
    path = write_config(
        tmp_path,
        problem={"kind": "mlp", "widths": [2, 3, 2], "dataset": {"kind": "moons", "n": 20}},
        method="partitioned",
        step={"max_iterations": 3},
    )
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "run")]) == 0
    assert main(["inspect", "--config", str(path), "--at", at,
                 "--out", str(tmp_path / "ins")]) == 0
    final = json.loads((tmp_path / "run" / "final_params.json").read_text())["values"]
    init = build_problem(load_config(str(path)))[1].values
    assert not np.array_equal(final, init)
    point = np.array(final if at == "checkpoint" else init, dtype=np.float64)
    hbar = json.loads((tmp_path / "ins" / "hbar.json").read_text())
    assert hbar["point_fingerprint"] == hashlib.sha256(point.tobytes()).hexdigest()[:16]


def test_check_quadratic_battery_passes(tmp_path, capsys):
    path = write_config(
        tmp_path,
        problem={"kind": "quadratic", "size": 6},
        partition="discrete",
        out=str(tmp_path / "out"),
    )
    assert main(["check", "--config", str(path), "--order", "3"]) == 0
    out = capsys.readouterr().out
    assert "PASS gradient-fd" in out
    assert "PASS hessian-oracle" in out
    assert "PASS pass-audit" in out
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["first_failure"] is None
    # third-order summaries of a quadratic are identically zero
    assert report["summary_max_abs"]["3"] == 0.0


def test_check_mlp_battery_passes(tmp_path):
    path = write_config(
        tmp_path,
        problem={"kind": "mlp", "widths": [2, 3, 2],
                 "dataset": {"kind": "moons", "n": 12}},
        out=str(tmp_path / "out"),
    )
    assert main(["check", "--config", str(path)]) == 0


def test_check_corrupted_tolerance_fails_and_names_check(tmp_path, capsys):
    path = write_config(
        tmp_path,
        problem={"kind": "quadratic", "size": 4},
        check={"tolerances": {"gradient-fd": 0.0}},
        out=str(tmp_path / "out"),
    )
    assert main(["check", "--config", str(path)]) == 4
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["first_failure"] == "gradient-fd"
    assert "FAIL gradient-fd" in capsys.readouterr().out


def test_check_extra_summary_pass_fails_the_pass_audit(tmp_path, capsys, monkeypatch):
    # every summary tensor one pass above its covering rows: each top-order one is off by one
    tensor = cli.summary_tensor

    def costly(f, theta, u, part, d):
        engine.gradient(f, theta)
        return tensor(f, theta, u, part, d)

    monkeypatch.setattr(cli, "summary_tensor", costly)
    path = write_config(tmp_path, problem={"kind": "quadratic", "size": 4},
                        partition="discrete", out=str(tmp_path / "out"))
    assert main(["check", "--config", str(path), "--order", "3"]) == 4
    report = _strict_json(tmp_path / "out" / "report.json")
    assert report["first_failure"] == "pass-audit"
    results = {c["check"]: c for c in report["checks"]}
    assert [name for name, c in results.items() if not c["passed"]] == ["pass-audit"]
    assert results["pass-audit"]["max_error"] == DEFAULT_CONFIG["check"]["directions"]
    assert "FAIL pass-audit" in capsys.readouterr().out


# softmax logits of order 1e4 overflow, so every derivative is non-finite
NONFINITE_CURVATURE = {"kind": "mlp", "widths": [2, 3, 2], "loss": "softmax-cross-entropy",
                       "init_scale": 10000.0, "dataset": {"n": 20}}


def _strict_json(path):
    """A JSON artifact, parsed with the NaN and Infinity tokens refused."""
    def refuse(token):
        raise ValueError(f"{path.name}: non-standard JSON token {token}")

    return json.loads(path.read_text(), parse_constant=refuse)


def test_check_fails_on_nonfinite_summaries(tmp_path):
    path = write_config(tmp_path, problem=NONFINITE_CURVATURE, out=str(tmp_path / "out"))
    assert main(["check", "--config", str(path)]) == 4
    report = _strict_json(tmp_path / "out" / "report.json")
    results = {c["check"]: c for c in report["checks"]}
    for name in ("sum-collapse", "symmetry"):
        assert not results[name]["passed"]
        assert results[name]["max_error"] is None  # a NaN error, written as null


def test_inspect_nonfinite_hbar_takes_the_failed_inversion_path(tmp_path, capsys):
    path = write_config(tmp_path, problem=NONFINITE_CURVATURE, out=str(tmp_path / "out"))
    assert main(["inspect", "--config", str(path), "--at", "init"]) == 0
    assert "inspect: hbar is not finite; no inverse was written\n" in capsys.readouterr().err
    out = tmp_path / "out"
    hbar = np.array(_strict_json(out / "hbar.json")["hbar"], dtype=np.float64)  # null -> NaN
    assert not np.all(np.isfinite(hbar))
    inv = _strict_json(out / "hbar_inv.json")
    assert inv["hbar_inv"] is None
    assert inv["warning"] == "inversion failed even with the ladder"
    manifest = _strict_json(out / "manifest.json")
    assert set(manifest["hashes"]) == {"hbar"}


@pytest.mark.parametrize("problem, partition, s, order, directions", [
    ({"kind": "quadratic", "size": 5}, "discrete", 5, 3, 5),
    ({"kind": "quadratic", "size": 4}, "trivial", 1, 2, 3),
    ({"kind": "mlp", "widths": [2, 3, 2], "dataset": {"kind": "moons", "n": 12}},
     "canonical", 4, 3, 2),
])
def test_check_battery_pass_count(tmp_path, problem, partition, s, order, directions):
    """The battery costs: the gradient; the S + 1 pass group system; per
    order d and direction, one order-d summary tensor and one Taylor term;
    from order 2 on, the order-2 and order-1 summaries at the gradient (S + 1
    passes; the order-1 one is checked against the group system's own
    pseudo-gradient).  An order-d tensor costs C(S + d - 2, d - 1) passes,
    less from order 3 on the multisets of d - 1 groups of distinct colors
    s % (d - 1), of which there are as many as the colors' sizes multiply to."""
    path = write_config(tmp_path, problem=problem, partition=partition,
                        check={"directions": directions}, out=str(tmp_path / "out"))

    def tensor(d):
        sizes = [len(range(c, s, d - 1)) for c in range(d - 1)] if d >= 3 else [0]
        return math.comb(s + d - 2, d - 1) - math.prod(sizes)

    expected = 1 + (s + 1) + sum(directions * (tensor(d) + 1) for d in range(1, order + 1))
    if order >= 2:
        expected += s + 1
    before = engine.counter.own()
    assert main(["check", "--config", str(path), "--order", str(order)]) == 0
    assert (engine.counter.own() - before).passes == expected


def test_partition_file_round_trip(tmp_path):
    from grouphess.partition import custom_partition

    part = custom_partition([(0, 2), (1, 3)], labels=("even", "odd"))
    pfile = tmp_path / "part.json"
    pfile.write_text(part.to_json())
    path = write_config(
        tmp_path,
        problem={"kind": "quadratic", "size": 4},
        partition=f"file:{pfile}",
        out=str(tmp_path / "out"),
    )
    assert main(["run", "--config", str(path)]) == 0
    trace = (tmp_path / "out" / "trace.csv").read_text().splitlines()
    assert trace[0].endswith("eta_1,eta_2")


@pytest.mark.parametrize("content", ["{not json", '{"groups": 5}', "[1, 2, 3]"],
                         ids=["not-json", "groups-not-a-list", "not-a-mapping"])
def test_partition_file_malformed_is_config_error(tmp_path, content):
    pfile = tmp_path / "part.json"
    pfile.write_text(content)
    path = write_config(
        tmp_path,
        problem={"kind": "quadratic", "size": 4},
        partition=f"file:{pfile}",
    )
    assert main(["run", "--config", str(path)]) == 2


def test_partition_file_size_mismatch(tmp_path):
    from grouphess.partition import custom_partition

    pfile = tmp_path / "part.json"
    pfile.write_text(custom_partition([(0, 1)]).to_json())
    path = write_config(
        tmp_path,
        problem={"kind": "quadratic", "size": 4},
        partition=f"file:{pfile}",
    )
    assert main(["run", "--config", str(path)]) == 2


def test_csv_dataset_through_cli(tmp_path):
    from grouphess.problems import dataset_to_csv, synth_dataset

    data = synth_dataset("blobs", 16, seed=2)
    csv_path = tmp_path / "data.csv"
    dataset_to_csv(data, csv_path)
    path = write_config(
        tmp_path,
        problem={"kind": "mlp", "widths": [2, 3, 2],
                 "dataset": {"kind": "csv", "path": str(csv_path)}},
        step={"max_iterations": 3},
        out=str(tmp_path / "out"),
    )
    assert main(["run", "--config", str(path)]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert "dataset" in manifest["hashes"]


def test_missing_config_file_is_config_error():
    assert main(["run", "--config", "/nonexistent/nowhere.yaml"]) == 2


def test_defaults_need_no_config_file(tmp_path):
    assert main(["run", "--out", str(tmp_path / "out"), "--method", "gd"]) == 0


@pytest.mark.parametrize("command, bad, flags", [
    ("run", {"method": "foo"}, ["--method", "gd"]),
    ("check", {"check": {"order": 7}}, ["--order", "1"]),
], ids=["method", "check-order"])
def test_a_flag_replaces_a_bad_config_value(tmp_path, capsys, command, bad, flags):
    # the command line applies over the file before the one validation, so
    # a flag mends a bad value; without the flag the value is refused
    config = {"problem": {"kind": "quadratic", "size": 3}, "out": str(tmp_path / "out"), **bad}
    path = write_config(tmp_path, **config)
    assert main([command, "--config", str(path)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert main([command, "--config", str(path)] + flags) == 0
    assert (tmp_path / "out").exists()


@pytest.mark.parametrize("command, overrides", [
    ("run", {"exports": {"trace_json": "no"}}),
    ("run", {"step": {"max_iterations": 2.9}}),
    ("run", {"seed": "abc"}),
    ("check", {"check": {"order": "x"}}),
    ("check", {"check": {"directions": "x"}}),
    ("check", {"check": {"tolerances": {"symmetry": "tight"}}}),
    ("run", {"step": {"regularization_eps": 1, "reg_mode": "bogus"}}),
    ("run", {"step": {"regularization_eps": 1, "reg_mode": "sampled", "reg_samples": 0}}),
    ("check", {"check": {"directions": 0}}),
    ("run", {"problem": {"kind": "mlp", "dataset": {"seed": 1.5}}}),
    ("run", {"problem": {"kind": "mlp", "dataset": {"noise": "loud"}}}),
    ("run", {"problem": {"kind": "quadratic", "eig_lo": -1.0}}),
    ("run", {"problem": {"kind": "quadratic", "eig_lo": float("nan")}}),
    ("run", {"problem": {"kind": "quadratic", "eig_hi": float("inf")}}),
    ("run", {"problem": {"kind": "mlp", "dataset": {"n": 1}}}),
    ("run", {"problem": {"kind": "mlp", "init_scale": float("nan")}}),
    ("run", {"problem": {"kind": "mlp", "dataset": {"kind": "csv", "path": "."}}}),
    ("run", {"step": {"max_iterations": -3}}),
    ("run", {"step": {"regularization_eps": float("nan")}}),
    ("run", {"step": {"damping": float("inf")}}),
    ("run", {"problem": {"kind": "mlp", "dataset": {"noise": float("nan")}}}),
    # budget refusals: S^3 > 10^6, and exact regularizer groups over 64 parameters
    ("check", {"problem": {"kind": "quadratic", "size": 101}, "partition": "discrete",
               "check": {"order": 3}}),
    ("run", {"problem": {"kind": "mlp", "widths": [2, 16, 16, 2]},
             "step": {"regularization_eps": 1.0}}),
    ("inspect --at checkpoint", {"problem": {"kind": "mlp", "widths": [2, 16, 16, 2]},
                                 "step": {"regularization_eps": 1.0}}),
], ids=["bool-as-string", "int-as-float", "seed-as-string", "order-as-string",
        "directions-as-string", "tolerance-as-word", "unknown-reg-mode", "zero-reg-samples",
        "zero-directions", "dataset-seed-as-float", "dataset-noise-as-word",
        "negative-eig-lo", "nan-eig-lo", "inf-eig-hi", "one-point-dataset", "nan-init-scale",
        "dataset-path-is-a-directory", "negative-max-iterations", "nan-regularization-eps",
        "inf-damping", "nan-dataset-noise", "check-over-budget",
        "run-exact-regularizer-over-budget", "inspect-exact-regularizer-over-budget"])
def test_mistyped_config_values_are_config_errors(tmp_path, capsys, command, overrides):
    config = {"problem": {"kind": "quadratic", "size": 3}, "out": str(tmp_path / "out")}
    path = write_config(tmp_path, **{**config, **overrides})
    assert main(command.split() + ["--config", str(path)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("content, message", [
    (b"x1,x2,label\n0.5,oops,0\n1.0,2.0,1\n", "non-numeric cell at row 2, column 'x2'"),
    (b"x1,x2,label\n0.5,\xff\xfe,0\n1.0,2.0,1\n", "not UTF-8"),
], ids=["non-numeric-cell", "not-utf-8"])
def test_malformed_dataset_contents_exit_3(tmp_path, capsys, content, message):
    csv_path = tmp_path / "data.csv"
    csv_path.write_bytes(content)
    path = write_config(tmp_path, problem={"kind": "mlp", "widths": [2, 3, 2],
                                           "dataset": {"kind": "csv", "path": str(csv_path)}},
                        out=str(tmp_path / "out"))
    assert main(["run", "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("runtime abort") and message in err


@pytest.mark.parametrize("command, text, message", [
    ("run", "problem: {kind: cubic}\n", "problem.kind 'cubic' invalid"),
    ("run", "partition: coarse\n", "partition 'coarse' invalid"),
    ("run", "problem: {kind: mlp, dataset: {kind: spirals}}\n", "dataset.kind 'spirals' invalid"),
    ("run", "problem: {kind: mlp, dataset: {kind: csv}}\n", "csv requires dataset.path"),
    ("run", "partition: 'file:TMP/no-such-partition.json'\n", "partition file not found"),
    ("check", "check: {tolerances: {gradient: 1.0e-6}}\n", "unknown check 'gradient'"),
    ("run", "problem: {kind: [unclosed\n", "cannot parse config file"),
    ("run", "- problem\n- method\n", "config root must be a mapping"),
    ("run", "problem: 5\n", "config.problem: expected a mapping"),
], ids=["unknown-problem-kind", "unknown-partition", "unknown-dataset-kind", "csv-without-path",
        "missing-partition-file", "unknown-check-tolerance", "unparseable-yaml",
        "root-not-a-mapping", "section-not-a-mapping"])
def test_documented_config_errors_exit_2(tmp_path, capsys, command, text, message):
    path = tmp_path / "config.yaml"
    out = "" if text[0] == "-" else f"out: '{tmp_path / 'out'}'\n"  # a list root takes no key
    path.write_text(text.replace("TMP", str(tmp_path)) + out, encoding="utf-8")
    assert main([command, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and message in err
    assert not (tmp_path / "out").exists()


def test_inspect_inversion_falls_back_to_pinv_when_every_rung_is_singular():
    from grouphess.cli import _invert_with_ladder
    from grouphess.optimizers import DEFAULT_LADDER

    # rung eps shifts the diagonal entry -eps to exactly 0, so every solve
    # raises LinAlgError, and the unshifted matrix is singular too
    hbar = np.diag([0.0] + [-eps for eps in DEFAULT_LADDER])
    for _, shifted in [(None, hbar)] + [(eps, hbar + eps * np.eye(len(hbar)))
                                        for eps in DEFAULT_LADDER]:
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(shifted)
    inv, meta = _invert_with_ladder(hbar)
    assert meta == {"pseudo_inverse": True, "ladder_eps": None}
    assert np.array_equal(inv, np.linalg.pinv(hbar))
