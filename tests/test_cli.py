import contextlib
import csv
import dataclasses
import io
import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import implogic as il
import implogic.cli as cli_module
from implogic.cli import main


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(il.bottom_device_spec().to_json()))
    return str(path)


def _circuit(spec):
    """The default four-cell stack with one spec on both levels."""
    obj = il.build_default_stack().to_json()
    obj["specs"] = {"bottom": spec.to_json(), "top": spec.to_json()}
    return obj


@pytest.fixture
def circuit_file(tmp_path):
    path = tmp_path / "circuit.json"
    path.write_text(json.dumps(_circuit(il.bottom_device_spec())))
    return str(path)


@pytest.fixture
def ideal_circuit_file(tmp_path):
    path = tmp_path / "ideal_circuit.json"
    path.write_text(json.dumps(_circuit(il.ideal_device_spec())))
    return str(path)


def _nand_program_file(tmp_path, a, b):
    prog = il.with_inputs(il.nand_macro("B1", "B2", "T2"), {"a": a, "b": b})
    obj = prog.to_json()
    path = tmp_path / f"nand_{a}{b}.json"
    path.write_text(json.dumps(obj))
    return str(path)


def _read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_margins_sweep_values(tmp_path, spec_file):
    out = str(tmp_path / "sweep.csv")
    rc = main(["margins", "--spec", spec_file, "--sweep", "0,1,21",
               "--ratios", "1,10", "--out", out])
    assert rc == 0
    rows = _read_rows(out)
    r10 = [r for r in rows if float(r["ratio"]) == 10.0]
    at_zero = [r for r in r10 if float(r["g_l_over_g_on"]) == 0.0]
    assert float(at_zero[0]["delta_over_v_star"]) == pytest.approx(9 / 31, abs=1e-9)
    legacy_gl = il.legacy_load(1.0, 0.1)
    at_legacy = [r for r in r10
                 if abs(float(r["g_l_over_g_on"]) - legacy_gl) < 1e-12]
    assert float(at_legacy[0]["delta_over_v_star"]) == pytest.approx(0.2411, abs=1e-3)
    assert float(at_zero[0]["delta_over_v_star"]) / float(
        at_legacy[0]["delta_over_v_star"]) >= 1.20
    r1 = [r for r in rows if float(r["ratio"]) == 1.0]
    assert all(float(r["delta_over_v_star"]) == 0.0 for r in r1)


def test_margins_numeric_points(tmp_path, spec_file):
    out = str(tmp_path / "numeric.csv")
    rc = main(["margins", "--spec", spec_file, "--sweep", "0,0.5,3",
               "--ratios", "11.5", "--out", out, "--numeric",
               "--numeric-gl", "0", "--rounds", "5"])
    assert rc == 0
    rows = _read_rows(out)
    numeric = [r for r in rows if r["source"] == "numeric"]
    assert len(numeric) == 1
    # ideal-variation numeric margin at g_l = 0 matches the closed form
    assert float(numeric[0]["delta_over_v_star"]) == pytest.approx(
        105 / 355, rel=1e-3)


def test_margins_byte_identical(tmp_path, spec_file):
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    for out in (out1, out2):
        assert main(["margins", "--spec", spec_file, "--sweep", "0,1,11",
                     "--ratios", "3,10", "--out", out]) == 0
    assert Path(out1).read_bytes() == Path(out2).read_bytes()


def test_optimize_command(tmp_path, circuit_file):
    out = str(tmp_path / "opt.json")
    rc = main(["optimize", "--topology", circuit_file, "--pairs", "T1:T2",
               "--load", "current", "--out", out])
    assert rc == 0
    result = json.loads(Path(out).read_text())
    spec = il.bottom_device_spec()
    rep = il.analytic_report(spec, 0.0)
    assert result["margin"] == pytest.approx(rep.delta_actual, rel=1e-3)
    assert result["config"]["v_p"] == pytest.approx(rep.optimal_v_p, rel=1e-3)
    assert result["config"]["load"]["i_l"] == pytest.approx(rep.optimal_i_l,
                                                            rel=1e-3)


def test_optimize_joint_pairs(tmp_path, circuit_file):
    out = str(tmp_path / "joint.json")
    rc = main(["optimize", "--topology", circuit_file,
               "--pairs", "B1:T2,T2:B1", "--load", "current", "--out", out])
    assert rc == 0
    joint = json.loads(Path(out).read_text())
    assert len(joint["slacks"]) == 24


def test_optimize_infeasible_exit_code(tmp_path):
    spec = il.MemristorSpec(v_set_min=0.7, v_set_max=2.3, v_reset_min=-1.5,
                            v_reset_max=-2.2, g_on=115e-6, g_off=10e-6).to_json()
    obj = il.build_default_stack().to_json()
    obj["specs"] = {"bottom": spec, "top": spec}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    rc = main(["optimize", "--topology", str(path), "--pairs", "T1:T2",
               "--load", "current"])
    assert rc == 3


def test_run_nand_truth_table(tmp_path, ideal_circuit_file):
    for a, b in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        prog_file = _nand_program_file(tmp_path, a, b)
        out = str(tmp_path / f"run_{a}{b}.json")
        rc = main(["run", "--program", prog_file, "--topology",
                   ideal_circuit_file, "--out", out])
        assert rc == 0
        result = json.loads(Path(out).read_text())
        assert result["outputs"]["out"] == int(not (a and b))


def test_run_writes_trace_jsonl(tmp_path, ideal_circuit_file):
    prog_file = _nand_program_file(tmp_path, 1, 1)
    trace_file = str(tmp_path / "trace.jsonl")
    rc = main(["run", "--program", prog_file, "--topology", ideal_circuit_file,
               "--trace", trace_file, "--out", str(tmp_path / "o.json")])
    assert rc == 0
    lines = [json.loads(line) for line in Path(trace_file).read_text().splitlines()]
    assert len(lines) == 5
    assert all("op" in rec and "states" in rec for rec in lines)


def test_run_rejects_malformed_program(tmp_path, ideal_circuit_file):
    bad = tmp_path / "bad_prog.json"
    bad.write_text("{not json")
    rc = main(["run", "--program", str(bad), "--topology", ideal_circuit_file])
    assert rc == 2


def _run_exit(tmp_path, capsys, circuit, program):
    """Exit code and stdout JSON of ``run`` on a circuit/program object pair."""
    circuit_path, program_path = tmp_path / "c.json", tmp_path / "p.json"
    circuit_path.write_text(json.dumps(circuit))
    program_path.write_text(json.dumps(program))
    capsys.readouterr()
    rc = main(["run", "--program", str(program_path), "--topology",
               str(circuit_path)])
    return rc, json.loads(capsys.readouterr().out)


def _nand_program(a=1, b=1):
    return il.with_inputs(il.nand_macro("B1", "B2", "T2"),
                          {"a": a, "b": b}).to_json()


def test_run_rejects_non_binary_write(tmp_path, capsys):
    prog = _nand_program()
    prog["steps"][0]["value"] = 7
    rc, body = _run_exit(tmp_path, capsys, _circuit(il.ideal_device_spec()), prog)
    assert rc == 1
    assert body["error"] == "programerror"


def test_run_rejects_non_finite_bias(tmp_path, capsys):
    spec = il.ideal_device_spec()
    prog = _nand_program(0, 0)
    prog["configs"] = {name: cfg.to_json()
                       for name, cfg in il.default_configs(spec).items()}
    prog["configs"]["drive_neg"]["v_p"] = float("nan")
    rc, body = _run_exit(tmp_path, capsys, _circuit(spec), prog)
    assert rc == 2
    assert body["error"] == "config"


@pytest.mark.parametrize("pulse_s", [0, -1])
def test_run_rejects_non_positive_pulse(tmp_path, capsys, pulse_s):
    spec = il.ideal_device_spec()
    prog = _nand_program(0, 0)
    prog["configs"] = {name: cfg.to_json()
                       for name, cfg in il.default_configs(spec).items()}
    prog["configs"]["drive_neg"]["pulse_s"] = pulse_s
    rc, body = _run_exit(tmp_path, capsys, _circuit(spec), prog)
    assert rc == 2
    assert body["error"] == "config"
    assert "pulse_s must be > 0" in body["message"]


def test_run_sinh_overflow_is_no_convergence(tmp_path, capsys):
    iv = il.sinh_iv_from_conductances(115e-6, 10e-6, 80.0, 80.0)
    spec = il.MemristorSpec(v_set_min=1.1, v_set_max=1.9, v_reset_min=-1.5,
                            v_reset_max=-2.2, g_on=115e-6, g_off=10e-6,
                            iv_model=iv)
    prog = _nand_program()
    # the CLI derives no bias for a sinh spec, so the file brings its own
    prog["configs"] = {name: cfg.to_json()
                       for name, cfg in il.default_configs(spec).items()}
    rc, body = _run_exit(tmp_path, capsys, _circuit(spec), prog)
    assert rc == 1
    assert body["error"] == "noconvergence"
    assert "bracket" in body["message"]
    assert body["message"].startswith("step 3 (imp B1 -> T2, v_p ")


@pytest.mark.parametrize("command", ["run", "yield"])
def test_sinh_circuit_without_configs_is_a_config_error(tmp_path, capsys, command):
    # the analytic pair is the ohmic optimum: on this spec no implication
    # sets under it, and yield measured its trials against that reference
    iv = il.sinh_iv_from_conductances(115e-6, 10e-6, 1.5, 1.5)
    spec = il.MemristorSpec(v_set_min=1.0, v_set_max=2.0, v_reset_min=-1.5,
                            v_reset_max=-2.2, g_on=115e-6, g_off=10e-6, iv_model=iv)
    circuit_path, program_path = tmp_path / "c.json", tmp_path / "p.json"
    circuit_path.write_text(json.dumps(_circuit(spec)))
    program_path.write_text(json.dumps(_nand_program()))
    trace_path, out_path = tmp_path / "trace.jsonl", tmp_path / "out.json"
    extra = (["--trace", str(trace_path)] if command == "run"
             else ["--trials", "300", "--seed", "7", "--per-trial", str(trace_path)])
    capsys.readouterr()
    rc = main([command, "--program", str(program_path), "--topology", str(circuit_path),
               "--out", str(out_path), *extra])
    body = json.loads(capsys.readouterr().out)
    assert rc == 2
    assert body["error"] == "config"
    assert body["message"].startswith(
        "ValueError: auto config needs 'drive_neg' in the config map")
    assert not trace_path.exists() and not out_path.exists()  # no step ran


def test_adder_command(tmp_path):
    out = str(tmp_path / "adder.json")
    rc = main(["adder", "--a", "255", "--b", "1", "--cin", "0", "--out", out])
    assert rc == 0
    result = json.loads(Path(out).read_text())
    assert result == {"a": 255, "b": 1, "bits": 8, "carry": 1, "cin": 0,
                      "imps": 176, "resets": 104, "sum": 0}


def test_adder_rejects_oversized_operand():
    with pytest.raises(SystemExit) as exc:
        main(["adder", "--a", "300", "--b", "1", "--cin", "0"])
    assert exc.value.code == 2


def test_main_builds_one_parser(monkeypatch, tmp_path, capsys):
    # main builds its parser on the first call only; a later usage error
    # still prints the JSON body and exits 2
    builds = []
    build = cli_module.build_parser
    monkeypatch.setattr(cli_module, "build_parser", lambda: builds.append(1) or build())
    cli_module._main_parser.cache_clear()
    try:
        out = str(tmp_path / "adder.json")
        assert main(["adder", "--a", "5", "--b", "3", "--cin", "1", "--out", out]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["adder", "--a", "300", "--b", "1", "--cin", "0"])
        assert exc.value.code == 2
        assert json.loads(capsys.readouterr().out) == {
            "error": "usage", "message": "--a must fit in 8 bits"}
        assert builds == [1]
    finally:
        cli_module._main_parser.cache_clear()


def _json_exit(capsys, argv):
    """Exit code, stdout JSON and stderr of ``main(argv)``, a usage error's
    SystemExit code included."""
    capsys.readouterr()
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    captured = capsys.readouterr()
    return rc, json.loads(captured.out), captured.err


def test_run_rejects_a_circuit_lacking_a_spec(tmp_path, capsys):
    circuit = _circuit(il.ideal_device_spec())
    del circuit["specs"]["top"]
    (tmp_path / "c.json").write_text(json.dumps(circuit))
    (tmp_path / "p.json").write_text(json.dumps(_nand_program()))
    rc, body, err = _json_exit(capsys, ["run", "--program", str(tmp_path / "p.json"),
                                        "--topology", str(tmp_path / "c.json")])
    assert (rc, body) == (2, {"error": "config",
                              "message": "ValueError: circuit file lacks specs ['top']"})
    assert "Traceback" not in err


def test_optimize_rejects_an_unknown_load(circuit_file, capsys):
    rc, body, err = _json_exit(capsys, ["optimize", "--topology", circuit_file,
                                        "--pairs", "T1:T2", "--load", "bogus"])
    assert (rc, body) == (2, {"error": "config", "message":
                              "ValueError: load must be 'current' or 'resistive:GL'"})
    assert "Traceback" not in err


def test_optimize_exits_1_on_a_device_no_bias_can_solve(tmp_path, capsys):
    # sinh(10 b) overflows at b = 100, so every solve's bracket check fails
    spec = dataclasses.replace(il.bottom_device_spec(), iv_model=il.sinh_iv_from_conductances(
        115e-6, 10e-6, 100.0, 100.0))
    (tmp_path / "c.json").write_text(json.dumps(_circuit(spec)))
    rc, body, err = _json_exit(capsys, ["optimize", "--topology", str(tmp_path / "c.json"),
                                        "--pairs", "T1:T2", "--load", "current"])
    assert (rc, body) == (1, {"error": "noconvergence", "message":
                              "I-V of device P (OFF) of pair T1>T2 overflows at a drop of "
                              "-10 V, an end of the Newton bracket, so no bias can solve "
                              "the pair"})
    assert "Traceback" not in err


def test_adder_rejects_zero_bits(capsys):
    rc, body, err = _json_exit(capsys, ["adder", "--a", "0", "--b", "0", "--cin", "0",
                                        "--bits", "0"])
    assert (rc, body) == (2, {"error": "usage", "message": "--bits must be >= 1"})
    assert "Traceback" not in err


def test_run_trace_records_a_read_step(tmp_path):
    prog = _nand_program(1, 0)
    prog["steps"].append({"op": "read", "cell": "T2"})
    prog_file, trace_file = tmp_path / "p.json", tmp_path / "trace.jsonl"
    prog_file.write_text(json.dumps(prog))
    circuit_file = tmp_path / "c.json"
    circuit_file.write_text(json.dumps(_circuit(il.ideal_device_spec())))
    assert main(["run", "--program", str(prog_file), "--topology", str(circuit_file),
                 "--trace", str(trace_file), "--out", str(tmp_path / "o.json")]) == 0
    last = json.loads(trace_file.read_text().splitlines()[-1])
    assert {k: last[k] for k in ("step", "op", "cell", "bit")} == {
        "step": 5, "op": "read", "cell": "T2", "bit": 1}
    assert json.loads((tmp_path / "o.json").read_text())["reads"] == [
        {"step": 5, "cell": "T2", "bit": 1}]


def test_yield_command(tmp_path, circuit_file):
    prog_file = _nand_program_file(tmp_path, 1, 0)
    out = str(tmp_path / "yield.json")
    rc = main(["yield", "--program", prog_file, "--topology", circuit_file,
               "--trials", "200", "--seed", "9", "--out", out])
    assert rc == 0
    report = json.loads(Path(out).read_text())
    assert report["trials"] == 200
    assert report["yield"] == report["passes"] / 200
    assert report["expected_outputs"] == {"out": 1}


def test_yield_zero_trials_usage_error(tmp_path, circuit_file):
    prog_file = _nand_program_file(tmp_path, 1, 0)
    with pytest.raises(SystemExit) as exc:
        main(["yield", "--program", prog_file, "--topology", circuit_file,
              "--trials", "0"])
    assert exc.value.code == 2


def test_yield_huge_trial_count_config_error(tmp_path, circuit_file, capsys):
    # the per-trial result array of 10^15 trials cannot be allocated
    prog_file = _nand_program_file(tmp_path, 1, 0)
    capsys.readouterr()
    rc = main(["yield", "--program", prog_file, "--topology", circuit_file,
               "--trials", str(10 ** 15)])
    assert rc == 2
    body = json.loads(capsys.readouterr().out)
    assert body["error"] == "config"
    assert body["message"].startswith("MemoryError")


def test_yield_per_trial_csv(tmp_path, circuit_file):
    prog_file = _nand_program_file(tmp_path, 0, 0)
    per_trial = str(tmp_path / "trials.csv")
    rc = main(["yield", "--program", prog_file, "--topology", circuit_file,
               "--trials", "50", "--seed", "2", "--per-trial", per_trial,
               "--out", str(tmp_path / "y.json")])
    assert rc == 0
    rows = _read_rows(per_trial)
    assert len(rows) == 50
    assert {r["passed"] for r in rows} <= {"0", "1"}


def _wide_nand_case():
    spec = il.MemristorSpec(v_set_min=1.0, v_set_max=2.0, v_reset_min=-1.5,
                            v_reset_max=-2.2, g_on=115e-6, g_off=10e-6)
    prog = il.with_inputs(il.nand_macro("B1", "B2", "T2"), {"a": 1, "b": 1})
    return (il.build_default_stack(), {"bottom": spec, "top": spec}, prog,
            il.default_configs(spec), 300, 5)


def _sinh_adder_case():
    iv = il.sinh_iv_from_conductances(115e-6, 10e-6, 1.5, 1.5)
    spec = il.MemristorSpec(v_set_min=1.0, v_set_max=2.0, v_reset_min=-1.5,
                            v_reset_max=-2.2, g_on=115e-6, g_off=10e-6,
                            iv_model=iv)
    stack = il.build_adder_stack()
    prog = il.with_inputs(il.compile_full_adder(stack), {"a": 1, "b": 0, "c_in": 1})
    configs = {"drive_neg": il.ImpConfig(v_p=-0.71, load=il.CurrentSourceLoad(-7.16e-5)),
               "drive_pos": il.ImpConfig(v_p=0.71, load=il.CurrentSourceLoad(7.16e-5))}
    specs = {ref: spec for ref in {c.spec_ref for c in stack.cells.values()}}
    return stack, specs, prog, configs, 200, 20151


@pytest.mark.parametrize("case", [_wide_nand_case, _sinh_adder_case],
                         ids=["wide nand", "sinh full adder"])
def test_yield_per_trial_csv_bytes(tmp_path, case):
    """The per-trial CSV is the bytes csv.DictWriter writes for the rows
    (trial, passed as 0/1, failed step or empty) of the library's report."""
    stack, specs, prog, configs, trials, seed = case()
    circuit = stack.to_json()
    circuit["specs"] = {ref: spec.to_json() for ref, spec in specs.items()}
    (tmp_path / "circuit.json").write_text(json.dumps(circuit))
    program = prog.to_json()
    program["configs"] = {name: c.to_json() for name, c in configs.items()}
    (tmp_path / "program.json").write_text(json.dumps(program))
    per_trial = tmp_path / "trials.csv"
    assert main(["yield", "--program", str(tmp_path / "program.json"), "--topology",
                 str(tmp_path / "circuit.json"), "--trials", str(trials), "--seed",
                 str(seed), "--per-trial", str(per_trial),
                 "--out", str(tmp_path / "y.json")]) == 0

    expected = il.execute(prog, stack, specs, configs).output_bits(prog)
    report = il.estimate_yield(prog, stack, specs, configs, expected,
                               trials=trials, seed=seed)
    assert 0 < report.passes < trials
    reference = io.StringIO()
    writer = csv.DictWriter(reference, fieldnames=["trial", "passed", "failed_step"])
    writer.writeheader()
    writer.writerows({"trial": t, "passed": int(step < 0),
                      "failed_step": "" if step < 0 else step}
                     for t, step in enumerate(report.failed_step.tolist()))
    assert per_trial.read_bytes() == reference.getvalue().encode()


def test_yield_byte_identical(tmp_path, circuit_file):
    prog_file = _nand_program_file(tmp_path, 1, 1)
    outs = []
    for name in ("y1.json", "y2.json"):
        out = str(tmp_path / name)
        assert main(["yield", "--program", prog_file, "--topology",
                     circuit_file, "--trials", "100", "--seed", "4",
                     "--out", out]) == 0
        outs.append(Path(out).read_bytes())
    assert outs[0] == outs[1]


def test_margins_bad_sweep_usage_error(spec_file, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["margins", "--spec", spec_file, "--sweep", "0,1",
              "--ratios", "10", "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2


def test_optimize_bad_pair_token(tmp_path, circuit_file):
    rc = main(["optimize", "--topology", circuit_file, "--pairs", "B1",
               "--load", "current"])
    assert rc == 2


def test_optimize_unknown_cell_config_error(tmp_path, circuit_file):
    rc = main(["optimize", "--topology", circuit_file, "--pairs", "B1:Z9",
               "--load", "current"])
    assert rc == 2


def test_margins_numeric_with_sinh_spec(tmp_path):
    iv = il.sinh_iv_from_conductances(115e-6, 10e-6, 1.5, 1.5)
    spec = il.MemristorSpec(v_set_min=1.1, v_set_max=1.9, v_reset_min=-1.5,
                            v_reset_max=-2.2, g_on=115e-6, g_off=10e-6,
                            iv_model=iv)
    spec_path = tmp_path / "sinh.json"
    spec_path.write_text(json.dumps(spec.to_json()))
    out = str(tmp_path / "sinh_sweep.csv")
    rc = main(["margins", "--spec", str(spec_path), "--sweep", "0,0.5,3",
               "--ratios", "11.5", "--out", out, "--numeric",
               "--numeric-gl", "0,0.1"])
    assert rc == 0
    rows = _read_rows(out)
    numeric = sorted((float(r["g_l_over_g_on"]), float(r["delta_over_v_star"]))
                     for r in rows if r["source"] == "numeric")
    assert len(numeric) == 2
    # nonlinear points sit below the ideal analytic curve at the same load
    for gl_norm, delta in numeric:
        analytic = il.delta_ideal_parallel(gl_norm * spec.g_on, spec.g_on,
                                           spec.g_off, 1.0) / 1.0
        assert 0.0 < delta < analytic


def _spec_of_both(field, value):
    def mutate(circuit, program):
        for spec in circuit["specs"].values():
            spec[field] = value
    return mutate


def _set(which, key, value):
    def mutate(circuit, program):
        (circuit if which == "circuit" else program)[key] = value
    return mutate


def _first_step(key, value):
    def mutate(circuit, program):
        program["steps"][0][key] = value
    return mutate


# each of these used to end in a traceback, or (outputs) ran silently misparsed
MALFORMED = {
    "steps not a list": _set("program", "steps", 5),
    "step is a list": _set("program", "steps", [["write", "B1", 1]]),
    "inputs not an object": _set("program", "inputs", 5),
    "outputs a list": _set("program", "outputs", ["T2"]),
    "configs not an object": _set("program", "configs", 5),
    "cell is a list": _first_step("cell", ["B1"]),
    # a write value must be a JSON number, and true is not one
    "write value a string": _first_step("value", "1"),
    "write value null": _first_step("value", None),
    "write value true": _first_step("value", True),
    "cells not a list": _set("circuit", "cells", 5),
    "cell not an object": _set("circuit", "cells", [1]),
    "specs a list": _set("circuit", "specs", [1]),
    "unusable not a list": _set("circuit", "unusable", 5),
    "iv a string": _spec_of_both("iv", "sinh"),
    "g_on null": _spec_of_both("g_on", None),
    "g_on beyond float": _spec_of_both("g_on", 10 ** 400),
}


@pytest.mark.parametrize("case", list(MALFORMED) + ["program a list", "circuit a list"])
def test_run_rejects_malformed_files(tmp_path, capsys, case):
    circuit, program = _circuit(il.ideal_device_spec()), _nand_program()
    if case == "program a list":
        program = [program]
    elif case == "circuit a list":
        circuit = [circuit]
    else:
        MALFORMED[case](circuit, program)
    rc, body = _run_exit(tmp_path, capsys, circuit, program)
    assert rc == 2
    assert body["error"] == "config"


@pytest.mark.parametrize("argv", [
    ["--ratios", "0"], ["--ratios", "nan"], ["--ratios", "0.5"], ["--ratios", "3,inf"],
    ["--sweep", "0,nan,3"], ["--sweep", "nan,1,3"], ["--sweep", "0,inf,3"],
    ["--numeric", "--numeric-gl", "-1"], ["--numeric", "--numeric-gl", "0,nan"],
    ["--numeric", "--rounds", "-1"],
], ids=" ".join)
def test_margins_rejects_out_of_range_flags(tmp_path, spec_file, argv):
    # these used to raise ZeroDivisionError, or write NaN or mislabelled rows
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exc:  # a repeated flag overrides the first
        main(["margins", "--spec", spec_file, "--sweep", "0,1,3", "--ratios", "10",
              "--out", str(out), *argv])
    assert exc.value.code == 2
    assert not out.exists()


def test_optimize_rejects_negative_rounds_flag(circuit_file):
    with pytest.raises(SystemExit) as exc:
        main(["optimize", "--topology", circuit_file, "--pairs", "T1:T2",
              "--rounds", "-1"])
    assert exc.value.code == 2


def test_optimize_rejects_non_finite_load(circuit_file, capsys):
    for load, message in (
            ("nan", "g_l must be finite, got nan"),
            ("5e-324", "g_l is too small for a finite v_l = load / g_l, got 5e-324")):
        capsys.readouterr()
        rc = main(["optimize", "--topology", circuit_file, "--pairs", "T1:T2",
                   "--load", f"resistive:{load}"])
        assert rc == 2
        assert json.loads(capsys.readouterr().out) == {"error": "config",
                                                       "message": f"ValueError: {message}"}


# ---------------------------------------------------------------------------
# fuzzing: argv and file contents
# ---------------------------------------------------------------------------

_BASE_ARGV = {
    "margins": {"--spec": "spec", "--sweep": "0,1,3", "--ratios": "10", "--out": "out"},
    "optimize": {"--topology": "circuit", "--pairs": "T1:T2", "--rounds": "1"},
    "run": {"--program": "program", "--topology": "circuit"},
    "adder": {"--a": "3", "--b": "1", "--cin": "0", "--bits": "2"},
    "yield": {"--program": "program", "--topology": "circuit", "--trials": "3"},
}
_EXTRA_FLAGS = {
    "margins": ("--numeric", "--numeric-gl", "--rounds"),
    "optimize": ("--load", "--out"),
    "run": ("--seed", "--variation", "--trace", "--out"),
    "adder": ("--seed", "--variation", "--out"),
    "yield": ("--seed", "--per-trial", "--out"),
}
_FILE_FLAGS = {"--spec", "--topology", "--program"}
_OUT_FLAGS = {"--out", "--trace", "--per-trial"}
_TOKENS = ("0", "1", "2", "3", "-1", "0.5", "1e400", "nan", "inf", "", "x", "0,1,3",
           "1,10", "0,nan,3", "1,0,3", "T1:T2", "B1:T1,T1:B1", "T1", "T1:Z9", "current",
           "resistive:3e-5", "resistive:nan", "resistive:", "on", "off")
_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.just(10 ** 400),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=4),
    st.lists(st.integers(0, 3), max_size=2), st.just({}))


@st.composite
def _flag_value(draw, flag):
    if flag == "--numeric":
        return None
    if flag in _FILE_FLAGS:
        return draw(st.sampled_from(("circuit", "program", "spec", "missing")))
    if flag in _OUT_FLAGS:
        return draw(st.sampled_from(("out", "dir")))
    return draw(st.sampled_from(_TOKENS))


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(list(_BASE_ARGV) + ["bogus"]))
    flags = dict(_BASE_ARGV.get(command, {}))
    for flag in draw(st.lists(st.sampled_from(
            list(flags) + list(_EXTRA_FLAGS.get(command, ())) + ["--zzz"]), max_size=3)):
        if draw(st.booleans()) and flag in flags:
            del flags[flag]
        else:
            flags[flag] = draw(_flag_value(flag))
    argv = [command]
    for flag, value in flags.items():
        argv += [flag] if value is None else [flag, value]
    return argv


def _json_paths(obj, out):
    """Every (container, key) pair inside a parsed JSON value."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in items:
        out.append((obj, key))
        if isinstance(value, (dict, list)):
            _json_paths(value, out)
    return out


@st.composite
def _file_text(draw, obj):
    """``obj`` as JSON, with up to two values replaced or keys dropped, or
    some other text."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.text(max_size=20))
    for _ in range(draw(st.integers(0, 2))):
        container, key = draw(st.sampled_from(_json_paths(obj, [])))
        if isinstance(container, dict) and draw(st.booleans()):
            del container[key]
        else:
            container[key] = draw(_JSON_VALUES)
    return json.dumps(obj)


@st.composite
def _files(draw):
    spec = draw(st.sampled_from((il.ideal_device_spec(), il.bottom_device_spec())))
    return {"circuit": draw(_file_text(_circuit(spec))),
            "program": draw(_file_text(_nand_program())),
            "spec": draw(_file_text(spec.to_json()))}


@settings(max_examples=50, deadline=None)
@given(argv=_argv(), files=_files())
def test_cli_fuzz_exits_cleanly(argv, files):
    # any flags and any file contents: exit 0, 1, 2 or 3 without a
    # traceback, and a JSON error body on stdout for every non-zero exit
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: os.path.join(tmp, f"{name}.json") for name in files}
        for name, text in files.items():
            with open(paths[name], "w") as fh:
                fh.write(text)
        paths.update(missing=os.path.join(tmp, "missing.json"),
                     out=os.path.join(tmp, "out.txt"), dir=tmp)
        argv = [paths.get(token, token) for token in argv]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                rc = main(argv)
            except SystemExit as exc:
                rc = exc.code
    assert rc in (0, 1, 2, 3)
    assert "Traceback" not in stderr.getvalue()
    if rc:
        body = json.loads(stdout.getvalue())
        assert set(body) >= {"error", "message"}
