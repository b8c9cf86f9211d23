import itertools
import json

import pytest

import implogic as il
from implogic.program import (PlacementInfeasible, ProgramError, _resolve_config,
                              _schedule_full_adder)


def _run_bits(program, topology, specs, configs, **kw):
    trace = il.execute(program, topology, specs, configs, **kw)
    return trace.output_bits(program)


# The four polarity/output-level combinations realizable on the four-cell
# stack: parallel bottom-out, parallel top-out, and both anti-parallel ones.
PAIR_CONFIGS = [("B2", "B1"), ("T1", "T2"), ("B2", "T2"), ("T2", "B2")]


@pytest.mark.parametrize("p,q", PAIR_CONFIGS)
@pytest.mark.parametrize("pv,qv", list(itertools.product((0, 1), repeat=2)))
def test_imp_truth_table_all_pair_configs(default_stack, ideal_specs,
                                          ideal_configs, p, q, pv, qv):
    prog = il.StepProgram(
        (il.WriteStep(p, pv), il.WriteStep(q, qv), il.ImpStep(p, q),
         il.ReadStep(q)),
        declared_inputs={"p": p, "q": q}, declared_outputs={"out": q})
    trace = il.execute(prog, default_stack, ideal_specs, ideal_configs)
    assert trace.reads[-1][2] == int((not pv) or qv)


@pytest.mark.parametrize("a,b,expected", [(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 0)])
def test_nand_truth_table(default_stack, ideal_specs, ideal_configs, a, b, expected):
    prog = il.with_inputs(il.nand_macro("B1", "B2", "T2"), {"a": a, "b": b})
    bits = _run_bits(prog, default_stack, ideal_specs, ideal_configs)
    assert bits["out"] == expected


def test_nand_census():
    prog = il.nand_macro("B1", "B2", "T2")
    assert prog.census() == (1, 2)


def test_nand_collision_rejected():
    with pytest.raises(ProgramError):
        il.nand_macro("B1", "B2", "B1")


@pytest.mark.parametrize("a,expected", [(0, 1), (1, 0)])
def test_not_truth_table(default_stack, ideal_specs, ideal_configs, a, expected):
    prog = il.with_inputs(il.not_macro("B1", "T1"), {"a": a})
    assert _run_bits(prog, default_stack, ideal_specs, ideal_configs)["out"] == expected


def test_not_census_and_collision():
    assert il.not_macro("B1", "T1").census() == (1, 1)
    with pytest.raises(ProgramError):
        il.not_macro("B1", "B1")


@pytest.mark.parametrize("a,b", list(itertools.product((0, 1), repeat=2)))
def test_nand_output_cascades(default_stack, ideal_specs, ideal_configs, a, b):
    # feed the latched NAND result into a following NOT: AND(a, b)
    prog = (il.with_inputs(il.nand_macro("B1", "B2", "T1"), {"a": a, "b": b})
            + il.not_macro("T1", "T2"))
    trace = il.execute(prog, default_stack, ideal_specs, ideal_configs)
    assert trace.final_bits["T2"] == (a & b)


def test_full_adder_census(adder_stack):
    fa = il.compile_full_adder(adder_stack)
    assert fa.census() == (13, 22)


def test_full_adder_all_rows(adder_stack, ideal_specs, ideal_configs):
    fa = il.compile_full_adder(adder_stack)
    for a, b, c in itertools.product((0, 1), repeat=3):
        prog = il.with_inputs(fa, {"a": a, "b": b, "c_in": c})
        bits = _run_bits(prog, adder_stack, ideal_specs, ideal_configs)
        assert bits["s"] == (a + b + c) & 1
        assert bits["c_out"] == (a + b + c) >> 1


def test_full_adder_resource_bound(adder_stack):
    fa = il.compile_full_adder(adder_stack)
    touched = set()
    for step in fa.steps:
        if isinstance(step, il.ImpStep):
            touched |= {step.p, step.q}
        else:
            touched.add(step.cell)
    assert touched <= set(adder_stack.usable_cells())
    assert len(touched) <= 6


def test_full_adder_carry_returns_to_carry_cell(adder_stack):
    fa = il.compile_full_adder(adder_stack)
    assert fa.declared_outputs["c_out"] == fa.declared_inputs["c_in"]


def test_full_adder_custom_placement(adder_stack, ideal_specs, ideal_configs):
    fa = il.compile_full_adder(adder_stack, {"a": "B2", "b": "B1", "c_in": "T4"})
    assert fa.census() == (13, 22)
    for a, b, c in itertools.product((0, 1), repeat=3):
        prog = il.with_inputs(fa, {"a": a, "b": b, "c_in": c})
        bits = _run_bits(prog, adder_stack, ideal_specs, ideal_configs)
        assert (bits["s"], bits["c_out"]) == ((a + b + c) & 1, (a + b + c) >> 1)


def test_full_adder_infeasible_on_four_cells(default_stack):
    with pytest.raises(PlacementInfeasible):
        il.compile_full_adder(default_stack, {"a": "B1", "b": "B2", "c_in": "T1"})


def test_full_adder_schedule_is_memoized(adder_stack):
    first = il.compile_full_adder(adder_stack)
    hits = _schedule_full_adder.cache_info().hits
    again = il.compile_full_adder(il.build_adder_stack())  # an equal, new stack
    assert again == first
    assert _schedule_full_adder.cache_info().hits == hits + 1
    placement = {"a": "B2", "b": "B1", "c_in": "T4"}
    assert il.compile_full_adder(adder_stack, placement) == il.compile_full_adder(
        adder_stack, placement) != first


def test_full_adder_infeasible_raises_every_time(adder_stack):
    cached = _schedule_full_adder.cache_info().currsize
    for _ in range(2):
        with pytest.raises(PlacementInfeasible):
            il.compile_full_adder(adder_stack, {"a": "B1", "b": "B2", "c_in": "T1"})
    assert _schedule_full_adder.cache_info().currsize == cached


def test_full_adder_placement_validation(adder_stack):
    with pytest.raises(ProgramError):
        il.compile_full_adder(adder_stack, {"a": "B1", "b": "B1", "c_in": "T3"})
    with pytest.raises(ProgramError):
        il.compile_full_adder(adder_stack, {"a": "B3", "b": "B2", "c_in": "T3"})
    with pytest.raises(ProgramError):
        il.compile_full_adder(adder_stack, {"a": "B1", "b": "B2"})


def test_ripple_corners():
    for a, b, c0 in [(0, 0, 0), (255, 1, 0), (255, 255, 1), (0, 0, 1),
                     (128, 128, 0), (255, 0, 1), (1, 255, 0), (170, 85, 1)]:
        total, carry, _, prog = il.ripple_adder_8bit(a, b, c0)
        full = a + b + c0
        assert (total, carry) == (full & 0xFF, full >> 8)
        assert prog.census() == (104, 176)


def test_ripple_random_against_arithmetic(default_stack):
    import numpy as np
    rng = np.random.default_rng(99)
    for _ in range(25):
        a, b, c0 = int(rng.integers(256)), int(rng.integers(256)), int(rng.integers(2))
        total, carry, _, _ = il.ripple_adder_8bit(a, b, c0)
        assert total + (carry << 8) == a + b + c0


def test_ripple_rejects_out_of_range():
    with pytest.raises(ValueError):
        il.ripple_adder_8bit(256, 0, 0)
    with pytest.raises(ValueError):
        il.ripple_adder_8bit(0, 0, 2)


def test_program_json_roundtrip(adder_stack):
    fa = il.compile_full_adder(adder_stack)
    prog = il.with_inputs(fa, {"a": 1, "b": 0, "c_in": 1})
    again = il.StepProgram.from_json(json.loads(json.dumps(prog.to_json())))
    assert again == prog


def test_program_json_rejects_unknown_op():
    with pytest.raises(ProgramError):
        il.StepProgram.from_json({"steps": [{"op": "zap", "cell": "B1"}]})


def test_validate_rejects_nonadjacent_imp(adder_stack):
    prog = il.StepProgram((il.WriteStep("B1", 1), il.ImpStep("B1", "T4")))
    with pytest.raises(ProgramError):
        prog.validate(adder_stack)


def test_validate_rejects_unusable_target(adder_stack):
    prog = il.StepProgram((il.WriteStep("B3", 1),))
    with pytest.raises(ProgramError):
        prog.validate(adder_stack)


def test_validate_rejects_read_before_write(default_stack):
    prog = il.StepProgram((il.ReadStep("B1"),))
    with pytest.raises(ProgramError):
        prog.validate(default_stack)


def test_execute_rejects_unknown_config(default_stack, ideal_specs):
    prog = il.StepProgram((il.WriteStep("B1", 1), il.WriteStep("B2", 0),
                           il.ImpStep("B1", "B2", config_ref="nope")))
    with pytest.raises(ProgramError):
        il.execute(prog, default_stack, ideal_specs, {})


def test_execute_auto_needs_both_drive_configs(default_stack, ideal_specs,
                                               ideal_configs):
    prog = il.StepProgram((il.WriteStep("B1", 1), il.WriteStep("B2", 0),
                           il.ImpStep("B1", "B2")))
    with pytest.raises(ProgramError):
        il.execute(prog, default_stack, ideal_specs,
                   {"drive_neg": ideal_configs["drive_neg"]})
    il.execute(prog, default_stack, ideal_specs, ideal_configs)


def test_with_inputs_requires_all_values(adder_stack):
    fa = il.compile_full_adder(adder_stack)
    with pytest.raises(ProgramError):
        il.with_inputs(fa, {"a": 1, "b": 0})


def test_writes_must_be_binary():
    with pytest.raises(ProgramError):
        il.WriteStep("B1", 7)
    with pytest.raises(ProgramError):
        il.with_inputs(il.nand_macro("B1", "B2", "T2"), {"a": 5, "b": 1})
    for value in (2, -1, 0.5, "1", None):
        with pytest.raises(ProgramError):
            il.StepProgram.from_json(
                {"steps": [{"op": "write", "cell": "B1", "value": value}]})
    assert il.WriteStep("B1", 1.0) == il.WriteStep("B1", 1)


def test_trace_jsonl_records(default_stack, ideal_specs, ideal_configs):
    for a, b in itertools.product((0, 1), repeat=2):
        prog = il.with_inputs(il.nand_macro("B1", "B2", "T2"), {"a": a, "b": b})
        trace = il.execute(prog, default_stack, ideal_specs, ideal_configs)
        records = trace.jsonl_records()
        assert len(records) == len(prog.steps)
        assert all("states" in r for r in records)
        for k, rec in enumerate(records):
            if rec["op"] != "imp":
                continue
            # the recorded node is the bias point before the step switched
            # anything: a solve on the previous record's states
            states = {c: il.DeviceState(il.Logic[s["logic"]], s["scale"])
                      for c, s in records[k - 1]["states"].items()}
            step = prog.steps[k]
            cfg = _resolve_config(step, default_stack, ideal_configs)
            sol = il.solve_node(default_stack, ideal_specs, states, cfg,
                                step.p, step.q)
            assert (rec["v_c"], rec["drop_p"], rec["drop_q"]) == (
                sol.v_c, sol.drop_p, sol.drop_q)


def test_seeded_execution_deterministic(default_stack, ideal_configs):
    spec = il.bottom_device_spec()
    specs = {"bottom": spec, "top": spec}
    configs = il.default_configs(spec)
    prog = il.with_inputs(il.nand_macro("B1", "B2", "T2"), {"a": 0, "b": 1})
    t1 = il.execute(prog, default_stack, specs, configs, variation="seeded", seed=5)
    t2 = il.execute(prog, default_stack, specs, configs, variation="seeded", seed=5)
    assert t1.final_bits == t2.final_bits
    assert [r.states_after for r in t1.steps] == [r.states_after for r in t2.steps]


def test_execute_rejects_bad_variation(default_stack, ideal_specs, ideal_configs):
    prog = il.with_inputs(il.nand_macro("B1", "B2", "T2"), {"a": 1, "b": 1})
    with pytest.raises(ValueError):
        il.execute(prog, default_stack, ideal_specs, ideal_configs,
                   variation="maybe")


def test_ripple_correct_under_covered_variation():
    # set-threshold half-width (0.1 V) well below every pair's evaluated
    # margin at the shared bias, so seeded execution must stay exact
    import numpy as np
    spec = il.MemristorSpec(v_set_min=1.4, v_set_max=1.6, v_reset_min=-1.5,
                            v_reset_max=-2.2, g_on=115e-6, g_off=10e-6)
    stack = il.build_adder_stack()
    specs = {"bottom": spec, "top": spec}
    configs = il.default_configs(spec)
    fa = il.compile_full_adder(stack)
    from implogic.program import _resolve_config
    for p, q in sorted({(s.p, s.q) for s in fa.steps
                        if isinstance(s, il.ImpStep)}):
        cfg = _resolve_config(il.ImpStep(p, q), stack, configs)
        margin = il.worst_slack(il.evaluate_margin(stack, p, q, cfg, spec, spec))
        assert margin > spec.set_half_width
    rng = np.random.default_rng(0)
    for k in range(20):
        a = int(rng.integers(256))
        b = int(rng.integers(256))
        c0 = int(rng.integers(2))
        total, carry, _, _ = il.ripple_adder_8bit(
            a, b, c0, specs=specs, configs=configs, variation="seeded",
            seed=1000 + k)
        assert total + (carry << 8) == a + b + c0


def test_seeded_ripple_deterministic():
    spec = il.MemristorSpec(v_set_min=1.2, v_set_max=1.8, v_reset_min=-1.5,
                            v_reset_max=-2.2, g_on=115e-6, g_off=10e-6)
    specs = {"bottom": spec, "top": spec}
    configs = il.default_configs(spec)
    runs = [il.ripple_adder_8bit(201, 77, 1, specs=specs, configs=configs,
                                 variation="seeded", seed=5)[:2]
            for _ in range(2)]
    assert runs[0] == runs[1]
