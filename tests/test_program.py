import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import implogic as il
import implogic.program as program_module
import implogic.solver as solver_module
from implogic.device import PARTIAL_RESET_FACTOR
from implogic.program import (PlacementInfeasible, ProgramError, _resolve_config,
                              _schedule_full_adder)
from implogic.solver import MAX_CODE, EventKind, state_of


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
    latched = il.with_inputs(il.nand_macro("B1", "B2", "T1"), {"a": a, "b": b})
    prog = il.StepProgram(latched.steps + il.not_macro("T1", "T2").steps)
    trace = il.execute(prog, default_stack, ideal_specs, ideal_configs)
    assert trace.final_bits["T2"] == (a & b)


def test_full_adder_census(adder_stack):
    fa = il.compile_full_adder(adder_stack)
    fa.validate(adder_stack)  # valid by construction, so never checked on compile
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
    fa.validate(adder_stack)
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


@pytest.mark.parametrize("args", [(3.0, 0, 0), (0, 2.0, 0), (0, 0, 1.0), (True, 0, 0),
                                  (0, False, 0), (0, 0, True), ("3", 0, 0), (0, 0, None)])
def test_ripple_rejects_non_int_operands(args):
    with pytest.raises(ValueError, match="must be an int"):
        il.ripple_adder_8bit(*args)


def test_program_json_roundtrip(adder_stack):
    fa = il.compile_full_adder(adder_stack)
    prog = il.with_inputs(fa, {"a": 1, "b": 0, "c_in": 1})
    again = il.StepProgram.from_json(json.loads(json.dumps(prog.to_json())))
    assert again == prog


def test_program_json_roundtrips_a_read_step():
    nand = il.with_inputs(il.nand_macro("B1", "B2", "T2"), {"a": 1, "b": 0})
    prog = il.StepProgram(nand.steps + (il.ReadStep("T2"),), nand.declared_inputs,
                          nand.declared_outputs)
    obj = json.loads(json.dumps(prog.to_json()))
    assert obj["steps"][-1] == {"op": "read", "cell": "T2"}
    assert il.StepProgram.from_json(obj) == prog


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
    for value in (2, -1, 0.5):
        with pytest.raises(ProgramError):
            il.StepProgram.from_json(
                {"steps": [{"op": "write", "cell": "B1", "value": value}]})
    for value in ("1", None, True):  # not a JSON number: a file-format error
        with pytest.raises(ValueError, match="step 0 value must be a number"):
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
            spec = ideal_specs["top"]  # both levels share one spec
            sol = il.solve_pair(spec, states[step.p], spec, states[step.q], cfg,
                                *default_stack.step_signs(step.p, step.q))
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
    with pytest.raises(ValueError, match="^variation must be 'off' or 'seeded'$"):
        il.execute(prog, default_stack, ideal_specs, ideal_configs,
                   variation="maybe")
    with pytest.raises(ValueError, match="^variation must be 'off' or 'seeded'$"):
        il.ripple_adder_8bit(1, 2, 0, variation="maybe")


def test_invalid_program_raises_before_a_bad_variation(default_stack, ideal_specs,
                                                       ideal_configs):
    # the plan is built, and the program validated, before the variation is
    # checked
    prog = il.StepProgram((il.ReadStep("B1"),))
    with pytest.raises(ProgramError, match="step 0: read of 'B1' before it is written"):
        il.execute(prog, default_stack, ideal_specs, ideal_configs, variation="maybe")


@pytest.mark.parametrize("kwargs", [{"seed": -1}, {"seed": 2.5}, {"seed": True},
                                    {"seed": (3, True)}, {"seed": "7"}])
def test_execute_rejects_bad_trace_level_and_seed(default_stack, ideal_specs, ideal_configs,
                                                  kwargs):
    # these used to give numpy's ValueError or TypeError, or a bool run as 1
    prog = il.with_inputs(il.nand_macro("B1", "B2", "T2"), {"a": 1, "b": 1})
    args = (prog, default_stack, ideal_specs, ideal_configs)
    with pytest.raises(ValueError, match="seed must"):
        il.execute(*args, variation="seeded", **kwargs)
    with pytest.raises(ValueError, match="seed must"):
        il.ripple_adder_8bit(1, 2, 0, variation="seeded", seed=kwargs["seed"])
    assert il.execute(*args, variation="seeded", seed=None).final_bits["T2"] == 0


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


def test_ripple_rejects_bad_bits():
    before = program_module._ripple_plan.cache_info()
    for bits in (0, -3, 8.0, True):
        with pytest.raises(ValueError, match="bits must be an int >= 1"):
            il.ripple_adder_8bit(0, 0, 0, bits)
    assert program_module._ripple_plan.cache_info() == before


_WIDE = il.MemristorSpec(v_set_min=1.2, v_set_max=1.8, v_reset_min=-1.5,
                         v_reset_max=-2.2, g_on=115e-6, g_off=10e-6)
# set thresholds spread so wide that most seeded additions go wrong
_NOISY = il.MemristorSpec(v_set_min=1.0, v_set_max=2.0, v_reset_min=-1.5,
                          v_reset_max=-2.2, g_on=115e-6, g_off=10e-6)
_CUSTOM_PLACEMENT = {"a": "B2", "b": "B1", "c_in": "T4"}
_operands = st.integers(1, 8).flatmap(lambda bits: st.tuples(
    st.just(bits), st.integers(0, 2 ** bits - 1), st.integers(0, 2 ** bits - 1)))
# (bits, a, b), c0, placement and spec (None: the defaults), seed (None: variation off)
_ripple_calls = st.tuples(_operands, st.integers(0, 1),
                          st.sampled_from([None, _CUSTOM_PLACEMENT]),
                          st.sampled_from([None, _WIDE, _NOISY]),
                          st.one_of(st.none(), st.integers(0, 2 ** 32)))


@settings(max_examples=25, deadline=None)
@given(st.lists(_ripple_calls, min_size=2, max_size=4))
def test_ripple_matches_execute_on_its_program(calls):
    """Additions with interleaved cache keys each give what a fresh plan of
    the program they return gives, and the program is the placement's."""
    stack = il.build_adder_stack()
    for (bits, a, b), c0, placement, spec, seed in calls:
        kw = {} if spec is None else {"specs": {"bottom": spec, "top": spec},
                                      "configs": il.default_configs(spec)}
        spec = spec or il.ideal_device_spec()
        variation = "off" if seed is None else "seeded"
        total, carry, trace, program = il.ripple_adder_8bit(
            a, b, c0, bits, placement=placement, variation=variation, seed=seed, **kw)
        cells = placement or {"a": "B1", "b": "B2", "c_in": "T3"}
        assert program.declared_inputs == {"a": cells["a"], "b": cells["b"],
                                           "c0": cells["c_in"]}
        want = il.execute(program, stack, {"bottom": spec, "top": spec},
                          il.default_configs(spec), variation=variation, seed=seed)
        assert (trace.reads, trace.final_bits, trace.variation, trace.seed) == (
            want.reads, want.final_bits, want.variation, want.seed)
        assert total == sum(bit << i for i, (_, _, bit) in enumerate(want.reads[:bits]))
        assert carry == want.reads[-1][2]


def test_plan_runs_with_given_write_values(adder_stack, ideal_specs, ideal_configs):
    # a plan built on one set of writes, run with another, gives the trace of
    # the program that writes those values, step records included
    fa = il.compile_full_adder(adder_stack)
    plan = program_module._Plan(il.with_inputs(fa, {"a": 0, "b": 0, "c_in": 0}),
                                adder_stack, ideal_specs, ideal_configs)
    for a, b, c in itertools.product((0, 1), repeat=3):
        prog = il.with_inputs(fa, {"a": a, "b": b, "c_in": c})
        want = il.execute(prog, adder_stack, ideal_specs, ideal_configs)
        records = []
        state, reads = plan.run([a, b, c], records=records)
        assert (records, reads, plan.final_bits(state)) == (
            want.steps, want.reads, want.final_bits)


def test_plan_memo_is_not_used_with_records_or_a_trail(adder_stack, ideal_specs,
                                                       ideal_configs):
    # a warm segment memo must not cut the step records or the trail short
    fa = il.compile_full_adder(adder_stack)
    plan = program_module._Plan(il.with_inputs(fa, {"a": 0, "b": 0, "c_in": 0}),
                                adder_stack, ideal_specs, ideal_configs)
    plan._start_walks()
    prog = il.with_inputs(fa, {"a": 1, "b": 0, "c_in": 1})
    want = il.execute(prog, adder_stack, ideal_specs, ideal_configs)
    last, reads, _, _ = plan._walk(0b101)  # a = 1, b = 0, c_in = 1 from bit 0 up
    assert (reads, last.bits) == (want.reads, want.final_bits)
    assert len(plan._memo) == len(plan.segments) == 1
    records = []
    state, reads = plan.run([1, 0, 1], records=records)
    assert (records, reads, plan.final_bits(state)) == (
        want.steps, want.reads, want.final_bits)
    trail = []
    plan.run([1, 0, 1], trail=trail)
    assert len(trail) == sum(isinstance(s, il.ImpStep) for s in fa.steps)


def test_execute_truth_table_rows_share_one_plan(adder_stack, ideal_specs, ideal_configs):
    # execute takes its plan from the program-shape cache, so the eight rows
    # of the full adder build one plan, and a row traces the same from a
    # cold cache
    fa = il.compile_full_adder(adder_stack)
    rows = [il.with_inputs(fa, {"a": a, "b": b, "c_in": c})
            for a, b, c in itertools.product((0, 1), repeat=3)]
    program_module._shape_plan.cache_clear()
    shared = [il.execute(prog, adder_stack, ideal_specs, ideal_configs) for prog in rows]
    assert program_module._shape_plan.cache_info().misses == 1
    assert [trace.output_bits(fa) for trace in shared] == [
        {"s": (a + b + c) & 1, "c_out": (a + b + c) >> 1}
        for a, b, c in itertools.product((0, 1), repeat=3)]
    for prog, trace in zip(rows, shared):
        program_module._shape_plan.cache_clear()
        assert il.execute(prog, adder_stack, ideal_specs, ideal_configs) == trace


def test_execute_runs_a_program_that_starts_with_24_writes(adder_stack, ideal_specs,
                                                          ideal_configs):
    # a plan that is only run builds no walk state, whose root holds 2 ** w
    # links for a first block of w writes; 24 keeps a regression to a 128 MB
    # list, which the hasattr check catches
    cells = adder_stack.usable_cells()
    values = [int(x) for x in np.random.default_rng(3).integers(2, size=24)]
    writes = [il.WriteStep(cells[i % len(cells)], v) for i, v in enumerate(values)]
    program = il.StepProgram(tuple(writes) + tuple(il.ReadStep(c) for c in cells))
    program_module._shape_plan.cache_clear()
    plan, _ = program_module._program_plan(program, adder_stack, ideal_specs,
                                           ideal_configs)
    assert not hasattr(plan, "_root")
    trace = il.execute(program, adder_stack, ideal_specs, ideal_configs)
    program_module._shape_plan.cache_clear()
    last = {step.cell: step.value for step in writes}
    assert [(r.op, r.detail) for r in trace.steps[:24]] == [
        ("write", {"cell": w.cell, "value": w.value}) for w in writes]
    for record, write in zip(trace.steps, writes):
        assert record.states_after[write.cell][0] == ("ON" if write.value else "OFF")
    assert trace.reads == [(24 + i, c, last[c]) for i, c in enumerate(cells)]
    assert trace.final_bits == last


def test_ripple_plans_keep_biases_apart_by_the_sign_of_zero():
    # 0.0 == -0.0, but their implications settle apart, so a plan built for
    # one must not serve the other
    stack = il.build_adder_stack()
    spec = il.bottom_device_spec()
    specs = {"bottom": spec, "top": spec}

    def new_plans(zero):
        cfg = il.ImpConfig(zero, il.CurrentSourceLoad(zero))
        configs = {"drive_neg": cfg, "drive_pos": cfg}
        misses = program_module._ripple_plan.cache_info().misses
        _, _, trace, program = il.ripple_adder_8bit(1, 0, 0, 1, specs=specs, configs=configs)
        assert trace.reads == il.execute(program, stack, specs, configs).reads
        return program_module._ripple_plan.cache_info().misses - misses

    program_module._ripple_plan.cache_clear()
    assert [new_plans(zero) for zero in (0.0, -0.0, 0.0, -0.0)] == [1, 1, 0, 0]


# ---------------------------------------------------------------------------
# execute and settle against references built from scalar rules and public
# per-step calls
# ---------------------------------------------------------------------------

def _reference_settle(topology, specs, states, config, p, q, thresholds):
    """The switching rules of one pulse on a dict of DeviceStates, as
    ``solver.settle`` documents them: each pass solves the node, then Q sets
    if OFF and its drop reaches v_set, and P then Q reset fully (drop at or
    below v_reset_full, unless already OFF at scale 1) or partially (drop at
    or below the onset, ON only), each rule at most once per pulse, until a
    pass fires nothing. Returns the new states, the events and the first
    pass's solution."""
    states = dict(states)
    p_spec, q_spec = (specs[topology.cells[c].spec_ref] for c in (p, q))
    signs = topology.step_signs(p, q)
    events = []
    set_done = False
    partial_done = {p: False, q: False}
    full_done = {p: False, q: False}
    for iteration in range(1, solver_module.MAX_SETTLE_PASSES + 1):
        sol = il.solve_pair(p_spec, states[p], q_spec, states[q], config, *signs)
        if iteration == 1:
            first = sol
        fired = []
        if (not set_done and states[q].logic is il.Logic.OFF
                and sol.drop_q >= thresholds[q].v_set):
            states[q] = il.DeviceState(il.Logic.ON, 1.0)
            fired.append(il.SwitchEvent(q, EventKind.SET, sol.drop_q, iteration))
            set_done = True
        for cell, drop in ((p, sol.drop_p), (q, sol.drop_q)):
            th = thresholds[cell]
            st_ = states[cell]
            if drop <= th.v_reset_full and not full_done[cell]:
                if st_.logic is il.Logic.ON or st_.conductance_scale != 1.0:
                    states[cell] = il.DeviceState(il.Logic.OFF, 1.0)
                    fired.append(il.SwitchEvent(cell, EventKind.FULL_RESET, drop, iteration))
                full_done[cell] = True
            elif drop <= th.v_reset_onset and not partial_done[cell]:
                if st_.logic is il.Logic.ON:
                    states[cell] = il.DeviceState(
                        il.Logic.ON, st_.conductance_scale * PARTIAL_RESET_FACTOR)
                    fired.append(
                        il.SwitchEvent(cell, EventKind.PARTIAL_RESET, drop, iteration))
                partial_done[cell] = True
        if not fired:
            return states, events, first
        events.extend(fired)
    raise il.NoConvergence("switching did not reach a fixed point")


def _reference_execute(program, topology, specs, configs, rng):
    """What execute documents, one public call at a time: configs resolved
    before any step runs; a reset draws once for its cell, an implication
    once for P and then once for Q (each v_set, then reset onset, uniform on
    its range; the full-reset level is v_reset_max); implications settle
    through ``_reference_settle``.
    Returns each step's (states after, node, events) and the reads."""
    program.validate(topology)
    resolved = {i: _resolve_config(s, topology, configs)
                for i, s in enumerate(program.steps) if isinstance(s, il.ImpStep)}

    def spec(cell):
        return specs[topology.cells[cell].spec_ref]

    def draw(cell):
        s = spec(cell)
        return il.ThresholdSample(float(rng.uniform(s.v_set_min, s.v_set_max)),
                                  float(rng.uniform(s.v_reset_max, s.v_reset_min)),
                                  s.v_reset_max)

    states = {c: il.DeviceState(il.Logic.OFF) for c in topology.usable_cells()}
    records, reads = [], []
    for i, step in enumerate(program.steps):
        node, events = None, []
        if isinstance(step, il.WriteStep):
            states[step.cell] = il.DeviceState(il.Logic(step.value))
        elif isinstance(step, il.ResetStep):
            draw(step.cell)
            states[step.cell] = il.DeviceState(il.Logic.OFF)
        elif isinstance(step, il.ImpStep):
            th_p = draw(step.p)
            th_q = draw(step.q)
            states, events, node = _reference_settle(
                topology, specs, states, resolved[i], step.p, step.q,
                {step.p: th_p, step.q: th_q})
        else:
            reads.append((i, step.cell, il.decode_bit(spec(step.cell), states[step.cell])))
        records.append(({c: (s.logic.name, s.conductance_scale) for c, s in states.items()},
                        node, tuple(events)))
    return records, reads


def _seeded_run(program, topology, specs, configs, seed):
    trace = il.execute(program, topology, specs, configs, variation="seeded", seed=seed)
    return [(r.states_after, r.node, r.events) for r in trace.steps], trace.reads


def _wide_spec(iv=None):
    return il.MemristorSpec(v_set_min=1.0, v_set_max=2.0, v_reset_min=-1.5,
                            v_reset_max=-2.2, g_on=115e-6, g_off=10e-6,
                            iv_model=iv or il.LinearIV())


def _bias_pair(v_p, load, mirrored_load):
    return {"drive_neg": il.ImpConfig(v_p=v_p, load=load),
            "drive_pos": il.ImpConfig(v_p=-v_p, load=mirrored_load)}


def test_seeded_execute_matches_per_step_reference(default_stack, adder_stack):
    spec = _wide_spec()
    cases = []
    for specs, configs in (
            ({"bottom": spec, "top": spec}, il.default_configs(spec)),
            # partially resets the target in some cycles
            ({"bottom": spec, "top": spec},
             _bias_pair(5.2, il.ResistiveLoad(20e-6, -6.6), il.ResistiveLoad(20e-6, 6.6))),
            # P and Q draw from different ranges
            ({"bottom": il.bottom_device_spec(), "top": il.top_device_spec()},
             il.default_configs(il.bottom_device_spec()))):
        for a, b in itertools.product((0, 1), repeat=2):
            prog = il.with_inputs(il.nand_macro("B1", "B2", "T2"), {"a": a, "b": b})
            cases += [(prog, default_stack, specs, configs, seed) for seed in range(12)]
    sinh = _wide_spec(il.sinh_iv_from_conductances(115e-6, 10e-6, 1.5, 1.5))
    sinh_configs = _bias_pair(-0.71, il.CurrentSourceLoad(-7.16e-5),
                              il.CurrentSourceLoad(7.16e-5))
    fa = il.compile_full_adder(adder_stack)
    for a, b, c in itertools.product((0, 1), repeat=3):
        prog = il.with_inputs(fa, {"a": a, "b": b, "c_in": c})
        cases += [(prog, adder_stack, {"bottom": sinh, "top": sinh}, sinh_configs, seed)
                  for seed in (0, 7, 20151)]
    kinds = set()
    for prog, stack, specs_, configs, seed in cases:
        got = _seeded_run(prog, stack, specs_, configs, seed)
        assert got == _reference_execute(prog, stack, specs_, configs,
                                         np.random.default_rng(seed))
        kinds |= {e.kind.value for _, _, events in got[0] for e in events}
    assert kinds == {"set", "partial_reset", "full_reset"}


@st.composite
def _random_runs(draw):
    """A small random program, spec and bias on one of the two stacks."""
    stack = draw(st.sampled_from([il.build_default_stack(), il.build_adder_stack()]))
    cells = stack.usable_cells()
    pairs = [(p, q) for p in cells for q in cells if p != q and stack.are_adjacent(p, q)]
    steps, defined = [], set()
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(["write", "reset", "imp", "read"]))
        if kind == "write":
            steps.append(il.WriteStep(draw(st.sampled_from(cells)), draw(st.integers(0, 1))))
        elif kind == "reset":
            steps.append(il.ResetStep(draw(st.sampled_from(cells))))
        elif kind == "imp":
            p, q = draw(st.sampled_from(pairs))
            ref = draw(st.sampled_from(["auto"] * 5 + ["drive_neg", "drive_pos", "nope"]))
            steps.append(il.ImpStep(p, q, ref))
        elif defined:
            steps.append(il.ReadStep(draw(st.sampled_from(sorted(defined)))))
            continue
        else:
            continue
        defined.add(steps[-1].q if kind == "imp" else steps[-1].cell)
    v_star, half = draw(st.floats(1.0, 1.8)), draw(st.floats(0.0, 0.6))
    onset, reset_span = draw(st.floats(1.0, 1.8)), draw(st.floats(0.0, 0.8))
    g_off, ratio = draw(st.floats(5e-6, 20e-6)), draw(st.floats(3.0, 20.0))
    iv = None
    if draw(st.booleans()):
        iv = il.sinh_iv_from_conductances(g_off * ratio, g_off, draw(st.floats(0.5, 3.0)),
                                          draw(st.floats(0.5, 3.0)))
    spec = il.MemristorSpec(v_set_min=v_star - half, v_set_max=v_star + half,
                            v_reset_min=-onset, v_reset_max=-onset - reset_span,
                            g_on=g_off * ratio, g_off=g_off, iv_model=iv or il.LinearIV())
    v_p, drive = draw(st.floats(-5.0, 5.0)), draw(st.floats(-4.0, 4.0))
    bias = draw(st.sampled_from(["near design", "current source", "resistive"]))
    if bias == "near design":  # scaled from the analytic optimum: mostly switches
        design = il.default_configs(spec)["drive_neg"]
        i_l = design.load.i_l * draw(st.floats(0.5, 2.0))
        configs = _bias_pair(design.v_p * draw(st.floats(0.5, 2.0)),
                             il.CurrentSourceLoad(i_l), il.CurrentSourceLoad(-i_l))
    elif bias == "current source":
        configs = _bias_pair(v_p, il.CurrentSourceLoad(drive * 1e-4),
                             il.CurrentSourceLoad(-drive * 1e-4))
    else:
        g_l = draw(st.floats(1e-6, 2e-4))
        configs = _bias_pair(v_p, il.ResistiveLoad(g_l, drive), il.ResistiveLoad(g_l, -drive))
    if draw(st.integers(0, 3)) == 0:
        del configs["drive_pos"]  # an auto config of the mirrored class fails
    return (il.StepProgram(tuple(steps)), stack, {"bottom": spec, "top": spec},
            configs, draw(st.integers(0, 2 ** 32 - 1)))


@settings(max_examples=80, deadline=None)
@given(run=_random_runs())
def test_seeded_execute_property(run):
    program, stack, specs, configs, seed = run
    try:
        want = _reference_execute(program, stack, specs, configs,
                                  np.random.default_rng(seed))
    except (il.NoConvergence, ProgramError, ValueError) as exc:
        with pytest.raises(type(exc)):
            _seeded_run(program, stack, specs, configs, seed)
        return
    assert _seeded_run(program, stack, specs, configs, seed) == want


def test_config_errors_raise_before_any_step(default_stack):
    # step 3 overflows the Newton bracket; a later unknown config used to be
    # reached only after it, and is now found when the program is compiled
    iv = il.sinh_iv_from_conductances(115e-6, 10e-6, 80.0, 80.0)
    spec = _wide_spec(iv)
    specs = {"bottom": spec, "top": spec}
    configs = il.default_configs(spec)
    nand = il.with_inputs(il.nand_macro("B1", "B2", "T2"), {"a": 1, "b": 1})
    with pytest.raises(il.NoConvergence):
        il.execute(nand, default_stack, specs, configs)
    bad = il.StepProgram(nand.steps + (il.ImpStep("T2", "T1", config_ref="nope"),),
                         nand.declared_inputs, nand.declared_outputs)
    with pytest.raises(ProgramError, match="unknown config 'nope'"):
        il.execute(bad, default_stack, specs, configs)
    with pytest.raises(ProgramError, match="unknown config 'nope'"):
        il.estimate_yield(bad, default_stack, specs, configs, {"out": 0}, trials=4)


def test_ripple_resolves_and_solves_each_distinct_point_once(monkeypatch):
    """One bias resolution per distinct implication per plan, and on a cold
    memo one solve per distinct (bias, P state, Q state): 15 and 16 for this
    addition (the per-pass solves of the step-by-step executor were 240).
    Steps of one bias and devices share their plan's memos, and a repeat
    call runs the cached plan and settles every pulse from them."""
    counts = {"resolve": 0, "solve": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(program_module, "_resolve_config",
                        counting("resolve", program_module._resolve_config))
    solve = counting("solve", solver_module.solve_pair)
    for module in (program_module, solver_module):
        monkeypatch.setattr(module, "solve_pair", solve)
    program_module._ripple_plan.cache_clear()
    total, carry, _, program = il.ripple_adder_8bit(173, 91, 1)
    assert (total, carry) == (9, 1)
    assert counts["resolve"] == len({s for s in program.steps if isinstance(s, il.ImpStep)})
    assert counts == {"resolve": 15, "solve": 16}
    assert il.ripple_adder_8bit(173, 91, 1)[:2] == (9, 1)
    assert counts == {"resolve": 15, "solve": 16}


def test_settle_without_a_fixed_point_names_step_column_and_trial(
        monkeypatch, default_stack, ideal_specs, ideal_configs):
    """With one settle pass allowed, a pulse that switches anything reaches
    no fixed point: ``execute`` names the step, ``settle`` the first column
    still switching, and a yield study the trial."""
    nand = il.with_inputs(il.nand_macro("B1", "B2", "T2"), {"a": 0, "b": 0})
    program_module._shape_plan.cache_clear()  # a cold plan settles every pulse
    with monkeypatch.context() as patch:
        patch.setattr(solver_module, "MAX_SETTLE_PASSES", 1)
        with pytest.raises(il.NoConvergence) as exc:
            il.execute(nand, default_stack, ideal_specs, ideal_configs)
        assert str(exc.value).startswith("step 3 (imp B1 -> T2, ")
        assert str(exc.value).endswith("switching did not reach a fixed point")
        # column 0 (Q at code 2, every drop 0) switches nothing; column 1's
        # Q is OFF and sets at 1.5 V
        with pytest.raises(il.NoConvergence) as exc:
            solver_module.settle(
                lambda p, q: solver_module.NodeSolution(0.0, 0.0, 1.5 if q == 0 else 0.0,
                                                        0.0, 0),
                np.array([[0, 0], [2, 0]]), np.array([[1.0], [-0.5], [-0.5]]),
                np.array([[-2.0], [-2.0]]))
        assert exc.value.column == 1
    # the yield study's reference run settles from the memo this run warms
    il.execute(nand, default_stack, ideal_specs, ideal_configs)
    monkeypatch.setattr(solver_module, "MAX_SETTLE_PASSES", 1)
    with pytest.raises(il.NoConvergence,
                       match=r"^trial \d+, step 3 \(imp B1 -> T2, .*fixed point$"):
        il.estimate_yield(nand, default_stack, ideal_specs, ideal_configs, None, trials=4)


def _reference_trace(program, topology, specs, configs):
    """The StepRecords of a zero-variation run, from the scalar reference."""
    nominal = {c: il.nominal_thresholds(specs[topology.cells[c].spec_ref])
               for c in topology.usable_cells()}
    states = {c: il.DeviceState(il.Logic.OFF) for c in topology.usable_cells()}
    records = []
    for i, step in enumerate(program.steps):
        node, events, bit = None, (), None
        if isinstance(step, il.WriteStep):
            states[step.cell] = il.DeviceState(il.Logic(step.value))
            detail = {"cell": step.cell, "value": step.value}
        elif isinstance(step, il.ResetStep):
            states[step.cell] = il.DeviceState(il.Logic.OFF)
            detail = {"cell": step.cell}
        elif isinstance(step, il.ImpStep):
            detail = {"p": step.p, "q": step.q, "config": step.config_ref}
            cfg = _resolve_config(step, topology, configs)
            states, events, node = _reference_settle(topology, specs, states, cfg,
                                                     step.p, step.q, nominal)
            events = tuple(events)
        else:
            bit = il.decode_bit(specs[topology.cells[step.cell].spec_ref], states[step.cell])
            detail = {"cell": step.cell}
        records.append(program_module.StepRecord(
            i, step.op, detail, {c: (s.logic.name, s.conductance_scale)
                                 for c, s in states.items()}, node, events, bit))
    return records


def test_zero_variation_trace_same_on_cold_and_warm_memo(adder_stack):
    sinh = _wide_spec(il.sinh_iv_from_conductances(115e-6, 10e-6, 1.5, 1.5))
    cases = [({"bottom": sinh, "top": sinh},
              _bias_pair(-0.71, il.CurrentSourceLoad(-7.16e-5),
                         il.CurrentSourceLoad(7.16e-5))),
             # partially resets the target
             ({"bottom": _wide_spec(), "top": _wide_spec()},
              _bias_pair(5.2, il.ResistiveLoad(20e-6, -6.6), il.ResistiveLoad(20e-6, 6.6)))]
    fa = il.compile_full_adder(adder_stack)
    kinds = set()
    for specs, configs in cases:
        for a, b, c in itertools.product((0, 1), repeat=3):
            prog = il.with_inputs(fa, {"a": a, "b": b, "c_in": c})
            # the rows share one plan by shape, and its memos die with it
            program_module._shape_plan.cache_clear()
            plan = program_module._program_plan(prog, adder_stack, specs, configs)[0]
            imps = {op[0] for op in plan.ops if isinstance(op, tuple)}
            assert imps and not any(imp.solutions or imp.settled for imp in imps)
            cold = il.execute(prog, adder_stack, specs, configs)
            assert all(imp.settled for imp in imps)  # execute ran this plan
            warm = il.execute(prog, adder_stack, specs, configs)
            assert warm == cold
            assert warm.steps == _reference_trace(prog, adder_stack, specs, configs)
            kinds |= {e.kind for r in cold.steps for e in r.events}
    assert kinds == set(EventKind)


@settings(max_examples=80, deadline=None)
@given(run=_random_runs())
def test_zero_variation_execute_property(run):
    """A zero-variation run of a random program, on memos warmed by earlier
    examples, gives the scalar reference's step records, reads and final
    bits, or raises what the reference raises; config errors come first, as
    ``execute`` resolves every config before any step runs."""
    program, stack, specs, configs, _ = run
    try:
        for step in program.steps:
            if isinstance(step, il.ImpStep):
                _resolve_config(step, stack, configs)
        want = _reference_trace(program, stack, specs, configs)
    except (il.NoConvergence, ProgramError, ValueError) as exc:
        with pytest.raises(type(exc)):
            il.execute(program, stack, specs, configs, variation="off")
        return
    got = il.execute(program, stack, specs, configs, variation="off")
    assert got.steps == want
    assert got.reads == [(r.index, r.detail["cell"], r.read_bit) for r in want
                         if r.read_bit is not None]
    final = want[-1].states_after if want else {c: ("OFF", 1.0) for c in stack.usable_cells()}
    assert got.final_bits == {
        c: il.decode_bit(specs[stack.cells[c].spec_ref],
                         il.DeviceState(il.Logic[final[c][0]], final[c][1]))
        for c in stack.usable_cells()}


def _composed_ripple_program(fa, a, b, c0, bits):
    """The ripple program built step by step: each round writes a_i and b_i
    (and in round zero the carry-in), runs the full adder and reads the sum
    bit; the last step reads the carry-out."""
    cells, outs = fa.declared_inputs, fa.declared_outputs
    steps = []
    for i in range(bits):
        steps += [il.WriteStep(cells["a"], (a >> i) & 1), il.WriteStep(cells["b"], (b >> i) & 1)]
        if i == 0:
            steps.append(il.WriteStep(cells["c_in"], c0))
        steps += [*fa.steps, il.ReadStep(outs["s"])]
    steps.append(il.ReadStep(outs["c_out"]))
    return il.StepProgram(tuple(steps), {"a": cells["a"], "b": cells["b"], "c0": cells["c_in"]},
                          {"sum_bit": outs["s"], "c_out": outs["c_out"]})


def test_ripple_program_is_the_composed_program(adder_stack):
    for placement in (None, _CUSTOM_PLACEMENT):
        fa = il.compile_full_adder(adder_stack, placement)
        for bits in (*range(1, 9), 12):
            top = 2 ** bits - 1
            for k, (a, b, c0) in enumerate(itertools.product(
                    (0, top, 0x5555 & top), (0, top, 0xAAAA & top), (0, 1))):
                want = _composed_ripple_program(fa, a, b, c0, bits)
                program = il.ripple_adder_8bit(a, b, c0, bits, placement=placement)[3]
                assert program == want
                if k % 6 == bits % 6:  # a seeded addition returns the same program
                    assert il.ripple_adder_8bit(a, b, c0, bits, placement=placement,
                                                variation="seeded", seed=k)[3] == want


def _ripple_plan_of(bits, placement=None, specs=None, configs=None):
    """The cached plan that ``ripple_adder_8bit`` runs for these arguments."""
    return program_module._ripple_plan(
        *program_module._plan_key(None, specs, configs),
        None if placement is None else tuple(placement.items()), bits)


# (specs, configs) of a ripple; None for the defaults. The last bias
# partially resets targets, so codes above 1 enter the segment memo.
_RIPPLE_DEVICES = [
    (None, None),
    ({"bottom": _WIDE, "top": _WIDE}, il.default_configs(_WIDE)),
    ({"bottom": _WIDE, "top": _WIDE},
     {"drive_neg": il.ImpConfig(5.2, il.ResistiveLoad(20e-6, -6.6)),
      "drive_pos": il.ImpConfig(-5.2, il.ResistiveLoad(20e-6, 6.6))}),
]


@settings(max_examples=15, deadline=None)
@given(st.lists(st.tuples(_operands, st.integers(0, 1),
                          st.sampled_from([None, _CUSTOM_PLACEMENT]),
                          st.sampled_from(range(len(_RIPPLE_DEVICES)))),
                min_size=2, max_size=5))
def test_memoized_ripple_matches_the_step_path(calls):
    """Interleaved zero-variation additions on warm cached plans, each run
    from the segment memo, give the reads and final bits of the step path
    (a full trace of the program they return, which keeps records and so
    bypasses the memo) and of the scalar reference."""
    stack = il.build_adder_stack()
    for (bits, a, b), c0, placement, device in calls:
        specs, configs = _RIPPLE_DEVICES[device]
        _, _, trace, program = il.ripple_adder_8bit(a, b, c0, bits, placement=placement,
                                                    specs=specs, configs=configs)
        specs = specs or {"bottom": il.ideal_device_spec(), "top": il.ideal_device_spec()}
        configs = configs or il.default_configs(il.ideal_device_spec())
        full = il.execute(program, stack, specs, configs)
        assert (trace.reads, trace.final_bits) == (full.reads, full.final_bits)
        want = _reference_trace(program, stack, specs, configs)
        assert full.steps == want
        assert trace.reads == [(r.index, r.detail["cell"], r.read_bit) for r in want
                               if r.read_bit is not None]
        assert trace.final_bits == {
            c: il.decode_bit(specs[stack.cells[c].spec_ref],
                             il.DeviceState(il.Logic[logic], scale))
            for c, (logic, scale) in want[-1].states_after.items()}
        memo = _ripple_plan_of(bits, placement, *_RIPPLE_DEVICES[device])._memo
        if device == 2 and bits > 1:
            # round zero partially resets a cell that round one enters with
            assert any(code > 1 for _, entry, _ in memo for code in entry)


def test_ripple_overflow_is_raised_every_time_and_not_memoized():
    spec = _wide_spec(il.sinh_iv_from_conductances(115e-6, 10e-6, 80.0, 80.0))
    specs = {"bottom": spec, "top": spec}
    messages = []
    for _ in range(2):
        with pytest.raises(il.NoConvergence) as exc:
            il.ripple_adder_8bit(3, 5, 1, specs=specs)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith("step 4 (imp B1 -> T1, v_p ")
    program = _composed_ripple_program(il.compile_full_adder(il.build_adder_stack()),
                                       3, 5, 1, 8)
    with pytest.raises(il.NoConvergence) as exc:
        il.execute(program, il.build_adder_stack(), specs, il.default_configs(spec))
    assert str(exc.value) == messages[0]
    # step 4 is in segment 0, so nothing was stored
    assert _ripple_plan_of(8, specs=specs)._memo == {}


def _linked_entries(plan):
    """The round entries reachable from the plan's root by links."""
    seen, todo = {}, [plan._root]
    while todo:
        for entry in todo.pop().links:
            if entry is not None and id(entry) not in seen:
                seen[id(entry)] = entry
                todo.append(entry)
    return list(seen.values())


def test_segment_memo_stays_within_its_cap(monkeypatch):
    monkeypatch.setattr(program_module, "SEGMENT_MEMO", 5)
    program_module._ripple_plan.cache_clear()
    stack = il.build_adder_stack()
    fa = il.compile_full_adder(stack)
    spec = il.ideal_device_spec()
    plan = _ripple_plan_of(8)
    rng = np.random.default_rng(7)
    for _ in range(200):
        a, b, c0 = int(rng.integers(256)), int(rng.integers(256)), int(rng.integers(2))
        total, carry, trace, program = il.ripple_adder_8bit(a, b, c0)
        assert total + (carry << 8) == a + b + c0
        # with 8 rounds to a cap of 5, the memo clears partway through the walk
        want = il.execute(program, stack, {"bottom": spec, "top": spec},
                          il.default_configs(spec))
        assert (trace.reads, trace.final_bits) == (want.reads, want.final_bits)
        assert program == _composed_ripple_program(fa, a, b, c0, 8)
        assert 0 < len(plan._memo) <= 5
        # a clear drops the links too: no old entry stays reachable
        assert len(_linked_entries(plan)) <= 5
    program_module._ripple_plan.cache_clear()


def test_ripple_failure_after_the_first_round_stores_nothing(monkeypatch):
    # round 2 of 3 raises: rounds 0 and 1 are stored and linked, round 2
    # has no entry, round 1's entry no link, and a retry raises the same
    program_module._ripple_plan.cache_clear()
    plan = _ripple_plan_of(3)
    interpret = program_module._Plan._interpret

    def failing(self, state, start, *args, **kwargs):
        if self is plan and start == plan.segments[2][0]:
            raise il.NoConvergence(f"step {start}: no root")
        return interpret(self, state, start, *args, **kwargs)

    monkeypatch.setattr(program_module._Plan, "_interpret", failing)
    messages = []
    for _ in range(2):
        with pytest.raises(il.NoConvergence) as exc:
            il.ripple_adder_8bit(5, 3, 1, 3)
        messages.append(str(exc.value))
    assert messages == [f"step {plan.segments[2][0]}: no root"] * 2
    assert sorted(segment for segment, _, _ in plan._memo) == [0, 1]
    round1 = next(entry for (segment, _, _), entry in plan._memo.items() if segment == 1)
    assert round1.links == [None] * 4
    assert len(_linked_entries(plan)) == 2
    monkeypatch.undo()
    total, carry = il.ripple_adder_8bit(5, 3, 1, 3)[:2]
    assert total + (carry << 3) == 5 + 3 + 1
    assert sorted(segment for segment, _, _ in plan._memo) == [0, 1, 2]
    assert [e for e in round1.links if e] == [entry for (segment, _, _), entry
                                           in plan._memo.items() if segment == 2]
    program_module._ripple_plan.cache_clear()


def test_default_ripple_plan_memo_holds_every_round_it_can_reach():
    # every (round, entry codes, write values) key reachable from all-OFF
    # codes fits under the cap, so warm additions never clear the memo
    program_module._ripple_plan.cache_clear()
    plan = _ripple_plan_of(8)
    entries = [plan._root]
    for segment, _, mask in plan._fields:
        # one parent per exit codes: the memo keys a round by its entry codes
        entries = list({hit.codes: hit for hit in (plan._round(entry, segment, values)
                                                   for entry in entries
                                                   for values in range(mask + 1))}.values())
    assert len(plan._memo) == 176 < program_module.SEGMENT_MEMO
    assert len(_linked_entries(plan)) == 176
    rng = np.random.default_rng(11)
    for _ in range(200):
        a, b, c0 = int(rng.integers(256)), int(rng.integers(256)), int(rng.integers(2))
        total, carry = il.ripple_adder_8bit(a, b, c0)[:2]
        assert total + (carry << 8) == a + b + c0
    assert len(plan._memo) == 176


def test_memo_keeps_biases_apart_by_the_sign_of_zero(default_stack):
    # 0.0 and -0.0 compare equal, but a zero bias of either sign gives a node
    # voltage of the other sign; a warm memo must not hand one the other's
    spec = il.bottom_device_spec()
    specs = {"bottom": spec, "top": spec}
    prog = il.with_inputs(il.nand_macro("B1", "B2", "T2"), {"a": 0, "b": 0})
    off = il.DeviceState(il.Logic.OFF)
    for zero in (0.0, -0.0, 0.0):
        cfg = il.ImpConfig(zero, il.CurrentSourceLoad(zero))
        trace = il.execute(prog, default_stack, specs, {"drive_neg": cfg, "drive_pos": cfg})
        first = next(r.node for r in trace.steps if r.node)  # B1 -> T2, all OFF
        want = il.solve_pair(spec, off, spec, off, cfg, *default_stack.step_signs("B1", "T2"))
        assert math.copysign(1.0, first.v_c) == math.copysign(1.0, want.v_c)


def test_plan_shares_an_implication_only_where_bias_and_zero_signs_agree(default_stack):
    # every config compares equal; "auto" and "same" have the same zero
    # signs, and "neg" differs in v_p's
    spec = il.bottom_device_spec()
    zero = il.ImpConfig(0.0, il.CurrentSourceLoad(0.0))
    configs = {"drive_neg": zero, "drive_pos": zero,
               "same": il.ImpConfig(0.0, il.CurrentSourceLoad(0.0)),
               "neg": il.ImpConfig(-0.0, il.CurrentSourceLoad(0.0))}
    steps = (il.ResetStep("T2"),) + tuple(il.ImpStep("B1", "T2", ref)
                                          for ref in ("auto", "same", "neg", "auto"))
    plan = program_module._Plan(il.StepProgram(steps), default_stack,
                                {"bottom": spec, "top": spec}, configs)
    auto, same, neg, again = (op[0] for op in plan.ops[1:])
    assert auto is same is again
    assert neg is not auto


def _code_of(state):
    """The state code of a DeviceState that a run can reach."""
    return next(code for code in range(MAX_CODE + 1) if state_of(code) == state)


# OFF, ON after up to three partial resets, or any state a run can reach
_codes = st.one_of(st.just(0), st.integers(1, 4), st.integers(0, MAX_CODE))


@st.composite
def _settle_cases(draw):
    stack = il.build_default_stack()
    cells = stack.usable_cells()
    p, q = draw(st.sampled_from([(p, q) for p in cells for q in cells
                                 if p != q and stack.are_adjacent(p, q)]))
    g_off, ratio = draw(st.floats(5e-6, 20e-6)), draw(st.floats(3.0, 20.0))
    iv = il.LinearIV()
    if draw(st.booleans()):
        b_on, b_off = draw(st.floats(0.5, 3.0)), draw(st.floats(0.5, 3.0))
        if draw(st.integers(0, 5)) == 0:
            b_on = 80.0  # overflows the Newton bracket
        iv = il.sinh_iv_from_conductances(g_off * ratio, g_off, b_on, b_off)
    spec = il.MemristorSpec(1.0, 2.0, -1.5, -2.2, g_off * ratio, g_off, iv_model=iv)
    v_p, drive = draw(st.floats(-5.0, 5.0)), draw(st.floats(-4.0, 4.0))
    if draw(st.booleans()):
        load = il.ResistiveLoad(draw(st.floats(1e-6, 2e-4)), drive)
    else:
        load = il.CurrentSourceLoad(drive * 1e-4)
    states = {c: state_of(draw(_codes)) for c in cells}
    thresholds = {}
    for cell in (p, q):
        onset = draw(st.floats(-2.5, -0.2))
        # the full-reset level of a draw is the spec's v_reset_max; here it is not
        thresholds[cell] = il.ThresholdSample(draw(st.floats(0.2, 2.5)), onset,
                                              onset - draw(st.floats(0.0, 1.5)))
    specs = {"bottom": spec, "top": spec}
    return stack, specs, states, il.ImpConfig(v_p, load), p, q, thresholds


def _floating_node_case():
    """Ohmic P and Q both ON at code 2062, where g_on * scale underflows to
    0.0, under a 0 A current source at v_p = 0: the node floats, and the
    closed form once gave NaN."""
    stack = il.build_default_stack()
    spec = il.MemristorSpec(1.0, 2.0, -1.5, -2.2, 2e-5, 5e-6)
    states = {c: state_of(0) for c in stack.usable_cells()}
    states["T1"] = states["T2"] = state_of(2062)
    th = il.ThresholdSample(1.5, -1.5, -2.2)
    return (stack, {"bottom": spec, "top": spec}, states,
            il.ImpConfig(0.0, il.CurrentSourceLoad(0.0)), "T1", "T2", {"T1": th, "T2": th})


def _overflowing_root_case():
    """Ohmic P and Q ON at codes 1990 and 1992 (scales 7.9e-309 and
    3.9e-309) under a 1e-4 A current source at v_p = 0: the closed form
    overflows, and once returned v_c = -inf with an overflow warning."""
    stack, specs, states, _, p, q, thresholds = _floating_node_case()
    spec = il.MemristorSpec(1.0, 2.0, -1.5, -2.2, 4.2e-5, 1e-5)
    states = {**states, "T1": state_of(1990), "T2": state_of(1992)}
    return (stack, {"bottom": spec, "top": spec}, states,
            il.ImpConfig(0.0, il.CurrentSourceLoad(1e-4)), p, q, thresholds)


@settings(max_examples=150, deadline=None)
@given(case=_settle_cases())
@example(case=_floating_node_case())
@example(case=_overflowing_root_case())
def test_settle_matches_scalar_rules(case):
    topology, specs, states, config, p, q, thresholds = case

    def settle_one():
        """``solver.settle`` on a batch of one, in ``_reference_settle``'s terms."""
        p_spec, q_spec = (specs[topology.cells[c].spec_ref] for c in (p, q))
        signs = topology.step_signs(p, q)
        th_p, th_q = thresholds[p], thresholds[q]
        pq = np.array([[_code_of(states[p])], [_code_of(states[q])]])
        events = []
        first = solver_module.settle(
            lambda a, b: il.solve_pair(p_spec, state_of(a), q_spec, state_of(b),
                                       config, *signs),
            pq, np.array([[th_q.v_set], [th_p.v_reset_onset], [th_q.v_reset_onset]]),
            np.array([[th_p.v_reset_full], [th_q.v_reset_full]]), events)
        return ({**states, **dict(zip((p, q), map(state_of, pq[:, 0].tolist())))},
                [il.SwitchEvent((p, q)[r], kind, drop, it) for r, kind, drop, it in events],
                first)

    try:
        want = _reference_settle(*case)
    except (il.NoConvergence, ValueError) as exc:
        with pytest.raises(type(exc)):
            settle_one()
        return
    assert settle_one() == want
