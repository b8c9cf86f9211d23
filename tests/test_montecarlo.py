import dataclasses
import hashlib
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import implogic as il
import implogic.montecarlo as montecarlo_module
import implogic.program as program_module
from implogic.solver import settle as solver_settle


def _nand_program(a, b):
    return il.with_inputs(il.nand_macro("B1", "B2", "T2"), {"a": a, "b": b})


def _nand_oracle(inputs):
    return {"out": int(not (inputs["a"] and inputs["b"]))}


def test_zero_variation_yield_is_one(default_stack, ideal_specs, ideal_configs):
    for a in (0, 1):
        for b in (0, 1):
            report = il.estimate_yield(_nand_program(a, b), default_stack,
                                       ideal_specs, ideal_configs, _nand_oracle,
                                       trials=50, seed=1)
            assert report.yield_fraction == 1.0
            assert report.passes == report.trials == 50


def test_half_width_below_margin_yield_one(default_stack):
    # evaluated margin with the ideal-device bias: ~0.44 V; variation
    # half-width 0.15 V stays below it, so every trial must pass
    spec = il.MemristorSpec(v_set_min=1.35, v_set_max=1.65, v_reset_min=-1.5,
                            v_reset_max=-2.2, g_on=115e-6, g_off=10e-6)
    specs = {"bottom": spec, "top": spec}
    configs = il.default_configs(spec)
    cfg = configs["drive_neg"]
    zero_var = il.ideal_device_spec(v_set=spec.v_set_star, g_on=spec.g_on,
                                    g_off=spec.g_off)
    ideal_slacks = il.evaluate_margin(default_stack, "B1", "T2", cfg,
                                      zero_var, zero_var)
    assert spec.set_half_width < il.worst_slack(ideal_slacks)
    assert il.worst_slack(
        il.evaluate_margin(default_stack, "B1", "T2", cfg, spec, spec)) > 0
    prog = il.with_inputs(il.nand_macro("B1", "B2", "T2"), {"a": 1, "b": 0})
    report = il.estimate_yield(prog, default_stack, specs, configs,
                               _nand_oracle, trials=1000, seed=3)
    assert report.yield_fraction == 1.0


def test_constructed_set_violation_lowers_yield(default_stack, ideal_configs,
                                                ideal_spec):
    # the must-set drop with the ideal bias is v* + delta; a spec whose
    # v_set_max exceeds it makes some cycles fail to set
    cfg = ideal_configs["drive_neg"]
    violating = il.MemristorSpec(v_set_min=1.3, v_set_max=2.2,
                                 v_reset_min=-1.5, v_reset_max=-2.2,
                                 g_on=115e-6, g_off=10e-6)
    specs = {"bottom": violating, "top": violating}
    off = il.DeviceState(il.Logic.OFF)
    sol = il.solve_pair(violating, off, violating, off, cfg,
                        *default_stack.step_signs("B1", "T2"))
    assert sol.drop_q < violating.v_set_max  # the violation, by direct solve

    prog = il.StepProgram(
        (il.WriteStep("B1", 0), il.WriteStep("T2", 0), il.ImpStep("B1", "T2"),
         il.ReadStep("T2")),
        declared_inputs={"p": "B1", "q": "T2"}, declared_outputs={"out": "T2"})
    report = il.estimate_yield(prog, default_stack, specs, ideal_configs,
                               {"out": 1}, trials=1000, seed=11)
    assert report.yield_fraction < 1.0
    assert report.passes + sum(report.failure_histogram.values()) == report.trials


def test_seed_determinism_byte_exact(default_stack):
    spec = il.bottom_device_spec()
    specs = {"bottom": spec, "top": spec}
    configs = il.default_configs(spec)
    prog = _nand_program(1, 1)
    a = il.estimate_yield(prog, default_stack, specs, configs, _nand_oracle,
                          trials=200, seed=42)
    b = il.estimate_yield(prog, default_stack, specs, configs, _nand_oracle,
                          trials=200, seed=42)
    assert json.dumps(a.to_json(), sort_keys=True) == json.dumps(
        b.to_json(), sort_keys=True)
    c = il.estimate_yield(prog, default_stack, specs, configs, _nand_oracle,
                          trials=200, seed=43)
    assert a.seed != c.seed


def test_widening_set_interval_never_raises_yield(default_stack, ideal_configs):
    yields = []
    for width in (0.2, 0.5, 0.8, 1.1):
        spec = il.MemristorSpec(v_set_min=1.5 - width / 2,
                                v_set_max=1.5 + width / 2,
                                v_reset_min=-1.5, v_reset_max=-2.2,
                                g_on=115e-6, g_off=10e-6)
        specs = {"bottom": spec, "top": spec}
        prog = il.StepProgram(
            (il.WriteStep("B1", 0), il.WriteStep("T2", 0),
             il.ImpStep("B1", "T2"), il.ReadStep("T2")),
            declared_inputs={"p": "B1", "q": "T2"},
            declared_outputs={"out": "T2"})
        report = il.estimate_yield(prog, default_stack, specs, ideal_configs,
                                   {"out": 1}, trials=2000, seed=17)
        yields.append(report.yield_fraction)
    assert all(a >= b for a, b in zip(yields, yields[1:]))
    assert yields[0] == 1.0 and yields[-1] < 1.0


def test_degraded_fraction_zero_for_benign_bias(default_stack, ideal_specs,
                                                ideal_configs):
    report = il.estimate_yield(_nand_program(1, 1), default_stack, ideal_specs,
                               ideal_configs, _nand_oracle, trials=100, seed=2)
    assert report.degraded_ratio_fraction == 0.0


def test_trials_must_be_positive(default_stack, ideal_specs, ideal_configs):
    with pytest.raises(ValueError):
        il.estimate_yield(_nand_program(1, 1), default_stack, ideal_specs,
                          ideal_configs, _nand_oracle, trials=0, seed=1)


@pytest.mark.parametrize("kw", [{"trials": 2.5}, {"trials": True}, {"trials": -3},
                                {"trials": "10"}, {"seed": True}, {"seed": 1.5},
                                {"seed": -1}, {"seed": None}])
def test_rejects_bad_trials_and_seed(default_stack, ideal_specs, ideal_configs, kw):
    args = {"trials": 10, "seed": 1, **kw}
    name = next(iter(kw))
    with pytest.raises(ValueError, match=f"{name} must be an int"):
        il.estimate_yield(_nand_program(1, 1), default_stack, ideal_specs,
                          ideal_configs, _nand_oracle, **args)


def test_oracle_rejects_unknown_outputs(default_stack, ideal_specs, ideal_configs):
    with pytest.raises(ValueError):
        il.estimate_yield(_nand_program(1, 1), default_stack, ideal_specs,
                          ideal_configs, {"bogus": 1}, trials=10, seed=1)


@pytest.mark.parametrize("bad", [2, -1, 0.5, "0", None, [1]])
def test_oracle_rejects_expected_values_that_are_not_bits(default_stack, ideal_specs,
                                                          ideal_configs, bad):
    # no output decodes to such a value, so every trial would fail silently
    for oracle in ({"out": bad}, lambda inputs: {"out": bad}):
        with pytest.raises(ValueError, match="output 'out'"):
            il.estimate_yield(_nand_program(1, 1), default_stack, ideal_specs,
                              ideal_configs, oracle, trials=50, seed=1)


def test_oracle_bits_are_reported_as_ints(default_stack, ideal_specs, ideal_configs):
    # True and 1.0 pass the bit check; the report keeps them as the ints a
    # WriteStep would store
    for oracle in ({"out": True}, lambda inputs: {"out": 1.0}):
        report = il.estimate_yield(_nand_program(0, 1), default_stack, ideal_specs,
                                   ideal_configs, oracle, trials=5, seed=1)
        assert report.expected == {"out": 1}
        assert type(report.expected["out"]) is int
        assert report.passes == 5


def test_per_trial_outcomes(default_stack, ideal_specs, ideal_configs):
    report = il.estimate_yield(_nand_program(1, 1), default_stack, ideal_specs,
                               ideal_configs, _nand_oracle, trials=25, seed=1)
    assert report.failed_step.shape == (25,)
    assert report.failed_step.tolist() == [-1] * 25


# ---------------------------------------------------------------------------
# the batched trials against one execute per trial
# ---------------------------------------------------------------------------

def _oracle(program, topology, specs, configs, expected, trials, seed):
    """YieldReport.to_json() and failed_step rebuilt from one execute per
    trial on its own substream, attributing a failure to the first step
    whose post-step states differ from the zero-variation trace's."""
    reference = il.execute(program, topology, specs, configs, variation="off")
    imps = [i for i, s in enumerate(program.steps) if isinstance(s, il.ImpStep)]
    passes, degraded, histogram, failed_steps = 0, 0, {}, []
    for t in range(trials):
        trace = il.execute(program, topology, specs, configs, variation="seeded",
                           seed=(seed, t))
        got = trace.output_bits(program)
        ok = all(got[var] == want for var, want in expected.items())
        step = -1
        if ok:
            passes += 1
        else:
            step = next((rec.index for rec, ref in zip(trace.steps, reference.steps)
                         if rec.states_after != ref.states_after),
                        len(program.steps) - 1)
            histogram[step] = histogram.get(step, 0) + 1
        failed_steps.append(step)
        for i in imps:
            after = trace.steps[i].states_after
            if min(after[program.steps[i].p][1], after[program.steps[i].q][1]) < 0.9:
                degraded += 1
    report = {"trials": trials, "passes": passes, "yield": passes / trials,
              "failure_histogram": {str(k): v for k, v in sorted(histogram.items())},
              "degraded_ratio_fraction": (degraded / (trials * len(imps))
                                          if imps else 0.0),
              "seed": seed}
    return report, failed_steps


def _batched(program, topology, specs, configs, expected, trials, seed):
    report = il.estimate_yield(program, topology, specs, configs, expected,
                               trials=trials, seed=seed)
    return report.to_json(), report.failed_step.tolist()


def _wide_spec(iv=None):
    return il.MemristorSpec(v_set_min=1.0, v_set_max=2.0, v_reset_min=-1.5,
                            v_reset_max=-2.2, g_on=115e-6, g_off=10e-6,
                            iv_model=iv or il.LinearIV())


def _bias_pair(v_p, load, mirrored_load):
    return {"drive_neg": il.ImpConfig(v_p=v_p, load=load),
            "drive_pos": il.ImpConfig(v_p=-v_p, load=mirrored_load)}


def test_batched_yield_matches_per_trial_execute(default_stack, adder_stack):
    spec = _wide_spec()
    specs = {"bottom": spec, "top": spec}
    biases = {
        "current source": il.default_configs(spec),
        # a drive that partially resets the target in some cycles
        "resistive": _bias_pair(5.2, il.ResistiveLoad(20e-6, -6.6),
                                il.ResistiveLoad(20e-6, 6.6)),
    }
    cases = []
    for (name, configs), (a, b) in itertools.product(
            biases.items(), itertools.product((0, 1), repeat=2)):
        prog = _nand_program(a, b)
        cases.append((f"nand {a}{b} {name}", prog, default_stack, specs, configs,
                      _nand_oracle({"a": a, "b": b}), 300, 5))
    # seeds of two and three 32-bit words, whose entropy rows are wider
    for seed in (2 ** 32, 2 ** 40 + 3, 2 ** 64 - 1):
        cases.append((f"nand 11 seed {seed}", _nand_program(1, 1), default_stack, specs,
                      biases["current source"], {"out": 0}, 100, seed))

    # only P switches: a partial reset in some cycles, none at zero
    # variation, and at this ON/OFF ratio it reads as 0
    weak = il.MemristorSpec(v_set_min=1.0, v_set_max=2.0, v_reset_min=-1.5,
                            v_reset_max=-2.2, g_on=40e-6, g_off=30e-6)
    prog = il.StepProgram(
        (il.WriteStep("T1", 1), il.WriteStep("T2", 0), il.ImpStep("T1", "T2"),
         il.ReadStep("T1")),
        declared_inputs={"p": "T1", "q": "T2"}, declared_outputs={"p": "T1"})
    cases.append(("p degrades", prog, default_stack, {"bottom": weak, "top": weak},
                  _bias_pair(-2.0, il.CurrentSourceLoad(52e-6),
                             il.CurrentSourceLoad(-52e-6)),
                  {"p": 1}, 300, 5))

    sinh = _wide_spec(il.sinh_iv_from_conductances(115e-6, 10e-6, 1.5, 1.5))
    sinh_specs = {"bottom": sinh, "top": sinh}
    sinh_configs = _bias_pair(-0.71, il.CurrentSourceLoad(-7.16e-5),
                              il.CurrentSourceLoad(7.16e-5))
    fa = il.compile_full_adder(adder_stack)
    for a, b, c in itertools.product((0, 1), repeat=3):
        prog = il.with_inputs(fa, {"a": a, "b": b, "c_in": c})
        expected = {"s": (a + b + c) & 1, "c_out": (a + b + c) >> 1}
        cases.append((f"sinh adder {a}{b}{c}", prog, adder_stack, sinh_specs,
                      sinh_configs, expected, 12, 20151))

    reports = []
    for name, *args in cases:
        want = _oracle(*args)
        got = _batched(*args)
        assert (json.dumps(got[0], sort_keys=True)
                == json.dumps(want[0], sort_keys=True)), name
        assert got[1] == want[1], name
        reports.append(got[0])
    assert any(r["yield"] < 1.0 for r in reports)
    assert any(r["degraded_ratio_fraction"] > 0.0 for r in reports)
    assert any(r["yield"] < 1.0 for r in reports[-8:])  # the sinh rows too


@pytest.mark.parametrize("seed", [0, 7, 2 ** 32 - 1, 2 ** 32, 2 ** 40 + 3, 2 ** 64 - 1])
@pytest.mark.parametrize("start, n, table", [(0, 5, True), (2 ** 32 - 4, 4, True),
                                             (2 ** 32 - 2, 4, False)])
def test_trial_entropy_rows_give_each_trials_stream(seed, start, n, table):
    # a batch that reaches t = 2**32, where t takes two words, keeps the tuples
    rows = montecarlo_module._trial_entropy(seed, start, n)
    assert isinstance(rows, np.ndarray) == table
    assert len(rows) == n
    for t, row in enumerate(rows, start):
        np.testing.assert_array_equal(np.random.default_rng(row).random(114),
                                      np.random.default_rng((seed, t)).random(114))


def test_batched_yield_independent_of_batch_size(default_stack, monkeypatch):
    spec = _wide_spec()
    specs = {"bottom": spec, "top": spec}
    configs = il.default_configs(spec)
    prog = _nand_program(1, 1)
    whole = _batched(prog, default_stack, specs, configs, {"out": 0}, 50, 9)
    monkeypatch.setattr(montecarlo_module, "BATCH_TRIALS", 7)
    assert _batched(prog, default_stack, specs, configs, {"out": 0}, 50, 9) == whole
    assert whole[0]["yield"] < 1.0


@settings(max_examples=40, deadline=None)
@given(p_set=st.floats(0.1, 0.7), width=st.floats(0.05, 1.0),
       g_off=st.floats(5e-6, 20e-6), ratio=st.floats(3.0, 20.0),
       onset=st.floats(1.0, 1.8), reset_span=st.floats(0.0, 0.8),
       v_p=st.floats(-5.0, 5.0), resistive=st.booleans(),
       g_l=st.floats(1e-6, 2e-4), drive=st.floats(-4.0, 4.0),
       a=st.integers(0, 1), b=st.integers(0, 1),
       # seeds of one 32-bit word or of two, as often as each other
       seed=st.one_of(st.integers(0, 2 ** 32 - 1), st.integers(2 ** 32, 2 ** 64 - 1)))
def test_batched_yield_property(p_set, width, g_off, ratio, onset, reset_span,
                                v_p, resistive, g_l, drive, a, b, seed):
    def spec(v_set_min, v_set_max):
        return il.MemristorSpec(v_set_min=v_set_min, v_set_max=v_set_max,
                                v_reset_min=-onset, v_reset_max=-onset - reset_span,
                                g_on=g_off * ratio, g_off=g_off)

    def bias(sign):
        if resistive:
            return _bias_pair(sign * v_p, il.ResistiveLoad(g_l, sign * drive),
                              il.ResistiveLoad(g_l, -sign * drive))
        return _bias_pair(sign * v_p, il.CurrentSourceLoad(sign * drive * 1e-4),
                          il.CurrentSourceLoad(-sign * drive * 1e-4))

    # The set window straddles the drop that decides the output, so that
    # each chance to set Q does so with probability ``p_set`` and a trial's
    # outcome turns on its draws. That drop is Q's, OFF, in an implication
    # from P = a AND b: it must set Q when some input is 0 and must not when
    # both are 1. The first implication of the program with inputs (a AND b,
    # 0) has that entry whatever the thresholds. The window is ``width``
    # times the drop wide, and the bias is mirrored where the drop is negative.
    stack = il.build_default_stack()
    configs, specs = bias(1), {"bottom": spec(1.0, 2.0), "top": spec(1.0, 2.0)}
    drop = il.execute(_nand_program(a & b, 0), stack, specs, configs).steps[3].node.drop_q
    if drop < 0.0:
        configs, drop = bias(-1), -drop
    if drop > 0.0:
        specs["bottom"] = specs["top"] = spec(drop * (1.0 - p_set * width),
                                              drop * (1.0 + (1.0 - p_set) * width))
    args = (_nand_program(a, b), stack, specs, configs, _nand_oracle({"a": a, "b": b}), 16,
            seed)
    try:
        want = _oracle(*args)
    except (il.NoConvergence, il.ProgramError, ValueError) as exc:
        with pytest.raises(type(exc)):
            _batched(*args)
        return
    assert _batched(*args) == want


def _overflowing_sinh_spec(b_on, b_off):
    return _wide_spec(il.SinhIV(a_on=115e-6 / b_on, b_on=b_on,
                                a_off=10e-6 / b_off, b_off=b_off))


def test_estimate_yield_sinh_overflow_raises(default_stack):
    spec = _overflowing_sinh_spec(80.0, 80.0)
    with pytest.raises(il.NoConvergence, match=r"step 3 \(imp B1 -> T2, v_p "):
        il.estimate_yield(_nand_program(1, 1), default_stack,
                          {"bottom": spec, "top": spec}, il.default_configs(spec),
                          _nand_oracle, trials=20, seed=0)


def test_batched_no_convergence_names_first_failing_trial(default_stack):
    # an ON device overflows the Newton bracket, an OFF one does not: the
    # zero-variation run never sets T2, but trials with a low set threshold do
    spec = _overflowing_sinh_spec(80.0, 1.5)
    specs = {"bottom": spec, "top": spec}
    configs = _bias_pair(-2.5, il.CurrentSourceLoad(0.0), il.CurrentSourceLoad(0.0))
    prog = il.StepProgram(
        (il.WriteStep("B1", 0), il.WriteStep("T2", 0), il.ImpStep("B1", "T2")),
        declared_inputs={"p": "B1", "q": "T2"}, declared_outputs={"out": "T2"})
    il.execute(prog, default_stack, specs, configs)  # the reference runs
    first = None
    for t in range(50):
        try:
            il.execute(prog, default_stack, specs, configs, variation="seeded",
                       seed=(4, t))
        except il.NoConvergence as exc:
            assert "step 2 (imp B1 -> T2" in str(exc)
            first = t
            break
    assert first is not None
    with pytest.raises(il.NoConvergence,
                       match=rf"^trial {first}, step 2 \(imp B1 -> T2, v_p -2\.5 V, "
                             r"i_l \+0 A\): I-V of device Q \(ON\) overflows"):
        il.estimate_yield(prog, default_stack, specs, configs, {"out": 0},
                          trials=50, seed=4)


# ---------------------------------------------------------------------------
# pinned reports: any change in a trial's outcome changes these digests
# ---------------------------------------------------------------------------

# The sinh full adder of the yield_adder_sinh benchmark: set thresholds
# 1.5 +- 0.4 V, and its recorded current-source bias pair
_SINH_FA_SPEC = il.MemristorSpec(
    v_set_min=1.1, v_set_max=1.9, v_reset_min=-1.5, v_reset_max=-2.2,
    g_on=115e-6, g_off=10e-6, iv_model=il.sinh_iv_from_conductances(115e-6, 10e-6, 1.5, 1.5))
_SINH_V_P, _SINH_I_L = -0.7099714559999999, -7.162778495999995e-05
_PINNED = {
    ("full_adder_sinh", 3): "cbc2d2b3316c16cbe5e4235785a4ed4412b187e338c3e40f089b0b920986a801",
    ("full_adder_sinh", 20151):
        "a4cebb3ab1074ded7e4870635d82e133a0d021a996e294f23f48014b391b09f8",
    ("nand_ohmic", 3): "75d50f4a4468dea917a0e7cb188380ccff1a8c2065f4f9b4cef2891a9ecadf26",
    ("nand_ohmic", 20151): "b1a51de4d9f85fc58016af554eedcae346d11db0ff41eddc2f85cf0dc84f3511",
}


def _pinned_rows(name):
    """(program, topology, specs, configs, oracle) of each truth-table row."""
    if name == "nand_ohmic":  # ohmic devices with a 1.0 V set-threshold window
        spec = _wide_spec()
        return [(_nand_program(a, b), il.build_default_stack(), {"bottom": spec, "top": spec},
                 il.default_configs(spec), {"out": int(not (a and b))})
                for a, b in itertools.product((0, 1), repeat=2)]
    stack = il.build_adder_stack()
    fa = il.compile_full_adder(stack)
    configs = _bias_pair(_SINH_V_P, il.CurrentSourceLoad(_SINH_I_L),
                         il.CurrentSourceLoad(-_SINH_I_L))
    return [(il.with_inputs(fa, {"a": a, "b": b, "c_in": c}), stack,
             {"bottom": _SINH_FA_SPEC, "top": _SINH_FA_SPEC}, configs,
             {"s": (a + b + c) & 1, "c_out": (a + b + c) >> 1})
            for a, b, c in itertools.product((0, 1), repeat=3)]


@pytest.mark.parametrize("name, seed", sorted(_PINNED))
def test_yield_reports_match_pinned_digests(name, seed):
    digest, passes = hashlib.sha256(), []
    for program, stack, specs, configs, oracle in _pinned_rows(name):
        report = il.estimate_yield(program, stack, specs, configs, oracle,
                                   trials=300, seed=seed)
        passes.append(report.passes)
        digest.update(json.dumps(report.to_json(), sort_keys=True).encode())
        digest.update(report.failed_step.tobytes())
    assert 0 < sum(passes) < 300 * len(passes)  # passing and failing trials pinned
    assert digest.hexdigest() == _PINNED[name, seed]


# ---------------------------------------------------------------------------
# one plan per program shape
# ---------------------------------------------------------------------------

def _report_fields(report):
    return report.to_json(), report.failed_step.tolist(), report.expected


def test_truth_table_rows_share_one_plan(adder_stack):
    spec = _wide_spec()
    specs = {"bottom": spec, "top": spec}
    configs = il.default_configs(spec)
    fa = il.compile_full_adder(adder_stack)
    rows = [(il.with_inputs(fa, {"a": a, "b": b, "c_in": c}),
             {"s": (a + b + c) & 1, "c_out": (a + b + c) >> 1})
            for a, b, c in itertools.product((0, 1), repeat=3)]

    def run(program, oracle):
        return il.estimate_yield(program, adder_stack, specs, configs, oracle,
                                 trials=40, seed=5)

    program_module._shape_plan.cache_clear()
    shared = [run(*row) for row in rows]
    assert program_module._shape_plan.cache_info().misses == 1
    for row, report in zip(rows, shared):
        program_module._shape_plan.cache_clear()
        assert _report_fields(run(*row)) == _report_fields(report)


def test_other_shapes_get_their_own_plans(default_stack):
    spec = il.bottom_device_spec()
    specs = {"bottom": spec, "top": spec}
    configs = il.default_configs(spec)
    nand = _nand_program(1, 0)
    # the same cells with one implication turned around
    other_step = il.StepProgram(nand.steps[:-1] + (il.ImpStep("T2", "B2"),),
                                nand.declared_inputs, nand.declared_outputs)

    def zero_bias(zero):
        return _bias_pair(zero, il.CurrentSourceLoad(zero), il.CurrentSourceLoad(zero))

    stronger = {name: dataclasses.replace(c, v_p=1.01 * c.v_p) for name, c in configs.items()}
    cases = [(nand, configs), (_nand_program(0, 1), configs), (other_step, configs),
             (nand, stronger), (nand, zero_bias(0.0)),
             (nand, zero_bias(-0.0)), (nand, zero_bias(0.0))]
    program_module._shape_plan.cache_clear()
    misses = []
    for program, cfg in cases:
        il.estimate_yield(program, default_stack, specs, cfg, None, trials=10, seed=2)
        misses.append(program_module._shape_plan.cache_info().misses)
    assert misses == [1, 1, 2, 3, 4, 5, 5]


# ---------------------------------------------------------------------------
# the batch settle memo of a plan's implications
# ---------------------------------------------------------------------------

def _sinh_study(seed, cold=False):
    """The reports of the yield_adder_sinh rows, 150 trials each, each row
    on a new plan if ``cold``."""
    reports = []
    for row, (program, stack, specs, configs, oracle) in enumerate(
            _pinned_rows("full_adder_sinh")):
        if cold:
            program_module._shape_plan.cache_clear()
        reports.append(_report_fields(il.estimate_yield(
            program, stack, specs, configs, oracle, trials=150, seed=seed + row)))
    return reports


def test_warm_plan_settles_a_fresh_seed_by_lookup(monkeypatch):
    program_module._shape_plan.cache_clear()
    _sinh_study(3)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return solver_settle(*args, **kwargs)

    monkeypatch.setattr(program_module, "settle", counted)
    _sinh_study(1000)
    assert calls == []


def test_cold_and_warm_plans_give_the_same_reports():
    cold = _sinh_study(20151, cold=True)
    _sinh_study(7)
    warm = _sinh_study(20151)
    assert warm == cold
    assert 0 < sum(report["passes"] for report, _, _ in cold) < 150 * len(cold)
