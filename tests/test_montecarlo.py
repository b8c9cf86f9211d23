import json

import pytest

import implogic as il


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
    states = {c: il.DeviceState(il.Logic.OFF)
              for c in default_stack.usable_cells()}
    specs = {"bottom": violating, "top": violating}
    sol = il.solve_node(default_stack, specs, states, cfg, "B1", "T2")
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


def test_oracle_rejects_unknown_outputs(default_stack, ideal_specs, ideal_configs):
    with pytest.raises(ValueError):
        il.estimate_yield(_nand_program(1, 1), default_stack, ideal_specs,
                          ideal_configs, {"bogus": 1}, trials=10, seed=1)


def test_per_trial_outcomes(default_stack, ideal_specs, ideal_configs):
    report = il.estimate_yield(_nand_program(1, 1), default_stack, ideal_specs,
                               ideal_configs, _nand_oracle, trials=25, seed=1,
                               collect_outcomes=True)
    assert len(report.per_trial) == 25
    assert all(t.passed and t.failed_step is None for t in report.per_trial)
    rows = report.per_trial_rows()
    assert rows[0] == {"trial": 0, "passed": 1, "failed_step": ""}
    without = il.estimate_yield(_nand_program(1, 1), default_stack, ideal_specs,
                                ideal_configs, _nand_oracle, trials=5, seed=1)
    with pytest.raises(ValueError):
        without.per_trial_rows()
