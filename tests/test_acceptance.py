"""Acceptance suite: one test per acceptance criterion, each at its stated
tolerance. A PASS/FAIL line per criterion is printed by the conftest hook."""

import itertools
import json
import time

import numpy as np
import pytest

import implogic as il
from implogic.cli import main
from implogic.device import DeviceState, Logic, iv_params
from implogic.solver import _load_terms, solve_newton, solve_pair


def test_criterion_1_margin_improvement_claim():
    """Current-source margins beat the legacy load by >= 20% at ratio 10."""
    t0 = time.perf_counter()
    g_on, g_off = 10.0, 1.0
    best = il.delta_ideal_parallel(0.0, g_on, g_off, 1.0)
    legacy = il.delta_ideal_parallel(il.legacy_load(g_on, g_off), g_on, g_off, 1.0)
    ratio = best / legacy
    elapsed = time.perf_counter() - t0
    assert ratio >= 1.20
    assert ratio == pytest.approx(1.204, abs=5e-4)
    assert elapsed < 1e-3


def test_criterion_2_asymptote_and_memory_bound():
    """Zero-load margin tends to v*/3; memory margin v*/2 always exceeds it."""
    near = il.delta_ideal_parallel(0.0, 1e4, 1.0, 1.0)
    assert near == pytest.approx(1 / 3, rel=0.01)
    for ratio in (1.5, 3.0, 10.0, 100.0, 1e4, 1e8):
        assert il.delta_memory(1.0) > il.delta_ideal_parallel(0.0, ratio, 1.0, 1.0)


def test_criterion_3_analytic_numeric_equivalence(default_stack):
    """Optimizer recovers the closed forms on 100 random ohmic specs within
    1e-3 relative; the closed-form node solution and Newton (``solve_newton``)
    on the same ohmic point agree to 1e-12 V on 1000 cases; all inside 10 s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    specs_map_template = {c.spec_ref for c in default_stack.cells.values()}

    checked = 0
    while checked < 100:
        vmin = float(rng.uniform(0.5, 1.5))
        vmax = vmin + float(rng.uniform(0.0, 0.3))
        g_off = float(rng.uniform(1e-6, 20e-6))
        g_on = g_off * float(rng.uniform(5, 50))
        spec = il.MemristorSpec(v_set_min=vmin, v_set_max=vmax,
                                v_reset_min=-2.0, v_reset_max=-2.6,
                                g_on=g_on, g_off=g_off)
        rep = il.analytic_report(spec, 0.0)
        if rep.delta_actual <= 0.01:
            continue
        specs = {ref: spec for ref in specs_map_template}
        res = il.optimize(default_stack, "T1", "T2", specs)
        assert res.margin == pytest.approx(rep.delta_actual, rel=1e-3)
        assert res.best_config.v_p == pytest.approx(rep.optimal_v_p, rel=1e-3)
        assert res.best_config.load.i_l == pytest.approx(rep.optimal_i_l, rel=1e-3)
        checked += 1

    pool = [il.bottom_device_spec(), il.top_device_spec()]
    agreed = 0
    while agreed < 1000:
        p_spec, q_spec = pool[rng.integers(2)], pool[rng.integers(2)]
        p_state = DeviceState(Logic(rng.integers(2)), float(rng.uniform(0.4, 1.0)))
        q_state = DeviceState(Logic(rng.integers(2)), float(rng.uniform(0.4, 1.0)))
        if rng.integers(2):
            load = il.ResistiveLoad(g_l=float(rng.uniform(1e-6, 2e-4)),
                                    v_l=float(rng.uniform(-3, 3)))
        else:
            load = il.CurrentSourceLoad(i_l=float(rng.uniform(-3e-4, 3e-4)))
        cfg = il.ImpConfig(v_p=float(rng.uniform(-2, 2)), load=load)
        closed = solve_pair(p_spec, p_state, q_spec, q_state, cfg)
        if abs(closed.v_c) > 9.0:
            continue
        g_l, ll = _load_terms(load)
        newton = solve_newton(iv_params(p_spec, p_state), np.array(cfg.v_p),
                              iv_params(q_spec, q_state), np.array(ll), g_l)
        assert abs(closed.v_c - newton) <= 1e-12
        agreed += 1

    assert time.perf_counter() - t0 < 10.0


def test_criterion_4_margin_sweep_monotone(tmp_path):
    """The sweep command's margin column decreases pointwise in the load for
    ratios 3, 10, and 100 on a 100-point grid."""
    out = str(tmp_path / "fig_sweep.csv")
    rc = main(["margins", "--spec", str(_spec_file(tmp_path)),
               "--sweep", "0,1,100", "--ratios", "3,10,100", "--out", out])
    assert rc == 0
    import csv
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    for ratio in (3.0, 10.0, 100.0):
        series = sorted(
            ((float(r["g_l_over_g_on"]), float(r["delta_over_v_star"]))
             for r in rows if float(r["ratio"]) == ratio))
        assert len(series) >= 100
        deltas = [d for _, d in series]
        assert all(a > b for a, b in zip(deltas, deltas[1:]))


def _spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(il.bottom_device_spec().to_json()))
    return path


def test_criterion_5_logic_exhaustion(default_stack, adder_stack, ideal_specs,
                                      ideal_configs):
    """16/16 implication rows, 4/4 NAND rows, 8/8 full-adder rows with the
    13-reset/22-implication census, and the 8-bit ripple adder against the
    arithmetic oracle (10,000 random triples plus the corner cases)."""
    # implication: 4 rows x 4 polarity/output-level pair configurations
    for p, q in [("B2", "B1"), ("T1", "T2"), ("B2", "T2"), ("T2", "B2")]:
        for pv, qv in itertools.product((0, 1), repeat=2):
            prog = il.StepProgram(
                (il.WriteStep(p, pv), il.WriteStep(q, qv), il.ImpStep(p, q),
                 il.ReadStep(q)))
            trace = il.execute(prog, default_stack, ideal_specs, ideal_configs)
            assert trace.reads[-1][2] == int((not pv) or qv)

    # NAND truth table
    for a, b in itertools.product((0, 1), repeat=2):
        prog = il.with_inputs(il.nand_macro("B1", "B2", "T2"), {"a": a, "b": b})
        trace = il.execute(prog, default_stack, ideal_specs, ideal_configs)
        assert trace.output_bits(prog)["out"] == int(not (a and b))

    # full adder: census and exhaustive rows
    fa = il.compile_full_adder(adder_stack)
    assert fa.census() == (13, 22)
    for a, b, c in itertools.product((0, 1), repeat=3):
        prog = il.with_inputs(fa, {"a": a, "b": b, "c_in": c})
        bits = il.execute(prog, adder_stack, ideal_specs,
                          ideal_configs).output_bits(prog)
        assert (bits["s"], bits["c_out"]) == ((a + b + c) & 1, (a + b + c) >> 1)

    # 8-bit ripple adder: corners plus 10,000 random triples
    corners = [(0, 0, 0), (255, 1, 0), (255, 255, 1), (0, 0, 1),
               (255, 0, 1), (0, 255, 1), (128, 127, 1), (1, 254, 1)]
    total, carry, _, prog8 = il.ripple_adder_8bit(*corners[0])
    assert prog8.census() == (104, 176)
    for a, b, c0 in corners:
        total, carry, _, _ = il.ripple_adder_8bit(a, b, c0)
        assert total + (carry << 8) == a + b + c0
    rng = np.random.default_rng(1234)
    for _ in range(10_000):
        a = int(rng.integers(256))
        b = int(rng.integers(256))
        c0 = int(rng.integers(2))
        total, carry, _, _ = il.ripple_adder_8bit(a, b, c0)
        assert total + (carry << 8) == a + b + c0


def test_criterion_6_yield_properties(default_stack, ideal_specs, ideal_configs):
    """(a) zero variation gives yield 1; (b) half-width below the evaluated
    margin gives yield 1 over 10,000 seeded trials; (c) a constructed
    set-condition violation drops yield below 1; (d) byte-exact seed
    determinism."""
    def nand_oracle(inputs):
        return {"out": int(not (inputs["a"] and inputs["b"]))}

    # (a) zero variation
    prog = il.with_inputs(il.nand_macro("B1", "B2", "T2"), {"a": 1, "b": 1})
    report = il.estimate_yield(prog, default_stack, ideal_specs, ideal_configs,
                               nand_oracle, trials=100, seed=0)
    assert report.yield_fraction == 1.0

    # (b) half-width strictly below the evaluated margin
    spec = il.MemristorSpec(v_set_min=1.35, v_set_max=1.65, v_reset_min=-1.5,
                            v_reset_max=-2.2, g_on=115e-6, g_off=10e-6)
    specs = {"bottom": spec, "top": spec}
    configs = il.default_configs(spec)
    zero_var = il.ideal_device_spec(v_set=spec.v_set_star, g_on=spec.g_on,
                                    g_off=spec.g_off)
    for p, q in (("B1", "T2"), ("B2", "T2")):
        cfg = configs["drive_neg"]
        assert spec.set_half_width < il.worst_slack(
            il.evaluate_margin(default_stack, p, q, cfg, zero_var, zero_var))
    prog = il.with_inputs(il.nand_macro("B1", "B2", "T2"), {"a": 1, "b": 0})
    report = il.estimate_yield(prog, default_stack, specs, configs,
                               nand_oracle, trials=10_000, seed=7)
    assert report.yield_fraction == 1.0

    # (c) constructed violation: v_set_max above the must-set drop
    violating = il.MemristorSpec(v_set_min=1.3, v_set_max=2.2, v_reset_min=-1.5,
                                 v_reset_max=-2.2, g_on=115e-6, g_off=10e-6)
    vspecs = {"bottom": violating, "top": violating}
    off = DeviceState(Logic.OFF)
    sol = il.solve_pair(violating, off, violating, off, ideal_configs["drive_neg"],
                        *default_stack.step_signs("B1", "T2"))
    assert sol.drop_q < violating.v_set_max  # confirmed by direct solve
    vprog = il.StepProgram(
        (il.WriteStep("B1", 0), il.WriteStep("T2", 0), il.ImpStep("B1", "T2"),
         il.ReadStep("T2")),
        declared_inputs={"p": "B1", "q": "T2"}, declared_outputs={"out": "T2"})
    vreport = il.estimate_yield(vprog, default_stack, vspecs, ideal_configs,
                                {"out": 1}, trials=2000, seed=13)
    assert vreport.yield_fraction < 1.0

    # (d) byte-exact determinism
    specs_b = {"bottom": il.bottom_device_spec(), "top": il.bottom_device_spec()}
    cfg_b = il.default_configs(il.bottom_device_spec())
    prog_b = il.with_inputs(il.nand_macro("B1", "B2", "T2"), {"a": 0, "b": 1})
    r1 = il.estimate_yield(prog_b, default_stack, specs_b, cfg_b, nand_oracle,
                           trials=500, seed=99)
    r2 = il.estimate_yield(prog_b, default_stack, specs_b, cfg_b, nand_oracle,
                           trials=500, seed=99)
    assert json.dumps(r1.to_json(), sort_keys=True).encode() == json.dumps(
        r2.to_json(), sort_keys=True).encode()


def test_criterion_7_nonlinear_solver_oracle(sinh_spec):
    """Newton agrees with an independent bisection root to 1e-9 V with
    current residual at or below 1e-12 A on 1000 randomized circuits."""
    def bisect(p_state, q_state, cfg):
        def f(x):
            total = (il.current(sinh_spec, p_state, cfg.v_p + x)
                     + il.current(sinh_spec, q_state, x))
            if isinstance(cfg.load, il.ResistiveLoad):
                return total + cfg.load.g_l * (cfg.load.v_l + x)
            return total + cfg.load.i_l

        lo, hi = -10.0, 10.0
        assert f(lo) <= 0.0 <= f(hi)
        while hi - lo > 1e-13:
            mid = 0.5 * (lo + hi)
            if f(mid) > 0.0:
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)

    rng = np.random.default_rng(77)
    for _ in range(1000):
        p_state = DeviceState(Logic(rng.integers(2)), float(rng.uniform(0.5, 1.0)))
        q_state = DeviceState(Logic(rng.integers(2)), float(rng.uniform(0.5, 1.0)))
        if rng.integers(2):
            load = il.ResistiveLoad(g_l=float(rng.uniform(1e-6, 2e-4)),
                                    v_l=float(rng.uniform(-3, 3)))
        else:
            load = il.CurrentSourceLoad(i_l=float(rng.uniform(-3e-4, 3e-4)))
        cfg = il.ImpConfig(v_p=float(rng.uniform(-2, 2)), load=load)
        sol = solve_pair(sinh_spec, p_state, sinh_spec, q_state, cfg)
        assert abs(sol.residual) <= 1e-12
        assert abs(sol.v_c - bisect(p_state, q_state, cfg)) <= 1e-9
