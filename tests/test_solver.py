import itertools
import tracemalloc

import numpy as np
import pytest
from mpmath import mp

import implogic as il
from implogic.device import PARTIAL_RESET_FACTOR, DeviceState, Logic, iv_params
from implogic.solver import (MAX_CODE, TOL_CURRENT, EventKind, NodeSolution, _balance,
                             _load_terms, _pair_drops, settle, solve_newton, solve_pair,
                             state_of)

OFF = DeviceState(Logic.OFF)


def _bisect_oracle(p_spec, p_state, v_p, q_spec, q_state, load, tol=1e-13):
    """Independent pure-bisection root of the node balance."""
    def f(x):
        total = il.current(p_spec, p_state, v_p + x) + il.current(q_spec, q_state, x)
        if isinstance(load, il.ResistiveLoad):
            total += load.g_l * (load.v_l + x)
        else:
            total += load.i_l
        return total

    lo, hi = -10.0, 10.0
    assert f(lo) <= 0.0 <= f(hi)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _equal_g_spec(g):
    # both logic states share one conductance so the divider example is exact
    return il.MemristorSpec(v_set_min=1.5, v_set_max=1.5, v_reset_min=-1.5,
                            v_reset_max=-2.2, g_on=g, g_off=0.999999 * g)


def test_closed_form_divider_example(default_stack):
    spec = il.ideal_device_spec(g_on=115e-6, g_off=10e-6)
    cfg = il.ImpConfig(v_p=0.0, load=il.ResistiveLoad(g_l=100e-6, v_l=-2.0))
    sol = solve_pair(spec, OFF, spec, OFF, cfg, *default_stack.step_signs("T1", "T2"))
    # (-100e-6 * -2) / 120e-6 with both devices at 10 uS
    assert sol.v_c == pytest.approx(5.0 / 3.0, abs=1e-12)


def test_no_sources_no_voltage(default_stack, ideal_spec):
    cfg = il.ImpConfig(v_p=0.0, load=il.CurrentSourceLoad(0.0))
    sol = solve_pair(ideal_spec, OFF, ideal_spec, OFF, cfg,
                     *default_stack.step_signs("T1", "T2"))
    assert sol.v_c == 0.0
    assert sol.drop_p == 0.0 and sol.drop_q == 0.0


def test_closed_vs_iterative_agreement_1000():
    rng = np.random.default_rng(11)
    spec_pool = [il.bottom_device_spec(), il.top_device_spec()]
    checked = 0
    while checked < 1000:
        p_spec = spec_pool[rng.integers(2)]
        q_spec = spec_pool[rng.integers(2)]
        p_state = DeviceState(Logic(rng.integers(2)), float(rng.uniform(0.4, 1.0)))
        q_state = DeviceState(Logic(rng.integers(2)), float(rng.uniform(0.4, 1.0)))
        v_p = float(rng.uniform(-2, 2))
        if rng.integers(2):
            load = il.ResistiveLoad(g_l=float(rng.uniform(1e-6, 2e-4)),
                                    v_l=float(rng.uniform(-3, 3)))
        else:
            load = il.CurrentSourceLoad(i_l=float(rng.uniform(-3e-4, 3e-4)))
        cfg = il.ImpConfig(v_p=v_p, load=load)
        closed = solve_pair(p_spec, p_state, q_spec, q_state, cfg)
        if abs(closed.v_c) > 9.0:
            continue  # outside the Newton's fixed bracket
        g_l, ll = _load_terms(load)
        newton = solve_newton(iv_params(p_spec, p_state), np.array(v_p),
                              iv_params(q_spec, q_state), np.array(ll), g_l)
        assert abs(closed.v_c - newton) <= 1e-12
        checked += 1


def test_newton_matches_bisection_oracle(sinh_spec):
    rng = np.random.default_rng(5)
    for _ in range(200):
        p_state = DeviceState(Logic(rng.integers(2)))
        q_state = DeviceState(Logic(rng.integers(2)))
        cfg = il.ImpConfig(v_p=float(rng.uniform(-2, 2)),
                           load=il.CurrentSourceLoad(float(rng.uniform(-3e-4, 3e-4))))
        sol = solve_pair(sinh_spec, p_state, sinh_spec, q_state, cfg)
        ref = _bisect_oracle(sinh_spec, p_state, cfg.v_p, sinh_spec, q_state,
                             cfg.load)
        assert abs(sol.v_c - ref) <= 1e-9
        assert abs(sol.residual) <= 1e-12


def _steep_bottom_spec(b):
    return il.bottom_device_spec(il.sinh_iv_from_conductances(115e-6, 10e-6, b, b))


def test_exact_root_at_zero_drive(sinh_spec):
    # f == 0.0 exactly at the starting point x = 0: the first pass returns
    # it instead of bisecting away and crawling back
    cfg = il.ImpConfig(v_p=0.0, load=il.CurrentSourceLoad(0.0))
    for p_state, q_state in itertools.product((DeviceState(Logic.OFF),
                                               DeviceState(Logic.ON)), repeat=2):
        sol = solve_pair(sinh_spec, p_state, sinh_spec, q_state, cfg)
        assert sol.v_c == 0.0
        assert sol.iterations == 1


def _mp_root_error(spec, p_state, v_p, q_state, i_l, x):
    """Distance from x to the root of the current-source balance of two
    scale-1 states, found by bisection in 50-digit arithmetic (mpmath's
    findroot does not converge on steep sinh balances) on x +- 1e-14 V,
    which must bracket the root."""
    def f(v):
        total = mp.mpf(i_l)
        for state, drop in ((p_state, v_p + v), (q_state, v)):
            iv = spec.iv_model
            a, b = (iv.a_on, iv.b_on) if state.logic is Logic.ON else (iv.a_off, iv.b_off)
            total += mp.mpf(a) * mp.sinh(mp.mpf(b) * drop)
        return total

    with mp.workdps(50):
        lo, hi = mp.mpf(x) - mp.mpf(1e-14), mp.mpf(x) + mp.mpf(1e-14)
        assert f(lo) <= 0 < f(hi)
        for _ in range(24):  # to ~1e-21 V
            mid = (lo + hi) / 2
            if f(mid) > 0:
                hi = mid
            else:
                lo = mid
        return float(abs((lo + hi) / 2 - mp.mpf(x)))


@pytest.mark.parametrize("b", [1.5, 3.0, 10.0, 20.0])
def test_newton_matches_50_digit_roots(b):
    # both entry points of the one Newton land within 1e-15 V of the exact
    # root, with the same bits, and never give up on a bracketed root
    spec = _steep_bottom_spec(b)
    rng = np.random.default_rng(int(b * 10))
    states = [DeviceState(Logic.OFF), DeviceState(Logic.ON)]
    points = {}
    for _ in range(200):
        p_state, q_state = states[rng.integers(2)], states[rng.integers(2)]
        points.setdefault((p_state, q_state), []).append(
            (float(rng.uniform(-2, 2)), float(rng.uniform(-3e-4, 3e-4))))
    for (p_state, q_state), vp_il in points.items():
        v_p, i_l = np.array(vp_il).T
        grid = solve_newton(iv_params(spec, p_state), v_p, iv_params(spec, q_state), i_l, 0.0)
        for k, (vp_k, il_k) in enumerate(vp_il):
            sol = solve_pair(spec, p_state, spec, q_state,
                             il.ImpConfig(v_p=vp_k, load=il.CurrentSourceLoad(il_k)))
            assert sol.v_c == grid[k]
            assert _mp_root_error(spec, p_state, vp_k, q_state, il_k, sol.v_c) <= 1e-15


@pytest.mark.parametrize("b", [20.0, 40.0])
def test_steep_solves_stop_at_float_resolution(b):
    # one float step moves a steep balance by more than TOL_CURRENT, so a
    # point whose bracket has closed to adjacent floats is converged: every
    # solve returns, with its residual within tolerance or with the balance
    # changing sign within one float of x
    spec = _steep_bottom_spec(b)
    rng = np.random.default_rng(int(b))
    at_resolution = 0
    for _ in range(300):
        p_state = DeviceState(Logic(rng.integers(2)), float(rng.uniform(0.5, 1.0)))
        q_state = DeviceState(Logic(rng.integers(2)), float(rng.uniform(0.5, 1.0)))
        if rng.integers(2):
            load = il.ResistiveLoad(g_l=float(rng.uniform(1e-6, 2e-4)),
                                    v_l=float(rng.uniform(-3, 3)))
        else:
            load = il.CurrentSourceLoad(i_l=float(rng.uniform(-3e-4, 3e-4)))
        cfg = il.ImpConfig(v_p=float(rng.uniform(-2.5, 2.5)), load=load)
        x = solve_pair(spec, p_state, spec, q_state, cfg).v_c
        g_l, ll = _load_terms(load)
        f_below, f, f_above = (
            _balance(v, iv_params(spec, p_state), cfg.v_p, iv_params(spec, q_state), ll, g_l)[0]
            for v in (np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)))
        if abs(f) > TOL_CURRENT:
            at_resolution += 1
            assert (f_below <= 0.0 < f) or (f <= 0.0 < f_above)
    assert at_resolution > 0


@pytest.mark.parametrize("spec_of", [il.bottom_device_spec, il.top_device_spec])
def test_steep_sinh_full_adder_runs_converge(spec_of):
    # Newton approaching a steep sinh from its convex side moves ~1/b V per
    # step; it must bisect instead of running out of iterations
    ohmic = spec_of()
    spec = spec_of(il.sinh_iv_from_conductances(ohmic.g_on, ohmic.g_off, 20.0, 20.0))
    stack = il.build_adder_stack()
    fa = il.compile_full_adder(stack)
    for seed, (a, b, c) in enumerate(itertools.product((0, 1), repeat=3)):
        il.execute(il.with_inputs(fa, {"a": a, "b": b, "c_in": c}), stack,
                   {"bottom": spec, "top": spec}, il.default_configs(spec),
                   variation="seeded", seed=seed)


def test_current_source_is_resistive_limit(default_stack, ideal_spec):
    # the deviation scales as v_c * g_l / (g_p + g_q); with microsiemens
    # devices the 1e-6 V agreement needs g_l around 1e-12 S
    i_l = -30e-6
    signs = default_stack.step_signs("T1", "T2")
    cs = il.ImpConfig(v_p=-0.8, load=il.CurrentSourceLoad(i_l))
    sol_cs = solve_pair(ideal_spec, OFF, ideal_spec, OFF, cs, *signs)
    errors = []
    for eps in (1e-9, 1e-10, 1e-11, 1e-12):
        res = il.ImpConfig(v_p=-0.8, load=il.ResistiveLoad(g_l=eps, v_l=i_l / eps))
        sol = solve_pair(ideal_spec, OFF, ideal_spec, OFF, res, *signs)
        errors.append(abs(sol_cs.v_c - sol.v_c))
    assert errors == sorted(errors, reverse=True)  # converges as eps -> 0
    assert errors[-1] < 1e-6


def test_no_convergence_outside_bracket(sinh_spec, default_stack):
    cfg = il.ImpConfig(v_p=0.0, load=il.CurrentSourceLoad(-100.0))  # 100 A
    with pytest.raises(il.NoConvergence):
        solve_pair(sinh_spec, OFF, sinh_spec, OFF, cfg, *default_stack.step_signs("T1", "T2"))


def _nominal(specs, stack):
    return {c: il.nominal_thresholds(specs[stack.cells[c].spec_ref])
            for c in stack.usable_cells()}


def _records(stack, specs, configs, *steps):
    """The StepRecords of a zero-variation run of ``steps`` from all OFF."""
    return il.execute(il.StepProgram(steps), stack, specs, configs).steps


def test_settle_forced_set(default_stack, ideal_specs, ideal_configs):
    th = _nominal(ideal_specs, default_stack)
    rec, = _records(default_stack, ideal_specs, ideal_configs,
                    il.ImpStep("T1", "T2", "drive_neg"))
    assert rec.states_after["T2"] == ("ON", 1.0)
    assert [e.kind.value for e in rec.events] == ["set"]
    assert rec.events[0].cell == "T2"
    assert rec.events[0].drop >= th["T2"].v_set


def test_settle_true_antecedent_blocks_set(default_stack, ideal_specs, ideal_configs):
    rec = _records(default_stack, ideal_specs, ideal_configs, il.WriteStep("T1", 1),
                   il.ImpStep("T1", "T2", "drive_neg"))[-1]
    assert rec.states_after["T2"] == ("OFF", 1.0)
    assert rec.events == ()


def test_settle_no_conditioning_disturbance(default_stack, ideal_specs, ideal_configs):
    # after the set event the re-solved conditioning drop must stay inside
    # (reset onset, set threshold): no second event fires
    th = _nominal(ideal_specs, default_stack)
    cfg = ideal_configs["drive_neg"]
    rec, = _records(default_stack, ideal_specs, ideal_configs,
                    il.ImpStep("T1", "T2", "drive_neg"))
    assert len(rec.events) == 1
    p_state, q_state = (DeviceState(Logic[logic], scale) for logic, scale in
                        (rec.states_after["T1"], rec.states_after["T2"]))
    spec = ideal_specs["top"]
    sol = solve_pair(spec, p_state, spec, q_state, cfg, *default_stack.step_signs("T1", "T2"))
    assert th["T1"].v_reset_onset < sol.drop_p < th["T1"].v_set


def test_settle_fixed_point_within_two_state_changes(default_stack, ideal_specs,
                                                     ideal_configs):
    for p, q in [("T1", "T2"), ("B1", "B2"), ("B1", "T1"), ("T2", "B2")]:
        sign = default_stack.step_sign(q, default_stack.common_wire(p, q))
        imp = il.ImpStep(p, q, "drive_neg" if sign > 0 else "drive_pos")
        for p_on in (False, True):
            writes = (il.WriteStep(p, 1),) if p_on else ()
            rec = _records(default_stack, ideal_specs, ideal_configs, *writes, imp)[-1]
            assert len(rec.events) <= 2


# stiff loads pin the node: a stress pulse puts the conditioning drop
# inside the partial-reset window before and after the scale degrades, a
# full pulse below the guaranteed full-reset level
_PULSES = {"stress": il.ImpConfig(v_p=-2.1, load=il.ResistiveLoad(g_l=1e-3, v_l=0.0)),
           "full": il.ImpConfig(v_p=-3.0, load=il.ResistiveLoad(g_l=1e-3, v_l=0.0))}


def test_settle_partial_reset_marks_scale(default_stack, ideal_specs):
    rec = _records(default_stack, ideal_specs, _PULSES, il.WriteStep("T1", 1),
                   il.ImpStep("T1", "T2", "stress"))[-1]
    assert [e.kind.value for e in rec.events] == ["partial_reset"]
    assert rec.states_after["T1"] == ("ON", pytest.approx(0.7))


def test_settle_full_reset_restores_off_scale_one(default_stack, ideal_specs):
    *_, stressed, rec = _records(default_stack, ideal_specs, _PULSES, il.WriteStep("T1", 1),
                                 il.ImpStep("T1", "T2", "stress"),
                                 il.ImpStep("T1", "T2", "full"))
    assert stressed.states_after["T1"] == ("ON", 0.7)
    assert any(e.kind.value == "full_reset" and e.cell == "T1" for e in rec.events)
    assert rec.states_after["T1"] == ("OFF", 1.0)


def test_state_codes_follow_the_partial_reset_chain():
    # a code is a rule: 0 is OFF, 1 is ON, and each further code one more
    # partial reset, by the product the switching rules form, until the
    # product stops changing
    states = [state_of(code) for code in range(MAX_CODE + 1)]
    assert len(set(states)) == len(states)
    assert states[0] == OFF and states[1] == DeviceState(Logic.ON)
    for before, after in zip(states[1:], states[2:]):
        assert after == DeviceState(Logic.ON, before.conductance_scale * PARTIAL_RESET_FACTOR)
    assert states[-1].conductance_scale == 5e-324
    for code in (-1, MAX_CODE + 1):
        with pytest.raises(ValueError):
            state_of(code)
    # a partial reset at the end of the chain keeps the code and still fires
    pq, events = np.array([[MAX_CODE], [0]]), []
    settle(lambda p, q: NodeSolution(0.0, -1.0, 0.0, 0.0, 0), pq,
           np.array([[1.0], [-0.5], [-0.5]]), np.array([[-2.0], [-2.0]]), events)
    assert pq.tolist() == [[MAX_CODE], [0]]
    assert events == [(0, EventKind.PARTIAL_RESET, -1.0, 1)]


def test_pair_drops_solve_each_pair_once_in_code_order():
    calls = []

    def solve(p, q):
        calls.append((p, q))
        return NodeSolution(0.0, float(p), float(q), 0.0, 0)

    pq = np.array([[3, 0, MAX_CODE, 0, 3], [2, MAX_CODE, 2, MAX_CODE, 2]])
    drops, first = _pair_drops(solve, pq)
    assert calls == [(0, MAX_CODE), (3, 2), (MAX_CODE, 2)]
    assert drops.tolist() == pq.tolist()
    assert (first.drop_p, first.drop_q) == (3.0, 2.0)

    def fail_at_the_end_of_the_chain(p, q):
        if p == MAX_CODE:
            raise il.NoConvergence("no root")
        return solve(p, q)

    with pytest.raises(il.NoConvergence) as exc:
        _pair_drops(fail_at_the_end_of_the_chain, pq)
    assert exc.value.column == 2


def test_settle_at_the_end_of_the_chain_stays_small():
    # the pair tables grow with the codes present, not with the largest code,
    # by which one pass here would take (MAX_CODE + 1)^2 bins
    pq = np.array([[MAX_CODE], [MAX_CODE]])
    tracemalloc.start()
    try:
        settle(lambda p, q: NodeSolution(0.0, 0.0, 0.0, 0.0, 0), pq,
               np.array([[1.0], [-0.5], [-0.5]]), np.array([[-2.0], [-2.0]]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pq.tolist() == [[MAX_CODE], [MAX_CODE]]
    assert peak < 1_000_000
