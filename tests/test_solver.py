import itertools
import sys
import threading

import numpy as np
import pytest
from mpmath import mp

import implogic as il
from implogic.device import DeviceState, Logic
from implogic.solver import (STATES, TOL_CURRENT, _balance, _load_terms, solve_grid,
                             solve_pair)


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
    specs = {"bottom": spec, "top": spec}
    states = {c: DeviceState(Logic.OFF) for c in default_stack.usable_cells()}
    cfg = il.ImpConfig(v_p=0.0, load=il.ResistiveLoad(g_l=100e-6, v_l=-2.0))
    sol = il.solve_node(default_stack, specs, states, cfg, "T1", "T2")
    # (-100e-6 * -2) / 120e-6 with both devices at 10 uS
    assert sol.v_c == pytest.approx(5.0 / 3.0, abs=1e-12)


def test_no_sources_no_voltage(default_stack, ideal_specs, off_states):
    cfg = il.ImpConfig(v_p=0.0, load=il.CurrentSourceLoad(0.0))
    sol = il.solve_node(default_stack, ideal_specs, off_states, cfg, "T1", "T2")
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
        newton = solve_grid(p_spec, p_state, np.array(v_p), q_spec, q_state,
                            np.array(ll), g_l)
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
        grid = solve_grid(spec, p_state, v_p, spec, q_state, i_l, 0.0)
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
            _balance(v, spec, p_state, cfg.v_p, spec, q_state, ll, g_l)[0]
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


def test_current_source_is_resistive_limit(default_stack, ideal_specs, off_states):
    # the deviation scales as v_c * g_l / (g_p + g_q); with microsiemens
    # devices the 1e-6 V agreement needs g_l around 1e-12 S
    i_l = -30e-6
    cs = il.ImpConfig(v_p=-0.8, load=il.CurrentSourceLoad(i_l))
    sol_cs = il.solve_node(default_stack, ideal_specs, off_states, cs, "T1", "T2")
    errors = []
    for eps in (1e-9, 1e-10, 1e-11, 1e-12):
        res = il.ImpConfig(v_p=-0.8, load=il.ResistiveLoad(g_l=eps, v_l=i_l / eps))
        sol = il.solve_node(default_stack, ideal_specs, off_states, res, "T1", "T2")
        errors.append(abs(sol_cs.v_c - sol.v_c))
    assert errors == sorted(errors, reverse=True)  # converges as eps -> 0
    assert errors[-1] < 1e-6


def test_no_convergence_outside_bracket(sinh_spec, default_stack):
    specs = {"bottom": sinh_spec, "top": sinh_spec}
    states = {c: DeviceState(Logic.OFF) for c in default_stack.usable_cells()}
    cfg = il.ImpConfig(v_p=0.0, load=il.CurrentSourceLoad(-100.0))  # 100 A
    with pytest.raises(il.NoConvergence):
        il.solve_node(default_stack, specs, states, cfg, "T1", "T2")


def _nominal(specs, stack):
    return {c: il.nominal_thresholds(specs[stack.cells[c].spec_ref])
            for c in stack.usable_cells()}


def test_settle_forced_set(default_stack, ideal_specs, ideal_configs, off_states):
    th = _nominal(ideal_specs, default_stack)
    cfg = ideal_configs["drive_neg"]
    states, events, _ = il.settle_states(default_stack, ideal_specs, off_states,
                                         cfg, "T1", "T2", th)
    assert states["T2"].logic is Logic.ON
    assert [e.kind.value for e in events] == ["set"]
    assert events[0].cell == "T2"
    assert events[0].drop >= th["T2"].v_set


def test_settle_true_antecedent_blocks_set(default_stack, ideal_specs,
                                           ideal_configs, off_states):
    states = dict(off_states)
    states["T1"] = DeviceState(Logic.ON)
    th = _nominal(ideal_specs, default_stack)
    new_states, events, _ = il.settle_states(default_stack, ideal_specs, states,
                                             ideal_configs["drive_neg"], "T1", "T2", th)
    assert new_states["T2"].logic is Logic.OFF
    assert events == []


def test_settle_no_conditioning_disturbance(default_stack, ideal_specs,
                                            ideal_configs, off_states):
    # after the set event the re-solved conditioning drop must stay inside
    # (reset onset, set threshold): no second event fires
    th = _nominal(ideal_specs, default_stack)
    cfg = ideal_configs["drive_neg"]
    states, events, _ = il.settle_states(default_stack, ideal_specs, off_states,
                                         cfg, "T1", "T2", th)
    assert len(events) == 1
    sol = il.solve_node(default_stack, ideal_specs, states, cfg, "T1", "T2")
    assert th["T1"].v_reset_onset < sol.drop_p < th["T1"].v_set


def test_settle_fixed_point_within_two_state_changes(default_stack, ideal_specs,
                                                     ideal_configs, off_states):
    th = _nominal(ideal_specs, default_stack)
    for p, q in [("T1", "T2"), ("B1", "B2"), ("B1", "T1"), ("T2", "B2")]:
        sign = default_stack.step_sign(q, default_stack.common_wire(p, q))
        cfg = ideal_configs["drive_neg" if sign > 0 else "drive_pos"]
        for p_on in (False, True):
            states = dict(off_states)
            if p_on:
                states[p] = DeviceState(Logic.ON)
            _, events, _ = il.settle_states(default_stack, ideal_specs, states,
                                            cfg, p, q, th)
            assert len(events) <= 2


def test_settle_partial_reset_marks_scale(default_stack, ideal_specs, off_states):
    # stiff load pins the node so the conditioning drop sits inside the
    # partial-reset window before and after the scale degrades
    states = dict(off_states)
    states["T1"] = DeviceState(Logic.ON)
    cfg = il.ImpConfig(v_p=-2.1, load=il.ResistiveLoad(g_l=1e-3, v_l=0.0))
    th = _nominal(ideal_specs, default_stack)
    new_states, events, _ = il.settle_states(default_stack, ideal_specs, states,
                                             cfg, "T1", "T2", th)
    assert [e.kind.value for e in events] == ["partial_reset"]
    assert new_states["T1"].logic is Logic.ON
    assert new_states["T1"].conductance_scale == pytest.approx(0.7)


def test_settle_full_reset_restores_off_scale_one(default_stack, ideal_specs,
                                                  off_states):
    states = dict(off_states)
    states["T1"] = DeviceState(Logic.ON, 0.7)
    cfg = il.ImpConfig(v_p=-3.0, load=il.ResistiveLoad(g_l=1e-3, v_l=0.0))
    th = _nominal(ideal_specs, default_stack)
    new_states, events, _ = il.settle_states(default_stack, ideal_specs, states,
                                             cfg, "T1", "T2", th)
    assert any(e.kind.value == "full_reset" and e.cell == "T1" for e in events)
    assert new_states["T1"] == DeviceState(Logic.OFF, 1.0)


def test_state_codes_stay_unique_under_threads():
    # STATES is shared by the whole process: threads that meet the same new
    # states at once must agree on one code per state, and no two states may
    # share a code
    scales = [0.5 + k * 1e-7 for k in range(300)]  # states no other test makes
    got = [[] for _ in range(8)]

    def work(out):
        for scale in scales:
            out.append(STATES.code(DeviceState(Logic.ON, scale)))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(out,)) for out in got]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old)
    assert all(codes == got[0] for codes in got)
    assert [STATES.states[c] for c in got[0]] == [DeviceState(Logic.ON, s) for s in scales]
    assert len(STATES.is_on) == len(STATES.states) and STATES.is_on[got[0]].all()
