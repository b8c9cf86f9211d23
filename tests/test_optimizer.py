import dataclasses
import hashlib
import json
import re
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import implogic as il
from implogic import device as dev
from implogic import optimizer
from implogic.optimizer import (_COMBOS, Infeasible, _Pair, _pair_info, _stack, _stack_solves,
                                _stacked_margin)
from implogic.solver import BRACKET, is_ohmic, solve_linear, solve_newton, solve_pair


def _specs_for(default_stack, spec):
    return {ref: spec for ref in {c.spec_ref for c in default_stack.cells.values()}}


def _combination_slacks(p_state, q_state, drop_p, drop_q, p_spec, q_spec):
    """The test oracle's correctness slacks of one initial-state combination,
    in ``evaluate_margin``'s order, written out here: Q must set at (OFF,
    OFF) and must not set elsewhere, and P neither sets nor begins to reset."""
    target = (drop_q - q_spec.v_set_max if (p_state, q_state) == (dev.OFF, dev.OFF)
              else q_spec.v_set_min - drop_q)
    return (target, p_spec.v_set_min - drop_p, drop_p - p_spec.v_reset_min)


def _margin(vp, ll, g_l, stacks):
    """The stacked margin grid of ``stacks`` at the loads ``ll``."""
    return _stacked_margin(vp, np.broadcast_shapes(np.shape(vp), np.shape(ll)),
                           g_l, stacks)(ll)


def test_evaluate_margin_matches_analytic_at_optimum(default_stack, bottom_spec):
    rep = il.analytic_report(bottom_spec, 0.0)
    cfg = il.ImpConfig(v_p=rep.optimal_v_p, load=il.CurrentSourceLoad(rep.optimal_i_l))
    slacks = il.evaluate_margin(default_stack, "T1", "T2", cfg, bottom_spec,
                                bottom_spec)
    assert len(slacks) == 12
    assert il.worst_slack(slacks) == pytest.approx(rep.delta_actual, abs=1e-9)


def test_evaluate_margin_zero_drive_deeply_infeasible(default_stack, bottom_spec):
    cfg = il.ImpConfig(v_p=0.0, load=il.CurrentSourceLoad(0.0))
    slacks = il.evaluate_margin(default_stack, "T1", "T2", cfg, bottom_spec,
                                bottom_spec)
    # no drive -> zero target drop -> the must-set slack is -v_set_max
    assert slacks["must_set@p=off,q=off"] == pytest.approx(-bottom_spec.v_set_max)


def test_optimize_recovers_closed_forms(default_stack, bottom_spec):
    specs = _specs_for(default_stack, bottom_spec)
    rep = il.analytic_report(bottom_spec, 0.0)
    res = il.optimize(default_stack, "T1", "T2", specs)
    assert res.margin == pytest.approx(rep.delta_actual, rel=1e-3)
    assert res.best_config.v_p == pytest.approx(rep.optimal_v_p, rel=1e-3)
    assert res.best_config.load.i_l == pytest.approx(rep.optimal_i_l, rel=1e-3)
    assert res.margin == pytest.approx(min(res.slack_breakdown.values()))


def test_optimize_resistive_recovers_closed_forms(default_stack):
    spec = il.MemristorSpec(v_set_min=1.4, v_set_max=1.6, v_reset_min=-1.5,
                            v_reset_max=-2.2, g_on=115e-6, g_off=10e-6)
    specs = _specs_for(default_stack, spec)
    g_l = il.legacy_load(spec.g_on, spec.g_off)
    vstar = spec.v_set_star
    v_p_ref, v_l_ref = il.optimal_bias(g_l, spec.g_on, spec.g_off, vstar)
    res = il.optimize(default_stack, "T1", "T2", specs, load_kind="resistive",
                      g_l=g_l)
    ideal = il.delta_ideal_parallel(g_l, spec.g_on, spec.g_off, vstar)
    assert res.margin == pytest.approx(il.delta_actual(ideal, spec), rel=1e-3)
    assert res.best_config.v_p == pytest.approx(v_p_ref, rel=1e-3)
    assert res.best_config.load.v_l == pytest.approx(v_l_ref, rel=1e-3)


def test_optimize_sign_flip_for_bottom_output(default_stack, bottom_spec):
    specs = _specs_for(default_stack, bottom_spec)
    top_out = il.optimize(default_stack, "B1", "T1", specs)
    bottom_out = il.optimize(default_stack, "T1", "B1", specs)
    assert bottom_out.margin == pytest.approx(top_out.margin, rel=1e-3)
    assert bottom_out.best_config.v_p == pytest.approx(
        -top_out.best_config.v_p, rel=1e-2)
    assert bottom_out.best_config.load.i_l == pytest.approx(
        -top_out.best_config.load.i_l, rel=1e-2)


def test_optimize_anti_parallel_matches_general_formula(default_stack, bottom_spec):
    specs = _specs_for(default_stack, bottom_spec)
    res = il.optimize(default_stack, "B1", "T1", specs)  # cross-level pair
    ref = il.delta_general(bottom_spec, bottom_spec, il.Polarity.ANTI_PARALLEL,
                           bottom_spec.g_on, bottom_spec.g_off)
    assert res.margin == pytest.approx(ref, rel=1e-3)


def test_joint_margin_never_exceeds_individual(default_stack, bottom_spec):
    specs = _specs_for(default_stack, bottom_spec)
    single_top = il.optimize(default_stack, "B1", "T2", specs)
    single_bottom = il.optimize(default_stack, "T2", "B1", specs)
    joint = il.optimize(default_stack, "B1", "T2", specs,
                        constraints=[("T2", "B1")])
    assert joint.margin <= single_top.margin + 1e-12
    assert joint.margin <= single_bottom.margin + 1e-12
    assert len(joint.slack_breakdown) == 24


def test_optimize_infeasible_when_variation_dominates(default_stack):
    # set-threshold half-width above the v*/3 ceiling: no config can work
    spec = il.MemristorSpec(v_set_min=0.7, v_set_max=2.3, v_reset_min=-1.5,
                            v_reset_max=-2.2, g_on=115e-6, g_off=10e-6)
    assert spec.set_half_width > spec.v_set_star / 3
    specs = _specs_for(default_stack, spec)
    with pytest.raises(Infeasible):
        il.optimize(default_stack, "T1", "T2", specs)


def test_optimize_degenerate_ratio_infeasible(default_stack):
    spec = il.MemristorSpec(v_set_min=1.4, v_set_max=1.6, v_reset_min=-1.5,
                            v_reset_max=-2.2, g_on=10.0001e-6, g_off=10e-6)
    specs = _specs_for(default_stack, spec)
    with pytest.raises(Infeasible):
        il.optimize(default_stack, "T1", "T2", specs)


def test_refinement_consistency(default_stack, bottom_spec):
    specs = _specs_for(default_stack, bottom_spec)
    a = il.optimize(default_stack, "T1", "T2", specs, rounds=8)
    b = il.optimize(default_stack, "T1", "T2", specs, rounds=10)
    assert abs(a.margin - b.margin) < 1e-4 * bottom_spec.v_set_star


def test_optimize_deterministic(default_stack, bottom_spec):
    specs = _specs_for(default_stack, bottom_spec)
    a = il.optimize(default_stack, "T1", "T2", specs)
    b = il.optimize(default_stack, "T1", "T2", specs)
    assert a == b


def test_random_linear_specs_match_oracle(default_stack):
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 25:
        vmin = float(rng.uniform(0.5, 1.5))
        vmax = vmin + float(rng.uniform(0.0, 0.3))
        g_off = float(rng.uniform(1e-6, 20e-6))
        g_on = g_off * float(rng.uniform(5, 50))
        spec = il.MemristorSpec(v_set_min=vmin, v_set_max=vmax, v_reset_min=-2.0,
                                v_reset_max=-2.6, g_on=g_on, g_off=g_off)
        rep = il.analytic_report(spec, 0.0)
        if rep.delta_actual <= 0.01:
            continue
        specs = _specs_for(default_stack, spec)
        res = il.optimize(default_stack, "T1", "T2", specs)
        assert res.margin == pytest.approx(rep.delta_actual, rel=1e-3)
        assert res.best_config.v_p == pytest.approx(rep.optimal_v_p, rel=1e-3)
        assert res.best_config.load.i_l == pytest.approx(rep.optimal_i_l, rel=1e-3)
        checked += 1


def test_nonlinear_margin_near_linear_theory(default_stack, sinh_spec):
    specs = _specs_for(default_stack, sinh_spec)
    res = il.optimize(default_stack, "T1", "T2", specs)
    linear = il.delta_ideal_parallel(0.0, sinh_spec.g_on, sinh_spec.g_off,
                                     sinh_spec.v_set_star)
    assert res.margin < linear            # nonlinearity costs margin
    assert res.margin > 0.7 * linear      # but stays within 30%


def test_nonlinear_optimum_beats_brute_force_grid(default_stack, sinh_spec):
    specs = _specs_for(default_stack, sinh_spec)
    res = il.optimize(default_stack, "T1", "T2", specs)
    best_grid = -np.inf
    for v_p in np.linspace(-1.5, 0.0, 16):
        for i_l in np.linspace(-1e-4, 0.0, 16):
            cfg = il.ImpConfig(v_p=float(v_p), load=il.CurrentSourceLoad(float(i_l)))
            slacks = il.evaluate_margin(default_stack, "T1", "T2", cfg,
                                        sinh_spec, sinh_spec)
            best_grid = max(best_grid, il.worst_slack(slacks))
    assert res.margin >= best_grid - 1e-6




def test_nonlinear_grid_matches_scalar_solver(default_stack, sinh_spec,
                                              bottom_spec):
    # the vectorized grid must agree with the Newton-based point evaluator
    # it steers for
    vp = np.linspace(-1.5, 0.5, 7)[:, None]
    ll = np.linspace(-1e-4, 2e-5, 5)[None, :]
    for spec in (sinh_spec, bottom_spec):  # array Newton, closed form
        grid = _margin(vp, ll, 0.0, _stack([_Pair(spec, spec, 1, 1)]))
        for i, v in enumerate(vp[:, 0]):
            for j, cur in enumerate(ll[0]):
                cfg = il.ImpConfig(v_p=float(v),
                                   load=il.CurrentSourceLoad(float(cur)))
                slacks = il.evaluate_margin(default_stack, "T1", "T2", cfg,
                                            spec, spec)
                assert grid[i, j] == pytest.approx(il.worst_slack(slacks),
                                                   abs=1e-9)


def test_nonlinear_resistive_grid_matches_scalar_solver(default_stack, sinh_spec,
                                                        bottom_spec):
    g_l = 3e-5
    vp = np.linspace(-1.2, 0.2, 5)[:, None]
    ll = np.linspace(-1.2e-4, 0.0, 5)[None, :]
    for spec in (sinh_spec, bottom_spec):
        grid = _margin(vp, ll, g_l, _stack([_Pair(spec, spec, 1, 1)]))
        for i, v in enumerate(vp[:, 0]):
            for j, cur in enumerate(ll[0]):
                cfg = il.ImpConfig(v_p=float(v), load=il.ResistiveLoad(
                    g_l=g_l, v_l=float(cur) / g_l))
                slacks = il.evaluate_margin(default_stack, "T1", "T2", cfg,
                                            spec, spec)
                assert grid[i, j] == pytest.approx(il.worst_slack(slacks),
                                                   abs=1e-9)


def test_optimize_rejects_bad_load_kind(default_stack, bottom_spec):
    specs = _specs_for(default_stack, bottom_spec)
    with pytest.raises(ValueError):
        il.optimize(default_stack, "T1", "T2", specs, load_kind="inductive")
    with pytest.raises(ValueError):
        il.optimize(default_stack, "T1", "T2", specs, load_kind="resistive",
                    g_l=0.0)


@pytest.mark.parametrize("kind,g_l", [("resistive", float("nan")),
                                      ("current_source", float("nan")),
                                      ("current_source", float("inf"))])
def test_optimize_rejects_non_finite_g_l(default_stack, bottom_spec, kind, g_l):
    # a NaN g_l used to pass the g_l <= 0 check and run as a current source
    specs = _specs_for(default_stack, bottom_spec)
    with pytest.raises(ValueError, match="g_l must be finite"):
        il.optimize(default_stack, "T1", "T2", specs, load_kind=kind, g_l=g_l)


def test_optimize_rejects_a_g_l_too_small_for_a_finite_v_l(default_stack, bottom_spec,
                                                           monkeypatch):
    # before any grid, and naming g_l, not the v_l = load / g_l it overflows
    monkeypatch.setattr(optimizer, "_stacked_margin", _no_grid)
    specs = _specs_for(default_stack, bottom_spec)
    with pytest.raises(ValueError, match=re.escape(
            "g_l is too small for a finite v_l = load / g_l, got 5e-324")):
        il.optimize(default_stack, "T1", "T2", specs, load_kind="resistive", g_l=5e-324)


def test_optimize_rejects_negative_rounds(default_stack, bottom_spec):
    specs = _specs_for(default_stack, bottom_spec)
    with pytest.raises(ValueError, match="rounds must be >= 0"):
        il.optimize(default_stack, "T1", "T2", specs, rounds=-1)


@pytest.mark.parametrize("kwargs", [{"rounds": 2.5}, {"rounds": True}, {"g_l": "1e-5"},
                                    {"g_l": None}, {"g_l": True},
                                    {"load_kind": "resistive", "g_l": True}])
def test_optimize_rejects_wrong_argument_types(default_stack, bottom_spec, kwargs):
    # these used to raise TypeError, or to run with a bool taken as 1
    specs = _specs_for(default_stack, bottom_spec)
    with pytest.raises(ValueError, match="must be a real number|must be an int"):
        il.optimize(default_stack, "T1", "T2", specs, **kwargs)


def _bisection_node(p_spec, p_state, vp, q_spec, q_state, ll, g_l, bracket=BRACKET):
    """Reference node solve for ``solve_newton``: 60 bisections of the
    monotone balance over the whole grid (f > 0 moves the upper end, so a
    NaN f counts as f <= 0, and a point without a root in the bracket ends
    at the bracket end its root lies beyond)."""
    shape = np.broadcast_shapes(vp.shape, ll.shape)
    lo = np.full(shape, -bracket)
    hi = np.full(shape, bracket)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(60):  # halves a 20 V bracket to ~2e-17 V, 2 kV to ~2e-15 V
            mid = 0.5 * (lo + hi)
            f = (dev.current(p_spec, p_state, vp + mid)
                 + dev.current(q_spec, q_state, mid) + ll + g_l * mid)
            above = f > 0.0
            hi = np.where(above, mid, hi)
            lo = np.where(above, lo, mid)
    return 0.5 * (lo + hi)


def _bisection_margin(vp, ll, g_l, p_spec, q_spec, s_p, s_q, bracket=BRACKET):
    """The stacked margin grid of one pair on the bisection node solve."""
    margin = np.full(np.broadcast_shapes(vp.shape, ll.shape), np.inf)
    for p_state, q_state in _COMBOS:
        x = _bisection_node(p_spec, p_state, vp, q_spec, q_state, ll, g_l, bracket)
        for slack in _combination_slacks(p_state, q_state, s_p * (vp + x), s_q * x,
                                         p_spec, q_spec):
            np.minimum(margin, slack, out=margin)
    return margin


def _assert_grid_matches_bisection(vp, ll, g_l, p_spec, q_spec, s_p=1, s_q=1):
    for p_state, q_state in _COMBOS:
        np.testing.assert_allclose(
            solve_newton(dev.iv_params(p_spec, p_state), vp, dev.iv_params(q_spec, q_state),
                         ll, g_l),
            _bisection_node(p_spec, p_state, vp, q_spec, q_state, ll, g_l),
            rtol=0.0, atol=1e-9)
    # an ohmic pair's grid takes the closed form, which has no bracket; the
    # drawn specs and loads keep its roots within 1 kV
    bracket = 1e3 if is_ohmic(p_spec, q_spec) else BRACKET
    np.testing.assert_allclose(
        _margin(vp, ll, g_l, _stack([_Pair(p_spec, q_spec, s_p, s_q)])),
        _bisection_margin(vp, ll, g_l, p_spec, q_spec, s_p, s_q, bracket),
        rtol=0.0, atol=1e-9)


@st.composite
def _grid_specs(draw):
    g_off = draw(st.floats(1e-6, 50e-6))
    g_on = g_off * draw(st.floats(2.0, 50.0))
    iv = None
    if draw(st.booleans()):
        iv = il.sinh_iv_from_conductances(g_on, g_off, draw(st.floats(0.1, 100.0)),
                                          draw(st.floats(0.1, 100.0)))
    v_set_min = draw(st.floats(0.3, 2.0))
    return il.MemristorSpec(v_set_min=v_set_min,
                            v_set_max=v_set_min + draw(st.floats(0.0, 1.0)),
                            v_reset_min=-1.5, v_reset_max=-2.2, g_on=g_on,
                            g_off=g_off, iv_model=iv or il.LinearIV())


@settings(max_examples=150, deadline=None)
@given(p_spec=_grid_specs(), q_spec=_grid_specs(),
       vp=st.lists(st.floats(-15.0, 15.0), min_size=1, max_size=5),
       ll=st.lists(st.floats(-1e-3, 1e-3), min_size=1, max_size=5),
       g_l=st.one_of(st.just(0.0), st.floats(1e-6, 1e-3)),
       s_p=st.sampled_from((-1, 1)), s_q=st.sampled_from((-1, 1)))
def test_newton_grid_matches_bisection(p_spec, q_spec, vp, ll, g_l, s_p, s_q):
    # the Newton grid replaced a 60-step bisection; every point, overflowing
    # and out-of-bracket ones included, must land where the bisection did
    _assert_grid_matches_bisection(np.array(vp)[:, None], np.array(ll)[None, :],
                                   g_l, p_spec, q_spec, s_p, s_q)


def test_newton_grid_root_outside_bracket(bottom_spec):
    # 1 mA into the node needs |v_c| of tens of volts: the point takes the
    # bracket end its root lies beyond, as the bisection did
    vp = np.array([[0.0], [1.0]])
    ll = np.array([[-1e-3, 1e-3]])
    off = dev.iv_params(bottom_spec, dev.OFF)
    x = solve_newton(off, vp, off, ll, 0.0)
    np.testing.assert_array_equal(x, [[BRACKET, -BRACKET], [BRACKET, -BRACKET]])
    _assert_grid_matches_bisection(vp, ll, 0.0, bottom_spec, bottom_spec)


def test_newton_grid_sinh_overflow_saturates():
    # b = 100 overflows sinh beyond 7.1 V; at v_p = 16 V both devices
    # overflow around the balance point, with f = -inf, NaN and +inf
    spec = il.MemristorSpec(v_set_min=1.1, v_set_max=1.9, v_reset_min=-1.5,
                            v_reset_max=-2.2, g_on=115e-6, g_off=10e-6,
                            iv_model=il.sinh_iv_from_conductances(
                                115e-6, 10e-6, 100.0, 100.0))
    vp = np.array([[-16.0], [-9.0], [0.0], [9.0], [16.0]])
    ll = np.array([[-1e-4, 0.0, 3e-5]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = solve_newton(dev.iv_params(spec, dev.ON), vp, dev.iv_params(spec, dev.OFF), ll, 0.0)
        _assert_grid_matches_bisection(vp, ll, 0.0, spec, spec)
        _assert_grid_matches_bisection(vp, ll, 2e-5, spec, spec, -1, 1)
    assert np.all(np.abs(x) <= BRACKET)


def test_newton_grid_returns_exact_roots():
    # f == 0.0 exactly at x = 0 (no drive) and at x = 1 (reached by one
    # exact Newton step): both converge there instead of bisecting away
    spec = il.MemristorSpec(v_set_min=1.1, v_set_max=1.9, v_reset_min=-1.5,
                            v_reset_max=-2.2, g_on=100e-6, g_off=10e-6)
    vp = np.array([[0.0]])
    ll = np.array([[0.0, -2e-5]])
    off = dev.iv_params(spec, dev.OFF)
    x = solve_newton(off, vp, off, ll, 0.0)
    np.testing.assert_array_equal(x, [[0.0, 1.0]])
    _assert_grid_matches_bisection(vp, ll, 0.0, spec, spec)


@pytest.mark.parametrize("case,want", [
    ("current_source", (0.354985425265681, -0.7099714559999999,
                        -7.162778495999995e-05)),
    ("resistive", (0.3143250448669681, -0.62865024, -3.8676313776040456)),
    ("joint", (0.354985425265681, -0.7099714559999999, -7.162778495999995e-05)),
])
def test_sinh_optimize_results_pinned(default_stack, adder_stack, sinh_spec,
                                      case, want):
    # the results of the bisection grid, which the Newton grid must steer to
    specs = {"bottom": sinh_spec, "top": sinh_spec}
    if case == "current_source":
        res = il.optimize(default_stack, "T1", "T2", specs)
    elif case == "resistive":
        res = il.optimize(default_stack, "T1", "T2", specs, load_kind="resistive",
                          g_l=il.legacy_load(sinh_spec.g_on, sinh_spec.g_off))
    else:
        res = il.optimize(adder_stack, "B1", "T1", specs, constraints=[("T1", "B1")])
    load = res.best_config.load
    got = (res.margin, res.best_config.v_p,
           load.i_l if case != "resistive" else load.v_l)
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)
    assert res.evaluations == 136161


# the full to_json of the three sinh optimizations, recorded from the
# per-combination grids before they were stacked into one solve
_SINH_OPTIMIZE_JSON = {
    "current_source": {
        "config": {"v_p": -0.7099714559999999,
                   "load": {"kind": "current_source", "i_l": -7.162778495999995e-05},
                   "pulse_s": 0.01},
        "margin": 0.354985425265681,
        "slacks": {
            "T1>T2|must_not_set@p=off,q=on": 0.9346943911279961,
            "T1>T2|must_not_set@p=on,q=off": 0.354985425265681,
            "T1>T2|must_not_set@p=on,q=on": 0.8800903000891669,
            "T1>T2|must_set@p=off,q=off": 0.3549858534102106,
            "T1>T2|p_no_reset@p=off,q=off": 2.6450143974102107,
            "T1>T2|p_no_reset@p=off,q=on": 1.355334152872004,
            "T1>T2|p_no_reset@p=on,q=off": 1.9350431187343191,
            "T1>T2|p_no_reset@p=on,q=on": 1.4099382439108332,
            "T1>T2|p_no_set@p=off,q=off": 0.3549856025897893,
            "T1>T2|p_no_set@p=off,q=on": 1.644665847127996,
            "T1>T2|p_no_set@p=on,q=off": 1.0649568812656809,
            "T1>T2|p_no_set@p=on,q=on": 1.5900617560891668,
        },
        "evaluations": 136161,
    },
    "resistive": {
        "config": {"v_p": -0.62865024,
                   "load": {"kind": "resistive", "g_l": 3.391164991562634e-05, "v_l": -3.8676313776040456},
                   "pulse_s": 0.01},
        "margin": 0.3143250448669681,
        "slacks": {
            "T1>T2|must_not_set@p=off,q=on": 0.7547061568798331,
            "T1>T2|must_not_set@p=on,q=off": 0.3143251307686943,
            "T1>T2|must_not_set@p=on,q=on": 0.7908392408475841,
            "T1>T2|must_set@p=off,q=off": 0.3143251951330319,
            "T1>T2|p_no_reset@p=off,q=off": 2.685674955133032,
            "T1>T2|p_no_reset@p=off,q=on": 1.616643603120167,
            "T1>T2|p_no_reset@p=on,q=off": 2.0570246292313055,
            "T1>T2|p_no_reset@p=on,q=on": 1.580510519152416,
            "T1>T2|p_no_set@p=off,q=off": 0.3143250448669681,
            "T1>T2|p_no_set@p=off,q=on": 1.383356396879833,
            "T1>T2|p_no_set@p=on,q=off": 0.9429753707686943,
            "T1>T2|p_no_set@p=on,q=on": 1.419489480847584,
        },
        "evaluations": 136161,
    },
    "joint": {
        "config": {"v_p": -0.7099714559999999,
                   "load": {"kind": "current_source", "i_l": -7.162778495999995e-05},
                   "pulse_s": 0.01},
        "margin": 0.354985425265681,
        "slacks": {
            "B1>T1|must_not_set@p=off,q=on": 0.9346943911279961,
            "B1>T1|must_not_set@p=on,q=off": 0.354985425265681,
            "B1>T1|must_not_set@p=on,q=on": 0.8800903000891669,
            "B1>T1|must_set@p=off,q=off": 0.3549858534102106,
            "B1>T1|p_no_reset@p=off,q=off": 0.3549856025897893,
            "B1>T1|p_no_reset@p=off,q=on": 1.644665847127996,
            "B1>T1|p_no_reset@p=on,q=off": 1.0649568812656809,
            "B1>T1|p_no_reset@p=on,q=on": 1.5900617560891668,
            "B1>T1|p_no_set@p=off,q=off": 2.6450143974102107,
            "B1>T1|p_no_set@p=off,q=on": 1.355334152872004,
            "B1>T1|p_no_set@p=on,q=off": 1.9350431187343191,
            "B1>T1|p_no_set@p=on,q=on": 1.4099382439108332,
            "T1>B1|must_not_set@p=off,q=on": 0.9346943911279961,
            "T1>B1|must_not_set@p=on,q=off": 0.354985425265681,
            "T1>B1|must_not_set@p=on,q=on": 0.8800903000891669,
            "T1>B1|must_set@p=off,q=off": 0.3549858534102106,
            "T1>B1|p_no_reset@p=off,q=off": 0.3549856025897893,
            "T1>B1|p_no_reset@p=off,q=on": 1.644665847127996,
            "T1>B1|p_no_reset@p=on,q=off": 1.0649568812656809,
            "T1>B1|p_no_reset@p=on,q=on": 1.5900617560891668,
            "T1>B1|p_no_set@p=off,q=off": 2.6450143974102107,
            "T1>B1|p_no_set@p=off,q=on": 1.355334152872004,
            "T1>B1|p_no_set@p=on,q=off": 1.9350431187343191,
            "T1>B1|p_no_set@p=on,q=on": 1.4099382439108332,
        },
        "evaluations": 136161,
    },
}



def _sinh_optimize(case, default_stack, adder_stack, spec):
    specs = {"bottom": spec, "top": spec}
    if case == "current_source":
        return il.optimize(default_stack, "T1", "T2", specs)
    if case == "resistive":
        return il.optimize(default_stack, "T1", "T2", specs, load_kind="resistive",
                           g_l=il.legacy_load(spec.g_on, spec.g_off))
    return il.optimize(adder_stack, "B1", "T1", specs, constraints=[("T1", "B1")])


@pytest.mark.parametrize("case", list(_SINH_OPTIMIZE_JSON))
def test_sinh_optimize_json_exact(default_stack, adder_stack, sinh_spec, case):
    # every float of the result, bit for bit: the stacked grids and the
    # batched evaluate_margin must steer to and report the same numbers
    got = _sinh_optimize(case, default_stack, adder_stack, sinh_spec).to_json()
    assert got == _SINH_OPTIMIZE_JSON[case]


# flipped-row optimizations (rounds=3): a second pair whose bias signs are
# flipped, on distinct bottom and top specs, so the flipped pair has devices
# of its own; sha256 of the sorted to_json, of Infeasible.result where the
# call is infeasible, recorded from grids that solved each flipped row at its
# own negated bias
_FLIPPED_PINS = {
    "default/ohmic-measured/B1:T2,T2:B1/current_source":
        ("infeasible", "1a95e73f6e05fab427991852073a09576fbf63cae2bf38c89b4a1f20694f1d9e"),
    "default/ohmic-measured/B1:T2,T2:B1/resistive":
        ("infeasible", "41a74af327542c2440388b7927284846e370975c2e65040e31501373d551fd35"),
    "default/ohmic-measured/B1:T1,T1:B1/current_source":
        ("infeasible", "16c82e3d03e06fb89b25dfbcd5ce03421b1540a420883d8c2fe76a01e3969ea4"),
    "default/ohmic-measured/B1:T1,T1:B1/resistive":
        ("infeasible", "820e63db5325983004813092147acb93256048afc1d730e9b9108c33f68c375e"),
    "default/sinh-measured/B1:T2,T2:B1/current_source":
        ("infeasible", "f5f0286b55482aa1d404157ff6618be706e575e587daa9cb005c7b5bcb225823"),
    "default/sinh-measured/B1:T2,T2:B1/resistive":
        ("infeasible", "59b77bf901247475a0f0ff82dc4a8f9aac4f0db7432cdd412cf649ed6d397100"),
    "default/sinh-measured/B1:T1,T1:B1/current_source":
        ("infeasible", "2d1d4b527d09e3096556916c5bd53c57146171ef1b62dad8cfe7f07f78cdb95e"),
    "default/sinh-measured/B1:T1,T1:B1/resistive":
        ("infeasible", "bca9fa598ea83660e00bd0ef878b393adb1763cef2129248fbbb8203a322b3ff"),
    "default/ohmic-sharp/B1:T2,T2:B1/current_source":
        ("ok", "29ed66aba72c8a4383fcc07ac47d5848e05cf66c718a15b286ec692f7f8b89bb"),
    "default/ohmic-sharp/B1:T2,T2:B1/resistive":
        ("ok", "a4afdfb00b6dc30502de36b03dace1c15b8289776d813a8cd6ab288b6a1773f9"),
    "default/ohmic-sharp/B1:T1,T1:B1/current_source":
        ("ok", "29841e262c69ac12c67c08f4eb16d98be58e1cef8f314cc21f9875bcbdc94228"),
    "default/ohmic-sharp/B1:T1,T1:B1/resistive":
        ("ok", "218cdaea0abe6f82336637e797906b3178c1737c1e98ac6e89032eded8ccd7ce"),
    "default/sinh-sharp/B1:T2,T2:B1/current_source":
        ("ok", "6160b726c0e21514a7a73cc1a360cf6f10d420dc4959b8107e92de7514496ea9"),
    "default/sinh-sharp/B1:T2,T2:B1/resistive":
        ("ok", "d1f620704f73ddd5b9909152131c5813a59464570b936ea09364904371e0fcea"),
    "default/sinh-sharp/B1:T1,T1:B1/current_source":
        ("ok", "8104f395db83b60b9fd78de0357fcfc52da70d6d8590893a42a28c62c9b58953"),
    "default/sinh-sharp/B1:T1,T1:B1/resistive":
        ("ok", "84b0864007a13fbceddb358306f3f2a905a4fade893c824da8008cbb3736dd60"),
    "adder/ohmic-measured/B1:T2,T2:B1/current_source":
        ("infeasible", "1a95e73f6e05fab427991852073a09576fbf63cae2bf38c89b4a1f20694f1d9e"),
    "adder/ohmic-measured/B1:T2,T2:B1/resistive":
        ("infeasible", "41a74af327542c2440388b7927284846e370975c2e65040e31501373d551fd35"),
    "adder/ohmic-measured/B1:T1,T1:B1/current_source":
        ("infeasible", "16c82e3d03e06fb89b25dfbcd5ce03421b1540a420883d8c2fe76a01e3969ea4"),
    "adder/ohmic-measured/B1:T1,T1:B1/resistive":
        ("infeasible", "820e63db5325983004813092147acb93256048afc1d730e9b9108c33f68c375e"),
    "adder/sinh-measured/B1:T2,T2:B1/current_source":
        ("infeasible", "f5f0286b55482aa1d404157ff6618be706e575e587daa9cb005c7b5bcb225823"),
    "adder/sinh-measured/B1:T2,T2:B1/resistive":
        ("infeasible", "59b77bf901247475a0f0ff82dc4a8f9aac4f0db7432cdd412cf649ed6d397100"),
    "adder/sinh-measured/B1:T1,T1:B1/current_source":
        ("infeasible", "2d1d4b527d09e3096556916c5bd53c57146171ef1b62dad8cfe7f07f78cdb95e"),
    "adder/sinh-measured/B1:T1,T1:B1/resistive":
        ("infeasible", "bca9fa598ea83660e00bd0ef878b393adb1763cef2129248fbbb8203a322b3ff"),
    "adder/ohmic-sharp/B1:T2,T2:B1/current_source":
        ("ok", "29ed66aba72c8a4383fcc07ac47d5848e05cf66c718a15b286ec692f7f8b89bb"),
    "adder/ohmic-sharp/B1:T2,T2:B1/resistive":
        ("ok", "a4afdfb00b6dc30502de36b03dace1c15b8289776d813a8cd6ab288b6a1773f9"),
    "adder/ohmic-sharp/B1:T1,T1:B1/current_source":
        ("ok", "29841e262c69ac12c67c08f4eb16d98be58e1cef8f314cc21f9875bcbdc94228"),
    "adder/ohmic-sharp/B1:T1,T1:B1/resistive":
        ("ok", "218cdaea0abe6f82336637e797906b3178c1737c1e98ac6e89032eded8ccd7ce"),
    "adder/sinh-sharp/B1:T2,T2:B1/current_source":
        ("ok", "6160b726c0e21514a7a73cc1a360cf6f10d420dc4959b8107e92de7514496ea9"),
    "adder/sinh-sharp/B1:T2,T2:B1/resistive":
        ("ok", "d1f620704f73ddd5b9909152131c5813a59464570b936ea09364904371e0fcea"),
    "adder/sinh-sharp/B1:T1,T1:B1/current_source":
        ("ok", "8104f395db83b60b9fd78de0357fcfc52da70d6d8590893a42a28c62c9b58953"),
    "adder/sinh-sharp/B1:T1,T1:B1/resistive":
        ("ok", "84b0864007a13fbceddb358306f3f2a905a4fade893c824da8008cbb3736dd60"),
}


def _flipped_specs(law, window):
    """Distinct bottom and top specs: the measured set ranges, or sharp
    thresholds (1.5 V and 1.4 V) under which the joint optimization is
    feasible; ohmic, or sinh with different slopes per level and state."""
    if window == "measured":
        bottom, top = il.bottom_device_spec(), il.top_device_spec()
    else:
        bottom, top = il.ideal_device_spec(1.5), il.ideal_device_spec(1.4, 125e-6, 5e-6)
    if law == "sinh":
        bottom = dataclasses.replace(bottom, iv_model=il.sinh_iv_from_conductances(
            115e-6, 10e-6, 1.5, 1.5))
        top = dataclasses.replace(top, iv_model=il.sinh_iv_from_conductances(
            125e-6, 5e-6, 2.0, 1.0))
    return {"bottom": bottom, "top": top}


@pytest.mark.parametrize("case", list(_FLIPPED_PINS))
def test_flipped_pair_optimizations_pinned(case):
    # every float of the result and whether it is feasible, bit for bit
    name, kind, pairs, load = case.split("/")
    stack = il.build_default_stack() if name == "default" else il.build_adder_stack()
    (p, q), second = (pair.split(":") for pair in pairs.split(","))
    g_l = il.legacy_load(115e-6, 10e-6) if load == "resistive" else 0.0
    try:
        res, outcome = il.optimize(stack, p, q, _flipped_specs(*kind.split("-")),
                                   load_kind=load, g_l=g_l, constraints=[tuple(second)],
                                   rounds=3), "ok"
    except Infeasible as exc:
        res, outcome = exc.result, "infeasible"
    blob = json.dumps(res.to_json(), sort_keys=True).encode()
    assert (outcome, hashlib.sha256(blob).hexdigest()) == _FLIPPED_PINS[case]


# single-pair ohmic optimizations at the default rounds: seed k's spec from
# _ohmic_pin_case, on T1>T2 for even k and the cross-level B1>T1 for odd k;
# sha256 of the sorted to_json, of Infeasible.result where the call is
# infeasible, recorded before the ohmic grids hoisted their v_p-only terms
_OHMIC_PINS = {
    "0/current_source":
        ("ok", "190e86933ac15991071ed99cffec214b051476ec8df97691cbbb19e16a06aeb6"),
    "0/resistive":
        ("ok", "d0bb7deccb389d11e38701fb58e7a0996e7d7fac8cff56a03fb6969e00aca984"),
    "1/current_source":
        ("ok", "1f52b3175e7d374a9e08e122332bac0307fe11c5e85f1884202f347450c814bd"),
    "1/resistive":
        ("ok", "e8cd19753e8cd499f5dbee39e91b7889edc1ccaa2d5aeec09d3373dabcc09180"),
    "2/current_source":
        ("ok", "d204786cfd66cc470b6af68d9da884e781d98ea63a908637b5f70f6e7bf76f87"),
    "2/resistive":
        ("ok", "64f3f72b0b7de06e3e9ef2679284389a2de2eae237cbf0b12714ba338ed0b268"),
    "3/current_source":
        ("ok", "dd59c500ed32180dcf806ec641d5c80c859c516a5313924a3aaed336a77bc577"),
    "3/resistive":
        ("ok", "69c3eb6e98c024f8ab0ba77d84d92b729d9761c7b67c6cb786987cb75868581b"),
    "4/current_source":
        ("infeasible", "23552c7cdf056287f49b6236cb165b49baa24a32ee6b7c4000c616fbdd42d085"),
    "4/resistive":
        ("infeasible", "e07ae5a3dd3864947ab3c302cb1c699e5b836e8caf99adb15e59e4ed2cc20234"),
    "5/current_source":
        ("ok", "3c8313fce740cb7900ab5fad00e88625dec6304ef7b3e55faffbe85f3bc96462"),
    "5/resistive":
        ("ok", "3e8e218d8bd40ad3d74e8cd0d3bcb1d26929ff15e7e27b5c231ceba8d340d977"),
    "6/current_source":
        ("ok", "60d754ba839ae60445e495105c914e0efb2ca05d33cb6cefa1848bfeb2d91319"),
    "6/resistive":
        ("infeasible", "edaad381ee6512944001f41e1e78f5ce74da2c7305bbb020f9d80a843c9c7bad"),
    "7/current_source":
        ("ok", "399f53038c04981b20cf1f0cc37af1eb4588c8af862293ceb8ec3a87dfbabbc1"),
    "7/resistive":
        ("ok", "c7738aea9670efd0b82994084a82d30511d801d3edb739746b4b6bf676b045a8"),
}


def _ohmic_pin_case(seed):
    """An ohmic spec, the same for both levels, and a resistive g_l near the
    legacy load, drawn from seed ``seed``; wide set windows make some
    optimizations infeasible."""
    rng = np.random.default_rng((2029, seed))
    v_star, half = rng.uniform(1.2, 1.8), rng.uniform(0.0, 0.6)
    g_off = rng.uniform(2e-6, 20e-6)
    spec = il.MemristorSpec(v_set_min=v_star - half, v_set_max=v_star + half,
                            v_reset_min=-1.5, v_reset_max=-2.2,
                            g_on=g_off * rng.uniform(4.0, 25.0), g_off=g_off)
    return spec, il.legacy_load(spec.g_on, spec.g_off) * rng.uniform(0.5, 1.5)


@pytest.mark.parametrize("case", list(_OHMIC_PINS))
def test_ohmic_optimizations_pinned(default_stack, case):
    # every float of the result and whether it is feasible, bit for bit
    seed, load = case.split("/")
    spec, g_l = _ohmic_pin_case(int(seed))
    pair = ("T1", "T2") if int(seed) % 2 == 0 else ("B1", "T1")
    try:
        res, outcome = il.optimize(default_stack, *pair, {"bottom": spec, "top": spec},
                                   load_kind=load,
                                   g_l=g_l if load == "resistive" else 0.0), "ok"
    except Infeasible as exc:
        res, outcome = exc.result, "infeasible"
    blob = json.dumps(res.to_json(), sort_keys=True).encode()
    assert (outcome, hashlib.sha256(blob).hexdigest()) == _OHMIC_PINS[case]


def _per_combination_margin(vp, ll, g_l, pairs):
    """The worst slack over ``pairs`` with one solver call per pair and
    state combination, on each pair's signed bias."""
    margin = np.full(np.broadcast_shapes(vp.shape, ll.shape), np.inf)
    for pair in pairs:
        f_vp, f_ll = pair.flip * vp, pair.flip * ll
        for p_state, q_state in _COMBOS:
            solve = solve_linear if is_ohmic(pair.p_spec, pair.q_spec) else solve_newton
            x = solve(dev.iv_params(pair.p_spec, p_state), f_vp,
                      dev.iv_params(pair.q_spec, q_state), f_ll, g_l)
            for slack in _combination_slacks(p_state, q_state, pair.s_p * (f_vp + x),
                                             pair.s_q * x, pair.p_spec, pair.q_spec):
                np.minimum(margin, slack, out=margin)
    return margin


_ZEROS = st.sampled_from((0.0, -0.0))


@st.composite
def _stacked_grids(draw):
    # signed zero drives and loads, where a node voltage or a drop may be
    # -0.0, are drawn often
    rows, cols = draw(st.integers(1, 9)), draw(st.integers(1, 40))
    values = st.one_of(_ZEROS, st.floats(-3.0, 3.0))
    loads = st.one_of(_ZEROS, st.floats(-7e-4, 7e-4))
    vp = np.array(draw(st.lists(values, min_size=rows, max_size=rows)))
    ll = np.array(draw(st.lists(loads, min_size=cols, max_size=cols)))
    # (rows, 1) x (cols,), (rows, cols) x (rows, cols), or one flat axis
    layout = draw(st.sampled_from(("outer", "full", "flat")))
    if layout == "outer":
        vp, ll = vp[:, None], ll[None, :]
    elif layout == "full":
        vp, ll = np.broadcast_arrays(vp[:, None], ll[None, :])
        vp, ll = vp.copy(), ll.copy()
    else:
        vp = np.resize(vp, cols)
    return vp, ll


_SIGNS = st.sampled_from((-1, 1))


@st.composite
def _stacked_pairs(draw):
    """One pair, or two: a second drawn pair, the first's mirror (the same
    devices under the opposite bias sign, with any drop signs) or the first
    repeated. Two drawn pairs essentially never share a device pair, so only
    the last two reach the rows ``_stack`` shares."""
    pair = st.builds(_Pair, _grid_specs(), _grid_specs(), _SIGNS, _SIGNS,
                     st.sampled_from((-1.0, 1.0)))
    first = draw(pair)
    second = draw(st.sampled_from(("none", "drawn", "mirror", "repeat")))
    if second == "none":
        return [first]
    if second == "drawn":
        return [first, draw(pair)]
    if second == "mirror":
        return [first, dataclasses.replace(first, s_p=draw(_SIGNS), s_q=draw(_SIGNS),
                                           flip=-first.flip)]
    return [first, first]


@settings(max_examples=60, deadline=None)
@given(grid=_stacked_grids(), pairs=_stacked_pairs(),
       g_l=st.one_of(st.just(0.0), st.floats(1e-6, 1e-3)))
def test_stacked_grid_equals_per_combination_solves(grid, pairs, g_l):
    # all pairs' state combinations in one solver call per kind of I-V law
    # give the bits of one solve_newton or solve_linear call per combination,
    # and P's extreme drops taken as v_p plus the extreme x give the bits of
    # the extremes of its drops; bytes, so that -0.0 differs from 0.0
    vp, ll = grid
    _assert_same_bits(_margin(vp, ll, g_l, _stack(pairs)),
                      _per_combination_margin(vp, ll, g_l, pairs))
    # and every row of a stack, with its terms that depend on v_p alone
    # built once, takes the bits of its own solve_linear or solve_newton
    stacks = _stack(pairs)
    shape = np.broadcast_shapes(vp.shape, ll.shape)
    for (ohmic, p_iv, q_iv, _), (solve, _) in zip(stacks,
                                                 _stack_solves(vp, shape, g_l, stacks)):
        x = solve(ll)
        for row in range(len(x)):
            p_row, q_row = (tuple(col[row] if np.ndim(col) else col for col in iv)
                            for iv in (p_iv, q_iv))
            _assert_same_bits(x[row], (solve_linear if ohmic else solve_newton)(
                p_row, vp, q_row, ll, g_l))


def _assert_same_bits(got, want):
    assert (got.shape, got.dtype) == (want.shape, want.dtype)
    assert got.tobytes() == want.tobytes()


def test_stacked_grid_with_one_law_for_both_states():
    # ON and OFF may share one sinh law within the 1% slope tolerance, so
    # every row of the stack has the same parameters
    iv = il.SinhIV(a_on=10.02e-6 / 1.5, b_on=1.5, a_off=10.02e-6 / 1.5, b_off=1.5)
    spec = il.MemristorSpec(v_set_min=0.5, v_set_max=0.7, v_reset_min=-1.5,
                            v_reset_max=-2.2, g_on=10.1e-6, g_off=10e-6, iv_model=iv)
    vp = np.linspace(-2.0, 2.0, 5)[:, None]
    ll = np.linspace(-3e-5, 3e-5, 7)[None, :]
    pairs = [_Pair(spec, spec, 1, 1)]
    np.testing.assert_array_equal(_margin(vp, ll, 0.0, _stack(pairs)),
                                  _per_combination_margin(vp, ll, 0.0, pairs))


def _spec_with_b(b):
    """115/10 uS with a 1.1-1.9 V set window: ohmic, or sinh with b_on = b_off = b."""
    iv = il.LinearIV() if b is None else il.sinh_iv_from_conductances(115e-6, 10e-6, b, b)
    return il.MemristorSpec(v_set_min=1.1, v_set_max=1.9, v_reset_min=-1.5,
                            v_reset_max=-2.2, g_on=115e-6, g_off=10e-6, iv_model=iv)


_MIRROR_GRID = (np.linspace(-3.0, 3.0, 13)[:, None], np.linspace(-7e-4, 7e-4, 11)[None, :])


# b = 80 overflows sinh on both ends of the 10 V Newton bracket
@pytest.mark.parametrize("b", [None, 1.5, 80.0], ids=["ohmic", "sinh", "steep"])
@pytest.mark.parametrize("g_l", [0.0, 3.4e-5])
@pytest.mark.parametrize("second,sign", [(("T1", "B1"), -1.0), (("B1", "T1"), 1.0)],
                         ids=["mirror", "repeat"])
def test_joint_pair_rows_are_solved_once(adder_stack, b, g_l, second, sign):
    # B1:T1 jointly with T1:B1, as optimize builds them, has the first pair's
    # devices under the opposite bias sign, and B1:T1 repeated under the
    # same: the stack holds four rows, and the second pair reads them
    # negated or as they are
    specs = {"bottom": _spec_with_b(b), "top": _spec_with_b(b)}
    first = _pair_info(adder_stack, specs, ("B1", "T1"))
    pairs = [first, _pair_info(adder_stack, specs, second, first.s_q)]
    (stack,) = _stack(pairs)
    _, p_iv, q_iv, reads = stack
    assert max(np.size(col) for col in (*p_iv, *q_iv)) == 4
    assert [(at, pair.flip) for at, pair in reads] == [(slice(0, 4), 1.0),
                                                       (slice(0, 4), sign)]
    np.testing.assert_array_equal(_margin(*_MIRROR_GRID, g_l, [stack]),
                                  _per_combination_margin(*_MIRROR_GRID, g_l, pairs))


def test_pair_reads_shared_rows_with_both_signs():
    # P has one law for both states, so only Q tells rows apart. The third
    # pair's Q is OFF like the first pair's and ON like the second's, so it
    # reads rows of both; every row is solved at the first pair's bias, and
    # the third pair reads them all negated, by its own flip, the second's
    # rows included
    one_law = il.SinhIV(a_on=10.02e-6 / 1.5, b_on=1.5, a_off=10.02e-6 / 1.5, b_off=1.5)
    p_spec = il.MemristorSpec(v_set_min=0.5, v_set_max=0.7, v_reset_min=-1.5,
                              v_reset_max=-2.2, g_on=10.1e-6, g_off=10e-6, iv_model=one_law)
    t_iv = il.sinh_iv_from_conductances(115e-6, 10e-6, 1.5, 2.0)
    u_iv = il.sinh_iv_from_conductances(115e-6, 10e-6, 3.0, 2.5)
    v_iv = il.SinhIV(a_on=u_iv.a_on, b_on=u_iv.b_on, a_off=t_iv.a_off, b_off=t_iv.b_off)
    t, u, v = (dataclasses.replace(_spec_with_b(1.5), iv_model=iv) for iv in (t_iv, u_iv, v_iv))
    pairs = [_Pair(p_spec, t, 1, 1), _Pair(p_spec, u, -1, 1, -1.0), _Pair(p_spec, v, 1, -1, -1.0)]
    (stack,) = _stack(pairs)
    at, pair = stack[3][2]
    np.testing.assert_array_equal(at, [0, 3, 0, 3])
    assert pair.flip == -1.0
    np.testing.assert_array_equal(_margin(*_MIRROR_GRID, 0.0, [stack]),
                                  _per_combination_margin(*_MIRROR_GRID, 0.0, pairs))


# at b = 1000, P's and Q's currents overflow to opposite infinities within
# the grid's drops, where the balance is NaN and the solvers are not odd in
# the bias
@pytest.mark.parametrize("b", [1.5, 80.0, 1000.0])
@pytest.mark.parametrize("g_l", [0.0, 3.4e-5])
@pytest.mark.parametrize("top", ["same", "distinct"], ids=["mirror", "distinct"])
def test_joint_grid_is_the_min_of_each_pairs_own_grid(adder_stack, b, g_l, top):
    # B1:T1 jointly with the flipped T1:B1, on one device spec (a mirror
    # pair, whose rows the stack shares) or on distinct bottom and top specs
    # (eight rows): a pair's grid does not depend on what it is stacked with
    bottom = _spec_with_b(b)
    specs = {"bottom": bottom, "top": bottom if top == "same" else il.top_device_spec(
        il.sinh_iv_from_conductances(125e-6, 5e-6, b, b))}
    first = _pair_info(adder_stack, specs, ("B1", "T1"))
    pairs = [first, _pair_info(adder_stack, specs, ("T1", "B1"), first.s_q)]
    assert pairs[1].flip == -1.0
    np.testing.assert_array_equal(
        _margin(*_MIRROR_GRID, g_l, _stack(pairs)),
        np.minimum(*(_margin(*_MIRROR_GRID, g_l, _stack([pair])) for pair in pairs)))


def _end_root_loads(spec, v_p):
    """The current sources under which two OFF devices balance to exactly
    0.0 at the low and at the high end of the Newton bracket."""
    return [float(-(dev.current(spec, dev.OFF, v_p + end) + dev.current(spec, dev.OFF, end)))
            for end in (-BRACKET, BRACKET)]


@settings(max_examples=100, deadline=None)
@given(p_spec=_grid_specs(), q_spec=_grid_specs(), states=st.sampled_from(_COMBOS),
       vp=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=6),
       ll=st.lists(st.floats(-7e-4, 7e-4), min_size=1, max_size=6),
       g_l=st.one_of(st.just(0.0), st.floats(1e-6, 1e-3)))
@example(p_spec=_spec_with_b(None), q_spec=_spec_with_b(None), states=_COMBOS[0],
         vp=[0.5], ll=_end_root_loads(_spec_with_b(None), 0.5), g_l=0.0)
@example(p_spec=_spec_with_b(0.5), q_spec=_spec_with_b(0.5), states=_COMBOS[0],
         vp=[0.5], ll=_end_root_loads(_spec_with_b(0.5), 0.5), g_l=0.0)
def test_node_solvers_are_odd_in_the_bias(p_spec, q_spec, states, vp, ll, g_l):
    # _stack reads a device pair at the opposite bias sign as the negated
    # node voltage; this holds bit for bit only while numpy's sinh is odd
    # and its cosh even, and the solvers' tests are mirror-symmetric
    vp, ll = np.array(vp)[:, None], np.array(ll)[None, :]
    p_iv, q_iv = dev.iv_params(p_spec, states[0]), dev.iv_params(q_spec, states[1])
    solvers = [solve_newton] + ([solve_linear] if is_ohmic(p_spec, q_spec) else [])
    for solve in solvers:
        np.testing.assert_array_equal(solve(p_iv, -vp, q_iv, -ll, g_l),
                                      -solve(p_iv, vp, q_iv, ll, g_l))


def _no_grid(*args):
    raise AssertionError("a margin grid ran")


@pytest.mark.parametrize("constraint", [("B1",), "B1T2", "B1", ("B1", "T2", "T1"),
                                        ("B1", 2), None])
def test_optimize_rejects_constraints_that_are_not_pairs(default_stack, bottom_spec,
                                                         constraint, monkeypatch):
    # these used to raise "not enough/too many values to unpack", a
    # TypeError, or a NotAdjacent naming one character of a string
    monkeypatch.setattr(optimizer, "_stacked_margin", _no_grid)
    with pytest.raises(ValueError, match=re.escape(f"constraint {constraint!r} is not")):
        il.optimize(default_stack, "T1", "T2", _specs_for(default_stack, bottom_spec),
                    constraints=[constraint])


def test_optimize_rejects_specs_without_a_paired_cells_ref(default_stack, bottom_spec,
                                                            monkeypatch):
    # this used to raise a bare KeyError: 'top'
    monkeypatch.setattr(optimizer, "_stacked_margin", _no_grid)
    with pytest.raises(ValueError, match="specs lack 'top', the spec of cell 'T1'"):
        il.optimize(default_stack, "T1", "T2", {"bottom": bottom_spec})
    with pytest.raises(ValueError, match="specs lack 'bottom', the spec of cell 'B1'"):
        il.optimize(default_stack, "T1", "T2", {"top": bottom_spec},
                    constraints=[("B1", "T2")])
    # only the paired cells' specs are needed
    monkeypatch.undo()
    il.optimize(default_stack, "T1", "T2", {"top": bottom_spec},
                constraints=[["T1", "T2"]])


@settings(max_examples=60, deadline=None)
@given(spec=_grid_specs(), v_p=st.floats(-3.0, 3.0), ll=st.floats(-7e-4, 7e-4),
       g_l=st.one_of(st.just(0.0), st.floats(1e-6, 1e-3)),
       pair=st.sampled_from((("T1", "T2"), ("B1", "T1"), ("T1", "B1"))))
def test_evaluate_margin_equals_pointwise_solves(spec, v_p, ll, g_l, pair):
    # the four combinations solved together give the slacks of four
    # solve_pair calls, bit for bit, and raise where one of those raises
    stack = il.build_default_stack()
    load = (il.ResistiveLoad(g_l=g_l, v_l=ll / g_l) if g_l > 0.0
            else il.CurrentSourceLoad(i_l=ll))
    cfg = il.ImpConfig(v_p=v_p, load=load)
    s_p, s_q = stack.step_signs(*pair)
    want = []
    try:
        for p_state, q_state in _COMBOS:
            sol = solve_pair(spec, p_state, spec, q_state, cfg, s_p, s_q)
            want += _combination_slacks(p_state, q_state, sol.drop_p, sol.drop_q,
                                        spec, spec)
    except il.NoConvergence as exc:
        with pytest.raises(il.NoConvergence, match=re.escape(str(exc))):
            il.evaluate_margin(stack, *pair, cfg, spec, spec)
        return
    assert list(il.evaluate_margin(stack, *pair, cfg, spec, spec).values()) == want


def _steep_spec(b_on, b_off):
    """``_spec_with_b``'s conductances and window with b_on and b_off of
    their own, or ohmic where b_on is None."""
    spec = _spec_with_b(None)
    if b_on is None:
        return spec
    return dataclasses.replace(spec, iv_model=il.sinh_iv_from_conductances(
        115e-6, 10e-6, b_on, b_off))


def test_optimize_rejects_an_unsolvable_device_before_any_grid(default_stack,
                                                               monkeypatch):
    # this used to run all 81 grids, 3.2 s, and then raise from evaluate_margin
    monkeypatch.setattr(optimizer, "_stacked_margin", _no_grid)
    specs = _specs_for(default_stack, _steep_spec(1000.0, 1000.0))
    took = []
    for _ in range(3):
        start = time.perf_counter()
        with pytest.raises(il.NoConvergence, match=re.escape(
                "I-V of device P (OFF) of pair T1>T2 overflows at a drop of -10 V, "
                "an end of the Newton bracket, so no bias can solve the pair")):
            il.optimize(default_stack, "T1", "T2", specs)
        took.append(time.perf_counter() - start)
    assert min(took) < 0.01
    # a constraint's devices are checked too, and only Q's ON state overflows
    specs["top"] = _steep_spec(1000.0, 1.5)
    specs["bottom"] = _steep_spec(1.5, 1.5)
    with pytest.raises(il.NoConvergence, match=re.escape(
            "I-V of device Q (ON) of pair B1>T2 overflows at a drop of -10 V")):
        il.optimize(default_stack, "B2", "B1", specs, constraints=[("B1", "T2")])


# sinh(10 b) overflows from b = 71.05 on: b = 71.0 still solves at +-10 V
@pytest.mark.parametrize("b_on, b_off", [
    (None, None), (1.5, 1.5), (71.0, 71.0), (71.06, 71.06), (72.0, 72.0),
    (100.0, 100.0), (1000.0, 1000.0), (1000.0, 1.5), (1.5, 1000.0)])
@pytest.mark.parametrize("pair", [("T1", "T2"), ("B1", "T1"), ("T1", "B1")])
@pytest.mark.parametrize("top", ["same", "ohmic"])
def test_unsolvable_pairs_fail_evaluate_margin_at_every_bias(b_on, b_off, pair, top):
    # where the up-front check raises, evaluate_margin raises at every
    # sampled bias, and with the same exception type
    stack = il.build_default_stack()
    spec = _steep_spec(b_on, b_off)
    specs = {"bottom": spec, "top": spec if top == "same" else _steep_spec(None, None)}
    pairs = [_pair_info(stack, specs, pair)]
    try:
        optimizer._reject_unsolvable([pair], pairs)
    except il.NoConvergence:
        rejected = True
    else:
        rejected = False
    steep = b_on is not None and max(b_on, b_off) > 71.05
    assert rejected == (steep and spec in (pairs[0].p_spec, pairs[0].q_spec))
    if not rejected:
        return
    for v_p in np.linspace(-4.0, 4.0, 9):
        for load in (il.CurrentSourceLoad(i_l=float(v_p) * 1e-4),
                     il.CurrentSourceLoad(i_l=-3e-4), il.ResistiveLoad(g_l=3.4e-5, v_l=2.0)):
            with pytest.raises(il.NoConvergence):
                il.evaluate_margin(stack, *pair, il.ImpConfig(v_p=float(v_p), load=load),
                                   pairs[0].p_spec, pairs[0].q_spec)
