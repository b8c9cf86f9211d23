import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import implogic as il
from implogic import device as dev
from implogic.optimizer import (_COMBOS, Infeasible, _Pair, _slacks, _stack,
                                _stacked_margin)
from implogic.solver import BRACKET, is_ohmic, solve_linear, solve_newton, solve_pair


def _specs_for(default_stack, spec):
    return {ref: spec for ref in {c.spec_ref for c in default_stack.cells.values()}}


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
        grid = _stacked_margin(vp, ll, 0.0, _stack([_Pair(spec, spec, 1, 1)]))
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
        grid = _stacked_margin(vp, ll, g_l, _stack([_Pair(spec, spec, 1, 1)]))
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
        for slack in _slacks(p_state.logic, q_state.logic, s_p * (vp + x),
                             s_q * x, p_spec, q_spec):
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
        _stacked_margin(vp, ll, g_l, _stack([_Pair(p_spec, q_spec, s_p, s_q)])),
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
            for slack in _slacks(p_state.logic, q_state.logic, pair.s_p * (f_vp + x),
                                 pair.s_q * x, pair.p_spec, pair.q_spec):
                np.minimum(margin, slack, out=margin)
    return margin


@st.composite
def _stacked_grids(draw):
    rows, cols = draw(st.integers(1, 9)), draw(st.integers(1, 40))
    values = st.floats(-3.0, 3.0)
    vp = np.array(draw(st.lists(values, min_size=rows, max_size=rows)))
    ll = np.array(draw(st.lists(st.floats(-7e-4, 7e-4), min_size=cols, max_size=cols)))
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


@settings(max_examples=60, deadline=None)
@given(grid=_stacked_grids(),
       pairs=st.lists(st.builds(_Pair, _grid_specs(), _grid_specs(),
                                st.sampled_from((-1, 1)), st.sampled_from((-1, 1)),
                                st.sampled_from((-1.0, 1.0))), min_size=1, max_size=2),
       g_l=st.one_of(st.just(0.0), st.floats(1e-6, 1e-3)))
def test_stacked_grid_equals_per_combination_solves(grid, pairs, g_l):
    # all pairs' state combinations in one solver call per kind of I-V law
    # give the bits of one solve_newton or solve_linear call per combination
    vp, ll = grid
    np.testing.assert_array_equal(_stacked_margin(vp, ll, g_l, _stack(pairs)),
                                  _per_combination_margin(vp, ll, g_l, pairs))
    pair = pairs[0]
    if not is_ohmic(pair.p_spec, pair.q_spec):
        p_iv, q_iv = ([np.array(col)[:, None, None] for col in zip(
            *(dev.iv_params(spec, combo[k]) for combo in _COMBOS))]
            for k, spec in ((0, pair.p_spec), (1, pair.q_spec)))
        x = solve_newton(p_iv, np.atleast_2d(vp), q_iv, np.atleast_2d(ll), g_l)
        for row, (p_state, q_state) in enumerate(_COMBOS):
            np.testing.assert_array_equal(x[row], solve_newton(
                dev.iv_params(pair.p_spec, p_state), np.atleast_2d(vp),
                dev.iv_params(pair.q_spec, q_state), np.atleast_2d(ll), g_l))


def test_stacked_grid_with_one_law_for_both_states():
    # ON and OFF may share one sinh law within the 1% slope tolerance, so
    # every row of the stack has the same parameters
    iv = il.SinhIV(a_on=10.02e-6 / 1.5, b_on=1.5, a_off=10.02e-6 / 1.5, b_off=1.5)
    spec = il.MemristorSpec(v_set_min=0.5, v_set_max=0.7, v_reset_min=-1.5,
                            v_reset_max=-2.2, g_on=10.1e-6, g_off=10e-6, iv_model=iv)
    vp = np.linspace(-2.0, 2.0, 5)[:, None]
    ll = np.linspace(-3e-5, 3e-5, 7)[None, :]
    pairs = [_Pair(spec, spec, 1, 1)]
    np.testing.assert_array_equal(_stacked_margin(vp, ll, 0.0, _stack(pairs)),
                                  _per_combination_margin(vp, ll, 0.0, pairs))


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
            want += _slacks(p_state.logic, q_state.logic, sol.drop_p, sol.drop_q,
                            spec, spec)
    except il.NoConvergence as exc:
        with pytest.raises(il.NoConvergence, match=re.escape(str(exc))):
            il.evaluate_margin(stack, *pair, cfg, spec, spec)
        return
    assert list(il.evaluate_margin(stack, *pair, cfg, spec, spec).values()) == want
