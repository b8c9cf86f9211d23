import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import implogic as il
from implogic import device as dev
from implogic.optimizer import _COMBOS, Infeasible, _margin_grid, _slacks
from implogic.solver import BRACKET, solve_grid


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


def _grid_cases(sinh_spec, ohmic_spec):
    """(spec, closed form?) inputs of the grid-vs-point-evaluator checks:
    sinh devices through the array Newton, ohmic ones through both branches."""
    return ((sinh_spec, False), (ohmic_spec, True), (ohmic_spec, False))


def test_nonlinear_grid_matches_scalar_solver(default_stack, sinh_spec,
                                              bottom_spec):
    # the vectorized grid must agree with the Newton-based point evaluator
    # it steers for
    from implogic.optimizer import _margin_grid
    vp = np.linspace(-1.5, 0.5, 7)[:, None]
    ll = np.linspace(-1e-4, 2e-5, 5)[None, :]
    for spec, closed in _grid_cases(sinh_spec, bottom_spec):
        grid = _margin_grid(vp, ll, 0.0, spec, spec, 1, 1, closed)
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
    from implogic.optimizer import _margin_grid
    g_l = 3e-5
    vp = np.linspace(-1.2, 0.2, 5)[:, None]
    ll = np.linspace(-1.2e-4, 0.0, 5)[None, :]
    for spec, closed in _grid_cases(sinh_spec, bottom_spec):
        grid = _margin_grid(vp, ll, g_l, spec, spec, 1, 1, closed)
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


def _bisection_node(p_spec, p_state, vp, q_spec, q_state, ll, g_l):
    """Reference node solve for ``solve_grid``: 60 bisections of the
    monotone balance over the whole grid (f > 0 moves the upper end, so a
    NaN f counts as f <= 0, and a point without a root in the bracket ends
    at the bracket end its root lies beyond)."""
    shape = np.broadcast_shapes(vp.shape, ll.shape)
    lo = np.full(shape, -BRACKET)
    hi = np.full(shape, BRACKET)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(60):  # halves a 20 V bracket to ~2e-17 V
            mid = 0.5 * (lo + hi)
            f = (dev.current(p_spec, p_state, vp + mid)
                 + dev.current(q_spec, q_state, mid) + ll + g_l * mid)
            above = f > 0.0
            hi = np.where(above, mid, hi)
            lo = np.where(above, lo, mid)
    return 0.5 * (lo + hi)


def _bisection_margin_grid(vp, ll, g_l, p_spec, q_spec, s_p, s_q):
    """``_margin_grid(..., closed=False)`` on the bisection node solve."""
    margin = np.full(np.broadcast_shapes(vp.shape, ll.shape), np.inf)
    for p_state, q_state in _COMBOS:
        x = _bisection_node(p_spec, p_state, vp, q_spec, q_state, ll, g_l)
        for slack in _slacks(p_state.logic, q_state.logic, s_p * (vp + x),
                             s_q * x, p_spec, q_spec):
            np.minimum(margin, slack, out=margin)
    return margin


def _assert_grid_matches_bisection(vp, ll, g_l, p_spec, q_spec, s_p=1, s_q=1):
    for p_state, q_state in _COMBOS:
        np.testing.assert_allclose(
            solve_grid(p_spec, p_state, vp, q_spec, q_state, ll, g_l),
            _bisection_node(p_spec, p_state, vp, q_spec, q_state, ll, g_l),
            rtol=0.0, atol=1e-9)
    np.testing.assert_allclose(
        _margin_grid(vp, ll, g_l, p_spec, q_spec, s_p, s_q, closed=False),
        _bisection_margin_grid(vp, ll, g_l, p_spec, q_spec, s_p, s_q),
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
    x = solve_grid(bottom_spec, dev.OFF, vp, bottom_spec, dev.OFF, ll, 0.0)
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
        x = solve_grid(spec, dev.ON, vp, spec, dev.OFF, ll, 0.0)
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
    x = solve_grid(spec, dev.OFF, vp, spec, dev.OFF, ll, 0.0)
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
