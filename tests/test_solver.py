import itertools
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

import implogic as il
from implogic.device import PARTIAL_RESET_FACTOR, DeviceState, Logic, iv_params
from implogic import program as program_module
from implogic import solver as solver_module
from implogic.solver import (MAX_CODE, TOL_CURRENT, EventKind, NodeSolution, _balance,
                             _load_terms, _pair_drops, settle, solve_newton, solve_pair,
                             solve_pairs, state_of)

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


# ON after 2061 partial resets: g_on = 2e-5 S times 5.6e-320 underflows to 0.0
_NO_CONDUCTANCE = 2062


@pytest.mark.parametrize("i_l", [0.0, 1e-5, -1e-5], ids=["0/0", "+inf", "-inf"])
def test_ohmic_node_without_conductance_floats(default_stack, i_l):
    spec = il.MemristorSpec(1.0, 2.0, -1.5, -2.2, g_on=2e-5, g_off=5e-6)
    on = state_of(_NO_CONDUCTANCE)
    assert iv_params(spec, on) == (0.0,)
    cfg = il.ImpConfig(v_p=0.0, load=il.CurrentSourceLoad(i_l))
    with pytest.raises(il.NoConvergence, match="node floats: no conductance to the node"):
        solve_pair(spec, on, spec, on, cfg, *default_stack.step_signs("T1", "T2"))


def test_sinh_node_without_conductance_floats(sinh_spec, default_stack):
    # a*b underflows to 0.0, so the balance is constant; Newton took the bracket end
    on = state_of(MAX_CODE)
    assert iv_params(sinh_spec, on)[2] == 0.0
    cfg = il.ImpConfig(v_p=0.0, load=il.CurrentSourceLoad(0.0))
    with pytest.raises(il.NoConvergence, match="node floats: no conductance to the node"):
        solve_pair(sinh_spec, on, sinh_spec, on, cfg, *default_stack.step_signs("T1", "T2"))


def test_ohmic_root_beyond_the_float_range_floats():
    # P and Q ON far down the partial-reset chain (scales 7.9e-309 and
    # 3.9e-309): the closed form divides 1e-4 A by 4.9e-313 S, which used to
    # return v_c = -inf with an overflow warning
    spec = il.MemristorSpec(1.0, 2.0, -1.5, -2.2, g_on=4.2e-5, g_off=1e-5)
    cfg = il.ImpConfig(v_p=0.0, load=il.CurrentSourceLoad(1e-4))
    with pytest.raises(il.NoConvergence, match=re.escape(
            "node floats: the closed-form root is -inf V")):
        solve_pair(spec, state_of(1990), spec, state_of(1992), cfg)


@st.composite
def _any_spec(draw):
    g_off, ratio = draw(st.floats(5e-6, 20e-6)), draw(st.floats(3.0, 20.0))
    iv = il.LinearIV()
    if draw(st.booleans()):
        b_on, b_off = (draw(st.sampled_from([0.5, 1.5, 3.0, 20.0, 80.0])) for _ in range(2))
        iv = il.sinh_iv_from_conductances(g_off * ratio, g_off, b_on, b_off)
    return il.MemristorSpec(1.0, 2.0, -1.5, -2.2, g_off * ratio, g_off, iv_model=iv)


# OFF, ON after a few partial resets, subnormal scales, or any code
_ANY_CODE = st.one_of(st.integers(0, 4), st.integers(1975, 2005), st.integers(0, MAX_CODE))


@settings(max_examples=300, deadline=None)
@given(p_spec=_any_spec(), q_spec=st.none() | _any_spec(), p_code=_ANY_CODE,
       q_code=_ANY_CODE, v_p=st.floats(-5.0, 5.0), drive=st.floats(-4.0, 4.0),
       g_l=st.just(0.0) | st.floats(1e-6, 2e-4))
def test_solve_pair_is_finite_or_raises(p_spec, q_spec, p_code, q_code, v_p, drive, g_l):
    # every node solve returns finite voltages and residual, or raises
    # NoConvergence, and never warns
    load = il.ResistiveLoad(g_l, drive) if g_l else il.CurrentSourceLoad(drive * 1e-4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            sol = solve_pair(p_spec, state_of(p_code), q_spec or p_spec, state_of(q_code),
                             il.ImpConfig(v_p, load))
        except il.NoConvergence:
            return
    assert all(map(math.isfinite, (sol.v_c, sol.drop_p, sol.drop_q, sol.residual)))


# a sinh spec whose currents stay small on the whole bracket
_GENTLE = il.bottom_device_spec(il.sinh_iv_from_conductances(115e-6, 10e-6, 0.5, 0.5))


def _end_root_load(spec, p_state, v_p, q_state, end):
    """The current source under which the balance is exactly 0.0 at ``end``."""
    return float(-(il.current(spec, p_state, v_p + end) + il.current(spec, q_state, end)))


@pytest.mark.parametrize("spec", [il.bottom_device_spec(), _GENTLE], ids=["ohmic", "sinh"])
@pytest.mark.parametrize("end", [-10.0, 10.0])
def test_root_at_either_bracket_end_is_taken_alike(spec, end):
    # a balance of exactly 0.0 at an end has its root there, at both ends:
    # Newton takes the end without iterating, mirrors it at the opposite
    # bias, and solve_pair reports it with 0 iterations (it used to report
    # MAX_ITERATIONS at +10 V and bisect towards -10 V)
    on = DeviceState(Logic.ON)
    i_l = _end_root_load(spec, on, 0.5, OFF, end)
    p_iv, q_iv = iv_params(spec, on), iv_params(spec, OFF)
    count = np.full(2, -1)
    x = solve_newton(p_iv, np.array([0.5, -0.5]), q_iv, np.array([i_l, -i_l]), 0.0, count)
    assert x.tolist() == [end, -end] and count.tolist() == [0, 0]
    if spec is _GENTLE:  # an ohmic pair takes the closed form
        sol = solve_pair(spec, on, spec, OFF, il.ImpConfig(0.5, il.CurrentSourceLoad(i_l)))
        assert (sol.v_c, sol.residual, sol.iterations) == (end, 0.0, 0)


# ON overflows sinh beyond 8.9 V, OFF does not within the bracket
_OVERFLOWING = il.MemristorSpec(1.0, 2.0, -1.5, -2.2, 115e-6, 10e-6, iv_model=il.SinhIV(
    a_on=115e-6 / 80.0, b_on=80.0, a_off=10e-6 / 1.5, b_off=1.5))
_ON, _NONE = DeviceState(Logic.ON), state_of(MAX_CODE)  # a*b of MAX_CODE is 0.0


def _bracket_end_error(states, v_p, i_l):
    with pytest.raises(il.NoConvergence) as exc:
        solve_pairs(_OVERFLOWING, _OVERFLOWING, states,
                    il.ImpConfig(v_p, il.CurrentSourceLoad(i_l)))
    return str(exc.value)


@pytest.mark.parametrize("states,v_p,i_l,message", [
    ([(_ON, OFF)], 0.0, 0.0, "I-V of device P (ON) overflows at the -10 V end of the "
                             "Newton bracket (drop -10 V)"),
    ([(OFF, _ON)], 0.0, 0.0, "I-V of device Q (ON) overflows at the -10 V end of the "
                             "Newton bracket (drop -10 V)"),
    ([(_ON, OFF)], 9.0, 0.0, "I-V of device P (ON) overflows at the +10 V end of the "
                             "Newton bracket (drop +19 V)"),
    ([(OFF, OFF)], 0.0, -100.0, "no current-balance root in [-10.0, 10.0] V "
                                "(f(-10.0)=-122, f(10.0)=-78.2)"),
    ([(OFF, OFF)], 0.0, 100.0, "no current-balance root in [-10.0, 10.0] V "
                               "(f(-10.0)=78.2, f(10.0)=122)"),
], ids=["P low end", "Q low end", "P high end", "root above", "root below"])
def test_bracket_end_messages(states, v_p, i_l, message):
    assert _bracket_end_error(states, v_p, i_l) == message


@pytest.mark.parametrize("states,v_p,i_l,message", [
    # the first pair rejected up front wins, whatever its check
    ([(OFF, OFF), (_ON, OFF)], 0.0, 0.0, "I-V of device P (ON) overflows at the -10 V"),
    ([(_ON, OFF), (_NONE, _NONE)], 9.0, 0.0, "I-V of device P (ON) overflows at the +10 V"),
    ([(_NONE, _NONE), (_ON, OFF)], 9.0, 0.0, "node floats: no conductance to the node"),
    ([(OFF, OFF), (OFF, OFF)], 0.0, -100.0, "no current-balance root"),
    # within a pair, a floating node comes before an overflow
    ([(_NONE, _NONE)], 0.0, 0.0, "node floats: no conductance to the node"),
], ids=["later overflow", "earlier overflow", "earlier floats", "no root", "floats first"])
def test_up_front_errors_take_the_first_rejected_pair(states, v_p, i_l, message):
    assert _bracket_end_error(states, v_p, i_l).startswith(message)


def _never_converges(p_iv, vp, q_iv, ll, g_l, iterations=None):
    """A Newton whose every point is still open at x = 0."""
    return np.zeros(np.shape(vp))


def test_residual_error_comes_after_every_up_front_error(monkeypatch):
    monkeypatch.setattr(solver_module, "solve_newton", _never_converges)
    assert _bracket_end_error([(OFF, OFF)], 1.0, 0.0) == (
        "residual 1.42e-05 A after 100 iterations")
    # a later pair's up-front error is raised before the earlier one's residual
    assert _bracket_end_error([(OFF, OFF), (_ON, OFF)], 1.0, 0.0) == (
        "I-V of device P (ON) overflows at the -10 V end of the Newton bracket (drop -9 V)")
    assert _bracket_end_error([(OFF, OFF), (OFF, _ON)], 1.0, 1e3) == (
        "no current-balance root in [-10.0, 10.0] V (f(-10.0)=987, f(10.0)=1.06e+03)")


def test_solve_pairs_sums_the_bracket_ends_from_the_overflow_test():
    # the no-root message shows _balance's values at the bracket ends, with
    # a load conductance too
    load = il.ResistiveLoad(g_l=2e-5, v_l=5e3)  # 0.1 A into the node: no root
    g_l, ll = _load_terms(load)
    f_lo, f_hi = _balance(np.array([-10.0, 10.0]), iv_params(_GENTLE, _ON), 0.3,
                          iv_params(_GENTLE, OFF), ll, g_l, slope=False)
    with pytest.raises(il.NoConvergence) as exc:
        solve_pairs(_GENTLE, _GENTLE, [(_ON, OFF), (OFF, OFF)], il.ImpConfig(0.3, load))
    assert str(exc.value) == (f"no current-balance root in [-10.0, 10.0] V "
                              f"(f(-10.0)={f_lo:.3g}, f(10.0)={f_hi:.3g})")


_IV_LAWS = st.one_of(
    st.tuples(st.floats(0.0, 1e-3)),  # ohmic: (g,)
    st.tuples(st.floats(0.0, 1e-4), st.floats(0.1, 100.0)).map(
        lambda ab: (ab[0], ab[1], ab[0] * ab[1])))  # sinh: (a, b, a*b)
_SIGNED = st.one_of(st.sampled_from((0.0, -0.0)), st.floats(-12.0, 12.0))


@settings(max_examples=100, deadline=None)
@given(p_laws=st.lists(_IV_LAWS, min_size=1, max_size=3),
       q_laws=st.lists(_IV_LAWS, min_size=1, max_size=3),
       x=st.lists(_SIGNED, min_size=1, max_size=6), vp=_SIGNED,
       ll=st.one_of(st.sampled_from((0.0, -0.0)), st.floats(-1e-3, 1e-3)),
       g_l=st.one_of(st.just(0.0), st.floats(1e-6, 1e-3)))
def test_balance_into_buffers_has_the_bits_of_balance(p_laws, q_laws, x, vp, ll, g_l):
    # _balance into the Newton loop's four buffers, over per-point parameter
    # arrays of one law per device (or one float each), is _balance without
    # them bit for bit, signed zeros and overflowing sinh included, and each
    # point is the sum i_p + i_q + ll (+ g_l * x) in that order, at floats
    n = len(x)
    p_law = [law for law in p_laws if len(law) == len(p_laws[0])]
    q_law = [law for law in q_laws if len(law) == len(q_laws[0])]
    p_iv, q_iv = (tuple(np.resize(np.array(col), n) if len(laws) > 1 else col[0]
                        for col in zip(*laws)) for laws in (p_law, q_law))
    x, vp, ll = np.array(x), np.full(n, vp), np.full(n, ll)
    with np.errstate(over="ignore", invalid="ignore"):
        want = _balance(x, p_iv, vp, q_iv, ll, g_l)
        got = _balance(x, p_iv, vp, q_iv, ll, g_l, out=tuple(np.empty((4, n))))
        by_point = []
        for k in range(n):
            p_k, q_k = (tuple(np.broadcast_to(a, (n,))[k] for a in params)
                        for params in (p_iv, q_iv))
            i_p, g_p = il.device.iv(p_k, vp[k] + x[k])
            i_q, g_q = il.device.iv(q_k, x[k])
            f, df = i_p + i_q + ll[k], g_p + g_q
            by_point.append((f + g_l * x[k], df + g_l) if g_l else (f, df))
    for g, w, p in zip(got, want, zip(*by_point)):
        w = np.broadcast_to(w, (n,))
        assert g.tobytes() == w.tobytes() == np.array(p, dtype=float).tobytes()


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


def _scripted_solve(p, q):
    """P stays OFF at drop 0; Q sees 1.5 V while OFF, -3.0 V at code 1
    (below both its full-reset level and its onset) and 0 V after."""
    return NodeSolution(0.0, 0.0, {0: 1.5, 1: -3.0}.get(q, 0.0), 0.0, 0)


# v_set 1.0, onsets -0.5, full-reset levels -2.0
_SCRIPTED_TH = np.array([[1.0], [-0.5], [-0.5]])
_SCRIPTED_FULL = np.array([[-2.0], [-2.0]])


def test_settle_sets_once_a_pulse():
    # Q sets, resets fully, then sees v_set again while OFF: the set rule has
    # matched once this pulse, so Q stays OFF
    pq, events = np.array([[0], [0]]), []
    settle(_scripted_solve, pq, _SCRIPTED_TH, _SCRIPTED_FULL, events)
    assert pq.tolist() == [[0], [0]]
    assert events == [(1, EventKind.SET, 1.5, 1), (1, EventKind.FULL_RESET, -3.0, 2)]


def test_settle_full_reset_is_not_a_partial_reset():
    # Q's drop reaches both its full level and its onset: one full reset, and
    # the partial rule, which did not match, still fires once Q is set again
    pq, events = np.array([[0], [1]]), []
    settle(_scripted_solve, pq, _SCRIPTED_TH, _SCRIPTED_FULL, events)
    assert pq.tolist() == [[0], [2]]
    assert events == [(1, EventKind.FULL_RESET, -3.0, 1), (1, EventKind.SET, 1.5, 2),
                      (1, EventKind.PARTIAL_RESET, -3.0, 3)]


# codes 9 and MAX_CODE leave codes absent below the largest, so _pair_drops
# numbers the codes present
_BATCH_CODES = st.sampled_from([0, 1, 2, 3, 9, MAX_CODE])
_LEVELS = st.floats(-3.0, 3.0)


@st.composite
def _settle_batches(draw):
    """Code pairs, some columns equal, with per-column thresholds and a
    solve whose drops, or whose NoConvergence, depend on the pair only."""
    pairs = draw(st.lists(st.tuples(_BATCH_CODES, _BATCH_CODES), min_size=1, max_size=4))
    pq = np.array(draw(st.lists(st.sampled_from(pairs), min_size=2, max_size=9)),
                  dtype=np.intp).T
    n = pq.shape[1]
    th = np.array(draw(st.lists(_LEVELS, min_size=3 * n, max_size=3 * n))).reshape(3, n)
    full = np.array(draw(st.lists(_LEVELS, min_size=2 * n, max_size=2 * n))).reshape(2, n)
    if draw(st.booleans()):
        full = full[:, :1]  # one full-reset level per device for every trial
    salt = draw(st.integers(0, 2 ** 32 - 1))
    failing = draw(st.sets(st.tuples(_BATCH_CODES, _BATCH_CODES), max_size=2))

    def solve(p, q):
        if (p, q) in failing:
            raise il.NoConvergence(f"pair {p} {q}")
        drop_p, drop_q = np.random.default_rng((salt, p, q)).uniform(-3.0, 3.0, 2).tolist()
        return NodeSolution(0.0, drop_p, drop_q, 0.0, 0)

    return solve, pq, th, full


@settings(max_examples=200, deadline=None)
@given(batch=_settle_batches())
def test_settle_batch_matches_each_column_alone(batch):
    solve, pq, th, full = batch
    n = pq.shape[1]

    def alone(j):
        """Column j settled as a batch of one: (codes, events, first
        solution), or (pass, pair) of the NoConvergence it raises."""
        asked = []

        def solve_j(p, q):
            asked.append((p, q))  # one distinct pair, so one solve a pass
            return solve(p, q)

        codes, events = pq[:, j:j + 1].copy(), []
        try:
            first = settle(solve_j, codes, th[:, j:j + 1],
                           full[:, j:j + 1] if full.shape[1] > 1 else full, events)
        except il.NoConvergence:
            return len(asked), asked[-1]
        return codes[:, 0].tolist(), events, first

    columns = [alone(j) for j in range(n)]
    failed = [(col[0], col[1], j) for j, col in enumerate(columns) if len(col) == 2]
    batch_codes, events = pq.copy(), []
    if failed:
        # the first pass that meets a failing pair fails at the lowest such
        # pair, in the first column that holds it
        with pytest.raises(il.NoConvergence) as exc:
            settle(solve, batch_codes, th, full, events)
        assert exc.value.column == min(failed)[2]
        return
    first = settle(solve, batch_codes, th, full, events)
    assert batch_codes.T.tolist() == [col[0] for col in columns]
    assert (events, first) == columns[0][1:]


# ---------------------------------------------------------------------------
# the batch settle memo of a plan's implications (program._Imp.settle_batch)
# ---------------------------------------------------------------------------

def _memo_imp(solve, full):
    """A plan's implication whose node solutions come from ``solve``, each
    pair's kept as ``_Imp.solve`` keeps it, with full-reset levels ``full``."""
    spec = il.ideal_device_spec()
    imp = program_module._Imp(il.default_configs(spec)["drive_neg"], spec, spec, 1, 1)
    imp.full = full

    def solve_once(p, q):
        if (p, q) not in imp.solutions:
            imp.solutions[p, q] = solve(p, q)
        return imp.solutions[p, q]

    imp.solve = solve_once
    return imp


def _outcome(run):
    """The codes ``run`` returns, or the type, message and column of the
    NoConvergence it raises."""
    try:
        return run().tolist()
    except il.NoConvergence as exc:
        return type(exc), str(exc), exc.column


def _plain_settle(solve, pq, th, full):
    codes = pq.copy()
    settle(solve, codes, th, full)
    return codes


@settings(max_examples=200, deadline=None)
@given(first=_settle_batches(), more=st.lists(_settle_batches(), min_size=1, max_size=2),
       repeat=st.booleans())
def test_settle_memo_matches_settle(first, more, repeat):
    # consecutive batches through one memo, with the first batch's solve and
    # its first column's full levels for all (an implication's are
    # constants); the first batch's columns in reverse order find every key
    # it stored, unless it raised
    solve, pq, th, full = first
    full = full[:, :1]
    imp = _memo_imp(solve, full)
    batches = [(pq, th), *([(pq[:, ::-1], th[:, ::-1])] if repeat else []),
               *(batch[1:3] for batch in more)]
    for pq, th in batches:
        entry = pq.copy()
        want = _outcome(lambda: _plain_settle(solve, pq, th, full))
        assert _outcome(lambda: imp.settle_batch(pq[0], pq[1], th, (0, 1, 2))) == want
        assert np.array_equal(pq, entry)  # the entry rows are not written


def _memo_fixture(monkeypatch):
    """An implication on scripted drops, P's 0.5 V and Q's 1.0 V but for
    Q's 2.0 V in pair (1, 0) and 0.2 V in (1, 1), with full-reset levels
    out of reach, and a list of the calls of ``settle`` it makes."""
    drops = {(1, 0): (0.5, 2.0), (1, 1): (0.5, 0.2)}
    imp = _memo_imp(lambda p, q: NodeSolution(0.0, *drops.get((p, q), (0.5, 1.0)), 0.0, 0),
                    np.array([[-2.0], [-2.0]]))
    calls = []

    def counted(*args):
        calls.append(args)
        return settle(*args)

    monkeypatch.setattr(program_module, "settle", counted)
    return imp, calls


def test_settle_memo_drops_its_keys_when_a_new_pair_is_solved(monkeypatch):
    imp, calls = _memo_fixture(monkeypatch)
    th = np.array([[1.5], [-1.0], [-1.0]])
    off, on = np.array([0]), np.array([1])
    assert imp.settle_batch(off, off, th, (0, 1, 2)).tolist() == [[0], [0]]
    assert imp.settle_batch(off, off, th, (0, 1, 2)).tolist() == [[0], [0]]
    assert (len(calls), imp._keys.size) == (1, 1)  # the repeat was a lookup
    # P ON sets Q, solving pairs (1, 0) and (1, 1), whose Q drops are new cuts:
    # the memo keeps only this batch's key, made against the new cuts
    assert imp.settle_batch(on, off, th, (0, 1, 2)).tolist() == [[1], [1]]
    assert [cuts.tolist() for cuts in imp._cuts] == [[0.5], [0.2, 1.0, 2.0]]
    assert imp._keys.tolist() == imp._key(on, off, th, (0, 1, 2)).tolist()
    assert imp.settle_batch(off, off, th, (0, 1, 2)).tolist() == [[0], [0]]
    assert (len(calls), imp._keys.size) == (3, 2)


def test_full_settle_memo_is_cleared(monkeypatch):
    imp, calls = _memo_fixture(monkeypatch)
    monkeypatch.setattr(program_module, "SETTLE_MEMO", 2)
    off = np.array([0, 0, 0])
    # three cells: v_set below or above Q's 1.0 V drop, P's onset above its
    # 0.5 V drop (P is OFF, so nothing resets)
    th = np.array([[0.5, 1.5, 1.5], [-1.0, -1.0, 0.7], [-1.0, -1.0, -1.0]])
    assert imp.settle_batch(off, off, th, (0, 1, 2)).tolist() == [[0, 0, 0], [1, 0, 0]]
    assert imp._keys.size == 3  # a memo below SETTLE_MEMO takes a whole batch
    th = np.array([[0.5], [0.7], [-1.0]])  # a fourth cell
    assert imp.settle_batch(off[:1], off[:1], th, (0, 1, 2)).tolist() == [[0], [1]]
    assert imp._keys.size == 1  # the full memo was cleared first
    assert len(calls) == 2


def test_settle_memo_keys_keep_ties_and_code_pairs_apart(monkeypatch):
    # each second batch of a pair would take the first's key if a threshold
    # at a drop shared the cell beside it (Q sets at a drop equal to v_set, a
    # reset starts at a drop equal to its onset), or, in the last pair, if
    # code pairs were packed with 2048 in place of MAX_CODE + 1
    imp, _ = _memo_fixture(monkeypatch)
    cases = [((0, 0), (1.5, -1.0, -1.0), (0, 0)), ((0, 0), (1.0, -1.0, -1.0), (0, 1)),
             ((0, 1), (1.5, -1.0, 0.5), (0, 1)), ((0, 1), (1.5, -1.0, 1.0), (0, 2)),
             ((1, 1), (1.5, 0.4, -1.0), (1, 1)), ((1, 1), (1.5, 0.5, -1.0), (2, 1)),
             ((0, MAX_CODE), (1.5, -1.0, 1.0), (0, MAX_CODE)),
             ((1, 39), (1.5, -1.0, 1.0), (1, 40))]
    for entry, th, exit_codes in cases:
        pq, th = np.array(entry)[:, None], np.array(th)[:, None]
        assert _plain_settle(imp.solve, pq, th, imp.full)[:, 0].tolist() == list(exit_codes)
        assert imp.settle_batch(pq[0], pq[1], th, (0, 1, 2))[:, 0].tolist() == list(exit_codes)
