import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import implogic as il
from implogic.device import Logic, ON, OFF, iv, iv_params
from implogic.program import _Plan


def test_linear_on_current_at_read_voltage(bottom_spec):
    # 115 uS at 0.1 V
    assert il.current(bottom_spec, ON, 0.1) == pytest.approx(11.5e-6)


def test_zero_voltage_zero_current(bottom_spec, sinh_spec):
    for spec in (bottom_spec, sinh_spec):
        for state in (ON, OFF):
            assert il.current(spec, state, 0.0) == 0.0


def test_sinh_small_signal_matches_conductance(sinh_spec):
    # a_off * b_off = 10 uS, so I(0.01 V) ~ 0.1 uA within 1%
    i = il.current(sinh_spec, OFF, 0.01)
    assert i == pytest.approx(0.1e-6, rel=0.01)
    # frozen from the series expansion a*sinh(b*v) = g*v*(1 + (b*v)^2/6 + ...)
    expected = (10e-6 / 1.5) * math.sinh(1.5 * 0.01)
    assert i == pytest.approx(expected, rel=1e-12)


_IV_SPECS = st.one_of(
    st.just(il.bottom_device_spec()),
    st.builds(lambda b_on, b_off: il.bottom_device_spec(
        il.sinh_iv_from_conductances(115e-6, 10e-6, b_on, b_off)),
        st.floats(0.1, 100.0), st.floats(0.1, 100.0)))
_IV_STATES = st.builds(il.DeviceState, st.sampled_from(Logic), st.one_of(
    st.sampled_from((1.0, 0.7, 0.49)), st.floats(0.0, 1.0, exclude_min=True)))
# signed zeros, drops inside the Newton bracket, and drops that overflow
# sinh and cosh at a steep b
_IV_DROPS = st.one_of(st.sampled_from((0.0, -0.0)), st.floats(-12.0, 12.0),
                      st.floats(-1e3, 1e3))


@settings(max_examples=200, deadline=None)
@given(spec=_IV_SPECS, state=_IV_STATES, v=st.lists(_IV_DROPS, min_size=1, max_size=8))
def test_iv_float_array_and_out_calls_give_the_same_bytes(spec, state, v):
    # a float, an array and an array into out buffers give the same current
    # and slope bits, for both laws, at any drop
    params = iv_params(spec, state)
    drops = np.array(v)
    buffers = tuple(np.empty((2, drops.size)))
    with np.errstate(over="ignore", invalid="ignore"):  # 0 * inf at a state near 0
        i, di = iv(params, drops)
        i_out, di_out = iv(params, drops, out=buffers)
        floats = [iv(params, x) for x in v]
        currents = [il.current(spec, state, x) for x in v]
    assert i_out is buffers[0] and di_out is (buffers[1] if len(params) == 3 else params[0])
    for got in (i_out, np.array([f[0] for f in floats]), np.array(currents)):
        assert got.tobytes() == i.tobytes()
    for got in (di_out, np.array([f[1] for f in floats])):
        assert np.broadcast_to(got, drops.shape).tobytes() == (
            np.broadcast_to(di, drops.shape).tobytes())


def test_sinh_slope_validation_rejects_mismatch():
    bad = il.SinhIV(a_on=1e-4, b_on=2.0, a_off=1e-6, b_off=2.0)  # slopes 2e-4 / 2e-6
    with pytest.raises(ValueError):
        il.MemristorSpec(v_set_min=1.0, v_set_max=1.5, v_reset_min=-1.0,
                         v_reset_max=-2.0, g_on=115e-6, g_off=10e-6, iv_model=bad)


@pytest.mark.parametrize("bad_kwargs", [
    {"v_set_min": -0.1},
    {"v_set_min": 1.9, "v_set_max": 1.1},
    {"v_reset_min": 0.5},
    {"v_reset_max": -1.0, "v_reset_min": -1.5},
    {"g_off": 200e-6},
])
def test_spec_invariants_rejected(bad_kwargs):
    kwargs = dict(v_set_min=1.1, v_set_max=1.9, v_reset_min=-1.5,
                  v_reset_max=-2.2, g_on=115e-6, g_off=10e-6)
    kwargs.update(bad_kwargs)
    with pytest.raises(ValueError):
        il.MemristorSpec(**kwargs)


@given(v1=st.floats(-5.0, 5.0), dv=st.floats(1e-6, 5.0))
def test_current_monotone_in_voltage(v1, dv):
    specs = [il.bottom_device_spec(),
             il.MemristorSpec(v_set_min=1.5, v_set_max=1.5, v_reset_min=-1.5,
                              v_reset_max=-2.2, g_on=115e-6, g_off=10e-6,
                              iv_model=il.sinh_iv_from_conductances(
                                  115e-6, 10e-6, 1.5, 1.5))]
    for spec in specs:
        for state in (ON, OFF):
            assert il.current(spec, state, v1) < il.current(spec, state, v1 + dv)


@given(v=st.floats(1e-3, 1.1))
def test_state_separation_below_set_threshold(v):
    spec = il.bottom_device_spec()
    assert il.current(spec, ON, v) > il.current(spec, OFF, v)


def test_on_off_read_ratio_above_ten(bottom_spec, top_spec, sinh_spec):
    for spec in (bottom_spec, top_spec, sinh_spec):
        ratio = (il.read_conductance(spec, ON) / il.read_conductance(spec, OFF))
        assert ratio > 10.0


def test_conductance_scale_scales_current(bottom_spec):
    degraded = il.DeviceState(Logic.ON, 0.7)
    assert il.current(bottom_spec, degraded, 0.1) == pytest.approx(
        0.7 * il.current(bottom_spec, ON, 0.1))


def test_scale_bounds():
    with pytest.raises(ValueError):
        il.DeviceState(Logic.ON, 0.0)
    with pytest.raises(ValueError):
        il.DeviceState(Logic.ON, 1.5)


def _nand_plan(specs):
    """The compiled plan of a NAND on the default stack, and the spec of each
    of its threshold draws in draw order: a reset's cell, an implication's P
    and then its Q."""
    stack = il.build_default_stack()
    program = il.with_inputs(il.nand_macro("B1", "B2", "T2"), {"a": 1, "b": 0})
    plan = _Plan(program, stack, specs, il.default_configs(specs["bottom"]))
    cells = []
    for step in program.steps:
        if isinstance(step, il.ResetStep):
            cells.append(step.cell)
        elif isinstance(step, il.ImpStep):
            cells += [step.p, step.q]
    return plan, [specs[stack.cells[c].spec_ref] for c in cells]


def test_plan_thresholds_degenerate_interval():
    spec = il.ideal_device_spec(v_set=1.5)
    plan, drawn = _nand_plan({"bottom": spec, "top": spec})
    th = plan.thresholds(list(range(10)))
    assert th.shape == (2 * len(drawn), 10)
    assert (th[0::2] == 1.5).all()  # each draw's v_set row


def test_plan_thresholds_within_ranges(bottom_spec, top_spec):
    plan, drawn = _nand_plan({"bottom": bottom_spec, "top": top_spec})
    th = plan.thresholds([(123, t) for t in range(500)])
    assert th.shape == (2 * len(drawn), 500)
    for k, spec in enumerate(drawn):
        v_set, onset = th[2 * k], th[2 * k + 1]
        assert ((spec.v_set_min <= v_set) & (v_set <= spec.v_set_max)).all()
        assert ((spec.v_reset_max <= onset) & (onset <= spec.v_reset_min)).all()


def test_plan_thresholds_deterministic(bottom_spec):
    plan, _ = _nand_plan({"bottom": bottom_spec, "top": bottom_spec})
    seeds = [42, 7, (7, 3)]
    table = plan.thresholds(seeds)
    np.testing.assert_array_equal(plan.thresholds(seeds), table)
    assert (table[:, 0] != table[:, 1]).all()
    # a seed's column does not depend on the other seeds of the batch
    for j, seed in enumerate(seeds):
        np.testing.assert_array_equal(plan.thresholds([seed])[:, 0], table[:, j])


def test_decode_bit_uses_geometric_midpoint(bottom_spec):
    assert il.decode_bit(bottom_spec, ON) == 1
    assert il.decode_bit(bottom_spec, OFF) == 0
    # a degraded ON cell still reads 1 while above the midpoint
    assert il.decode_bit(bottom_spec, il.DeviceState(Logic.ON, 0.7)) == 1


def test_spec_json_roundtrip(bottom_spec, sinh_spec):
    for spec in (bottom_spec, sinh_spec):
        assert il.MemristorSpec.from_json(spec.to_json()) == spec


_FINITE_CONSTRUCTORS = (
    (il.MemristorSpec, dict(v_set_min=1.1, v_set_max=1.9, v_reset_min=-1.5,
                            v_reset_max=-2.2, g_on=115e-6, g_off=10e-6)),
    (il.SinhIV, dict(a_on=115e-6 / 1.5, b_on=1.5, a_off=10e-6 / 1.5, b_off=1.5)),
    (il.ResistiveLoad, dict(g_l=3e-5, v_l=-1.0)),
    (il.CurrentSourceLoad, dict(i_l=-3e-5)),
    (functools.partial(il.ImpConfig, load=il.CurrentSourceLoad(-3e-5)),
     dict(v_p=-0.8, pulse_s=10e-3)),
)


@given(data=st.data())
def test_constructors_hold_only_finite_fields(data):
    # each field keeps its valid value or takes any float, inf and nan included
    for make, valid in _FINITE_CONSTRUCTORS:
        kwargs = {name: data.draw(st.one_of(st.just(value), st.floats()),
                                  label=name)
                  for name, value in valid.items()}
        try:
            obj = make(**kwargs)
        except ValueError:
            continue
        assert all(math.isfinite(getattr(obj, name)) for name in valid)
