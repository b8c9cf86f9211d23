import math

import numpy as np
import pytest

import implogic as il
from implogic.topology import Polarity


def test_v_star_examples(bottom_spec, top_spec):
    assert bottom_spec.v_set_star == pytest.approx(1.5)          # [1.1, 1.9]
    assert top_spec.v_set_star == pytest.approx(1.15)            # [0.7, 1.6]
    assert il.ideal_device_spec(v_set=1.23).v_set_star == pytest.approx(1.23)


def test_delta_ideal_ratio_ten_no_load():
    # ratio 10 at zero load: 9/31 of the mid-range set voltage
    assert il.delta_ideal_parallel(0.0, 10e-6, 1e-6, 1.0) == pytest.approx(9 / 31)


def test_delta_ideal_equal_conductances_zero():
    assert il.delta_ideal_parallel(0.0, 5e-6, 5e-6, 1.3) == 0.0


def test_delta_ideal_asymptote_one_third():
    val = il.delta_ideal_parallel(0.0, 1e4, 1.0, 1.0)
    assert val == pytest.approx(1 / 3, rel=0.01)
    assert val < 1 / 3


def test_delta_ideal_monotone_decreasing_in_load():
    gls = np.linspace(0, 2.0, 100)
    vals = [il.delta_ideal_parallel(g, 10.0, 1.0, 1.0) for g in gls]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_delta_ideal_rejects_negative_load():
    with pytest.raises(ValueError):
        il.delta_ideal_parallel(-1e-6, 10e-6, 1e-6, 1.0)


def test_improvement_over_legacy_load_exceeds_20_percent():
    g_on, g_off = 10.0, 1.0
    best = il.delta_ideal_parallel(0.0, g_on, g_off, 1.0)
    legacy = il.delta_ideal_parallel(il.legacy_load(g_on, g_off), g_on, g_off, 1.0)
    assert best / legacy >= 1.20
    assert best / legacy == pytest.approx(1.204, abs=5e-4)


def test_optimal_i_l_example():
    assert il.optimal_i_l(10e-6, 1.5) == pytest.approx(-30e-6)


def test_optimal_v_p_zero_for_equal_conductances():
    vstar = 1.0
    delta = il.delta_ideal_parallel(1e-6, 5e-6, 5e-6, vstar)
    assert -2.0 * delta == 0.0


def test_optimal_bias_self_consistency():
    # substituting the optimal bias into the three binding conditions must
    # give three identical margins
    vstar, g_on, g_off = 1.0, 100e-6, 10e-6
    g_l = il.legacy_load(g_on, g_off)
    v_p, v_l = il.optimal_bias(g_l, g_on, g_off, vstar)
    m1, m2, m3 = il.implied_margins(v_p, g_l * v_l, g_l, g_on, g_off, vstar)
    ref = il.delta_ideal_parallel(g_l, g_on, g_off, vstar)
    for m in (m1, m2, m3):
        assert abs(m - ref) < 1e-12 * vstar


def test_optimal_bias_self_consistency_random():
    rng = np.random.default_rng(3)
    for _ in range(50):
        vstar = float(rng.uniform(0.5, 2.0))
        g_off = float(rng.uniform(1e-6, 1e-5))
        g_on = g_off * float(rng.uniform(2, 100))
        g_l = float(rng.uniform(1e-7, 1e-4))
        v_p, v_l = il.optimal_bias(g_l, g_on, g_off, vstar)
        ms = il.implied_margins(v_p, g_l * v_l, g_l, g_on, g_off, vstar)
        ref = il.delta_ideal_parallel(g_l, g_on, g_off, vstar)
        assert max(abs(m - ref) for m in ms) < 1e-12 * vstar


def test_current_source_self_consistency():
    vstar, g_on, g_off = 1.5, 115e-6, 10e-6
    v_p = -2.0 * il.delta_ideal_parallel(0.0, g_on, g_off, vstar)
    i_l = il.optimal_i_l(g_off, vstar)
    ms = il.implied_margins(v_p, i_l, 0.0, g_on, g_off, vstar)
    ref = il.delta_ideal_parallel(0.0, g_on, g_off, vstar)
    assert max(abs(m - ref) for m in ms) < 1e-12


def test_optimal_bias_requires_positive_load():
    with pytest.raises(ValueError):
        il.optimal_bias(0.0, 10e-6, 1e-6, 1.0)


def test_delta_actual_measured_bottom_device(bottom_spec):
    ideal = il.delta_ideal_parallel(0.0, bottom_spec.g_on, bottom_spec.g_off,
                                    bottom_spec.v_set_star)
    assert ideal == pytest.approx(1.5 * 105 / 355)       # 0.4437 V
    actual = il.delta_actual(ideal, bottom_spec)
    assert actual == pytest.approx(1.5 * 105 / 355 - 0.4)  # 0.0437 V


def test_delta_actual_zero_variation_equals_ideal(ideal_spec):
    assert il.delta_actual(0.31, ideal_spec) == pytest.approx(0.31)


def test_delta_actual_negative_when_variation_dominates():
    wide = il.MemristorSpec(v_set_min=0.5, v_set_max=2.5, v_reset_min=-1.5,
                            v_reset_max=-2.2, g_on=115e-6, g_off=10e-6)
    ideal = il.delta_ideal_parallel(0.0, wide.g_on, wide.g_off, wide.v_set_star)
    assert il.delta_actual(ideal, wide) < 0.0


def test_delta_general_reduces_to_identical_parallel(bottom_spec):
    vstar = bottom_spec.v_set_star
    via_general = il.delta_general(bottom_spec, bottom_spec, Polarity.PARALLEL,
                                   bottom_spec.g_on, bottom_spec.g_off)
    via_ideal = il.delta_actual(
        il.delta_ideal_parallel(0.0, bottom_spec.g_on, bottom_spec.g_off, vstar),
        bottom_spec)
    assert abs(via_general - via_ideal) < 1e-12


def test_delta_general_anti_parallel_larger(bottom_spec):
    # reset onset deeper than the set minimum -> anti-parallel margins win
    assert -bottom_spec.v_reset_min > bottom_spec.v_set_min
    par = il.delta_general(bottom_spec, bottom_spec, Polarity.PARALLEL,
                           bottom_spec.g_on, bottom_spec.g_off)
    anti = il.delta_general(bottom_spec, bottom_spec, Polarity.ANTI_PARALLEL,
                            bottom_spec.g_on, bottom_spec.g_off)
    assert par < anti


def test_delta_general_equal_when_reset_onset_mirrors_set_min():
    spec = il.MemristorSpec(v_set_min=1.5, v_set_max=1.5, v_reset_min=-1.5,
                            v_reset_max=-2.2, g_on=115e-6, g_off=10e-6)
    par = il.delta_general(spec, spec, Polarity.PARALLEL, spec.g_on, spec.g_off)
    anti = il.delta_general(spec, spec, Polarity.ANTI_PARALLEL, spec.g_on,
                            spec.g_off)
    assert par == pytest.approx(anti, abs=1e-15)


def test_delta_memory_and_legacy_load():
    assert il.delta_memory(1.2) == pytest.approx(0.6)
    assert il.legacy_load(100e-6, 1e-6) == pytest.approx(10e-6)
    # memory margins beat the best implication margin at any finite ratio
    for ratio in (2, 10, 100, 1e6):
        assert il.delta_memory(1.0) > il.delta_ideal_parallel(0.0, ratio, 1.0, 1.0)


def test_delta_ideal_bounds():
    for ratio in (1.5, 3.0, 10.0, 1e3):
        val = il.delta_ideal_parallel(0.0, ratio, 1.0, 1.0)
        assert 0.0 <= val < 1 / 3


def test_analytic_report_fields(bottom_spec):
    rep = il.analytic_report(bottom_spec, 0.0)
    assert rep.optimal_i_l == pytest.approx(-30e-6)
    assert rep.optimal_v_l is None
    assert rep.optimal_v_p == pytest.approx(-2 * rep.delta_ideal)
    assert rep.delta_ideal_normalized == pytest.approx(rep.delta_ideal / 1.5)
    rep_r = il.analytic_report(bottom_spec, 33.9e-6)
    assert rep_r.optimal_i_l is None and rep_r.optimal_v_l is not None


def test_sweep_rows_include_legacy_point():
    rows = il.sweep_rows([10.0], [0.0, 0.5, 1.0])
    gl_values = [r["g_l_over_g_on"] for r in rows]
    assert math.sqrt(0.1) in gl_values
    first = rows[0]
    assert first["g_l_over_g_on"] == 0.0
    assert first["delta_over_v_star"] == pytest.approx(9 / 31)
    legacy = il.delta_ideal_parallel(math.sqrt(0.1), 1.0, 0.1, 1.0)
    for r in rows:
        assert r["delta_legacy_marker"] == pytest.approx(legacy)


def test_sweep_rows_ratio_one_all_zero():
    rows = il.sweep_rows([1.0], [0.0, 0.3, 0.9])
    assert all(r["delta_over_v_star"] == 0.0 for r in rows)
