"""Closed-form set-margin theory for ohmic devices.

All formulas assume the reference step: a conditioning device P and a
target device Q in the parallel orientation, Q's far terminal grounded,
and the load at the common node. The ideal margin is the symmetric slack
by which the three binding correctness conditions hold simultaneously:
the target must set when both devices start OFF, must stay OFF when the
conditioning device is ON, and the conditioning device must not be set
itself. The actual margin subtracts the cycle-to-cycle set-threshold
half-width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .device import MemristorSpec
from .topology import Polarity

__all__ = [
    "MarginReport",
    "delta_ideal_parallel",
    "optimal_bias",
    "optimal_i_l",
    "delta_actual",
    "delta_general",
    "delta_memory",
    "legacy_load",
    "implied_margins",
    "analytic_report",
    "sweep_rows",
]


def delta_ideal_parallel(g_l: float, g_on: float, g_off: float, vstar: float) -> float:
    """Ideal (zero-variation) set margin at load conductance g_l:

        delta = v* (g_on - g_off) / (2 g_l + 3 g_on + g_off)

    Monotonically decreasing in g_l; the g_l = 0 value is the current-source
    maximum, approaching v*/3 for large ON/OFF ratio.
    """
    if g_l < 0.0:
        raise ValueError("g_l must be >= 0")
    return vstar * (g_on - g_off) / (2.0 * g_l + 3.0 * g_on + g_off)


def optimal_bias(g_l: float, g_on: float, g_off: float, vstar: float) -> tuple[float, float]:
    """Margin-maximizing (v_p, v_l) for a resistive load g_l > 0:

        v_p = -2 delta_ideal
        v_l = -2 v* [g_l^2 + 2 g_l (g_on + g_off) + g_off (3 g_on + g_off)]
                   / [g_l (2 g_l + 3 g_on + g_off)]
    """
    if g_l <= 0.0:
        raise ValueError("resistive optimum requires g_l > 0; use optimal_i_l")
    v_p = -2.0 * delta_ideal_parallel(g_l, g_on, g_off, vstar)
    num = g_l * g_l + 2.0 * g_l * (g_on + g_off) + g_off * (3.0 * g_on + g_off)
    v_l = -2.0 * vstar * num / (g_l * (2.0 * g_l + 3.0 * g_on + g_off))
    return v_p, v_l


def optimal_i_l(g_off: float, vstar: float) -> float:
    """Margin-maximizing load current (the g_l -> 0 limit of g_l * v_l):

        i_l = -2 v* g_off
    """
    return -2.0 * vstar * g_off


def delta_actual(delta_ideal: float, spec: MemristorSpec) -> float:
    """Variation-aware margin: the ideal margin minus the set-threshold
    half-width. Negative values signal unreliable operation and are
    returned as-is."""
    return delta_ideal - spec.set_half_width


def delta_general(p_spec: MemristorSpec, q_spec: MemristorSpec,
                  polarity: Polarity, g_on: float, g_off: float) -> float:
    """Actual margin for a current-source step (g_l = 0) with distinct
    conditioning/target specs.

    Parallel:      [(g_on+g_off)(Vq_set_min - Vq_set_max)
                     + (g_on-g_off) Vp_set_min] / (3 g_on + g_off)
    Anti-parallel: the conditioning device's binding disturbance is reset
                   rather than set, replacing + (g_on-g_off) Vp_set_min
                   with - (g_on-g_off) Vp_reset_min.
    """
    shared = (g_on + g_off) * (q_spec.v_set_min - q_spec.v_set_max)
    if polarity is Polarity.PARALLEL:
        term = (g_on - g_off) * p_spec.v_set_min
    else:
        term = -(g_on - g_off) * p_spec.v_reset_min
    return (shared + term) / (3.0 * g_on + g_off)


def delta_memory(vstar: float) -> float:
    """Write margin of a passive crossbar memory under V/3 biasing: v*/2.
    Strictly exceeds the best implication margin for any finite ratio."""
    return 0.5 * vstar


def legacy_load(g_on: float, g_off: float) -> float:
    """The historically recommended load conductance sqrt(g_on * g_off)."""
    return math.sqrt(g_on * g_off)


def implied_margins(v_p: float, load_current: float, g_l: float,
                    g_on: float, g_off: float, vstar: float) -> tuple[float, float, float]:
    """Margins implied separately by each of the three binding conditions
    for a given bias; ``load_current`` is g_l * v_l (or i_l when g_l = 0).

    At the optimal bias all three coincide with delta_ideal_parallel; the
    triple is the algebraic self-consistency oracle for the closed forms.
    """
    must_set = (-v_p * g_off - load_current) / (2.0 * g_off + g_l)
    must_not_set = (-v_p * g_on - load_current) / (g_off + g_on + g_l)
    p_undisturbed = (v_p * (g_off + g_l) - load_current) / (2.0 * g_off + g_l)
    return (must_set - vstar, vstar - must_not_set, vstar - p_undisturbed)


@dataclass(frozen=True)
class MarginReport:
    """Analytic margins and optimal bias for one load point."""

    delta_ideal: float
    delta_actual: float
    v_star: float
    g_l: float
    configuration: Polarity
    optimal_v_p: float
    optimal_v_l: float | None
    optimal_i_l: float | None

    @property
    def delta_ideal_normalized(self) -> float:
        return self.delta_ideal / self.v_star

    def to_json(self) -> dict:
        return {
            "delta_ideal": self.delta_ideal,
            "delta_actual": self.delta_actual,
            "delta_ideal_over_v_star": self.delta_ideal_normalized,
            "v_star": self.v_star,
            "g_l": self.g_l,
            "configuration": self.configuration.value,
            "optimal_v_p": self.optimal_v_p,
            "optimal_v_l": self.optimal_v_l,
            "optimal_i_l": self.optimal_i_l,
        }


def analytic_report(spec: MemristorSpec, g_l: float = 0.0) -> MarginReport:
    """Margins and optimal bias for identical devices in the parallel
    reference step, at load g_l (0 selects the current source)."""
    vs = spec.v_set_star
    ideal = delta_ideal_parallel(g_l, spec.g_on, spec.g_off, vs)
    if g_l > 0.0:
        v_p, v_l = optimal_bias(g_l, spec.g_on, spec.g_off, vs)
        i_l = None
    else:
        v_p = -2.0 * ideal
        v_l = None
        i_l = optimal_i_l(spec.g_off, vs)
    return MarginReport(delta_ideal=ideal, delta_actual=delta_actual(ideal, spec),
                        v_star=vs, g_l=g_l, configuration=Polarity.PARALLEL,
                        optimal_v_p=v_p, optimal_v_l=v_l, optimal_i_l=i_l)


def sweep_rows(ratios: list[float], gl_over_gon: list[float],
               vstar: float = 1.0) -> list[dict]:
    """Normalized margin-vs-load family for a set of ON/OFF ratios.

    One row per (ratio, load) point with the legacy-load point inserted
    into each ratio's grid; ``delta_legacy_marker`` repeats that point's
    normalized margin across the ratio for reference.
    """
    rows = []
    for ratio in ratios:
        g_on = 1.0
        g_off = 1.0 / ratio
        gl_legacy = legacy_load(g_on, g_off)
        delta_legacy = delta_ideal_parallel(gl_legacy, g_on, g_off, vstar) / vstar
        grid = sorted(set(gl_over_gon) | {gl_legacy})
        for gl in grid:
            rows.append({
                "g_l_over_g_on": gl,
                "ratio": ratio,
                "delta_over_v_star": delta_ideal_parallel(gl, g_on, g_off, vstar) / vstar,
                "delta_legacy_marker": delta_legacy,
            })
    return rows
