"""Numerical margin maximization over the bias parameters.

For a device pair and a load kind, the margin of a bias point is the worst
signed slack over the full correctness inequality set, evaluated with the
node solver across all four initial-state combinations: the target must
set when both devices start OFF, must not set otherwise, and the
conditioning device must neither set nor begin to reset in any
combination. The optimizer runs a coarse grid over (v_p, load) followed by
shrinking refinement grids around the incumbent. Grids solve all nodes at
once with the node solver that the pair's specs call for, the closed form
``solver.solve_linear`` if both devices are ohmic, else the array Newton
``solver.solve_grid``; the slacks reported for the winning bias come from
``solver.solve_pair``, the same two solvers on one point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import device as dev
from .device import Logic, MemristorSpec
from .solver import is_ohmic, solve_grid, solve_linear, solve_pair
from .topology import (CurrentSourceLoad, ImpConfig, ResistiveLoad,
                       StackTopology)

__all__ = [
    "Infeasible",
    "OptimizationResult",
    "evaluate_margin",
    "worst_slack",
    "optimize",
]

# (P, Q) initial states of the four correctness combinations
_COMBOS = tuple((p, q) for p in (dev.OFF, dev.ON) for q in (dev.OFF, dev.ON))


class Infeasible(Exception):
    """No bias point satisfies every correctness inequality."""

    def __init__(self, message: str, result: "OptimizationResult | None" = None):
        super().__init__(message)
        self.result = result


@dataclass(frozen=True)
class OptimizationResult:
    best_config: ImpConfig
    margin: float
    slack_breakdown: dict[str, float]
    evaluations: int

    def to_json(self) -> dict:
        return {"config": self.best_config.to_json(), "margin": self.margin,
                "slacks": dict(sorted(self.slack_breakdown.items())),
                "evaluations": self.evaluations}


def _slacks(p_logic: Logic, q_logic: Logic, drop_p, drop_q,
            p_spec: MemristorSpec, q_spec: MemristorSpec) -> tuple:
    """The three correctness slacks of one initial-state combination, named
    by ``_SLACK_NAMES``; drops may be floats or arrays."""
    target = (drop_q - q_spec.v_set_max if p_logic is q_logic is Logic.OFF
              else q_spec.v_set_min - drop_q)       # must set / must not set
    return (target, p_spec.v_set_min - drop_p, drop_p - p_spec.v_reset_min)


_SLACK_NAMES = {
    (p, q): tuple(f"{kind}@p={p.logic.name.lower()},q={q.logic.name.lower()}" for kind in (
        "must_set" if p.logic is q.logic is Logic.OFF else "must_not_set",
        "p_no_set", "p_no_reset"))
    for p, q in _COMBOS
}


def evaluate_margin(topology: StackTopology, p: str, q: str, config: ImpConfig,
                    p_spec: MemristorSpec, q_spec: MemristorSpec) -> dict[str, float]:
    """Signed slacks of the correctness inequalities for one bias point.

    Twelve slacks: the must-set condition at (OFF, OFF), the must-not-set
    condition for the other three combinations, and the two conditioning-
    device disturbance bounds (no set, no reset onset) for all four. All
    are >= 0 iff the step is correct for every initial state; the margin is
    their minimum.
    """
    s_p, s_q = topology.step_signs(p, q)
    slacks: dict[str, float] = {}
    for p_state, q_state in _COMBOS:
        sol = solve_pair(p_spec, p_state, q_spec, q_state, config, s_p, s_q)
        slacks.update(zip(_SLACK_NAMES[p_state, q_state], _slacks(
            p_state.logic, q_state.logic, sol.drop_p, sol.drop_q, p_spec, q_spec)))
    return slacks


def worst_slack(slacks: dict[str, float]) -> float:
    return min(slacks.values())


_COARSE = 41  # grid points per axis and round


def _margin_grid(vp: np.ndarray, ll: np.ndarray, g_l: float,
                 p_spec: MemristorSpec, q_spec: MemristorSpec,
                 s_p: int, s_q: int) -> np.ndarray:
    """Vectorized worst slack; ``ll`` is the load current (g_l * v_l for a
    resistive load, i_l for a current source). The node voltage comes from
    the closed form ``solver.solve_linear`` when both devices are ohmic, else
    from the array-valued safeguarded Newton ``solver.solve_grid``.

    Used only to steer the refinement; the slacks finally reported for the
    winning bias are recomputed point by point through ``solve_pair``.
    """
    solve = solve_linear if is_ohmic(p_spec, q_spec) else solve_grid
    margin = np.full(np.broadcast_shapes(vp.shape, ll.shape), np.inf)
    for p_state, q_state in _COMBOS:
        x = solve(p_spec, p_state, vp, q_spec, q_state, ll, g_l)
        for slack in _slacks(p_state.logic, q_state.logic, s_p * (vp + x),
                             s_q * x, p_spec, q_spec):
            np.minimum(margin, slack, out=margin)
    return margin


def _pair_info(topology: StackTopology, specs: dict[str, MemristorSpec],
               pair: tuple[str, str]):
    p, q = pair
    s_p, s_q = topology.step_signs(p, q)
    return {
        "pair": pair,
        "p_spec": specs[topology.cells[p].spec_ref],
        "q_spec": specs[topology.cells[q].spec_ref],
        "s_p": s_p,
        "s_q": s_q,
    }


def _config_from(v_p: float, ll: float, g_l: float) -> ImpConfig:
    if g_l > 0.0:
        return ImpConfig(v_p=v_p, load=ResistiveLoad(g_l=g_l, v_l=ll / g_l))
    return ImpConfig(v_p=v_p, load=CurrentSourceLoad(i_l=ll))


def optimize(topology: StackTopology, p: str, q: str,
             specs: dict[str, MemristorSpec], load_kind: str = "current_source",
             g_l: float = 0.0, constraints: list[tuple[str, str]] | None = None,
             rounds: int = 8) -> OptimizationResult:
    """Maximize the worst-case margin over (v_p, load) for the pair (p, q),
    optionally jointly with additional pairs sharing the same bias.

    The margin is jointly concave in (v_p, load current) for ohmic devices
    (a minimum of affine slacks), but its feasible region is a band whose
    load-axis width scales with g_off and can fall between the nodes of any
    fixed 2-D grid at large ON/OFF ratio. The search therefore nests two
    1-D refinements: for each v_p on the current grid, the load axis is
    refined to convergence (a 1-D concave sample-argmax always brackets the
    true conditional optimum), and the resulting profile drives the v_p
    refinement. Grids are ``_COARSE`` points per axis shrinking 5x per round.

    Pairs whose target sets toward the common node get the bias with both
    signs flipped, so one parameter magnitude serves both output levels.
    Deterministic: ties resolve to the lexicographically smallest
    (v_p, load). Raises Infeasible when the best margin is negative.
    """
    if not math.isfinite(g_l):
        raise ValueError(f"g_l must be finite, got {g_l!r}")
    if rounds < 0:
        raise ValueError(f"rounds must be >= 0, got {rounds!r}")
    if load_kind == "resistive":
        if g_l <= 0.0:
            raise ValueError("resistive load requires g_l > 0")
    elif load_kind == "current_source":
        g_l = 0.0
    else:
        raise ValueError(f"unknown load kind {load_kind!r}")

    pairs = [_pair_info(topology, specs, (p, q))]
    for extra in constraints or []:
        pairs.append(_pair_info(topology, specs, tuple(extra)))
    ref_sign = pairs[0]["s_q"]
    for info in pairs:
        info["flip"] = 1.0 if info["s_q"] == ref_sign else -1.0

    all_specs = [info[k] for info in pairs for k in ("p_spec", "q_spec")]
    vstar = max(s.v_set_star for s in all_specs)
    g_on_max = max(s.g_on for s in all_specs)
    vp_box = (-2.0 * vstar, 2.0 * vstar)
    ll_box = (-4.0 * vstar * g_on_max, 4.0 * vstar * g_on_max)

    evaluations = 0

    def joint_margin(vp: np.ndarray, ll: np.ndarray) -> np.ndarray:
        """Worst slack over all pairs; vp and ll broadcast elementwise."""
        nonlocal evaluations
        total = np.full(np.broadcast_shapes(vp.shape, ll.shape), np.inf)
        for info in pairs:
            f = info["flip"]
            m = _margin_grid(f * vp, f * ll, g_l, info["p_spec"], info["q_spec"],
                             info["s_p"], info["s_q"])
            np.minimum(total, m, out=total)
        evaluations += int(total.size)
        return total

    unit = np.linspace(0.0, 1.0, _COARSE)

    def load_profile(vp_axis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """For each v_p, refine the load axis to its conditional optimum.
        Returns (profile margins, argmax loads)."""
        n = vp_axis.size
        lo = np.full(n, ll_box[0])
        hi = np.full(n, ll_box[1])
        vp = vp_axis[:, None]
        best_m = np.full(n, -np.inf)
        best_w = np.zeros(n)
        for _ in range(rounds + 1):
            ll = lo[:, None] + (hi - lo)[:, None] * unit[None, :]
            m = joint_margin(vp, ll)
            j = np.argmax(m, axis=1)
            rows = np.arange(n)
            better = m[rows, j] > best_m
            best_m = np.where(better, m[rows, j], best_m)
            best_w = np.where(better, ll[rows, j], best_w)
            span = (hi - lo) / 5.0
            lo = np.maximum(ll_box[0], best_w - 0.5 * span)
            hi = np.minimum(ll_box[1], best_w + 0.5 * span)
        return best_m, best_w

    best = (-np.inf, 0.0, 0.0)
    vp_lo, vp_hi = vp_box
    for _ in range(rounds + 1):
        vp_axis = np.linspace(vp_lo, vp_hi, _COARSE)
        profile, loads = load_profile(vp_axis)
        i = int(np.argmax(profile))
        if profile[i] > best[0]:
            best = (float(profile[i]), float(vp_axis[i]), float(loads[i]))
        span = (vp_hi - vp_lo) / 5.0
        vp_lo = max(vp_box[0], best[1] - 0.5 * span)
        vp_hi = min(vp_box[1], best[1] + 0.5 * span)

    margin, v_p_best, ll_best = best
    config = _config_from(v_p_best, ll_best, g_l)
    breakdown: dict[str, float] = {}
    for info in pairs:
        f = info["flip"]
        cfg = _config_from(f * v_p_best, f * ll_best, g_l)
        slacks = evaluate_margin(topology, *info["pair"], cfg,
                                 info["p_spec"], info["q_spec"])
        pp, qq = info["pair"]
        breakdown.update({f"{pp}>{qq}|{key}": val for key, val in slacks.items()})
    result = OptimizationResult(best_config=config,
                                margin=worst_slack(breakdown),
                                slack_breakdown=breakdown,
                                evaluations=evaluations)
    if result.margin < 0.0:
        raise Infeasible(
            f"best margin {result.margin:.4g} V is negative", result)
    return result
