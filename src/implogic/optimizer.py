"""Numerical margin maximization over the bias parameters.

For a device pair and a load kind, the margin of a bias point is the worst
signed slack over the full correctness inequality set, evaluated with the
node solver across all four initial-state combinations: the target must
set when both devices start OFF, must not set otherwise, and the
conditioning device must neither set nor begin to reset in any
combination. The optimizer runs a coarse grid over (v_p, load) followed by
shrinking refinement grids around the incumbent.

A grid stacks the four state combinations of every pair on a leading axis
and gives each row its devices' I-V parameters (``device.iv_params``), so
one solver call covers all of them: the closed form
``solver.solve_linear`` for pairs of two ohmic devices, the array Newton
``solver.solve_newton`` for the others, which freezes converged points and
compacts its arrays only once fewer than half are still open. Each point
takes the arithmetic it would take in a call of its own, so the stacked
grid is bit for bit the grid of one solve per combination. The slacks
reported for the winning bias come from ``evaluate_margin``, whose four
combinations are one ``solver.solve_pairs`` call.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import device as dev
from .device import Logic, MemristorSpec
from .solver import _columns, solve_linear, solve_newton, solve_pairs
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
    their minimum. The four combinations are solved together by
    ``solver.solve_pairs``, which raises as ``solve_pair`` does.
    """
    s_p, s_q = topology.step_signs(p, q)
    slacks: dict[str, float] = {}
    for (p_state, q_state), sol in zip(_COMBOS, solve_pairs(p_spec, q_spec, _COMBOS,
                                                            config, s_p, s_q)):
        slacks.update(zip(_SLACK_NAMES[p_state, q_state], _slacks(
            p_state.logic, q_state.logic, sol.drop_p, sol.drop_q, p_spec, q_spec)))
    return slacks


def worst_slack(slacks: dict[str, float]) -> float:
    return min(slacks.values())


_COARSE = 41  # grid points per axis and round


@dataclass(frozen=True)
class _Pair:
    """An implication pair as the optimizer sees it: specs, drop signs and
    the sign its bias takes relative to the first pair's."""

    p_spec: MemristorSpec
    q_spec: MemristorSpec
    s_p: int
    s_q: int
    flip: float = 1.0


def _stack(pairs: list[_Pair]) -> list[tuple]:
    """The pairs' state combinations as the rows of stacked grids, one stack
    per solver: (solver, P's and Q's I-V parameters with one entry per row,
    each row's bias sign or None if all are 1, the pairs). Row 4k + c of a
    stack is its pair k in combination c of ``_COMBOS``. Pairs of two ohmic
    devices take ``solve_linear``, the others ``solve_newton``, grouped by
    the length of each device's parameter tuple."""
    groups: dict[tuple[int, int], list[_Pair]] = {}
    for pair in pairs:
        key = (len(dev.iv_params(pair.p_spec, dev.ON)), len(dev.iv_params(pair.q_spec, dev.ON)))
        groups.setdefault(key, []).append(pair)
    stacks = []
    for key, members in groups.items():
        p_iv = _columns([dev.iv_params(pair.p_spec, p) for pair in members for p, _ in _COMBOS])
        q_iv = _columns([dev.iv_params(pair.q_spec, q) for pair in members for _, q in _COMBOS])
        flips = np.repeat([pair.flip for pair in members], len(_COMBOS))
        stacks.append((solve_linear if key == (1, 1) else solve_newton, p_iv, q_iv,
                       None if (flips == 1.0).all() else flips, members))
    return stacks


def _stacked_margin(vp: np.ndarray, ll: np.ndarray, g_l: float,
                    stacks: list[tuple]) -> np.ndarray:
    """Worst slack over every pair and state combination of ``stacks``
    (from ``_stack``) at each point of the broadcast (vp, ll) grid, with
    each pair's bias times its sign; each stack takes one solver call."""
    margin = np.full(np.broadcast(vp, ll).shape, np.inf)
    rows = (-1,) + (1,) * margin.ndim
    for solve, p_iv, q_iv, flips, members in stacks:
        p_rows = [a.reshape(rows) if isinstance(a, np.ndarray) else a for a in p_iv]
        q_rows = [a.reshape(rows) if isinstance(a, np.ndarray) else a for a in q_iv]
        if flips is None:
            x = solve(p_rows, vp, q_rows, ll, g_l)
        else:
            x = solve(p_rows, flips.reshape(rows) * vp, q_rows,
                      flips.reshape(rows) * ll, g_l)
        if x.ndim == margin.ndim:  # rows whose parameters all agree come back as one
            x = np.broadcast_to(x, (len(_COMBOS) * len(members),) + margin.shape)
        for k, pair in enumerate(members):
            x_k = x[len(_COMBOS) * k:len(_COMBOS) * (k + 1)]
            vp_k = vp if pair.flip == 1.0 else pair.flip * vp
            # a drop sign of 1 leaves the drop as it is
            drop_p = vp_k + x_k if pair.s_p == 1 else pair.s_p * (vp_k + x_k)
            drop_q = x_k if pair.s_q == 1 else pair.s_q * x_k
            # combination 0 must set; the other three share the must-not-set slacks
            for at, (p_state, q_state) in ((slice(0, 1), _COMBOS[0]),
                                           (slice(1, None), _COMBOS[1])):
                target, p_no_set, p_no_reset = _slacks(
                    p_state.logic, q_state.logic, drop_p[at], drop_q[at],
                    pair.p_spec, pair.q_spec)
                worst = np.minimum(np.minimum(target, p_no_set), p_no_reset)
                np.minimum(margin, np.minimum.reduce(worst), out=margin)
    return margin


def _pair_info(topology: StackTopology, specs: dict[str, MemristorSpec],
               pair: tuple[str, str], ref_sign: int | None = None) -> _Pair:
    """The pair's specs and drop signs, with its bias flipped where Q's drop
    sign differs from ``ref_sign``, the first pair's."""
    p, q = pair
    s_p, s_q = topology.step_signs(p, q)
    return _Pair(specs[topology.cells[p].spec_ref], specs[topology.cells[q].spec_ref],
                 s_p, s_q, 1.0 if ref_sign in (None, s_q) else -1.0)


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
    (v_p, load). Raises Infeasible when the best margin is negative, and
    ValueError when ``g_l`` is not a finite real number or ``rounds`` not
    an int >= 0 (bools are neither here).
    """
    if not isinstance(g_l, numbers.Real) or isinstance(g_l, bool):
        raise ValueError(f"g_l must be a real number, got {g_l!r}")
    if not math.isfinite(g_l):
        raise ValueError(f"g_l must be finite, got {g_l!r}")
    if not isinstance(rounds, int) or isinstance(rounds, bool):
        raise ValueError(f"rounds must be an int, got {rounds!r}")
    if rounds < 0:
        raise ValueError(f"rounds must be >= 0, got {rounds!r}")
    if load_kind == "resistive":
        if g_l <= 0.0:
            raise ValueError("resistive load requires g_l > 0")
    elif load_kind == "current_source":
        g_l = 0.0
    else:
        raise ValueError(f"unknown load kind {load_kind!r}")

    names = [(p, q), *map(tuple, constraints or [])]
    first = _pair_info(topology, specs, names[0])
    pairs = [first] + [_pair_info(topology, specs, pair, first.s_q) for pair in names[1:]]

    all_specs = [spec for pair in pairs for spec in (pair.p_spec, pair.q_spec)]
    vstar = max(s.v_set_star for s in all_specs)
    g_on_max = max(s.g_on for s in all_specs)
    vp_box = (-2.0 * vstar, 2.0 * vstar)
    ll_box = (-4.0 * vstar * g_on_max, 4.0 * vstar * g_on_max)

    stacks = _stack(pairs)
    evaluations = 0
    unit = np.linspace(0.0, 1.0, _COARSE)

    def load_profile(vp_axis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """For each v_p, refine the load axis to its conditional optimum,
        with the worst slack over all pairs as the objective.
        Returns (profile margins, argmax loads)."""
        nonlocal evaluations
        n = vp_axis.size
        rows = np.arange(n)
        lo = np.full(n, ll_box[0])
        hi = np.full(n, ll_box[1])
        vp = vp_axis[:, None]
        best_m = np.full(n, -np.inf)
        best_w = np.zeros(n)
        for _ in range(rounds + 1):
            width = hi - lo
            ll = lo[:, None] + width[:, None] * unit
            m = _stacked_margin(vp, ll, g_l, stacks)
            evaluations += m.size
            j = m.argmax(axis=1)
            m_j = m[rows, j]
            better = m_j > best_m
            best_m = np.where(better, m_j, best_m)
            best_w = np.where(better, ll[rows, j], best_w)
            half = 0.5 * (width / 5.0)
            lo = np.maximum(ll_box[0], best_w - half)
            hi = np.minimum(ll_box[1], best_w + half)
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
    for (pp, qq), pair in zip(names, pairs):
        cfg = _config_from(pair.flip * v_p_best, pair.flip * ll_best, g_l)
        slacks = evaluate_margin(topology, pp, qq, cfg, pair.p_spec, pair.q_spec)
        breakdown.update({f"{pp}>{qq}|{key}": val for key, val in slacks.items()})
    result = OptimizationResult(best_config=config,
                                margin=worst_slack(breakdown),
                                slack_breakdown=breakdown,
                                evaluations=evaluations)
    if result.margin < 0.0:
        raise Infeasible(
            f"best margin {result.margin:.4g} V is negative", result)
    return result
