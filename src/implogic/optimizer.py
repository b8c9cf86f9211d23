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
one solve covers all of them: the closed form of ``solver.solve_linear``
for pairs of two ohmic devices, the array Newton ``solver.solve_newton``
for the others, which freezes converged points and compacts its arrays
only once fewer than half are still open. Every row is solved at the first
pair's bias, and a pair whose bias signs are flipped reads its rows' node
voltages negated (both I-V laws, and so both solvers, are odd in the
bias), so a distinct device pair is solved once per grid and a pair
jointly constrained with its mirror adds no rows. Each pair's slacks reduce
through its extreme drops, four arrays a pair, and P's extreme drops are
v_p plus the extreme node voltage. The load refinement at one v_p axis
asks ``_stacked_margin`` for several loads, so what depends on v_p alone
is built once per axis. Each point takes the arithmetic it would take in a
call of its own, so the stacked grid is bit for bit the grid of one solve
per combination. The slacks reported for the winning bias come from
``evaluate_margin``, whose four combinations are one ``solver.solve_pairs``
call.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import device as dev
from .device import Logic, MemristorSpec
from .solver import (BRACKET, NoConvergence, _columns, _linear_root, _linear_terms, is_ohmic,
                     solve_newton, solve_pairs)
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
    per solver: (whether the stack is ohmic, P's and Q's I-V parameters with
    one entry per row, and per pair its reads: the rows of its combinations
    in ``_COMBOS`` order, as a slice or an index array, and the pair). Rows
    are keyed by their devices alone, so a distinct device pair is solved
    once per grid, at the first pair's bias, and each pair reads its rows'
    node voltages times its own ``flip``. This is exact wherever the solvers
    are odd in the bias: both I-V laws are odd in the drop, and negation
    commutes with the balance's arithmetic and with Newton's bracket and
    step tests. Pairs of two ohmic devices take ``solve_linear``'s
    arithmetic, the others ``solve_newton``, grouped by the length of each
    device's parameter tuple."""
    groups: dict[tuple[int, int], tuple[dict, list]] = {}
    for pair in pairs:
        devices = [(dev.iv_params(pair.p_spec, p), dev.iv_params(pair.q_spec, q))
                   for p, q in _COMBOS]
        rows, reads = groups.setdefault((len(devices[0][0]), len(devices[0][1])), ({}, []))
        at = [rows.setdefault(device, len(rows)) for device in devices]
        end = at[0] + len(_COMBOS)
        reads.append((slice(at[0], end) if at == list(range(at[0], end)) else np.array(at),
                      pair))
    return [(key == (1, 1), *(_columns([device[k] for device in rows]) for k in (0, 1)), reads)
            for key, (rows, reads) in groups.items()]


def _stack_solves(vp: np.ndarray, shape: tuple, g_l: float, stacks: list[tuple]) -> list:
    """Per stack of ``stacks`` (from ``_stack``): a function from the load
    ``ll`` to its rows' node voltages at each point of ``shape``, the grid
    that ``vp`` and ``ll`` broadcast to, solved at the unflipped bias; and
    the stack's reads. Each row takes the bits of its own ``solve_linear``
    or ``solve_newton`` call.

    What depends on v_p alone is built here, once for every load asked of
    it: an ohmic stack's closed-form terms (``solver._linear_terms``), each
    made a contiguous array of the stack's rows by ``shape``, so that a load
    costs ``solver._linear_root``'s one subtract and one divide, the two
    roundings of ``solve_linear``, and neither broadcasts a short axis,
    which costs numpy several times an operation on equal shapes. A Newton
    stack is solved per load by ``solve_newton``, which evaluates its
    bracket ends and first pass on the rows by v_p grid."""
    rows = (-1,) + (1,) * len(shape)

    def newton(p_rows, q_rows):
        return lambda ll: solve_newton(p_rows, vp, q_rows, ll, g_l).reshape((-1,) + shape)

    solves = []
    for ohmic, p_iv, q_iv, reads in stacks:
        p_rows = [a.reshape(rows) if isinstance(a, np.ndarray) else a for a in p_iv]
        q_rows = [a.reshape(rows) if isinstance(a, np.ndarray) else a for a in q_iv]
        # rows whose parameters all agree come back as one
        if ohmic:
            terms = _linear_terms(p_rows, vp, q_rows, g_l)
            full = np.broadcast_shapes(*map(np.shape, terms), (1,) + shape)
            solves.append((functools.partial(
                _linear_root, *(np.broadcast_to(a, full).copy() for a in terms)), reads))
        else:
            solves.append((newton(p_rows, q_rows), reads))
    return solves


def _stacked_margin(vp: np.ndarray, shape: tuple, g_l: float, stacks: list[tuple]):
    """The worst slack over every pair and state combination of ``stacks``
    (from ``_stack``) as a function of the load: given ``ll``, the margin at
    each point of ``shape``, the grid that ``vp`` and ``ll`` broadcast to,
    with each pair's bias times its ``flip``. Each stack takes one solve of
    ``_stack_solves``, and v_p is spread over ``shape`` once, for P's
    drops, so that no operation per load broadcasts a short axis.

    Rounding is monotone, so the smallest of a slack over combinations is
    the slack of the largest or smallest drop: a pair's four slack arrays
    are the inequalities of ``_slacks`` at its must-set row's Q drop, its
    largest Q drop over the must-not-set rows, and its largest and smallest
    P drops. For the same reason P's largest drop fl(v_p + x) over the rows
    is fl(v_p + max x), and likewise the smallest, so P's drops are formed
    for the extremes only; the largest x over a pair's rows is the larger of
    the must-set row's and the must-not-set rows' largest, which Q's slack
    takes anyway (the smallest likewise under a flipped Q sign). Each extreme
    is one of the row values, so the bits are those of the drops' extremes,
    with one exception that no margin shows: which of +0.0 and -0.0 a tie
    between the two keeps. Every slack subtracts a nonzero threshold, which
    takes either zero to the same value."""
    solves = _stack_solves(vp, shape, g_l, stacks)
    vp_grid = np.broadcast_to(vp, shape).copy()

    def margin(ll: np.ndarray) -> np.ndarray:
        worst_all = None
        for solve, reads in solves:
            x = solve(ll)
            for at, pair in reads:
                x_k = x[at]
                s_q = pair.flip * pair.s_q
                if s_q == 1:
                    q_not = np.maximum.reduce(x_k[1:])
                    x_hi, x_lo = np.maximum(x_k[0], q_not), np.minimum.reduce(x_k)
                    q_set = x_k[0]
                else:
                    q_not = np.minimum.reduce(x_k[1:])
                    x_hi, x_lo = np.maximum.reduce(x_k), np.minimum(x_k[0], q_not)
                    q_set, q_not = -x_k[0], -q_not
                hi, lo = vp_grid + x_hi, vp_grid + x_lo  # P's drops before sign and flip
                # a drop of sign -1 is largest where the unsigned one is smallest
                p_hi, p_lo = (hi, lo) if pair.flip * pair.s_p == 1 else (-lo, -hi)
                worst = np.minimum(
                    np.minimum(q_set - pair.q_spec.v_set_max, pair.q_spec.v_set_min - q_not),
                    np.minimum(pair.p_spec.v_set_min - p_hi, p_lo - pair.p_spec.v_reset_min))
                worst_all = (worst if worst_all is None
                             else np.minimum(worst_all, worst, out=worst_all))
        return worst_all

    return margin


def _pair_info(topology: StackTopology, specs: dict[str, MemristorSpec],
               pair: tuple[str, str], ref_sign: int | None = None) -> _Pair:
    """The pair's specs and drop signs, with its bias flipped where Q's drop
    sign differs from ``ref_sign``, the first pair's."""
    s_p, s_q = topology.step_signs(*pair)
    refs = [topology.cells[cell].spec_ref for cell in pair]
    for cell, ref in zip(pair, refs):
        if ref not in specs:
            raise ValueError(f"specs lack {ref!r}, the spec of cell {cell!r}")
    return _Pair(specs[refs[0]], specs[refs[1]], s_p, s_q,
                 1.0 if ref_sign in (None, s_q) else -1.0)


def _reject_unsolvable(names: list[tuple[str, str]], pairs: list[_Pair]) -> None:
    """Raise NoConvergence for the first pair that no bias can solve: one
    on the Newton path with a device whose I-V, in either state, is not
    finite, or whose slope is not, at a drop of -``BRACKET`` or +``BRACKET``.
    Every solve checks Q at both bracket ends and P at ``v_p`` plus each,
    one of which lies as far out, and a sinh current and slope only grow
    with the drop's size, so ``evaluate_margin`` raises at every bias.
    Past this check Q's current is finite across the bracket, so no grid
    meets a NaN balance, where P and Q overflow to opposite infinities and
    the solvers need not be odd in the bias."""
    ends = np.array([-BRACKET, BRACKET])
    for (p, q), pair in zip(names, pairs):
        if is_ohmic(pair.p_spec, pair.q_spec):
            continue
        for role, spec in (("P", pair.p_spec), ("Q", pair.q_spec)):
            for state in (dev.OFF, dev.ON):
                with np.errstate(over="ignore", invalid="ignore"):
                    i, di = dev.iv(dev.iv_params(spec, state), ends)
                bad = ~(np.isfinite(i) & np.isfinite(di))
                if bad.any():
                    raise NoConvergence(
                        f"I-V of device {role} ({state.logic.name}) of pair {p}>{q} "
                        f"overflows at a drop of {ends[bad.argmax()]:+g} V, "
                        "an end of the Newton bracket, so no bias can solve the pair")


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
    an int >= 0 (bools are neither here), when a constraint is not a
    (P, Q) pair of cell names, or when ``specs`` lacks the spec ref of a
    paired cell; NotAdjacent for a pair that shares no wire; and
    NoConvergence for a pair that no bias can solve, whose device's I-V
    overflows at an end of the Newton bracket (``_reject_unsolvable``).
    These are raised before any grid runs.
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

    names = [(p, q)]
    for pair in constraints or []:
        if (not isinstance(pair, (tuple, list)) or len(pair) != 2
                or not all(isinstance(cell, str) for cell in pair)):
            raise ValueError(f"constraint {pair!r} is not a (P, Q) pair of cell names")
        names.append(tuple(pair))
    first = _pair_info(topology, specs, names[0])
    pairs = [first] + [_pair_info(topology, specs, pair, first.s_q) for pair in names[1:]]
    _reject_unsolvable(names, pairs)

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
        margin = _stacked_margin(vp, (n, _COARSE), g_l, stacks)
        best_m = np.full(n, -np.inf)
        best_w = np.zeros(n)
        for _ in range(rounds + 1):
            width = hi - lo
            ll = lo[:, None] + width[:, None] * unit
            m = margin(ll)
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
