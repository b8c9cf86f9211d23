"""Quasi-static electrical solution of one implication step.

The step drives the conditioning device P's far terminal at v_p, grounds
the target device Q's far terminal, and attaches the load to the wire the
two devices share. Every other device has a floating far terminal, carries
no current, and equalizes to the common node, so the balance involves only
P, Q, and the load.

A device enters the balance through the parameters of its one I-V law
(``device.iv_params``), which may be floats or arrays with an entry per
point. One current balance (``_balance``), one closed form for two ohmic
devices (``solve_linear``) and one safeguarded Newton (``solve_newton``)
take floats or arrays alike: ``solve_pairs`` runs one of them on the state
pairs of one bias (``solve_pair`` on a single one), and the optimizer's
margin grids run them over every state combination of a grid at once.

Sign convention: the reported common-node voltage ``v_c`` is the negated
electrical node potential, chosen so that for ohmic devices

    v_c = (-g_p * v_p - g_l * v_l) / (g_l + g_p + g_q)

and so that a positive ``v_c`` is a set-directed drop across a grounded
device whose set terminal faces away from the common node. Signed device
drops are reported in each device's own set convention: a drop at or above
the device's set threshold switches it ON, a drop at or below its reset
thresholds switches it (partially or fully) OFF.

The switching rules of a pulse live here once, in ``settle``, over arrays
of state codes with a column per trial: the program's step interpreter
(``program._Plan.run``) calls it at every implication step, on a batch of
one trial or of many. A code is a rule, not a table: 0 is OFF at scale 1,
and k + 1 is ON after k partial resets, at the k-fold product of
``PARTIAL_RESET_FACTOR`` (``state_of``). These are the only states a run
reaches, since writes, sets and full resets restore scale 1.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from . import device as dev
from .device import DeviceState, Logic, MemristorSpec
from .topology import CurrentSourceLoad, ImpConfig, ResistiveLoad

__all__ = [
    "NodeSolution",
    "NoConvergence",
    "SwitchEvent",
    "EventKind",
    "solve_pair",
    "solve_pairs",
    "solve_newton",
    "solve_linear",
    "TOL_CURRENT",
    "MAX_SETTLE_PASSES",
]

TOL_CURRENT = 1e-12
TOL_STEP = 1e-12
MAX_ITERATIONS = 100
BRACKET = 10.0
# A pulse settles in at most five switching passes (one set and one partial
# and one full reset per driven device), so more than this means a fault.
MAX_SETTLE_PASSES = 8


class NoConvergence(Exception):
    """The current balance could not be driven below tolerance, or switching
    did not settle; ``settle`` names the first batch column it arose in."""

    column = 0


@dataclass(frozen=True)
class NodeSolution:
    """Common-node voltage and signed set-convention drops across the two
    driven devices."""

    v_c: float
    drop_p: float
    drop_q: float
    residual: float
    iterations: int


class EventKind(Enum):
    SET = "set"
    PARTIAL_RESET = "partial_reset"
    FULL_RESET = "full_reset"


@dataclass(frozen=True)
class SwitchEvent:
    cell: str
    kind: EventKind
    drop: float
    iteration: int


def _balance(x, p_iv: tuple, vp, q_iv: tuple, ll, g_l: float):
    """Signed current sum into the node and its derivative at node coordinate
    x (= v_c), for P's and Q's I-V parameters (``dev.iv_params``), over
    floats or arrays as ``dev.iv``; ``ll`` is the load current (g_l * v_l for
    a resistive load, i_l for a current source)."""
    i_p, g_p = dev.iv(p_iv, vp + x)
    i_q, g_q = dev.iv(q_iv, x)
    return i_p + i_q + ll + g_l * x, g_p + g_q + g_l


def _load_terms(load: ResistiveLoad | CurrentSourceLoad) -> tuple[float, float]:
    """(g_l, g_l * v_l) of a resistive load, (0, i_l) of a current source."""
    if isinstance(load, ResistiveLoad):
        return load.g_l, load.g_l * load.v_l
    return 0.0, load.i_l


def is_ohmic(p_spec: MemristorSpec, q_spec: MemristorSpec) -> bool:
    """Whether both devices are ohmic, so that ``solve_linear`` applies."""
    return all(isinstance(spec.iv_model, dev.LinearIV) for spec in (p_spec, q_spec))


def solve_linear(p_iv: tuple, vp, q_iv: tuple, ll, g_l: float):
    """The closed-form root of the balance of two ohmic devices, over floats
    or arrays as ``_balance``."""
    (g_p,), (g_q,) = p_iv, q_iv
    return (-g_p * vp - ll) / (g_l + g_p + g_q)


def _bracket_overflow(p_spec: MemristorSpec, p_state: DeviceState, v_p: float,
                      q_spec: MemristorSpec, q_state: DeviceState) -> NoConvergence:
    """Name the bracket end and the device whose I-V overflows there."""
    for x in (-BRACKET, BRACKET):
        for role, spec, state, v in (("P", p_spec, p_state, v_p + x),
                                     ("Q", q_spec, q_state, x)):
            try:
                dev.iv(dev.iv_params(spec, state), v)
            except OverflowError:
                return NoConvergence(
                    f"I-V of device {role} ({state.logic.name}) overflows at the "
                    f"{x:+g} V end of the Newton bracket (drop {v:+.4g} V)")
    return NoConvergence("I-V overflow on the Newton bracket")


def _per_point(a, shape: tuple) -> np.ndarray:
    """``a`` broadcast to ``shape``, as a flat array with an entry per point."""
    if np.shape(a) == shape:
        return np.ravel(a)
    out = np.empty(shape)
    out[...] = a
    return out.ravel()


def _compact(keep: np.ndarray, arrays: list) -> list:
    """The entries ``keep`` of each array; scalars pass through."""
    return [a[keep] if isinstance(a, np.ndarray) else a for a in arrays]


def solve_newton(p_iv: tuple, vp: np.ndarray, q_iv: tuple, ll: np.ndarray,
                 g_l: float, iterations: np.ndarray | None = None) -> np.ndarray:
    """Safeguarded Newton on the monotone balance at every point of the
    broadcast grid of ``vp``, ``ll`` and P's and Q's I-V parameters (floats,
    or arrays with one entry per point): the node coordinate x (= v_c) of
    each point, with ``ll`` the load current as for ``_balance``. Stacking
    several devices' parameters on a leading axis solves them all at once,
    and each point takes the same arithmetic it would take alone.

    Each point starts at x = 0, keeps its own bracket and leaves the
    iteration once it has converged: at an exact root, once the residual and
    the last step are both within tolerance, or once its bracket has closed
    to adjacent floats, whatever the residual (on a steep sinh one float
    moves the balance by more than ``TOL_CURRENT``). A Newton step may land
    on a bracket end; one that leaves the bracket, is NaN, or is not below
    half the step before last falls back to bisection; the last rule stops
    Newton crawling down a steep sinh at ~1/b volts per step. A converged
    point is frozen: its result is kept, and the arrays drop it only once
    fewer than half of their points are still open.
    Never raises: a point whose balance has no sign change on the bracket
    takes the end its root lies beyond, sinh overflow saturates (NaN counts
    as f <= 0, which keeps ``f > 0`` monotone in x), and a point still open
    after ``MAX_ITERATIONS`` keeps its last iterate. ``iterations``, a flat
    integer array of the grid's size if given, receives the pass each point
    converged in; the entries of the other points are left as they are.
    """
    n_p = len(p_iv)
    shape = np.broadcast_shapes(*map(np.shape, (vp, ll, *p_iv, *q_iv)))
    vp, ll = (_per_point(a, shape) for a in (vp, ll))
    params = [_per_point(a, shape) if np.ndim(a) else a for a in (*p_iv, *q_iv)]
    with np.errstate(over="ignore", invalid="ignore"):
        f_lo, f_hi = (_balance(np.full(vp.size, end), params[:n_p], vp, params[n_p:],
                               ll, g_l)[0] for end in (-BRACKET, BRACKET))
        x = np.where(f_lo > 0.0, -BRACKET, BRACKET)
        bracketed = ~(f_lo > 0.0) & (f_hi > 0.0)
        del f_lo, f_hi  # freed before the iteration's arrays, for peak memory
        i = None  # each working point's index in the grid, while not the identity
        if not bracketed.all():
            i = np.flatnonzero(bracketed)
            vp, ll, *params = _compact(i, [vp, ll, *params])
        xi = np.zeros(vp.size)
        lo = np.full(vp.size, -BRACKET)
        hi = np.full(vp.size, BRACKET)
        step = step_old = np.full(vp.size, np.inf)  # the sizes of the last two steps
        still = np.ones(vp.size, dtype=bool)  # the points not yet converged
        n_open = vp.size
        for it in range(1, MAX_ITERATIONS + 1):
            if not n_open:
                break
            f, df = _balance(xi, params[:n_p], vp, params[n_p:], ll, g_l)
            dx = f / df
            above = f > 0.0
            hi = np.where(above, xi, hi)
            lo = np.where(above, lo, xi)
            mid = 0.5 * (lo + hi)  # rounds to an end once the ends are adjacent floats
            done = ((f == 0.0) | (mid == lo) | (mid == hi)
                    | ((np.abs(f) <= TOL_CURRENT) & (step <= TOL_STEP)))
            if n_open < still.size:
                done &= still
            if done.any():
                at = done if i is None else i[done]
                x[at] = xi[done]
                if iterations is not None:
                    iterations[at] = it
                still &= ~done
                n_open = int(np.count_nonzero(still))
                if 2 * n_open < still.size:
                    i = np.flatnonzero(still) if i is None else i[still]
                    xi, dx, mid, lo, hi, step, step_old, vp, ll, *params = _compact(
                        still, [xi, dx, mid, lo, hi, step, step_old, vp, ll, *params])
                    still = np.ones(n_open, dtype=bool)
            x_new = xi - dx
            newton = (lo <= x_new) & (x_new <= hi) & (2.0 * np.abs(dx) <= step_old)
            x_new = np.where(newton, x_new, mid)
            step_old, step = step, np.abs(x_new - xi)
            xi = x_new
        x[still if i is None else i[still]] = xi[still]
    return x.reshape(shape)


def _columns(rows: list[tuple]) -> tuple:
    """Per-device I-V parameter tuples as one tuple of columns: an array
    with an entry per device, or one float that every device shares."""
    return tuple(col[0] if len(set(col)) == 1 else np.array(col) for col in zip(*rows))


def solve_pairs(p_spec: MemristorSpec, q_spec: MemristorSpec,
                states: list[tuple[DeviceState, DeviceState]], config: ImpConfig,
                s_p: int = 1, s_q: int = 1) -> list[NodeSolution]:
    """``solve_pair`` for each (P state, Q state) of ``states`` under one
    bias, from one closed-form or Newton solve over all of them. Raises the
    NoConvergence that ``solve_pair`` would raise for the first state pair
    in order that fails."""
    v_p, (g_l, ll) = config.v_p, _load_terms(config.load)
    points = [(dev.iv_params(p_spec, p), v_p, dev.iv_params(q_spec, q), ll, g_l)
              for p, q in states]
    p_iv, q_iv = (_columns([point[k] for point in points]) for k in (0, 2))
    ohmic = is_ohmic(p_spec, q_spec)
    errors: list[NoConvergence | None] = [None] * len(states)
    vp = np.full(len(states), v_p)
    if ohmic:
        x, count = solve_linear(p_iv, vp, q_iv, ll, g_l), [0] * len(states)
    else:
        for k, ((p_state, q_state), point) in enumerate(zip(states, points)):
            try:
                f_lo, _ = _balance(-BRACKET, *point)
                f_hi, _ = _balance(BRACKET, *point)
            except OverflowError:
                errors[k] = _bracket_overflow(p_spec, p_state, v_p, q_spec, q_state)
                continue
            if f_lo > 0.0 or f_hi < 0.0:
                errors[k] = NoConvergence(
                    f"no current-balance root in [{-BRACKET}, {BRACKET}] V "
                    f"(f({-BRACKET})={f_lo:.3g}, f({BRACKET})={f_hi:.3g})")
        count = np.zeros(len(states), dtype=np.intp)  # stays 0 where a point is still open
        x = solve_newton(p_iv, vp, q_iv, np.array(ll), g_l, count)
        count = count.tolist()
    out = []
    for x_k, iterations, point, error in zip(x.tolist(), count, points, errors):
        if error is not None:
            raise error from None
        residual, _ = _balance(x_k, *point)
        if not ohmic and iterations == 0:  # still open after MAX_ITERATIONS
            if not abs(residual) <= TOL_CURRENT:
                raise NoConvergence(
                    f"residual {residual:.3g} A after {MAX_ITERATIONS} iterations")
            iterations = MAX_ITERATIONS
        out.append(NodeSolution(v_c=x_k, drop_p=s_p * (v_p + x_k), drop_q=s_q * x_k,
                                residual=residual, iterations=iterations))
    return out


def solve_pair(p_spec: MemristorSpec, p_state: DeviceState,
               q_spec: MemristorSpec, q_state: DeviceState,
               config: ImpConfig, s_p: int = 1, s_q: int = 1) -> NodeSolution:
    """Solve the two-device balance with explicit specs and drop signs (a
    step's come from ``StackTopology.step_signs``): by
    ``solve_linear`` when both devices are ohmic (``iterations`` is 0), else
    by ``solve_newton`` on one point (``iterations`` counts its passes).

    Raises NoConvergence when an I-V overflows at a bracket end, when the
    balance has no root in the bracket, or when Newton is still open after
    ``MAX_ITERATIONS`` with a residual above ``TOL_CURRENT``.
    """
    return solve_pairs(p_spec, q_spec, [(p_state, q_state)], config, s_p, s_q)[0]


def _partial_reset_scales() -> tuple[float, ...]:
    """The conductance scale after k partial resets, for k = 0, 1, ... up
    to the first k at which one more reset no longer changes it (5e-324)."""
    scales = [1.0]
    while scales[-1] * dev.PARTIAL_RESET_FACTOR != scales[-1]:
        scales.append(scales[-1] * dev.PARTIAL_RESET_FACTOR)
    return tuple(scales)


_SCALES = _partial_reset_scales()
MAX_CODE = len(_SCALES)  # ON at the end of the chain: a partial reset keeps it


@functools.lru_cache(maxsize=MAX_CODE + 1)
def state_of(code: int) -> DeviceState:
    """The device state of ``code``: OFF at scale 1 for 0, ON after
    ``code - 1`` partial resets for 1 to ``MAX_CODE``."""
    if not 0 <= code <= MAX_CODE:
        raise ValueError(f"state code must be in [0, {MAX_CODE}], got {code!r}")
    return DeviceState(Logic.ON, _SCALES[code - 1]) if code else dev.OFF


def _pair_drops(solve: Callable[[int, int], NodeSolution], pq: np.ndarray,
                ) -> tuple[np.ndarray, NodeSolution]:
    """P's and Q's drops (rows) in every column of the code pairs ``pq``,
    solving each distinct pair once, in ascending (P code, Q code) order,
    and column 0's solution. Pairs are numbered over the codes present,
    so the tables grow with those, not with the largest code."""
    seen = np.bincount(pq.ravel()).tolist()  # entries per code, 0 to the largest
    codes = [code for code, n in enumerate(seen) if n]
    size = len(codes)
    if size < len(seen):  # some code below the largest is absent
        number = np.zeros(len(seen), dtype=np.intp)
        number[codes] = np.arange(size)
        pq = number[pq]
    pair = pq[0] * size + pq[1]
    present = np.flatnonzero(np.bincount(pair))
    by_pair = np.empty((present[-1] + 1, 2))
    sols = {}
    for key in present.tolist():
        p, q = divmod(key, size)
        try:
            sols[key] = sol = solve(codes[p], codes[q])
        except NoConvergence as exc:
            exc.column = int(np.flatnonzero(pair == key)[0])
            raise
        by_pair[key] = sol.drop_p, sol.drop_q
    return by_pair[pair].T, sols[pair[0]]


def settle(solve: Callable[[int, int], NodeSolution], pq: np.ndarray, th: np.ndarray,
           full: np.ndarray, events: list | None = None) -> NodeSolution:
    """Apply the switching rules of one pulse to a fixed point in each
    column (trial) of ``pq``, P's and Q's state codes (rows), in place.
    The rows of ``th`` are Q's set threshold and P's and Q's reset onset,
    those of ``full`` P's and Q's full-reset level, a column or one value
    per trial; ``solve`` maps a (P code, Q code) pair to its node solution.

    Each pass solves the node, then applies at most one event per rule to
    each column still switching: Q sets if OFF and its drop reaches v_set;
    P, then Q, resets fully (to OFF, code 0) at or below its full level, or
    else partially (ON only, to the next code, capped at ``MAX_CODE``) at
    or below its onset. The lattice is monotone within a pulse, so a column
    stops in a few passes. Column 0's events go to ``events`` as (0 for P or
    1 for Q, kind, drop, pass). Returns column 0's first-pass solution, the
    bias point before switching; a NoConvergence names its first column in
    ``column``."""
    v_set, onset = th[0], th[1:]
    n = pq.shape[1]
    set_done = np.zeros(n, dtype=bool)
    partial_done = np.zeros((2, n), dtype=bool)
    full_done = np.zeros((2, n), dtype=bool)
    active = np.ones(n, dtype=bool)
    for iteration in range(1, MAX_SETTLE_PASSES + 1):
        drops, sol = _pair_drops(solve, pq)
        if iteration == 1:
            first = sol
        to_set = active & ~set_done & (pq[1] == 0) & (drops[1] >= v_set)
        pq[1, to_set] = 1
        set_done |= to_set
        full_hit = active & ~full_done & (drops <= full)
        partial_hit = active & ~full_hit & ~partial_done & (drops <= onset)
        full_done |= full_hit
        partial_done |= partial_hit
        on = pq != 0
        to_full = full_hit & on
        to_partial = partial_hit & on
        pq[to_partial] = np.minimum(pq[to_partial] + 1, MAX_CODE)
        pq[to_full] = 0
        if events is not None:
            drop = drops[:, 0].tolist()
            if to_set[0]:
                events.append((1, EventKind.SET, drop[1], iteration))
            for role in (0, 1):
                if to_full[role, 0]:
                    events.append((role, EventKind.FULL_RESET, drop[role], iteration))
                elif to_partial[role, 0]:
                    events.append((role, EventKind.PARTIAL_RESET, drop[role], iteration))
        active = to_set | (to_partial | to_full).any(axis=0)
        if not active.any():
            return first
    exc = NoConvergence("switching did not reach a fixed point")
    exc.column = int(np.flatnonzero(active)[0])
    raise exc

