"""Quasi-static electrical solution of one implication step.

The step drives the conditioning device P's far terminal at v_p, grounds
the target device Q's far terminal, and attaches the load to the wire the
two devices share. Every other device has a floating far terminal, carries
no current, and equalizes to the common node, so the balance involves only
P, Q, and the load.

A device enters the balance through the parameters of its one I-V law
(``device.iv_params``), which may be floats or arrays with an entry per
point, and through its one evaluator, ``device.iv``. One current balance
(``_balance``, which the Newton loop evaluates into buffers of its own
through numpy's ``out``), one closed form for two ohmic devices
(``solve_linear``, whose load-free terms the optimizer builds once per
v_p axis through ``_linear_terms`` and ``_linear_root``) and one
safeguarded Newton (``solve_newton``) take floats or arrays alike:
``solve_pairs`` runs one of them, and every check, on the state pairs of
one bias (``solve_pair`` on a single one), and the optimizer's margin
grids run them over every state combination of a grid at once.

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
(``program._Plan._interpret``) applies them at every implication step, on
a batch of one trial or of many, through its implications' memos, which
call ``settle`` for a pulse at nominal thresholds not yet seen, for a
batch in which some column's key is new (``program._Imp``, whose
docstring says why a column's outcome is a function of its key), and for
every step whose records are kept. A code is a rule, not a table: 0 is
OFF at scale 1, and k + 1 is ON after k partial resets, at the k-fold
product of ``PARTIAL_RESET_FACTOR`` (``state_of``). These are the only states a run
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


def _balance(x, p_iv: tuple, vp, q_iv: tuple, ll, g_l: float, slope: bool = True,
             out: tuple = (None,) * 4):
    """Signed current sum into the node and its derivative at node coordinate
    x (= v_c), or the sum alone when ``slope`` is False, for P's and Q's I-V
    parameters (``dev.iv_params``), over floats or arrays as ``dev.iv``;
    ``ll`` is the load current (g_l * v_l for a resistive load, i_l for a
    current source). A g_l of 0.0 adds no terms, which changes no bit: where
    the sum is -0.0 so is Q's current, so x <= 0 and g_l * x is -0.0.

    ``out`` is numpy's ``out`` for the sum, the slope and two scratch
    arrays, all of the result's shape, as the Newton loop passes them; None
    allocates. P's drop goes in the first scratch buffer and, once P's terms
    are formed from it, Q's slope; Q's current goes in the second. The
    operations and their order are the same either way, so are the bits."""
    f_out, df_out, t, u = out
    i_p = dev.iv(p_iv, np.add(vp, x, t), slope, (f_out, df_out))
    i_q = dev.iv(q_iv, x, slope, (u, t))
    if slope:
        (i_p, g_p), (i_q, g_q) = i_p, i_q
    f = np.add(np.add(i_p, i_q, f_out), ll, f_out)
    if g_l:
        f = np.add(f, np.multiply(g_l, x, u), f_out)
    if not slope:
        return f
    df = np.add(g_p, g_q, df_out)
    return f, (np.add(df, g_l, df_out) if g_l else df)


def _load_terms(load: ResistiveLoad | CurrentSourceLoad) -> tuple[float, float]:
    """(g_l, g_l * v_l) of a resistive load, (0, i_l) of a current source."""
    if isinstance(load, ResistiveLoad):
        return load.g_l, load.g_l * load.v_l
    return 0.0, load.i_l


def is_ohmic(p_spec: MemristorSpec, q_spec: MemristorSpec) -> bool:
    """Whether both devices are ohmic, so that ``solve_linear`` applies."""
    return all(isinstance(spec.iv_model, dev.LinearIV) for spec in (p_spec, q_spec))


def _linear_terms(p_iv: tuple, vp, q_iv: tuple, g_l: float) -> tuple:
    """The load-free terms of ``solve_linear``'s closed form: the
    numerator's -g_p*v_p and the denominator g_l + g_p + g_q."""
    (g_p,), (g_q,) = p_iv, q_iv
    return -g_p * vp, g_l + g_p + g_q


def _linear_root(num, den, ll):
    """The closed-form root from ``_linear_terms``' terms and the load
    current ``ll``."""
    return (num - ll) / den


def solve_linear(p_iv: tuple, vp, q_iv: tuple, ll, g_l: float):
    """The closed-form root of the balance of two ohmic devices,
    (-g_p*v_p - ll) / (g_l + g_p + g_q), over floats or arrays as
    ``_balance``."""
    return _linear_root(*_linear_terms(p_iv, vp, q_iv, g_l), ll)


def _per_point(a, shape: tuple) -> np.ndarray:
    """``a`` broadcast to ``shape``, as a flat array with an entry per point."""
    if np.shape(a) == shape:
        return np.ravel(a)
    out = np.empty(shape)
    out[...] = a
    return out.ravel()


def _compact(keep: np.ndarray, arrays: list) -> list:
    """The entries at the indices ``keep`` of each array (``take``, several
    times faster than a boolean mask on every array); scalars pass
    through."""
    return [a.take(keep) if isinstance(a, np.ndarray) else a for a in arrays]


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
    Never raises: a point whose root lies at or beyond a bracket end (f is
    0.0 there, or of the sign of the end) takes that end, sinh overflow
    saturates (NaN counts as f < 0, which keeps ``f > 0`` monotone in x),
    and a point still open after ``MAX_ITERATIONS`` keeps its last iterate.
    ``iterations``, a flat integer array of the grid's size if given,
    receives the pass each point converged in, 0 at a bracket end; those of
    the points still open are left as they are.

    The balance at the bracket ends and at x = 0, pass 1, is ``_balance``
    at a float x: the devices' currents on the grid of ``vp`` and the
    parameters alone, which is often far smaller than the whole grid (the
    optimizer's rows x v_p against rows x v_p x load), then the load added
    per point. The later passes evaluate ``_balance`` into four buffers that
    live for this call. Either way each point takes every operation of
    ``_balance`` on the same operands in the same order, so its bits are
    those of a solve of its own, signed zeros included.
    """
    n_p = len(p_iv)
    shape = np.broadcast_shapes(*map(np.shape, (vp, ll, *p_iv, *q_iv)))
    with np.errstate(over="ignore", invalid="ignore"):
        f_lo, f_hi = (_per_point(_balance(end, p_iv, vp, q_iv, ll, g_l, slope=False), shape)
                      for end in (-BRACKET, BRACKET))
        x = np.where(f_lo >= 0.0, -BRACKET, BRACKET)
        bracketed = ~(f_lo >= 0.0) & (f_hi > 0.0)
        if iterations is not None:
            iterations[~bracketed] = 0
        del f_lo, f_hi  # freed before the iteration's arrays, for peak memory
        f, df = (_per_point(a, shape) for a in _balance(0.0, p_iv, vp, q_iv, ll, g_l))
        vp, ll = (_per_point(a, shape) for a in (vp, ll))
        params = [_per_point(a, shape) if np.ndim(a) else a for a in (*p_iv, *q_iv)]
        i = None  # each working point's index in the grid, while not the identity
        if not bracketed.all():
            i = np.flatnonzero(bracketed)
            vp, ll, f, df, *params = _compact(i, [vp, ll, f, df, *params])
        n = vp.size
        out, flags = list(np.empty((4, n))), list(np.empty((2, n), dtype=bool))
        xi = np.zeros(n)
        lo = np.full(n, -BRACKET)
        hi = np.full(n, BRACKET)
        mid = np.empty(n)
        step, step_old = np.full(n, np.inf), np.full(n, np.inf)  # the last two steps
        still = np.ones(n, dtype=bool)  # the points not yet converged
        n_open = n
        for it in range(1, MAX_ITERATIONS + 1):
            if not n_open:
                break
            if it > 1:  # pass 1's balance, at x = 0, was evaluated above
                f, df = _balance(xi, params[:n_p], vp, params[n_p:], ll, g_l, out=out)
            dx = np.divide(f, df, out=df)
            above = np.greater(f, 0.0, out=flags[0])
            hi = np.where(above, xi, hi)
            lo = np.where(above, lo, xi)
            np.add(lo, hi, out=mid)
            mid *= 0.5  # rounds to an end once the ends are adjacent floats
            done = np.abs(f, out=f) <= TOL_CURRENT
            done &= step <= TOL_STEP
            done |= f == 0.0
            done |= mid == lo
            done |= mid == hi
            if n_open < still.size:
                done &= still
            if done.any():
                k = np.flatnonzero(done)  # the points converged in this pass
                at = k if i is None else i.take(k)
                x[at] = xi.take(k)
                if iterations is not None:
                    iterations[at] = it
                still[k] = False
                n_open -= k.size
                if 2 * n_open < still.size:
                    keep = np.flatnonzero(still)
                    i = keep if i is None else i.take(keep)
                    xi, dx, mid, lo, hi, step, step_old, vp, ll, *params = _compact(
                        keep, [xi, dx, mid, lo, hi, step, step_old, vp, ll, *params])
                    out, flags = ([a[:n_open] for a in bufs] for bufs in (out, flags))
                    still = np.ones(n_open, dtype=bool)
            x_new = np.subtract(xi, dx, out=out[2])
            newton = np.less_equal(lo, x_new, out=flags[0])
            newton &= np.less_equal(x_new, hi, out=flags[1])
            np.abs(dx, out=dx)
            dx *= 2.0
            newton &= np.less_equal(dx, step_old, out=flags[1])
            x_new = np.where(newton, x_new, mid)
            step, step_old = step_old, step
            np.subtract(x_new, xi, out=step)
            np.abs(step, out=step)
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
    bias, from one solve and one set of array checks over all of them.
    Before any solve, raises the NoConvergence of the first pair in order
    that ``solve_pair`` rejects up front: its node floats (no load
    conductance, and both devices' conductance parameter, g or a*b, is 0.0),
    or on the Newton path its I-V overflows at a bracket end or its balance
    has no root in the bracket. After the solve, raises that of the first
    pair whose closed-form root is not finite or whose Newton is still open
    with too large a residual."""
    v_p, (g_l, ll) = config.v_p, _load_terms(config.load)
    p_iv, q_iv = (_columns([dev.iv_params(spec, pair[k]) for pair in states])
                  for k, spec in enumerate((p_spec, q_spec)))
    n = len(states)
    vp = np.full(n, v_p)
    ohmic = is_ohmic(p_spec, q_spec)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # no conductance to the node: g_l and each g or a*b (the last I-V
        # parameter), all >= 0, sum to 0.0
        floats = vp * 0.0 + p_iv[-1] + q_iv[-1] + g_l == 0.0
        rejected, overflows = floats, []
        if not ohmic:
            for x in (-BRACKET, BRACKET):
                for role, params, v in (("P", p_iv, v_p + x), ("Q", q_iv, x)):
                    i, di = dev.iv(params, np.full(n, v))
                    overflows.append((~(np.isfinite(i) & np.isfinite(di)), role, x, v))
            f_lo, f_hi = (_balance(x, p_iv, vp, q_iv, ll, g_l, slope=False)
                          for x in (-BRACKET, BRACKET))
            rejected = np.logical_or.reduce(
                [floats, *(over for over, *_ in overflows), f_lo > 0.0, f_hi < 0.0])
        if rejected.any():
            k = int(rejected.argmax())
            if floats[k]:
                raise NoConvergence("node floats: no conductance to the node")
            for over, role, x, v in overflows:
                if over[k]:
                    raise NoConvergence(
                        f"I-V of device {role} ({states[k][role == 'Q'].logic.name}) "
                        f"overflows at the {x:+g} V end of the Newton bracket (drop {v:+.4g} V)")
            raise NoConvergence(
                f"no current-balance root in [{-BRACKET}, {BRACKET}] V "
                f"(f({-BRACKET})={f_lo[k]:.3g}, f({BRACKET})={f_hi[k]:.3g})")
        if ohmic:
            x, count = solve_linear(p_iv, vp, q_iv, ll, g_l), np.zeros(n, dtype=np.intp)
            if not np.isfinite(x).all():  # too little conductance to the node
                raise NoConvergence(
                    f"node floats: the closed-form root is {x[~np.isfinite(x)][0]:g} V")
        else:
            count = np.full(n, -1, dtype=np.intp)  # stays -1 where a point is still open
            x = solve_newton(p_iv, vp, q_iv, ll, g_l, count)
        residual = _balance(x, p_iv, vp, q_iv, ll, g_l, slope=False)
    failed = (count < 0) & ~(np.abs(residual) <= TOL_CURRENT)
    if failed.any():
        raise NoConvergence(
            f"residual {residual[failed.argmax()]:.3g} A after {MAX_ITERATIONS} iterations")
    count[count < 0] = MAX_ITERATIONS
    return [NodeSolution(v_c=x_k, drop_p=s_p * (v_p + x_k), drop_q=s_q * x_k,
                         residual=r, iterations=it)
            for x_k, r, it in zip(x.tolist(), residual.tolist(), count.tolist())]


def solve_pair(p_spec: MemristorSpec, p_state: DeviceState,
               q_spec: MemristorSpec, q_state: DeviceState,
               config: ImpConfig, s_p: int = 1, s_q: int = 1) -> NodeSolution:
    """Solve the two-device balance with explicit specs and drop signs (a
    step's come from ``StackTopology.step_signs``): by
    ``solve_linear`` when both devices are ohmic (``iterations`` is 0), else
    by ``solve_newton`` on one point (``iterations`` counts its passes).

    Raises NoConvergence when the node floats (no load conductance and
    both devices' conductance parameter 0.0, where the closed form would
    divide 0 by 0 or a nonzero current by 0, or a closed-form root that
    is not finite), when an I-V overflows at a bracket end, when the
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
    """P's and Q's drops (rows) in the columns of the code pairs ``pq``,
    solving each distinct pair once, in ascending (P code, Q code) order,
    and column 0's solution. Where every column holds the same pair the
    drops are that pair's one column, which broadcasts over the others.
    One bincount numbers the pairs, as P code * size + Q code; when some
    code below the largest is absent the codes present are numbered first,
    so the tables grow with those, not with the largest code. A
    NoConvergence names in ``column`` the first column that holds the pair
    it arose in."""
    seen = np.bincount(pq.ravel()).tolist()  # entries per code, 0 to the largest
    codes = [code for code, n in enumerate(seen) if n]
    size = len(codes)
    if size < len(seen):  # some code below the largest is absent
        number = np.zeros(len(seen), dtype=np.intp)
        number[codes] = np.arange(size)
        pq = number[pq]
    pair = pq[0] * size + pq[1]
    counts = np.bincount(pair)
    present = np.flatnonzero(counts).tolist()
    by_pair = np.empty((2, counts.size))
    sols = {}
    for key in present:
        p, q = divmod(key, size)
        try:
            sols[key] = sol = solve(codes[p], codes[q])
        except NoConvergence as exc:
            exc.column = int(np.flatnonzero(pair == key)[0])
            raise
        by_pair[:, key] = sol.drop_p, sol.drop_q
    if len(present) == 1:
        return by_pair[:, present[0]:present[0] + 1], sol
    return by_pair.take(pair, axis=1), sols[int(pair[0])]


def settle(solve: Callable[[int, int], NodeSolution], pq: np.ndarray, th: np.ndarray,
           full: np.ndarray, events: list | None = None) -> NodeSolution:
    """Apply the switching rules of one pulse to a fixed point in each
    column (trial) of ``pq``, P's and Q's state codes (rows), in place.
    The rows of ``th`` are Q's set threshold and P's and Q's reset onset,
    those of ``full`` P's and Q's full-reset level, a column or one value
    per trial; ``solve`` maps a (P code, Q code) pair to its node solution.

    Each pass solves the node, then applies at most one event per rule to
    each column: Q sets if OFF and its drop reaches v_set; P, then Q,
    resets fully (to OFF, code 0) at or below its full level, or else
    partially (ON only, to the next code, capped at ``MAX_CODE``) at or
    below its onset. A rule that has matched a device once in a pulse,
    whether or not the device switched, does not match it again. The
    lattice is monotone within a pulse, so a column stops in a few passes,
    and the pulse ends at the first pass in which no column switches.

    A column in which a pass switched nothing keeps its codes, and so its
    drops, and switches nothing in any later pass, so the rules need not be
    gated by the columns still switching. Pass 1, where no rule has matched
    yet, skips the matched-rule masks, a pass in which nothing switches
    returns before any code update, and codes change by mask arithmetic.
    Column 0's events go to ``events`` as (0 for P or 1 for Q, kind, drop,
    pass). Returns column 0's first-pass solution, the bias point before
    switching; a NoConvergence names its first column in ``column``."""
    v_set, onset = th[0], th[1:]
    for iteration in range(1, MAX_SETTLE_PASSES + 1):
        drops, sol = _pair_drops(solve, pq)
        on = pq.astype(bool)
        to_set = np.greater(drops[1] >= v_set, on[1])  # and Q is OFF
        full_hit = drops <= full
        partial_hit = drops <= onset
        if iteration == 1:
            first = sol
        else:  # the rules that have not matched each device yet
            to_set &= set_free
            full_hit = full_hit & full_free
            partial_hit = partial_hit & partial_free
        partial_hit = np.greater(partial_hit, full_hit)  # and not a full reset
        on[1] |= to_set
        to_full = full_hit & on
        to_partial = partial_hit & on
        if events is not None:
            drop = drops[:, 0].tolist()
            if to_set[0]:
                events.append((1, EventKind.SET, drop[1], iteration))
            for role in (0, 1):
                if to_full[role, 0]:
                    events.append((role, EventKind.FULL_RESET, drop[role], iteration))
                elif to_partial[role, 0]:
                    events.append((role, EventKind.PARTIAL_RESET, drop[role], iteration))
        if not (np.count_nonzero(to_set) or np.count_nonzero(to_full)
                or np.count_nonzero(to_partial)):
            return first
        pq[1] |= to_set  # Q was OFF, code 0; set is code 1
        pq += to_partial
        np.minimum(pq, MAX_CODE, out=pq)
        np.copyto(pq, 0, where=to_full)
        if iteration == 1:
            set_free, full_free, partial_free = ~to_set, ~full_hit, ~partial_hit
        else:  # each hit is among the free entries
            set_free, full_free, partial_free = (
                set_free ^ to_set, full_free ^ full_hit, partial_free ^ partial_hit)
    exc = NoConvergence("switching did not reach a fixed point")
    exc.column = int(np.flatnonzero(to_set | (to_partial | to_full).any(axis=0))[0])
    raise exc
