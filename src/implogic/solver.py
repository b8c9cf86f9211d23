"""Quasi-static electrical solution of one implication step.

The step drives the conditioning device P's far terminal at v_p, grounds
the target device Q's far terminal, and attaches the load to the wire the
two devices share. Every other device has a floating far terminal, carries
no current, and equalizes to the common node, so the balance involves only
P, Q, and the load.

One current balance (``_balance``), one closed form for two ohmic devices
(``solve_linear``) and one safeguarded Newton (``solve_grid``) take floats
or arrays alike: ``solve_pair`` runs one of them on a single point, and the
optimizer's margin grids run them over whole grids.

Sign convention: the reported common-node voltage ``v_c`` is the negated
electrical node potential, chosen so that for ohmic devices

    v_c = (-g_p * v_p - g_l * v_l) / (g_l + g_p + g_q)

and so that a positive ``v_c`` is a set-directed drop across a grounded
device whose set terminal faces away from the common node. Signed device
drops are reported in each device's own set convention: a drop at or above
the device's set threshold switches it ON, a drop at or below its reset
thresholds switches it (partially or fully) OFF.

The switching rules of a pulse live here once, in ``settle``, over arrays
of ``STATES`` codes with a column per trial: the program interpreter calls
it at every implication step, and ``settle_states`` is a batch of one.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from . import device as dev
from .device import DeviceState, Logic, MemristorSpec, ThresholdSample
from .topology import CurrentSourceLoad, ImpConfig, ResistiveLoad, StackTopology

__all__ = [
    "NodeSolution",
    "NoConvergence",
    "SwitchEvent",
    "EventKind",
    "solve_pair",
    "solve_node",
    "solve_grid",
    "solve_linear",
    "settle_states",
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


def _balance(x, p_spec: MemristorSpec, p_state: DeviceState, vp, q_spec: MemristorSpec,
             q_state: DeviceState, ll, g_l: float):
    """Signed current sum into the node and its derivative at node coordinate
    x (= v_c), over floats or arrays as ``dev.current``; ``ll`` is the load
    current (g_l * v_l for a resistive load, i_l for a current source)."""
    v = vp + x
    f = dev.current(p_spec, p_state, v) + dev.current(q_spec, q_state, x) + ll + g_l * x
    df = (dev.differential_conductance(p_spec, p_state, v)
          + dev.differential_conductance(q_spec, q_state, x) + g_l)
    return f, df


def _load_terms(load: ResistiveLoad | CurrentSourceLoad) -> tuple[float, float]:
    """(g_l, g_l * v_l) of a resistive load, (0, i_l) of a current source."""
    if isinstance(load, ResistiveLoad):
        return load.g_l, load.g_l * load.v_l
    return 0.0, load.i_l


def is_ohmic(p_spec: MemristorSpec, q_spec: MemristorSpec) -> bool:
    """Whether both devices are ohmic, so that ``solve_linear`` applies."""
    return all(isinstance(spec.iv_model, dev.LinearIV) for spec in (p_spec, q_spec))


def solve_linear(p_spec: MemristorSpec, p_state: DeviceState, vp, q_spec: MemristorSpec,
                 q_state: DeviceState, ll, g_l: float):
    """The closed-form root of the balance of two ohmic devices, over floats
    or arrays as ``_balance``."""
    g_p = dev.differential_conductance(p_spec, p_state, 0.0)
    g_q = dev.differential_conductance(q_spec, q_state, 0.0)
    return (-g_p * vp - ll) / (g_l + g_p + g_q)


def _bracket_overflow(p_spec: MemristorSpec, p_state: DeviceState, v_p: float,
                      q_spec: MemristorSpec, q_state: DeviceState) -> NoConvergence:
    """Name the bracket end and the device whose I-V overflows there."""
    for x in (-BRACKET, BRACKET):
        for role, spec, state, v in (("P", p_spec, p_state, v_p + x),
                                     ("Q", q_spec, q_state, x)):
            try:  # cosh >= |sinh|: it overflows wherever the current does
                dev.differential_conductance(spec, state, v)
            except OverflowError:
                return NoConvergence(
                    f"I-V of device {role} ({state.logic.name}) overflows at the "
                    f"{x:+g} V end of the Newton bracket (drop {v:+.4g} V)")
    return NoConvergence("I-V overflow on the Newton bracket")


def solve_grid(p_spec: MemristorSpec, p_state: DeviceState, vp: np.ndarray,
               q_spec: MemristorSpec, q_state: DeviceState, ll: np.ndarray,
               g_l: float, iterations: np.ndarray | None = None) -> np.ndarray:
    """Safeguarded Newton on the monotone balance at every point of the
    broadcast (vp, ll) grid: the node coordinate x (= v_c) of each point,
    with ``ll`` the load current as for ``_balance``.

    Each point starts at x = 0, keeps its own bracket and leaves the
    iteration once it has converged: at an exact root, once the residual and
    the last step are both within tolerance, or once its bracket has closed
    to adjacent floats, whatever the residual (on a steep sinh one float
    moves the balance by more than ``TOL_CURRENT``). A Newton step may land
    on a bracket end; one that leaves the bracket, is NaN, or is not below
    half the step before last falls back to bisection; the last rule stops
    Newton crawling down a steep sinh at ~1/b volts per step.
    Never raises: a point whose balance has no sign change on the bracket
    takes the end its root lies beyond, sinh overflow saturates (NaN counts
    as f <= 0, which keeps ``f > 0`` monotone in x), and a point still open
    after ``MAX_ITERATIONS`` keeps its last iterate. ``iterations``, a flat
    integer array of the grid's size if given, receives the pass each point
    converged in; the entries of the other points are left as they are.
    """
    shape = np.broadcast_shapes(vp.shape, ll.shape)
    vp, ll = (a.ravel() for a in np.broadcast_arrays(vp, ll))
    with np.errstate(over="ignore", invalid="ignore"):
        f_lo, f_hi = (_balance(np.full(vp.size, end), p_spec, p_state, vp, q_spec, q_state,
                               ll, g_l)[0] for end in (-BRACKET, BRACKET))
        x = np.where(f_lo > 0.0, -BRACKET, BRACKET)
        i = np.flatnonzero(~(f_lo > 0.0) & (f_hi > 0.0))
        vp, ll = vp[i], ll[i]
        xi = np.zeros(i.size)
        lo = np.full(i.size, -BRACKET)
        hi = np.full(i.size, BRACKET)
        step = step_old = np.full(i.size, np.inf)
        for it in range(1, MAX_ITERATIONS + 1):
            if not i.size:
                break
            f, df = _balance(xi, p_spec, p_state, vp, q_spec, q_state, ll, g_l)
            dx = f / df  # df is a float when both devices are ohmic
            above = f > 0.0
            hi = np.where(above, xi, hi)
            lo = np.where(above, lo, xi)
            mid = 0.5 * (lo + hi)  # rounds to an end once the ends are adjacent floats
            done = ((f == 0.0) | (mid == lo) | (mid == hi)
                    | ((np.abs(f) <= TOL_CURRENT) & (np.abs(step) <= TOL_STEP)))
            if done.any():
                x[i[done]] = xi[done]
                if iterations is not None:
                    iterations[i[done]] = it
                keep = ~done
                i, xi, dx, mid, vp, ll, lo, hi, step, step_old = (
                    a[keep] for a in (i, xi, dx, mid, vp, ll, lo, hi, step, step_old))
            x_new = xi - dx
            newton = (lo <= x_new) & (x_new <= hi) & (2.0 * np.abs(dx) <= np.abs(step_old))
            x_new = np.where(newton, x_new, mid)
            step_old, step = step, x_new - xi
            xi = x_new
        x[i] = xi
    return x.reshape(shape)


def solve_pair(p_spec: MemristorSpec, p_state: DeviceState,
               q_spec: MemristorSpec, q_state: DeviceState,
               config: ImpConfig, s_p: int = 1, s_q: int = 1) -> NodeSolution:
    """Solve the two-device balance with explicit specs and drop signs: by
    ``solve_linear`` when both devices are ohmic (``iterations`` is 0), else
    by ``solve_grid`` on one point (``iterations`` counts its passes).

    Raises NoConvergence when an I-V overflows at a bracket end, when the
    balance has no root in the bracket, or when Newton is still open after
    ``MAX_ITERATIONS`` with a residual above ``TOL_CURRENT``.
    """
    v_p, (g_l, ll) = config.v_p, _load_terms(config.load)
    point = (p_spec, p_state, v_p, q_spec, q_state, ll, g_l)
    ohmic = is_ohmic(p_spec, q_spec)
    if ohmic:
        x, iterations = solve_linear(*point), 0
    else:
        try:
            f_lo, _ = _balance(-BRACKET, *point)
            f_hi, _ = _balance(BRACKET, *point)
        except OverflowError:
            raise _bracket_overflow(p_spec, p_state, v_p, q_spec, q_state) from None
        if f_lo > 0.0 or f_hi < 0.0:
            raise NoConvergence(
                f"no current-balance root in [{-BRACKET}, {BRACKET}] V "
                f"(f({-BRACKET})={f_lo:.3g}, f({BRACKET})={f_hi:.3g})")
        count = np.zeros(1, dtype=np.intp)  # stays 0 if the point is still open
        x = float(solve_grid(p_spec, p_state, np.array([v_p]), q_spec, q_state,
                             np.array([ll]), g_l, count)[0])
        iterations = int(count[0])
    residual, _ = _balance(x, *point)
    if not ohmic and iterations == 0:  # still open after MAX_ITERATIONS
        if not abs(residual) <= TOL_CURRENT:
            raise NoConvergence(f"residual {residual:.3g} A after {MAX_ITERATIONS} iterations")
        iterations = MAX_ITERATIONS
    return NodeSolution(v_c=x, drop_p=s_p * (v_p + x), drop_q=s_q * x,
                        residual=residual, iterations=iterations)


def solve_node(topology: StackTopology, specs: dict[str, MemristorSpec],
               states: dict[str, DeviceState], config: ImpConfig,
               p: str, q: str) -> NodeSolution:
    """Solve the common node of an implication step between cells p and q.

    ``states`` may contain spectator cells; only p and q enter the balance.
    """
    s_p, s_q = topology.step_signs(p, q)
    p_cell, q_cell = topology.cells[p], topology.cells[q]
    return solve_pair(specs[p_cell.spec_ref], states[p],
                      specs[q_cell.spec_ref], states[q], config, s_p=s_p, s_q=s_q)


class StateTable:
    """Device states under small integer codes, one table per process, so
    that a code means the same state in every run and in every memo keyed
    on codes. OFF and ON at scale 1 are codes 0 and 1; any other state
    takes the next code when first seen. ``is_on`` is an array over codes."""

    def __init__(self):
        self.states: list[DeviceState] = []
        self._codes: dict[DeviceState, int] = {}
        self._lock = threading.Lock()
        self.is_on = np.zeros(0, dtype=bool)
        self.code(dev.OFF)
        self.code(dev.ON)

    def code(self, state: DeviceState) -> int:
        code = self._codes.get(state)
        if code is None:
            with self._lock:
                code = self._codes.setdefault(state, len(self.states))
                if code == len(self.states):
                    self.states.append(state)
                    self.is_on = np.append(self.is_on, state.logic is Logic.ON)
        return code


STATES = StateTable()


def _pair_drops(solve: Callable[[int, int], NodeSolution], pq: np.ndarray,
                ) -> tuple[np.ndarray, NodeSolution]:
    """P's and Q's drops (rows) in every column of the code pairs ``pq``,
    solving each distinct pair once, and column 0's solution."""
    size = int(pq.max()) + 1
    pair = pq[0] * size + pq[1]
    present = np.flatnonzero(np.bincount(pair))
    by_pair = np.empty((present[-1] + 1, 2))
    sols = {}
    for key in present.tolist():
        try:
            sols[key] = sol = solve(*divmod(key, size))
        except NoConvergence as exc:
            exc.column = int(np.flatnonzero(pair == key)[0])
            raise
        by_pair[key] = sol.drop_p, sol.drop_q
    return by_pair[pair].T, sols[pair[0]]


def settle(solve: Callable[[int, int], NodeSolution], pq: np.ndarray, th: np.ndarray,
           full: np.ndarray, events: list | None = None) -> NodeSolution:
    """Apply the switching rules of one pulse to a fixed point in each
    column (trial) of ``pq``, P's and Q's ``STATES`` codes (rows), in place.
    The rows of ``th`` are Q's set threshold and P's and Q's reset onset,
    those of ``full`` P's and Q's full-reset level, a column or one value
    per trial; ``solve`` maps a (P code, Q code) pair to its node solution.

    Each pass solves the node, then applies at most one event per rule to
    each column still switching: Q sets if OFF and its drop reaches v_set;
    P, then Q, resets fully (to OFF at scale 1) at or below its full level,
    or else partially (ON only, scale times ``PARTIAL_RESET_FACTOR``) at or
    below its onset. The lattice is monotone within a pulse, so a column
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
        to_set = active & ~set_done & ~STATES.is_on[pq[1]] & (drops[1] >= v_set)
        pq[1, to_set] = 1
        set_done |= to_set
        full_hit = active & ~full_done & (drops <= full)
        partial_hit = active & ~full_hit & ~partial_done & (drops <= onset)
        full_done |= full_hit
        partial_done |= partial_hit
        to_full = full_hit & (pq != 0)
        to_partial = partial_hit & STATES.is_on[pq]
        if to_partial.any():  # a scale that leaves (0, 1] raises ValueError
            codes, inverse = np.unique(pq[to_partial], return_inverse=True)
            pq[to_partial] = np.array([STATES.code(DeviceState(
                Logic.ON, STATES.states[c].conductance_scale * dev.PARTIAL_RESET_FACTOR))
                for c in codes.tolist()], dtype=np.intp)[inverse]
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


def settle_states(topology: StackTopology, specs: dict[str, MemristorSpec],
                  states: dict[str, DeviceState], config: ImpConfig,
                  p: str, q: str, thresholds: dict[str, ThresholdSample],
                  ) -> tuple[dict[str, DeviceState], list[SwitchEvent], NodeSolution]:
    """``settle`` as a batch of one on a copy of ``states``, solving the node
    with ``solve_node``: the new states, the events and the first solution."""
    th_p, th_q = thresholds[p], thresholds[q]
    pq = np.array([[STATES.code(states[p])], [STATES.code(states[q])]])
    events: list = []
    first = settle(
        lambda a, b: solve_node(topology, specs, {p: STATES.states[a], q: STATES.states[b]},
                                config, p, q),
        pq, np.array([[th_q.v_set], [th_p.v_reset_onset], [th_q.v_reset_onset]]),
        np.array([[th_p.v_reset_full], [th_q.v_reset_full]]), events)
    states = {**states, p: STATES.states[pq[0, 0]], q: STATES.states[pq[1, 0]]}
    return states, [SwitchEvent((p, q)[r], kind, drop, it)
                    for r, kind, drop, it in events], first
