"""Quasi-static electrical solution of one implication step.

The step drives the conditioning device P's far terminal at v_p, grounds
the target device Q's far terminal, and attaches the load to the wire the
two devices share. Every other device has a floating far terminal, carries
no current, and equalizes to the common node, so the balance involves only
P, Q, and the load.

Sign convention: the reported common-node voltage ``v_c`` is the negated
electrical node potential, chosen so that for ohmic devices

    v_c = (-g_p * v_p - g_l * v_l) / (g_l + g_p + g_q)

and so that a positive ``v_c`` is a set-directed drop across a grounded
device whose set terminal faces away from the common node. Signed device
drops are reported in each device's own set convention: a drop at or above
the device's set threshold switches it ON, a drop at or below its reset
thresholds switches it (partially or fully) OFF.
"""

from __future__ import annotations

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
    """The current balance could not be driven below tolerance."""


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


def _balance(x: float, p_spec: MemristorSpec, p_state: DeviceState, v_p: float,
             q_spec: MemristorSpec, q_state: DeviceState,
             load: ResistiveLoad | CurrentSourceLoad) -> tuple[float, float]:
    """Signed current sum and its derivative at node coordinate x (= v_c)."""
    f = dev.current(p_spec, p_state, v_p + x) + dev.current(q_spec, q_state, x)
    df = (dev.differential_conductance(p_spec, p_state, v_p + x)
          + dev.differential_conductance(q_spec, q_state, x))
    if isinstance(load, ResistiveLoad):
        f += load.g_l * (load.v_l + x)
        df += load.g_l
    else:
        f += load.i_l
    return f, df


def _solve_linear(p_spec: MemristorSpec, p_state: DeviceState, v_p: float,
                  q_spec: MemristorSpec, q_state: DeviceState,
                  load: ResistiveLoad | CurrentSourceLoad) -> float:
    g_p = dev.differential_conductance(p_spec, p_state, 0.0)
    g_q = dev.differential_conductance(q_spec, q_state, 0.0)
    if isinstance(load, ResistiveLoad):
        return (-g_p * v_p - load.g_l * load.v_l) / (load.g_l + g_p + g_q)
    return (-g_p * v_p - load.i_l) / (g_p + g_q)


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


def _solve_iterative(p_spec: MemristorSpec, p_state: DeviceState, v_p: float,
                     q_spec: MemristorSpec, q_state: DeviceState,
                     load: ResistiveLoad | CurrentSourceLoad) -> tuple[float, float, int]:
    """Safeguarded Newton on the monotone current balance.

    The balance is strictly increasing in x, so a sign change on the
    bracket guarantees a unique root; Newton steps that leave the current
    bracket fall back to bisection.
    """
    lo, hi = -BRACKET, BRACKET
    try:
        f_lo, _ = _balance(lo, p_spec, p_state, v_p, q_spec, q_state, load)
        f_hi, _ = _balance(hi, p_spec, p_state, v_p, q_spec, q_state, load)
    except OverflowError:
        raise _bracket_overflow(p_spec, p_state, v_p, q_spec, q_state) from None
    if f_lo > 0.0 or f_hi < 0.0:
        raise NoConvergence(
            f"no current-balance root in [{-BRACKET}, {BRACKET}] V "
            f"(f({-BRACKET})={f_lo:.3g}, f({BRACKET})={f_hi:.3g})")
    x = 0.0
    step = float("inf")
    for it in range(1, MAX_ITERATIONS + 1):
        f, df = _balance(x, p_spec, p_state, v_p, q_spec, q_state, load)
        # converge in both current and position: the residual tolerance
        # alone leaves x loose where the local conductance is small
        if abs(f) <= TOL_CURRENT and abs(step) <= TOL_STEP:
            return x, f, it
        if f > 0.0:
            hi = x
        else:
            lo = x
        if df > 0.0:
            x_new = x - f / df
            if not lo < x_new < hi:
                x_new = 0.5 * (lo + hi)
        else:
            x_new = 0.5 * (lo + hi)
        step = x_new - x
        x = x_new
    f, _ = _balance(x, p_spec, p_state, v_p, q_spec, q_state, load)
    if abs(f) <= TOL_CURRENT:
        return x, f, MAX_ITERATIONS
    raise NoConvergence(f"residual {f:.3g} A after {MAX_ITERATIONS} iterations")


def solve_grid(p_spec: MemristorSpec, p_state: DeviceState, vp: np.ndarray,
               q_spec: MemristorSpec, q_state: DeviceState, ll: np.ndarray,
               g_l: float) -> np.ndarray:
    """``_solve_iterative`` over the broadcast (vp, ll) grid: the node
    coordinate x (= v_c) of every point, where ``ll`` is the load current
    (g_l * v_l for a resistive load, i_l for a current source).

    Each point keeps its own bracket and leaves the iteration once it has
    converged; ``f == 0`` counts as converged, and a Newton step may land
    on a bracket end. A step that leaves the bracket, is NaN, or is not
    below half the step before last falls back to bisection; the last rule
    stops Newton crawling down a steep sinh at ~1/b volts per step.
    Never raises: a point whose balance has no sign change on the bracket
    takes the end its root lies beyond, sinh overflow saturates (NaN counts
    as f <= 0, which keeps ``f > 0`` monotone in x), and a point still open
    after ``MAX_ITERATIONS`` keeps its last iterate.
    """
    shape = np.broadcast_shapes(vp.shape, ll.shape)
    vp, ll = (a.ravel() for a in np.broadcast_arrays(vp, ll))

    def balance(x, vp, ll):
        v = vp + x
        f = (dev.current(p_spec, p_state, v) + dev.current(q_spec, q_state, x)
             + ll + g_l * x)
        df = (dev.differential_conductance(p_spec, p_state, v)
              + dev.differential_conductance(q_spec, q_state, x) + g_l)
        return f, df

    with np.errstate(over="ignore", invalid="ignore"):
        f_lo, _ = balance(np.full(vp.size, -BRACKET), vp, ll)
        f_hi, _ = balance(np.full(vp.size, BRACKET), vp, ll)
        x = np.where(f_lo > 0.0, -BRACKET, BRACKET)
        i = np.flatnonzero(~(f_lo > 0.0) & (f_hi > 0.0))
        vp, ll = vp[i], ll[i]
        xi = np.zeros(i.size)
        lo = np.full(i.size, -BRACKET)
        hi = np.full(i.size, BRACKET)
        step = np.full(i.size, np.inf)
        step_old = step
        for _ in range(MAX_ITERATIONS):
            if not i.size:
                break
            f, df = balance(xi, vp, ll)
            dx = f / df  # df is a float when both devices are ohmic
            done = (f == 0.0) | ((np.abs(f) <= TOL_CURRENT) & (np.abs(step) <= TOL_STEP))
            if done.any():
                x[i[done]] = xi[done]
                keep = ~done
                i, xi, f, dx, vp, ll = i[keep], xi[keep], f[keep], dx[keep], vp[keep], ll[keep]
                lo, hi, step, step_old = lo[keep], hi[keep], step[keep], step_old[keep]
            above = f > 0.0
            hi = np.where(above, xi, hi)
            lo = np.where(above, lo, xi)
            x_new = xi - dx
            newton = (lo <= x_new) & (x_new <= hi) & (2.0 * np.abs(dx) <= np.abs(step_old))
            x_new = np.where(newton, x_new, 0.5 * (lo + hi))
            step_old, step = step, x_new - xi
            xi = x_new
        x[i] = xi
    return x.reshape(shape)


def solve_pair(p_spec: MemristorSpec, p_state: DeviceState,
               q_spec: MemristorSpec, q_state: DeviceState,
               config: ImpConfig, s_p: int = 1, s_q: int = 1,
               method: str = "auto") -> NodeSolution:
    """Solve the two-device balance with explicit specs and drop signs.

    ``method`` is "auto" (closed form when every involved branch is ohmic,
    Newton otherwise), "closed", or "iterative".
    """
    all_linear = isinstance(p_spec.iv_model, dev.LinearIV) and isinstance(
        q_spec.iv_model, dev.LinearIV)
    if method == "closed" or (method == "auto" and all_linear):
        if not all_linear:
            raise ValueError("closed-form solve requires ohmic devices")
        x = _solve_linear(p_spec, p_state, config.v_p, q_spec, q_state, config.load)
        residual, _ = _balance(x, p_spec, p_state, config.v_p, q_spec, q_state,
                               config.load)
        iterations = 0
    elif method in ("auto", "iterative"):
        x, residual, iterations = _solve_iterative(
            p_spec, p_state, config.v_p, q_spec, q_state, config.load)
    else:
        raise ValueError(f"unknown method {method!r}")

    return NodeSolution(
        v_c=x,
        drop_p=s_p * (config.v_p + x),
        drop_q=s_q * x,
        residual=residual,
        iterations=iterations,
    )


def solve_node(topology: StackTopology, specs: dict[str, MemristorSpec],
               states: dict[str, DeviceState], config: ImpConfig,
               p: str, q: str, method: str = "auto") -> NodeSolution:
    """Solve the common node of an implication step between cells p and q.

    ``states`` may contain spectator cells; only p and q enter the balance.
    """
    common = topology.common_wire(p, q)
    p_cell, q_cell = topology.cells[p], topology.cells[q]
    return solve_pair(specs[p_cell.spec_ref], states[p],
                      specs[q_cell.spec_ref], states[q], config,
                      s_p=topology.step_sign(p, common),
                      s_q=topology.step_sign(q, common), method=method)


def settle_states(topology: StackTopology, specs: dict[str, MemristorSpec],
                  states: dict[str, DeviceState], config: ImpConfig,
                  p: str, q: str, thresholds: dict[str, ThresholdSample],
                  partial_reset_factor: float = dev.PARTIAL_RESET_FACTOR,
                  ) -> tuple[dict[str, DeviceState], list[SwitchEvent], NodeSolution]:
    """``_settle`` on a copy of ``states``, solving the node with ``solve_node``."""
    states = dict(states)
    events, first = _settle(lambda s: solve_node(topology, specs, s, config, p, q),
                            states, p, q, thresholds, partial_reset_factor)
    return states, events, first


def _settle(solve: Callable[[dict[str, DeviceState]], NodeSolution],
            states: dict[str, DeviceState], p: str, q: str,
            thresholds: dict[str, ThresholdSample], partial_reset_factor: float,
            ) -> tuple[list[SwitchEvent], NodeSolution]:
    """Apply the switching rules of one pulse to a fixed point, updating
    ``states`` in place; ``solve`` maps them to the node solution.

    Each pass solves the node and then applies at most one event per rule:
    the target Q sets if its drop reaches its sampled set threshold; either
    driven device resets (partially for drops between the full level and
    the onset, fully below the full level). The state lattice is monotone
    within a pulse, so the loop terminates in a handful of passes. Returns
    the events and the first pass's solution: the bias point before switching.
    """
    events: list[SwitchEvent] = []
    set_done = False
    partial_done = {p: False, q: False}
    full_done = {p: False, q: False}

    for iteration in range(1, MAX_SETTLE_PASSES + 1):
        sol = solve(states)
        if iteration == 1:
            first = sol
        fired: list[SwitchEvent] = []

        if (not set_done and states[q].logic is Logic.OFF
                and sol.drop_q >= thresholds[q].v_set):
            states[q] = DeviceState(Logic.ON, 1.0)
            fired.append(SwitchEvent(q, EventKind.SET, sol.drop_q, iteration))
            set_done = True

        for cell, drop in ((p, sol.drop_p), (q, sol.drop_q)):
            th = thresholds[cell]
            st = states[cell]
            if drop <= th.v_reset_full and not full_done[cell]:
                if st.logic is Logic.ON or st.conductance_scale != 1.0:
                    states[cell] = DeviceState(Logic.OFF, 1.0)
                    fired.append(SwitchEvent(cell, EventKind.FULL_RESET, drop, iteration))
                full_done[cell] = True
            elif drop <= th.v_reset_onset and not partial_done[cell]:
                if st.logic is Logic.ON:
                    states[cell] = DeviceState(
                        Logic.ON, st.conductance_scale * partial_reset_factor)
                    fired.append(SwitchEvent(cell, EventKind.PARTIAL_RESET, drop, iteration))
                partial_done[cell] = True

        if not fired:
            return events, first
        events.extend(fired)

    raise NoConvergence("switching did not reach a fixed point")
