"""Stateful-logic micro-programs: the step language, the executor, NAND and
NOT macros, full-adder compilation, and the 8-bit ripple-carry composition.

Implication is the only compute step: ``q' <- p IMP q`` conditionally sets
the target cell, so NAND is a reset followed by two implications and NOT is
a reset followed by one. Values move between cells as complement pairs
(two NOTs).

A program compiles into a plan with one step interpreter, ``_Plan.run``,
which ``execute`` runs as a batch of one trial and
``montecarlo.estimate_yield`` over many. Each implication step applies
``solver.settle``, the one copy of the switching rules, to state codes
(``solver.state_of``: 0 is OFF, k + 1 is ON after k partial resets). A run
keeps one entry per cell: an int code at nominal thresholds, or a row of
codes, one per trial, in a batch. The plan owns the threshold draw order
(``_Plan.thresholds``). Implications are interned across plans, and at
zero variation each one's pulse outcome per (P code, Q code) is memoized
on Python ints. Write values are run-time inputs of a plan, so
``ripple_adder_8bit`` compiles one plan per (stack, specs, configs,
placement, bits), caches it, and gives each addition its own writes
instead of recompiling. A plan's steps fall into write segments,
each starting at step 0 or at a block of consecutive writes. A run without
step records or a trail at nominal thresholds looks each segment up in a
memo kept for the life of the plan, keyed by the segment, the codes
entering it and its write values, and bounded by ``SEGMENT_MEMO``; a miss
runs the segment's steps through the same interpreter and stores the exit
codes and reads; a segment that raises NoConvergence stores nothing.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import device as dev
from . import margins
from .device import MemristorSpec, _check_json
from .solver import (NoConvergence, NodeSolution, SwitchEvent, settle, solve_pair,
                     state_of)
from .topology import (CurrentSourceLoad, ImpConfig, ResistiveLoad,
                       StackTopology, build_adder_stack)

__all__ = [
    "ProgramError",
    "PlacementInfeasible",
    "WriteStep",
    "ResetStep",
    "ImpStep",
    "ReadStep",
    "Step",
    "StepProgram",
    "StepRecord",
    "ExecutionTrace",
    "execute",
    "nand_macro",
    "not_macro",
    "compile_full_adder",
    "ripple_adder_8bit",
    "default_configs",
    "with_inputs",
]


class ProgramError(Exception):
    """A step violates adjacency, usability, or definition rules."""


class PlacementInfeasible(ProgramError):
    """No legal schedule exists for the requested placement."""


@dataclass(frozen=True)
class WriteStep:
    cell: str
    value: int
    op: str = field(default="write", init=False)

    def __post_init__(self):
        if self.value not in (0, 1):
            raise ProgramError(
                f"write of {self.value!r} to {self.cell!r}: value must be 0 or 1")
        object.__setattr__(self, "value", int(self.value))


@dataclass(frozen=True)
class ResetStep:
    cell: str
    op: str = field(default="reset", init=False)


@dataclass(frozen=True)
class ImpStep:
    p: str
    q: str
    config_ref: str = "auto"
    op: str = field(default="imp", init=False)


@dataclass(frozen=True)
class ReadStep:
    cell: str
    op: str = field(default="read", init=False)


Step = WriteStep | ResetStep | ImpStep | ReadStep


def _step_detail(s: Step) -> dict:
    """A step's operands as in its JSON object."""
    if isinstance(s, WriteStep):
        return {"cell": s.cell, "value": s.value}
    if isinstance(s, ImpStep):
        return {"p": s.p, "q": s.q, "config": s.config_ref}
    return {"cell": s.cell}


@dataclass(frozen=True)
class StepProgram:
    """Ordered steps plus the variable-to-cell maps for inputs/outputs."""

    steps: tuple[Step, ...]
    declared_inputs: dict[str, str] = field(default_factory=dict)
    declared_outputs: dict[str, str] = field(default_factory=dict)

    def census(self) -> tuple[int, int]:
        """(reset count, implication count)."""
        resets = sum(1 for s in self.steps if isinstance(s, ResetStep))
        imps = sum(1 for s in self.steps if isinstance(s, ImpStep))
        return resets, imps

    def __add__(self, other: "StepProgram") -> "StepProgram":
        inputs = {**self.declared_inputs, **other.declared_inputs}
        outputs = {**self.declared_outputs, **other.declared_outputs}
        return StepProgram(self.steps + other.steps, inputs, outputs)

    def validate(self, topology: StackTopology) -> None:
        """Static checks: targets usable, implication pairs share a wire,
        and every read or declared-output cell is defined before use."""
        defined: set[str] = set()
        for i, step in enumerate(self.steps):
            if isinstance(step, (WriteStep, ResetStep)):
                if not topology.is_usable(step.cell):
                    raise ProgramError(f"step {i}: cell {step.cell!r} not usable")
                defined.add(step.cell)
            elif isinstance(step, ImpStep):
                for cid in (step.p, step.q):
                    if not topology.is_usable(cid):
                        raise ProgramError(f"step {i}: cell {cid!r} not usable")
                if not topology.are_adjacent(step.p, step.q):
                    raise ProgramError(
                        f"step {i}: {step.p} and {step.q} share no wire")
                defined.add(step.q)
            elif isinstance(step, ReadStep):
                if not topology.is_usable(step.cell):
                    raise ProgramError(f"step {i}: cell {step.cell!r} not usable")
                if step.cell not in defined:
                    raise ProgramError(
                        f"step {i}: read of {step.cell!r} before it is written")
        for var, cell in self.declared_outputs.items():
            if cell not in defined:
                raise ProgramError(f"output {var!r} cell {cell!r} never written")

    def to_json(self) -> dict:
        return {"steps": [{"op": s.op, **_step_detail(s)} for s in self.steps],
                "inputs": dict(self.declared_inputs),
                "outputs": dict(self.declared_outputs)}

    @classmethod
    def from_json(cls, obj: dict) -> "StepProgram":
        obj = _check_json(obj, dict, "program")
        steps: list[Step] = []
        for i, s in enumerate(_check_json(obj.get("steps", []), list, "steps")):
            s = _check_json(s, dict, f"step {i}")

            def name(key: str) -> str:
                return _check_json(s[key], str, f"step {i} {key}")

            op = s.get("op")
            if op == "write":
                steps.append(WriteStep(cell=name("cell"), value=s["value"]))
            elif op == "reset":
                steps.append(ResetStep(cell=name("cell")))
            elif op == "imp":
                steps.append(ImpStep(p=name("p"), q=name("q"),
                                     config_ref=_check_json(s.get("config", "auto"), str,
                                                            f"step {i} config")))
            elif op == "read":
                steps.append(ReadStep(cell=name("cell")))
            else:
                raise ProgramError(f"step {i}: unknown op {op!r}")
        maps = {key: {var: _check_json(cell, str, f"{key} {var!r}") for var, cell
                      in _check_json(obj.get(key, {}), dict, key).items()}
                for key in ("inputs", "outputs")}
        return cls(steps=tuple(steps), declared_inputs=maps["inputs"],
                   declared_outputs=maps["outputs"])


@dataclass(frozen=True)
class StepRecord:
    index: int
    op: str
    detail: dict
    states_after: dict[str, tuple[str, float]]
    node: NodeSolution | None
    events: tuple[SwitchEvent, ...]
    read_bit: int | None


@dataclass
class ExecutionTrace:
    steps: list[StepRecord]
    reads: list[tuple[int, str, int]]
    final_bits: dict[str, int]
    variation: str
    seed: int | tuple[int, ...] | None

    def jsonl_records(self) -> list[dict]:
        out = []
        for r in self.steps:
            rec: dict = {"step": r.index, "op": r.op, **r.detail}
            if r.node is not None:
                rec["v_c"] = r.node.v_c
                rec["drop_p"] = r.node.drop_p
                rec["drop_q"] = r.node.drop_q
            if r.events:
                rec["events"] = [
                    {"cell": e.cell, "kind": e.kind.value, "drop": e.drop}
                    for e in r.events]
            if r.read_bit is not None:
                rec["bit"] = r.read_bit
            rec["states"] = {c: {"logic": s[0], "scale": s[1]}
                             for c, s in sorted(r.states_after.items())}
            out.append(rec)
        return out

    def output_bits(self, program: StepProgram) -> dict[str, int]:
        return {var: self.final_bits[cell]
                for var, cell in program.declared_outputs.items()}


def _resolve_config(step: ImpStep, topology: StackTopology,
                    configs: dict[str, ImpConfig]) -> ImpConfig:
    if step.config_ref in configs:
        return configs[step.config_ref]
    if step.config_ref == "auto":
        ref = "drive_neg" if topology.step_signs(step.p, step.q)[1] > 0 else "drive_pos"
        if ref in configs:
            return configs[ref]
        raise ProgramError(f"auto config needs {ref!r} in the config map")
    raise ProgramError(f"unknown config {step.config_ref!r}")


def _where(index: int, step: ImpStep, config: ImpConfig) -> str:
    """Name an implication step and its bias, for error messages."""
    load = config.load
    if isinstance(load, ResistiveLoad):
        bias = f"g_l {load.g_l:.6g} S to v_l {load.v_l:+.6g} V"
    else:
        bias = f"i_l {load.i_l:+.6g} A"
    return f"step {index} (imp {step.p} -> {step.q}, v_p {config.v_p:+.6g} V, {bias})"


class _Imp:
    """An implication's bias, P's and Q's specs and drop signs, and two memos
    per (P code, Q code) that hold in every run: the node solution, and the
    new codes, events and first solution of a pulse at nominal thresholds."""

    def __init__(self, config: ImpConfig, p_spec: MemristorSpec, q_spec: MemristorSpec,
                 s_p: int, s_q: int):
        self.config, self.p_spec, self.q_spec, self.s_p, self.s_q = (
            config, p_spec, q_spec, s_p, s_q)
        # draws take the full-reset level of nominal_thresholds
        nom_p, nom_q = dev.nominal_thresholds(p_spec), dev.nominal_thresholds(q_spec)
        self.full = np.array([[nom_p.v_reset_full], [nom_q.v_reset_full]])
        self.nominal = np.array([[nom_q.v_set], [nom_p.v_reset_onset], [nom_q.v_reset_onset]])
        self.solutions: dict[tuple[int, int], NodeSolution] = {}
        self.settled: dict[tuple[int, int], tuple] = {}

    def solve(self, p_code: int, q_code: int) -> NodeSolution:
        sol = self.solutions.get((p_code, q_code))
        if sol is None:
            sol = self.solutions[p_code, q_code] = solve_pair(
                self.p_spec, state_of(p_code), self.q_spec, state_of(q_code),
                self.config, self.s_p, self.s_q)
        return sol

    def settle_nominal(self, p_code: int, q_code: int) -> tuple:
        """(P code, Q code, events, first solution) after a pulse at nominal
        thresholds, from the memo or from ``settle`` on a batch of one."""
        out = self.settled.get((p_code, q_code))
        if out is None:
            pq = np.array([[p_code], [q_code]])
            events: list = []
            node = settle(self.solve, pq, self.nominal, self.full, events)
            out = self.settled[p_code, q_code] = (*pq[:, 0].tolist(), tuple(events), node)
        return out


@functools.lru_cache(maxsize=1024)
def _intern_imp(config: ImpConfig, p_spec: MemristorSpec, q_spec: MemristorSpec,
                s_p: int, s_q: int, zero_signs: tuple[float, ...]) -> _Imp:
    """The one ``_Imp`` of a bias, specs and drop signs, so that its memos
    outlive a run. Biases equal but for the sign of a zero give node
    voltages of different sign, so ``zero_signs`` keeps them apart."""
    return _Imp(config, p_spec, q_spec, s_p, s_q)


def _zero_signs(config: ImpConfig) -> tuple[float, ...]:
    """The signs of a bias's fields, which tell 0.0 from -0.0."""
    return tuple(math.copysign(1.0, x) for x in (config.v_p, *vars(config.load).values()))


# Zero-variation segment runs a plan memoizes at most; a full memo is cleared.
# The default 8-bit ripple plan fills 176 entries over all additions.
SEGMENT_MEMO = 1024


def _column0(state: list) -> list[int]:
    """Column 0 of a run state, as one int code per cell."""
    return [s if isinstance(s, int) else int(s[0]) for s in state]


class _Plan:
    """A program validated and compiled for one topology, spec map and
    config map, run by ``execute``, ``ripple_adder_8bit`` and
    ``montecarlo.estimate_yield``. Draws are numbered in step order (a
    reset's cell; an implication's P, then Q): draw k takes v_set and reset
    onset from rows 2k and 2k + 1 of the threshold table ``lo + span * U``.
    ``ops[i]`` is step i's cell row, or for an implication its interned
    ``_Imp``, the number of its P draw, and P's and Q's rows. ``writes``
    holds the write steps' values, which a run may replace, since
    validation does not depend on them, and ``write_at`` each write step's
    index with its WriteSteps of value 0 and 1. A run's state is a list
    with one entry per cell row: an int code at nominal thresholds, or a 1-D
    ``np.intp`` row of codes, one per trial, in a batch. ``segments`` cuts
    the steps into (start, stop, write start, write stop) runs, each
    starting at step 0 or at a block of consecutive writes; ``_memo`` holds
    nominal segment runs for the life of the plan, at most
    ``SEGMENT_MEMO`` of them."""

    def __init__(self, program: StepProgram, topology: StackTopology,
                 specs: dict[str, MemristorSpec], configs: dict[str, ImpConfig]):
        program.validate(topology)
        self.steps = program.steps
        self.inputs, self.outputs = program.declared_inputs, program.declared_outputs
        self.specs = {c: specs[topology.cells[c].spec_ref] for c in topology.usable_cells()}
        rows = {c: r for r, c in enumerate(self.specs)}
        drawn: list[int] = []  # the row of each draw's cell, in draw order
        resolved: dict[ImpStep, _Imp] = {}
        ops: list[tuple] = []
        self.writes = tuple(s.value for s in program.steps if isinstance(s, WriteStep))
        self.write_at = tuple((i, (WriteStep(s.cell, 0), WriteStep(s.cell, 1)))
                              for i, s in enumerate(program.steps)
                              if isinstance(s, WriteStep))
        for step in program.steps:
            if isinstance(step, ImpStep):
                imp = resolved.get(step)
                if imp is None:
                    config = _resolve_config(step, topology, configs)
                    imp = resolved[step] = _intern_imp(
                        config, self.specs[step.p], self.specs[step.q],
                        *topology.step_signs(step.p, step.q), _zero_signs(config))
                ops.append((imp, len(drawn), rows[step.p], rows[step.q]))
                drawn += (rows[step.p], rows[step.q])
            else:
                ops.append(rows[step.cell])
                if isinstance(step, ResetStep):
                    drawn.append(rows[step.cell])
        self.ops = tuple(ops)
        by_row = list(self.specs.values())
        lo = np.array([(s.v_set_min, s.v_reset_max) for s in by_row]).reshape(-1, 2)
        hi = np.array([(s.v_set_max, s.v_reset_min) for s in by_row]).reshape(-1, 2)
        self.lo, self.span = lo[drawn].ravel(), (hi - lo)[drawn].ravel()
        self._bits: dict[tuple[str, int], int] = {}
        # segments start at step 0 and at each later block of consecutive writes
        is_write = [isinstance(s, WriteStep) for s in program.steps]
        bounds = [0] + [i for i in range(1, len(is_write))
                        if is_write[i] and not is_write[i - 1]] + [len(is_write)]
        writes_before = [0, *itertools.accumulate(is_write)]
        self.segments = tuple((start, stop, writes_before[start], writes_before[stop])
                              for start, stop in zip(bounds, bounds[1:]))
        self._memo: dict[tuple, tuple] = {}
        self._decoded: dict[tuple[int, ...], tuple[int, ...]] = {}  # final codes -> bits

    def program(self, writes: Sequence[int]) -> StepProgram:
        """The plan's program with ``writes`` as its write steps' values, in
        step order."""
        steps = list(self.steps)
        for (i, by_value), value in zip(self.write_at, writes):
            steps[i] = by_value[value]
        return StepProgram(tuple(steps), dict(self.inputs), dict(self.outputs))

    def bit(self, cell: str, code: int) -> int:
        """The bit that ``cell`` reads in the state of ``code``, decoded once
        per plan."""
        bit = self._bits.get((cell, code))
        if bit is None:
            bit = self._bits[cell, code] = dev.decode_bit(self.specs[cell], state_of(code))
        return bit

    def thresholds(self, seeds: list) -> np.ndarray:
        """One threshold table per seed, as the columns of the result: ``lo +
        span * U`` with U from ``default_rng(seed)``, which is how numpy's
        ``uniform(lo, hi)`` computes it."""
        u = np.empty((len(seeds), self.lo.size))
        if self.lo.size:
            for j, seed in enumerate(seeds):
                np.random.default_rng(seed).random(out=u[j])
        u *= self.span
        u += self.lo
        return u.T

    def run(self, th: np.ndarray | None = None, first_trial: int | None = None,
            records: list | None = None, trail: list | None = None,
            writes: Sequence[int] | None = None,
            ) -> tuple[list, list[tuple[int, str, int]]]:
        """The one step interpreter. Runs the program over the columns of
        ``th``, one trial's threshold table each, or once at nominal
        thresholds when ``th`` is None, settling each implication through
        its memo. The state holds one entry per cell: an int code at
        nominal thresholds, else a row of codes with one column per trial.
        Rows are replaced, never written in place, so entries may share
        them. Error messages name trial ``first_trial + column`` when a
        first trial is given. ``records`` collects column 0's StepRecords,
        ``trail`` each implication's P and Q entries after it. ``writes``
        gives the write steps their values, in step order, in place of the
        program's. Returns the final state and column 0's reads.

        The steps run segment by segment. A nominal run without records or
        a trail looks each segment up in the plan's memo, keyed by the
        segment, the state entering it and its write values, and on a miss
        runs its steps and stores the exit state and the segment's reads."""
        # codes: OFF 0, ON 1
        filled = (0, 1) if th is None else tuple(
            np.full(th.shape[1], code, dtype=np.intp) for code in (0, 1))
        state = [filled[0]] * len(self.specs)
        reads: list[tuple[int, str, int]] = []
        writes = self.writes if writes is None else writes
        memo = self._memo if th is None and records is None and trail is None else None
        for segment, (start, stop, write_start, write_stop) in enumerate(self.segments):
            segment_writes = tuple(writes[write_start:write_stop])
            if memo is not None:
                key = (segment, tuple(state), segment_writes)
                hit = memo.get(key)
                if hit is not None:
                    state[:] = hit[0]
                    reads += hit[1]
                    continue
                first_read = len(reads)
            values = iter(segment_writes)
            for i in range(start, stop):
                step, op = self.steps[i], self.ops[i]
                node, events, bit = None, (), None
                if isinstance(step, ImpStep):
                    imp, k, p, q = op
                    try:
                        if th is None:
                            state[p], state[q], events, node = imp.settle_nominal(
                                state[p], state[q])
                        else:
                            pq = np.stack((state[p], state[q]))
                            events = [] if records is not None else None
                            node = settle(imp.solve, pq,
                                          th[[2 * k + 2, 2 * k + 1, 2 * k + 3]],
                                          imp.full, events)
                            state[p], state[q] = pq
                    except NoConvergence as exc:
                        where = _where(i, step, imp.config)
                        if first_trial is not None:
                            where = f"trial {first_trial + exc.column}, {where}"
                        raise NoConvergence(f"{where}: {exc}") from exc
                    if trail is not None:
                        trail.append((state[p], state[q]))
                elif isinstance(step, ResetStep):
                    state[op] = filled[0]
                elif isinstance(step, WriteStep):
                    value = next(values)
                    state[op] = filled[value]
                else:
                    code = state[op] if th is None else int(state[op][0])
                    bit = self.bit(step.cell, code)
                    reads.append((i, step.cell, bit))
                if records is not None:
                    detail = _step_detail(step)
                    if isinstance(step, ImpStep):
                        events = tuple(SwitchEvent((step.p, step.q)[role], kind, drop, it)
                                       for role, kind, drop, it in events)
                    elif isinstance(step, WriteStep):
                        detail["value"] = value
                    after = {c: (s.logic.name, s.conductance_scale) for c, s in
                             zip(self.specs, map(state_of, _column0(state)))}
                    records.append(StepRecord(i, step.op, detail, after, node, events, bit))
            if memo is not None:
                if len(memo) >= SEGMENT_MEMO:
                    memo.clear()
                memo[key] = (tuple(state), tuple(reads[first_read:]))
        return state, reads

    def trace(self, variation: str, seed: int | tuple[int, ...] | None, trace_level: str,
              writes: Sequence[int] | None = None) -> ExecutionTrace:
        """One run, at nominal thresholds or at thresholds drawn from
        ``default_rng(seed)``, decoded into an ExecutionTrace; its step
        records are kept when ``trace_level`` is "full", none for "reads"."""
        if variation not in ("off", "seeded"):
            raise ValueError("variation must be 'off' or 'seeded'")
        if variation == "seeded" and seed is not None and not all(
                isinstance(x, int) and not isinstance(x, bool) and x >= 0
                for x in (seed if isinstance(seed, tuple) else (seed,))):
            raise ValueError(
                f"seed must be None, an int >= 0 or a tuple of such ints, got {seed!r}")
        th = self.thresholds([seed]) if variation == "seeded" else None
        records = [] if trace_level == "full" else None
        state, reads = self.run(th, records=records, writes=writes)
        codes = tuple(_column0(state))
        bits = self._decoded.get(codes)
        if bits is None:
            if len(self._decoded) >= SEGMENT_MEMO:
                self._decoded.clear()
            bits = self._decoded[codes] = tuple(map(self.bit, self.specs, codes))
        return ExecutionTrace(steps=records or [], reads=reads,
                              final_bits=dict(zip(self.specs, bits)),
                              variation=variation, seed=seed)


def execute(program: StepProgram, topology: StackTopology,
            specs: dict[str, MemristorSpec], configs: dict[str, ImpConfig],
            variation: str = "off", seed: int | tuple[int, ...] | None = None,
            ) -> ExecutionTrace:
    """Run the program through the electrical solver.

    Writes are ideal; resets drive the cell fully OFF unconditionally;
    implication steps settle through the node solver with thresholds taken
    per step (sampled from ``default_rng(seed)`` when variation is
    "seeded", midpoints when "off"), in the draw order of ``_Plan``, so
    ``seed=(s, t)`` reruns trial t of a yield study with seed s; config
    errors are raised before any step runs. The run is a batch of one on
    the plan's interpreter; at zero variation each pulse's outcome comes
    from its implication's memo. The trace keeps every step's record.
    A ``variation`` other than "off" or "seeded", or, in a seeded run, a
    ``seed`` that is neither None, an int >= 0 nor a tuple of such ints
    (bools excluded) raise ValueError.
    """
    return _Plan(program, topology, specs, configs).trace(variation, seed, "full")


def nand_macro(a: str, b: str, out: str) -> StepProgram:
    """out <- NAND(a, b) as one unconditional reset and two implications."""
    if out in (a, b):
        raise ProgramError("NAND output cell must differ from both inputs")
    steps = (ResetStep(out), ImpStep(a, out), ImpStep(b, out))
    return StepProgram(steps, declared_inputs={"a": a, "b": b},
                       declared_outputs={"out": out})


def not_macro(a: str, out: str) -> StepProgram:
    """out <- NOT(a) as one unconditional reset and one implication."""
    if out == a:
        raise ProgramError("NOT output cell must differ from its input")
    steps = (ResetStep(out), ImpStep(a, out))
    return StepProgram(steps, declared_inputs={"a": a},
                       declared_outputs={"out": out})


def with_inputs(program: StepProgram, values: dict[str, int]) -> StepProgram:
    """Prepend ideal writes loading the declared inputs with given values."""
    missing = set(program.declared_inputs) - set(values)
    if missing:
        raise ProgramError(f"missing input values for {sorted(missing)}")
    writes = tuple(WriteStep(program.declared_inputs[var], values[var])
                   for var in sorted(program.declared_inputs))
    return StepProgram(writes + program.steps, program.declared_inputs,
                       program.declared_outputs)


# ---------------------------------------------------------------------------
# Full-adder compilation
# ---------------------------------------------------------------------------

# The standard 9-NAND decomposition: h = a xor b via four NANDs, the sum as
# h xor c_in via four more, and the carry from the two first-stage NANDs.
_FA_OPS: dict[str, tuple[str, str]] = {
    "n1": ("a", "b"),
    "n2": ("a", "n1"),
    "n3": ("b", "n1"),
    "h": ("n2", "n3"),
    "n4": ("h", "c"),
    "n5": ("h", "n4"),
    "n6": ("c", "n4"),
    "s": ("n5", "n6"),
    "cout": ("n1", "n4"),
}
_FA_CONSUMERS: dict[str, frozenset[str]] = {}
for _op, (_d1, _d2) in _FA_OPS.items():
    for _d in (_d1, _d2):
        _FA_CONSUMERS[_d] = _FA_CONSUMERS.get(_d, frozenset()) | {_op}
for _v in ("s", "cout"):
    _FA_CONSUMERS.setdefault(_v, frozenset())

_SEARCH_BUDGET = 500_000
_FA_MOVES = 2  # complement-pair copies: four NOTs


@functools.lru_cache(maxsize=64)
def _schedule_full_adder(cells: tuple[str, ...],
                         adjacency: tuple[frozenset[str], ...],
                         placement: tuple[tuple[str, str], ...]) -> tuple[tuple, ...]:
    """Backtracking search for an order and cell assignment of the 9-NAND
    dataflow plus exactly ``_FA_MOVES`` complement-pair copies, ending with the
    carry in the carry-in cell. Deterministic: candidates are explored in
    sorted order and the first complete schedule wins.

    ``adjacency`` holds each cell's neighbours and ``placement`` the
    (variable, cell) pairs of a, b and c. Schedules are memoized on the
    arguments; a PlacementInfeasible is not, so it is raised on every call.
    """
    adj = dict(zip(cells, adjacency))
    placement = dict(placement)
    cin_cell = placement["c"]
    index = {c: i for i, c in enumerate(cells)}
    visited: set = set()
    budget = [_SEARCH_BUDGET]

    def canon(state: tuple, done: frozenset) -> tuple:
        out = []
        for cell, val in zip(cells, state):
            if val is None:
                out.append(None)
                continue
            useful = (_FA_CONSUMERS[val] - done) or val == "s" or (
                val == "cout" and cell == cin_cell)
            out.append(val if useful else None)
        return tuple(out)

    def dfs(state: tuple, done: frozenset, moves_left: int,
            sched: list[tuple]) -> bool:
        if len(done) == len(_FA_OPS) and moves_left == 0:
            return state[index[cin_cell]] == "cout" and "s" in state
        key = (state, done, moves_left)
        if key in visited:
            return False
        if budget[0] <= 0:
            return False
        budget[0] -= 1

        locs: dict[str, list[str]] = {}
        for cell, val in zip(cells, state):
            if val is not None:
                locs.setdefault(val, []).append(cell)

        for op in _FA_OPS:
            if op in done:
                continue
            d1, d2 = _FA_OPS[op]
            if d1 not in locs or d2 not in locs:
                continue
            for c1 in locs[d1]:
                for c2 in locs[d2]:
                    if c1 == c2:
                        continue
                    for tgt in sorted(adj[c1] & adj[c2]):
                        old = state[index[tgt]]
                        if old is not None and len(locs[old]) == 1:
                            continue  # would clobber the last live copy
                        ns = list(state)
                        ns[index[tgt]] = op
                        nd = done | {op}
                        sched.append(("nand", op, c1, c2, tgt))
                        if dfs(canon(tuple(ns), nd), nd, moves_left, sched):
                            return True
                        sched.pop()
        if moves_left > 0:
            for val in sorted(locs):
                for src in locs[val]:
                    for via in sorted(adj[src]):
                        mid = state[index[via]]
                        if mid is not None and len(locs[mid]) == 1:
                            continue
                        for dst in sorted(adj[via]):
                            if dst == src:
                                continue
                            at_dst = state[index[dst]]
                            if at_dst is not None:
                                survivors = [c for c in locs.get(at_dst, [])
                                             if c != via]
                                if len(survivors) == 1 and survivors[0] == dst:
                                    continue
                            ns = list(state)
                            ns[index[via]] = None  # holds the complement
                            ns[index[dst]] = val
                            sched.append(("move", val, src, via, dst))
                            if dfs(canon(tuple(ns), done), done,
                                   moves_left - 1, sched):
                                return True
                            sched.pop()
        visited.add(key)
        return False

    init = [None] * len(cells)
    for var in ("a", "b", "c"):
        init[index[placement[var]]] = var
    sched: list[tuple] = []
    if dfs(canon(tuple(init), frozenset()), frozenset(), _FA_MOVES, sched):
        return tuple(sched)
    raise PlacementInfeasible(
        f"no 9-NAND/{2 * _FA_MOVES}-NOT schedule for placement {placement}")


def compile_full_adder(stack: StackTopology,
                       placement: dict[str, str] | None = None) -> StepProgram:
    """Compile s = a xor b xor c_in and c_out = majority(a, b, c_in) onto the
    stack: nine NANDs plus four NOTs (two complement-pair copies), i.e. 13
    resets and 22 implications, with the carry ending in the carry-in cell
    so rounds chain on one circuit. The program is valid by construction,
    since the schedule uses only usable cells and puts every target next to
    both its operands, so it is not validated here; ``execute`` validates
    whatever it runs."""
    placement = dict(placement or {"a": "B1", "b": "B2", "c_in": "T3"})
    if set(placement) != {"a", "b", "c_in"}:
        raise ProgramError("placement must map exactly a, b, c_in")
    cells_used = list(placement.values())
    if len(set(cells_used)) != 3:
        raise ProgramError("placement cells must be distinct")
    for cid in cells_used:
        if not stack.is_usable(cid):
            raise ProgramError(f"placement cell {cid!r} not usable")

    usable = stack.usable_cells()
    sched = _schedule_full_adder(
        tuple(usable), tuple(frozenset(stack.neighbors(c)) for c in usable),
        (("a", placement["a"]), ("b", placement["b"]), ("c", placement["c_in"])))

    steps: list[Step] = []
    holds: dict[str, str] = {placement["a"]: "a", placement["b"]: "b",
                             placement["c_in"]: "c"}
    for action in sched:
        if action[0] == "nand":
            _, op, c1, c2, tgt = action
            steps += [ResetStep(tgt), ImpStep(c1, tgt), ImpStep(c2, tgt)]
            holds[tgt] = op
        else:
            _, val, src, via, dst = action
            steps += [ResetStep(via), ImpStep(src, via),
                      ResetStep(dst), ImpStep(via, dst)]
            holds[via] = f"~{val}"
            holds[dst] = val
    s_cell = sorted(c for c, v in holds.items() if v == "s")[0]
    cout_cell = sorted(c for c, v in holds.items() if v == "cout")[0]

    program = StepProgram(tuple(steps),
                          declared_inputs={"a": placement["a"],
                                           "b": placement["b"],
                                           "c_in": placement["c_in"]},
                          declared_outputs={"s": s_cell, "c_out": cout_cell})
    return program


def default_configs(spec: MemristorSpec) -> dict[str, ImpConfig]:
    """Current-source bias pair at the analytic optimum for the given spec:
    ``drive_neg`` for steps whose target sets away from the common node,
    ``drive_pos`` for the mirrored class."""
    report = margins.analytic_report(spec, 0.0)
    v_p, i_l = report.optimal_v_p, report.optimal_i_l
    return {
        "drive_neg": ImpConfig(v_p=v_p, load=CurrentSourceLoad(i_l)),
        "drive_pos": ImpConfig(v_p=-v_p, load=CurrentSourceLoad(-i_l)),
    }


@functools.lru_cache(maxsize=64)
def _ripple_plan(stack: tuple | None, specs: tuple | None, configs: tuple | None,
                 placement: tuple | None, bits: int) -> _Plan:
    """The validated plan of a ``bits``-round ripple addition of the full
    adder, memoized on the hashable forms of ``ripple_adder_8bit``'s
    arguments, None standing for a default: the stack's (cell items,
    unusable set), the spec and placement items, and each config's (name,
    config, zero signs), which keep 0.0 and -0.0 biases apart as in
    ``_intern_imp``. Round zero writes a_0, b_0 and the carry-in, every
    later round a_i and b_i, and each round ends by reading its sum bit;
    the last round also reads the carry-out. The plan is built on all-zero
    writes; each addition runs it with its own."""
    topology = (build_adder_stack() if stack is None
                else StackTopology(dict(stack[0]), stack[1]))
    if specs is None:
        shared = dev.ideal_device_spec()
        spec_map = {ref: shared for ref in {c.spec_ref for c in topology.cells.values()}}
    else:
        spec_map = dict(specs)
    config_map = (default_configs(next(iter(spec_map.values()))) if configs is None
                  else {name: config for name, config, _ in configs})
    fa = compile_full_adder(topology, None if placement is None else dict(placement))
    writes = tuple(WriteStep(fa.declared_inputs[v], 0) for v in ("a", "b", "c_in"))
    tail = fa.steps + (ReadStep(fa.declared_outputs["s"]),)
    steps = writes + tail + (writes[:2] + tail) * (bits - 1)
    program = StepProgram(steps + (ReadStep(fa.declared_outputs["c_out"]),),
                          {"a": writes[0].cell, "b": writes[1].cell, "c0": writes[2].cell},
                          {"sum_bit": fa.declared_outputs["s"],
                           "c_out": fa.declared_outputs["c_out"]})
    return _Plan(program, topology, spec_map, config_map)


def ripple_adder_8bit(a: int, b: int, c0: int, bits: int = 8,
                      stack: StackTopology | None = None,
                      specs: dict[str, MemristorSpec] | None = None,
                      configs: dict[str, ImpConfig] | None = None,
                      placement: dict[str, str] | None = None,
                      variation: str = "off", seed: int | None = None,
                      ) -> tuple[int, int, ExecutionTrace, StepProgram]:
    """Add two ``bits``-wide integers by running the full adder once per bit
    on the same six cells, carrying through the carry cell.

    Returns (sum, carry_out, trace, program); the trace keeps the reads but
    no per-step records. The composed program writes a_i and b_i each
    round; the carry-in is written only in round zero and thereafter picked
    up where the previous round left it. The validated plan of that program
    is compiled once per (stack, specs, configs, placement, bits) and
    cached, so an addition runs it with its write values (a_0, b_0, c0,
    then a_i, b_i), the same run ``execute`` makes of the program that
    writes them, and returns that program. At zero variation the cached plan
    memoizes each round (one write segment) by its entry codes and write
    values, so a warm addition looks up its rounds instead of stepping
    through them; the memo is bounded by ``SEGMENT_MEMO`` and not used when
    a run keeps step records or a trail.
    A ``bits`` that is not an int >= 1, operands or a carry-in that are not
    ints (bools included), operands that do not fit in ``bits``, a carry-in
    other than 0 or 1, or a ``variation`` or seed that ``execute`` rejects
    raise ValueError.
    """
    if not isinstance(bits, int) or isinstance(bits, bool) or bits < 1:
        raise ValueError(f"bits must be an int >= 1, got {bits!r}")
    for name, value in (("a", a), ("b", b), ("c0", c0)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"{name} must be an int, got {value!r}")
    if not 0 <= a < 2 ** bits or not 0 <= b < 2 ** bits:
        raise ValueError(f"operands must fit in {bits} bits")
    if c0 not in (0, 1):
        raise ValueError("carry-in must be 0 or 1")

    plan = _ripple_plan(
        None if stack is None else (tuple(stack.cells.items()),
                                    frozenset(stack.unusable_cells)),
        None if specs is None else tuple(specs.items()),
        None if configs is None else tuple((name, config, _zero_signs(config))
                                           for name, config in configs.items()),
        None if placement is None else tuple(placement.items()),
        bits)
    writes = [a & 1, b & 1, c0]
    for i in range(1, bits):
        writes += ((a >> i) & 1, (b >> i) & 1)
    trace = plan.trace(variation, seed, "reads", writes)
    # the reads are each round's sum bit, then the carry-out
    total = sum(bit << i for i, (_, _, bit) in enumerate(trace.reads[:bits]))
    return total, trace.reads[-1][2], trace, plan.program(writes)
