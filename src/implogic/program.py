"""Stateful-logic micro-programs: the step language, the executor, NAND and
NOT macros, full-adder compilation, and the 8-bit ripple-carry composition.

Implication is the only compute step: ``q' <- p IMP q`` conditionally sets
the target cell, so NAND is a reset followed by two implications and NOT is
a reset followed by one. Values move between cells as complement pairs
(two NOTs).

A program compiles into a plan with one step interpreter,
``_Plan._interpret``, which ``_Plan.run`` drives: ``execute`` and a seeded
ripple addition as a batch of one trial, ``montecarlo.estimate_yield``
over many. Each implication step applies the switching rules of
``solver.settle``, their one copy, to state codes (``solver.state_of``:
0 is OFF, k + 1 is ON after k partial resets). A run keeps one entry per
cell: an int code at nominal thresholds, or a row of codes, one per
trial, in a batch. The plan owns the threshold draw order
(``_Plan.thresholds``). A plan holds one implication per distinct bias,
specs and drop signs, and memoizes each one's pulse outcomes for the
life of the plan: at zero variation per (P code, Q code), on Python
ints, and in a batch run without step records per column key, its entry
codes and the cells its thresholds fall in among the implication's
solved drops (``_Imp``). A warm batch thus settles by lookup, and
``settle`` runs only where a key is new. Write values are run-time
inputs of a plan, and every run passes its own, so ``ripple_adder_8bit``
compiles one plan per (stack, specs, configs, placement, bits), caches
it, and gives each addition its own writes instead of recompiling; ``execute`` and ``montecarlo.estimate_yield``
likewise share one cached plan per program shape (``_program_plan``),
whatever its write values. A zero-variation ripple addition is one
linked walk over its plan's write segments, each starting at step 0 or at
a block of consecutive writes (one per round). A round entry holds a
segment's run from given entry codes with given write values: the exit
codes, the reads, the steps with those values in place, the bits the exit
codes decode to, and links, a list indexed by the next segment's packed
write values. From the root entry (every cell OFF) a warm walk follows one
link per segment and hashes no keys. A missing link is looked up in a memo
keyed by the segment, its entry codes and write values, kept for the life
of the plan and bounded by ``SEGMENT_MEMO``; clearing it clears the root's
links. A memo miss runs the segment through the same interpreter; a
segment that raises NoConvergence stores no entry and no link.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import device as dev
from . import margins
from .device import MemristorSpec, _check_json
from .solver import (MAX_CODE, NoConvergence, NodeSolution, SwitchEvent, settle,
                     solve_pair, state_of)
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
                # a number, passed on as written so that a message shows 7, not 7.0
                _check_json(s["value"], float, f"step {i} value")
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


# Batch settle outcomes an implication memoizes at most; a memo that holds as
# many is cleared before the next batch's go in. Each yield workload's
# implications hold 12 entries.
SETTLE_MEMO = 4096
_CODES = MAX_CODE + 1  # a memo key packs a code pair as P code * _CODES + Q code
_NO_KEYS, _NO_EXITS = np.empty(0, dtype=np.int64), np.empty((2, 0), dtype=np.intp)


class _Imp:
    """An implication's bias, P's and Q's specs and drop signs, and three
    memos that hold in every run of its plan: the node solution per (P
    code, Q code); the new codes, events and first solution of a pulse at
    nominal thresholds per (P code, Q code); and the exit codes of a batch
    column per key, which ``settle_batch`` reads.

    A column's key is its entry codes and the cell its three thresholds
    fall in: Q's v_set and Q's reset onset among the cuts of Q's drops, P's
    reset onset among those of P's, where the cuts are the sorted distinct
    drops of every pair this implication has solved. The memo is exact. In
    a pass of ``settle`` a column's decisions depend only on its codes, the
    drops of its current pair, its own thresholds and the rules that have
    already matched it; the full-reset levels are the constants ``full``,
    and no column's decisions depend on another's. Every pair a column
    visits has been solved, so its drops are cuts, and a threshold's cell
    decides each comparison with a cut: Q sets when its drop is >= v_set,
    so v_set's cell counts the cuts below it (``side="left"``); a reset
    starts when a drop is <= the onset, so an onset's cell counts the cuts
    at or below it (``side="right"``). Two columns with equal entry codes
    in one cell therefore take the same passes to the same exit codes, and
    a batch whose every key is known settles, as a plain ``settle`` would,
    without raising. Keys index the cuts they were made with, so the memo
    is dropped when the cuts change."""

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
        # the batch memo: P's and Q's cuts, and the sorted keys with each
        # one's exit codes (columns)
        self._cuts = (np.empty(0), np.empty(0))
        self._keys, self._exits = _NO_KEYS, _NO_EXITS

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

    def settle_batch(self, p: np.ndarray, q: np.ndarray, th: np.ndarray,
                     rows: tuple[int, int, int]) -> np.ndarray:
        """P's and Q's codes (rows) after a pulse in each column of a batch
        that enters at codes ``p`` and ``q``, with Q's v_set and P's and Q's
        reset onset in rows ``rows`` of the threshold table ``th``. When the
        memo knows every column's key, they are its exit codes. Otherwise
        ``settle`` runs on the whole batch, so every outcome and every
        NoConvergence is its own, and every column's outcome is stored,
        keyed against the cuts as they stand after it."""
        if self._keys.size:
            key = self._key(p, q, th, rows)
            at = self._keys.searchsorted(key)
            if (self._keys.take(at, mode="clip") == key).all():
                return self._exits.take(at, axis=1)
        pq = np.array((p, q))
        settle(self.solve, pq, th.take(rows, axis=0), self.full)
        # sorted(set()), not np.unique, which imports numpy.ma when it
        # returns the values alone
        cut_p, cut_q = cuts = tuple(np.array(sorted(set(drops))) for drops in zip(
            *((sol.drop_p, sol.drop_q) for sol in self.solutions.values())))
        if not all(map(np.array_equal, cuts, self._cuts)):
            self._cuts, self._keys, self._exits = cuts, _NO_KEYS, _NO_EXITS
        elif self._keys.size >= SETTLE_MEMO:
            self._keys, self._exits = _NO_KEYS, _NO_EXITS
        if _CODES ** 2 * (cut_q.size + 1) ** 2 * (cut_p.size + 1) > 2 ** 63:
            return pq  # the keys would overflow int64: store nothing
        self._keys, first = np.unique(np.concatenate((self._keys, self._key(p, q, th, rows))),
                                      return_index=True)
        self._exits = np.concatenate((self._exits, pq), axis=1)[:, first]
        return pq

    def _key(self, p: np.ndarray, q: np.ndarray, th: np.ndarray,
             rows: tuple[int, int, int]) -> np.ndarray:
        """Each column's memo key: its entry codes and its thresholds' cells,
        packed in one int."""
        cut_p, cut_q = self._cuts
        key = p * _CODES + q
        for cuts, row, side in ((cut_q, rows[0], "left"), (cut_p, rows[1], "right"),
                                (cut_q, rows[2], "right")):
            key *= cuts.size + 1
            key += cuts.searchsorted(th[row], side)
        return key


def _zero_signs(config: ImpConfig) -> tuple[float, ...]:
    """The signs of a bias's fields, which tell 0.0 from -0.0: biases equal
    but for the sign of a zero give node voltages of different sign."""
    return tuple(math.copysign(1.0, x) for x in (config.v_p, *vars(config.load).values()))


# Zero-variation segment runs a plan memoizes at most; a full memo is cleared.
# The default 8-bit ripple plan fills 176 entries over all additions.
SEGMENT_MEMO = 1024


class _Round(NamedTuple):
    """A round entry: one segment's nominal run from given entry codes with
    given write values. ``read_bits`` packs the reads' bits at their places
    among all the program's reads, lowest first, and ``links`` is indexed by
    the next segment's write values, packed as in ``_Plan._walk``, and holds
    the entry they lead to, or None where no walk has gone yet."""

    codes: tuple[int, ...]
    reads: tuple[tuple[int, str, int], ...]
    steps: tuple[Step, ...]
    bits: dict[str, int]
    read_bits: int
    links: list[_Round | None]


def _column0(state: list) -> list[int]:
    """Column 0 of a run state, as one int code per cell."""
    return [s if isinstance(s, int) else int(s[0]) for s in state]


class _Plan:
    """A program validated and compiled for one topology, spec map and
    config map, run by ``execute``, ``ripple_adder_8bit`` and
    ``montecarlo.estimate_yield``. Draws are numbered in step order (a
    reset's cell; an implication's P, then Q): draw k takes v_set and reset
    onset from rows 2k and 2k + 1 of the threshold table ``lo + span * U``.
    ``ops[i]`` is step i's cell row, or for an implication its ``_Imp`` (one
    per distinct bias, specs and drop signs in the plan), the rows of the
    threshold table that ``settle`` takes (Q's v_set and P's and Q's reset
    onset), and P's and Q's cell rows. An implication of a batch run
    without step records settles through its ``_Imp.settle_batch`` memo,
    which calls ``settle`` only when some column's key is new; one with
    records, as ``execute`` asks, always calls ``settle``, which so stays
    the oracle the memo is tested against. The plan's write steps hold
    placeholders: validation does not depend on their values, and every run
    passes its own. A run's state is a list with one entry per cell row: an
    int code at nominal thresholds, or a 1-D ``np.intp`` row of codes, one
    per trial, in a batch. A plan that is walked also holds the walk state
    that ``_start_walks`` builds."""

    def __init__(self, program: StepProgram, topology: StackTopology,
                 specs: dict[str, MemristorSpec], configs: dict[str, ImpConfig]):
        program.validate(topology)
        self.steps = program.steps
        self.inputs, self.outputs = program.declared_inputs, program.declared_outputs
        self.specs = {c: specs[topology.cells[c].spec_ref] for c in topology.usable_cells()}
        rows = {c: r for r, c in enumerate(self.specs)}
        drawn: list[int] = []  # the row of each draw's cell, in draw order
        resolved: dict[ImpStep, _Imp] = {}
        imps: dict[tuple, _Imp] = {}  # by bias, zero signs, specs and drop signs
        ops: list[tuple] = []
        for step in program.steps:
            if isinstance(step, ImpStep):
                imp = resolved.get(step)
                if imp is None:
                    config = _resolve_config(step, topology, configs)
                    key = (config, _zero_signs(config), self.specs[step.p],
                           self.specs[step.q], *topology.step_signs(step.p, step.q))
                    if key not in imps:
                        imps[key] = _Imp(config, *key[2:])
                    imp = resolved[step] = imps[key]
                k = len(drawn)  # P's draw; Q's is k + 1
                ops.append((imp, (2 * k + 2, 2 * k + 1, 2 * k + 3), rows[step.p],
                            rows[step.q]))
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

    def _start_walks(self) -> None:
        """Build the walk state. ``segments`` cuts the steps into (start,
        stop) runs, each starting at step 0 or at a block of consecutive
        writes, and ``_fields`` gives each one's count of earlier writes and
        a mask of as many bits as it has writes. ``_root`` is the round entry
        before segment 0, every cell OFF; from it, each ``_Round``'s links
        lead to the next segment's entries. For the life of the plan,
        ``_memo`` maps (segment, entry codes, write values) to the segment's
        ``_Round``, at most ``SEGMENT_MEMO`` entries, every entry linked from
        the root in it. An entry holds 2 ** w links, w the writes of the next
        segment's block, so only walked plans build this: ripple plans, whose
        blocks hold at most 3 writes."""
        is_write = [isinstance(s, WriteStep) for s in self.steps]
        bounds = [0, *(i for i in range(1, len(is_write))
                       if is_write[i] and not is_write[i - 1]), len(is_write)]
        writes_before = [0, *itertools.accumulate(is_write)]
        self.segments = tuple(zip(bounds, bounds[1:]))
        # (segment, writes before it, mask of as many bits as it has writes)
        self._fields = tuple(
            (k, writes_before[start], (1 << writes_before[stop] - writes_before[start]) - 1)
            for k, (start, stop) in enumerate(self.segments))
        self._root = _Round((0,) * len(self.specs), (), (), {}, 0,
                            [None] * (self._fields[0][2] + 1))
        self._memo: dict[tuple, _Round] = {}

    def bit(self, cell: str, code: int) -> int:
        """The bit that ``cell`` reads in the state of ``code``."""
        return dev.decode_bit(self.specs[cell], state_of(code))

    def thresholds(self, seeds) -> np.ndarray:
        """One threshold table per seed, as the columns of the result: ``lo +
        span * U`` with U from ``default_rng(seed)``, which is how numpy's
        ``uniform(lo, hi)`` computes it. A seed is what ``default_rng`` takes:
        ``execute`` passes its own, a yield batch the rows of its uint32
        entropy table (``montecarlo._trial_entropy``), each the words numpy
        would coerce ``(seed, t)`` to, so each stream is unchanged."""
        u = np.empty((len(seeds), self.lo.size))
        if self.lo.size:
            for j, seed in enumerate(seeds):
                np.random.default_rng(seed).random(out=u[j])
        u *= self.span
        u += self.lo
        return u.T

    def threshold_table(self, variation: str, seed: int | tuple[int, ...] | None,
                        ) -> np.ndarray | None:
        """A run's threshold table: None at nominal thresholds ("off"), else
        one column drawn from ``default_rng(seed)``. Raises the ValueErrors
        that ``execute`` documents for a bad variation or seed."""
        if variation not in ("off", "seeded"):
            raise ValueError("variation must be 'off' or 'seeded'")
        if variation == "off":
            return None
        if seed is not None and not all(
                isinstance(x, int) and not isinstance(x, bool) and x >= 0
                for x in (seed if isinstance(seed, tuple) else (seed,))):
            raise ValueError(
                f"seed must be None, an int >= 0 or a tuple of such ints, got {seed!r}")
        return self.thresholds([seed])

    def final_bits(self, state: list) -> dict[str, int]:
        """The bit each cell reads in column 0 of a run state."""
        return dict(zip(self.specs, map(self.bit, self.specs, _column0(state))))

    def run(self, writes: Sequence[int], th: np.ndarray | None = None,
            first_trial: int | None = None, records: list | None = None,
            trail: list | None = None) -> tuple[list, list[tuple[int, str, int]]]:
        """Run the whole program over the columns of ``th``, one trial's
        threshold table each, or once at nominal thresholds when ``th`` is
        None, from every cell OFF, with ``writes`` as the write steps'
        values in step order; the other arguments are those of
        ``_interpret``. Returns the final state and column 0's reads."""
        state = [0 if th is None else np.zeros(th.shape[1], dtype=np.intp)] * len(self.specs)
        reads: list[tuple[int, str, int]] = []
        self._interpret(state, 0, len(self.steps), writes, reads, th, first_trial,
                        records, trail)
        return state, reads

    def _interpret(self, state: list, start: int, stop: int, values: Sequence[int],
                   reads: list, th: np.ndarray | None = None,
                   first_trial: int | None = None, records: list | None = None,
                   trail: list | None = None) -> None:
        """The one step interpreter. Runs steps ``start`` to ``stop`` on
        ``state`` in place, settling each implication through its memos, with
        ``values`` as the values of their write steps in order, and appends
        column 0's reads to ``reads``. The state holds one entry per cell: an
        int code at nominal thresholds (``th`` None), else a row of codes
        with one column per trial of ``th``. Rows are replaced, never
        written in place, so entries may share them. Error messages name
        trial ``first_trial + column`` when a first trial is given.
        ``records`` collects column 0's StepRecords, ``trail`` each
        implication's P and Q entries after it."""
        # codes: OFF 0, ON 1
        filled = (0, 1) if th is None else tuple(
            np.full(th.shape[1], code, dtype=np.intp) for code in (0, 1))
        values = iter(values)
        for i in range(start, stop):
            step, op = self.steps[i], self.ops[i]
            node, events, bit = None, (), None
            if isinstance(step, ImpStep):
                imp, th_rows, p, q = op
                try:
                    if th is None:
                        state[p], state[q], events, node = imp.settle_nominal(
                            state[p], state[q])
                    elif records is None:
                        state[p], state[q] = imp.settle_batch(state[p], state[q], th,
                                                              th_rows)
                    else:
                        pq, events = np.array((state[p], state[q])), []
                        node = settle(imp.solve, pq, th.take(th_rows, axis=0),
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

    def _steps_with(self, start: int, stop: int, values: Sequence[int]) -> tuple[Step, ...]:
        """Steps ``start`` to ``stop`` with ``values`` in their write steps,
        in order."""
        values = iter(values)
        return tuple(WriteStep(s.cell, next(values)) if isinstance(s, WriteStep) else s
                     for s in self.steps[start:stop])

    def _round(self, entry: _Round, segment: int, values: int) -> _Round:
        """Follow a missing link: the entry of ``segment`` run from
        ``entry``'s exit codes with the write values packed in ``values``,
        from the memo or run at nominal thresholds and stored there, then
        linked from ``entry``. A full memo is cleared with the root's links
        before a new entry goes in. A NoConvergence stores no entry and no
        link."""
        width = self._fields[segment][2].bit_length()
        key = (segment, entry.codes, tuple(values >> j & 1 for j in range(width)))
        hit = self._memo.get(key)
        if hit is None:
            start, stop = self.segments[segment]
            state, reads = list(entry.codes), []
            self._interpret(state, start, stop, key[2], reads)
            if len(self._memo) >= SEGMENT_MEMO:
                self._memo.clear()
                self._root.links[:] = [None] * len(self._root.links)
            shift = sum(isinstance(s, ReadStep) for s in self.steps[:start])
            slots = self._fields[segment + 1][2] + 1 if segment + 1 < len(self._fields) else 0
            hit = self._memo[key] = _Round(
                tuple(state), tuple(reads), self._steps_with(start, stop, key[2]),
                dict(zip(self.specs, map(self.bit, self.specs, state))),
                sum(bit << shift + j for j, (_, _, bit) in enumerate(reads)), [None] * slots)
        entry.links[values] = hit
        return hit

    def _walk(self, writes: int) -> tuple[_Round, list, list, int]:
        """The nominal run of the write values packed in ``writes``, in step
        order from bit 0 up, as one walk over the segments' round entries:
        (the last entry, the reads, the steps with those values in place,
        the reads' bits packed from bit 0 up)."""
        entry, reads, steps, read_bits = self._root, [], [], 0
        for segment, offset, mask in self._fields:
            values = writes >> offset & mask
            entry = entry.links[values] or self._round(entry, segment, values)
            reads += entry.reads
            steps += entry.steps
            read_bits |= entry.read_bits
        return entry, reads, steps, read_bits


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
    errors are raised before any step runs. The plan is the one
    ``montecarlo.estimate_yield`` takes for the program's shape
    (``_program_plan``, which hashes the spec and config maps), run as a
    batch of one with the program's write values, keeping every step's
    record. After validation (ProgramError), a ``variation`` other than
    "off" or "seeded", or, in a seeded run, a ``seed`` that is neither
    None, an int >= 0 nor a tuple of such ints (bools excluded) raise
    ValueError.
    """
    plan, writes = _program_plan(program, topology, specs, configs)
    records: list[StepRecord] = []
    state, reads = plan.run(writes, plan.threshold_table(variation, seed), records=records)
    return ExecutionTrace(records, reads, plan.final_bits(state), variation, seed)


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


def _plan_key(stack: StackTopology | None, specs: dict[str, MemristorSpec] | None,
              configs: dict[str, ImpConfig] | None) -> tuple:
    """The hashable forms of a stack, a spec map and a config map that key
    the plan caches, None standing for a default: the stack's (cell items,
    unusable set), the spec items, and each config's (name, config, zero
    signs), which keep 0.0 and -0.0 biases apart as a plan's ``_Imp``
    table does."""
    return (None if stack is None else (tuple(stack.cells.items()),
                                        frozenset(stack.unusable_cells)),
            None if specs is None else tuple(specs.items()),
            None if configs is None else tuple((name, config, _zero_signs(config))
                                               for name, config in configs.items()))


@functools.lru_cache(maxsize=16)
def _shape_plan(steps: tuple[Step, ...], inputs: tuple, outputs: tuple,
                stack: tuple, specs: tuple, configs: tuple) -> _Plan:
    """The validated plan of the program of ``steps`` and the declared input
    and output items, on the stack, specs and configs of ``_plan_key``'s
    forms. The steps write 0 wherever the program writes, since validation
    and compilation do not depend on write values."""
    return _Plan(StepProgram(steps, dict(inputs), dict(outputs)),
                 StackTopology(dict(stack[0]), stack[1]), dict(specs),
                 {name: config for name, config, _ in configs})


def _program_plan(program: StepProgram, topology: StackTopology,
                  specs: dict[str, MemristorSpec], configs: dict[str, ImpConfig],
                  ) -> tuple[_Plan, tuple[int, ...]]:
    """The cached plan of ``program``'s shape and the program's write
    values, in step order: one plan serves every program that differs from
    it only in its write values."""
    steps = tuple(WriteStep(s.cell, 0) if isinstance(s, WriteStep) else s
                  for s in program.steps)
    writes = tuple(s.value for s in program.steps if isinstance(s, WriteStep))
    return _shape_plan(steps, tuple(program.declared_inputs.items()),
                       tuple(program.declared_outputs.items()),
                       *_plan_key(topology, specs, configs)), writes


@functools.lru_cache(maxsize=64)
def _ripple_plan(stack: tuple | None, specs: tuple | None, configs: tuple | None,
                 placement: tuple | None, bits: int) -> _Plan:
    """The validated plan of a ``bits``-round ripple addition of the full
    adder, memoized on ``_plan_key``'s forms of ``ripple_adder_8bit``'s
    stack, specs and configs and on the placement items, None standing for
    a default. Round zero writes a_0, b_0 and the carry-in, every later
    round a_i and b_i, and each round ends by reading its sum bit; the last
    round also reads the carry-out. The plan is built on all-zero writes;
    each addition runs it with its own."""
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
    plan = _Plan(program, topology, spec_map, config_map)
    plan._start_walks()
    return plan


# x with bit i moved to bit 2i, for x < 256: read in base 4, a binary
# numeral does that
_SPREAD = tuple(int(f"{x:b}", 4) for x in range(256))


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
    writes them, and returns that program. At zero variation the addition
    is one ``_Plan._walk`` over the plan's round entries, one write segment
    per round: from the root, all cells OFF, it follows the link of (a_0,
    b_0, c0), then of each (a_i, b_i), collecting the reads, the round steps
    and the sum bits; a missing link runs the round once. Any other
    variation is one ``_Plan.run`` on the table that
    ``_Plan.threshold_table`` draws, without step records, as in
    ``execute``. A ``bits`` that is not an int >= 1, operands or a carry-in
    that are not ints (bools included), operands that do not fit in
    ``bits``, a carry-in other than 0 or 1, or a ``variation`` or seed that
    ``execute`` rejects raise ValueError.
    """
    # exact ints skip the type tests, which take int subclasses but bool
    if not (type(bits) is type(a) is type(b) is type(c0) is int) or bits < 1:
        if not isinstance(bits, int) or isinstance(bits, bool) or bits < 1:
            raise ValueError(f"bits must be an int >= 1, got {bits!r}")
        for name, value in (("a", a), ("b", b), ("c0", c0)):
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an int, got {value!r}")
    # both lie in [0, 2 ** bits) when neither has a bit, or a sign, at or
    # above bit ``bits``
    if (a | b) >> bits:
        raise ValueError(f"operands must fit in {bits} bits")
    if c0 not in (0, 1):
        raise ValueError("carry-in must be 0 or 1")

    plan = _ripple_plan(*_plan_key(stack, specs, configs),
                        None if placement is None else tuple(placement.items()), bits)
    # a_i at bit 2i and b_i at bit 2i + 1
    if bits <= 8:
        pairs = _SPREAD[a] | _SPREAD[b] << 1
    else:
        pairs = int(f"{a:b}", 4) | int(f"{b:b}", 4) << 1
    # write values in step order from bit 0 up: a_0, b_0, c0, then a_i, b_i
    writes = pairs & 3 | c0 << 2 | pairs >> 2 << 3
    if variation == "off":
        last, reads, steps, read_bits = plan._walk(writes)
        trace = ExecutionTrace([], reads, dict(last.bits), variation, seed)
    else:
        values = [writes >> j & 1 for j in range(2 * bits + 1)]
        state, reads = plan.run(values, plan.threshold_table(variation, seed))
        trace = ExecutionTrace([], reads, plan.final_bits(state), variation, seed)
        steps = plan._steps_with(0, len(plan.steps), values)
        read_bits = sum(bit << i for i, (_, _, bit) in enumerate(reads))
    # the reads are each round's sum bit, then the carry-out
    return (read_bits & ((1 << bits) - 1), read_bits >> bits, trace,
            StepProgram(tuple(steps), dict(plan.inputs), dict(plan.outputs)))
