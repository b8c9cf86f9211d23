"""Stateful-logic micro-programs: the step language, the executor, NAND and
NOT macros, full-adder compilation, and the 8-bit ripple-carry composition.

Implication is the only compute step: ``q' <- p IMP q`` conditionally sets
the target cell, so NAND is a reset followed by two implications and NOT is
a reset followed by one. Values move between cells as complement pairs
(two NOTs).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import device as dev
from . import margins
from .device import DeviceState, Logic, MemristorSpec, ThresholdSample
from .solver import NodeSolution, SwitchEvent, settle_states
from .topology import CurrentSourceLoad, ImpConfig, StackTopology

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
        steps = []
        for s in self.steps:
            if isinstance(s, WriteStep):
                steps.append({"op": "write", "cell": s.cell, "value": s.value})
            elif isinstance(s, ResetStep):
                steps.append({"op": "reset", "cell": s.cell})
            elif isinstance(s, ImpStep):
                steps.append({"op": "imp", "p": s.p, "q": s.q, "config": s.config_ref})
            else:
                steps.append({"op": "read", "cell": s.cell})
        return {"steps": steps, "inputs": dict(self.declared_inputs),
                "outputs": dict(self.declared_outputs)}

    @classmethod
    def from_json(cls, obj: dict) -> "StepProgram":
        steps: list[Step] = []
        for i, s in enumerate(obj.get("steps", [])):
            op = s.get("op")
            if op == "write":
                steps.append(WriteStep(cell=s["cell"], value=s["value"]))
            elif op == "reset":
                steps.append(ResetStep(cell=s["cell"]))
            elif op == "imp":
                steps.append(ImpStep(p=s["p"], q=s["q"],
                                     config_ref=s.get("config", "auto")))
            elif op == "read":
                steps.append(ReadStep(cell=s["cell"]))
            else:
                raise ProgramError(f"step {i}: unknown op {op!r}")
        return cls(steps=tuple(steps), declared_inputs=dict(obj.get("inputs", {})),
                   declared_outputs=dict(obj.get("outputs", {})))


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
    seed: int | None

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


def _snapshot(states: dict[str, DeviceState]) -> dict[str, tuple[str, float]]:
    return {c: (s.logic.name, s.conductance_scale) for c, s in states.items()}


def _resolve_config(step: ImpStep, topology: StackTopology,
                    configs: dict[str, ImpConfig]) -> ImpConfig:
    if step.config_ref in configs:
        return configs[step.config_ref]
    if step.config_ref == "auto":
        common = topology.common_wire(step.p, step.q)
        ref = "drive_neg" if topology.step_sign(step.q, common) > 0 else "drive_pos"
        if ref in configs:
            return configs[ref]
        raise ProgramError(f"auto config needs {ref!r} in the config map")
    raise ProgramError(f"unknown config {step.config_ref!r}")


def execute(program: StepProgram, topology: StackTopology,
            specs: dict[str, MemristorSpec], configs: dict[str, ImpConfig],
            variation: str = "off", seed: int | None = None,
            rng: np.random.Generator | None = None,
            partial_reset_factor: float = dev.PARTIAL_RESET_FACTOR,
            trace_level: str = "full") -> ExecutionTrace:
    """Run the program through the electrical solver.

    Writes are ideal; resets drive the cell fully OFF unconditionally;
    implication steps settle through the node solver with thresholds taken
    per step (sampled when variation is "seeded", midpoints when "off").
    ``trace_level`` "reads" skips per-step records for bulk runs.
    """
    if variation not in ("off", "seeded"):
        raise ValueError("variation must be 'off' or 'seeded'")
    if variation == "seeded" and rng is None:
        rng = np.random.default_rng(seed)
    program.validate(topology)

    nominal = {ref: dev.nominal_thresholds(spec) for ref, spec in specs.items()}

    def thresholds_for(cell_id: str) -> ThresholdSample:
        spec = specs[topology.cells[cell_id].spec_ref]
        if variation == "seeded":
            return dev.sample_thresholds(spec, rng)
        return nominal[topology.cells[cell_id].spec_ref]

    states = {cid: DeviceState(Logic.OFF, 1.0) for cid in topology.usable_cells()}
    records: list[StepRecord] = []
    reads: list[tuple[int, str, int]] = []
    full = trace_level == "full"

    for i, step in enumerate(program.steps):
        node = None
        events: tuple[SwitchEvent, ...] = ()
        read_bit = None
        detail: dict = {}

        if isinstance(step, WriteStep):
            states[step.cell] = DeviceState(
                Logic.ON if step.value else Logic.OFF, 1.0)
            detail = {"cell": step.cell, "value": step.value}
        elif isinstance(step, ResetStep):
            thresholds_for(step.cell)  # consume the cycle's draw
            states[step.cell] = DeviceState(Logic.OFF, 1.0)
            detail = {"cell": step.cell}
        elif isinstance(step, ImpStep):
            config = _resolve_config(step, topology, configs)
            th = {step.p: thresholds_for(step.p), step.q: thresholds_for(step.q)}
            states, ev, node = settle_states(topology, specs, states, config, step.p,
                                             step.q, th, partial_reset_factor)
            events = tuple(ev)
            detail = {"p": step.p, "q": step.q, "config": step.config_ref}
        else:
            spec = specs[topology.cells[step.cell].spec_ref]
            read_bit = dev.decode_bit(spec, states[step.cell])
            reads.append((i, step.cell, read_bit))
            detail = {"cell": step.cell}

        if full:
            records.append(StepRecord(index=i, op=step.op, detail=detail,
                                      states_after=_snapshot(states),
                                      node=node, events=events,
                                      read_bit=read_bit))

    final_bits = {cid: dev.decode_bit(specs[topology.cells[cid].spec_ref], st)
                  for cid, st in states.items()}
    return ExecutionTrace(steps=records, reads=reads, final_bits=final_bits,
                          variation=variation, seed=seed)


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


def _schedule_full_adder(adj: dict[str, set[str]], cells: list[str],
                         placement: dict[str, str], moves: int = 2) -> list[tuple]:
    """Backtracking search for an order and cell assignment of the 9-NAND
    dataflow plus exactly ``moves`` complement-pair copies, ending with the
    carry in the carry-in cell. Deterministic: candidates are explored in
    sorted order and the first complete schedule wins."""
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
    if dfs(canon(tuple(init), frozenset()), frozenset(), moves, sched):
        return sched
    raise PlacementInfeasible(
        f"no 9-NAND/{2 * moves}-NOT schedule for placement {placement}")


def compile_full_adder(stack: StackTopology,
                       placement: dict[str, str] | None = None) -> StepProgram:
    """Compile s = a xor b xor c_in and c_out = majority(a, b, c_in) onto the
    stack: nine NANDs plus four NOTs (two complement-pair copies), i.e. 13
    resets and 22 implications, with the carry ending in the carry-in cell
    so rounds chain on one circuit."""
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
    adj = {c: stack.neighbors(c) for c in usable}
    sched = _schedule_full_adder(
        adj, usable, {"a": placement["a"], "b": placement["b"],
                      "c": placement["c_in"]})

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
    program.validate(stack)
    return program


def default_configs(spec: MemristorSpec) -> dict[str, ImpConfig]:
    """Current-source bias pair at the analytic optimum for the given spec:
    ``drive_neg`` for steps whose target sets away from the common node,
    ``drive_pos`` for the mirrored class."""
    vs = spec.v_set_star
    ideal = margins.delta_ideal_parallel(0.0, spec.g_on, spec.g_off, vs)
    v_p = -2.0 * ideal
    i_l = margins.optimal_i_l(spec.g_off, vs)
    return {
        "drive_neg": ImpConfig(v_p=v_p, load=CurrentSourceLoad(i_l)),
        "drive_pos": ImpConfig(v_p=-v_p, load=CurrentSourceLoad(-i_l)),
    }


def ripple_adder_8bit(a: int, b: int, c0: int, bits: int = 8,
                      stack: StackTopology | None = None,
                      specs: dict[str, MemristorSpec] | None = None,
                      configs: dict[str, ImpConfig] | None = None,
                      placement: dict[str, str] | None = None,
                      variation: str = "off", seed: int | None = None,
                      trace_level: str = "reads",
                      ) -> tuple[int, int, ExecutionTrace, StepProgram]:
    """Add two ``bits``-wide integers by running the full adder once per bit
    on the same six cells, carrying through the carry cell.

    Returns (sum, carry_out, trace, program). The composed program writes
    a_i and b_i each round; the carry-in is written only in round zero and
    thereafter picked up where the previous round left it.
    """
    if not 0 <= a < 2 ** bits or not 0 <= b < 2 ** bits:
        raise ValueError(f"operands must fit in {bits} bits")
    if c0 not in (0, 1):
        raise ValueError("carry-in must be 0 or 1")

    from .topology import build_adder_stack
    if stack is None:
        stack = build_adder_stack()
    if specs is None:
        shared = dev.ideal_device_spec()
        specs = {ref: shared for ref in
                 {c.spec_ref for c in stack.cells.values()}}
    if configs is None:
        ref_spec = next(iter(specs.values()))
        configs = default_configs(ref_spec)

    fa = compile_full_adder(stack, placement)
    a_cell = fa.declared_inputs["a"]
    b_cell = fa.declared_inputs["b"]
    c_cell = fa.declared_inputs["c_in"]
    s_cell = fa.declared_outputs["s"]

    steps: list[Step] = []
    for i in range(bits):
        steps.append(WriteStep(a_cell, (a >> i) & 1))
        steps.append(WriteStep(b_cell, (b >> i) & 1))
        if i == 0:
            steps.append(WriteStep(c_cell, c0))
        steps.extend(fa.steps)
        steps.append(ReadStep(s_cell))
    steps.append(ReadStep(fa.declared_outputs["c_out"]))

    program = StepProgram(tuple(steps),
                          declared_inputs={"a": a_cell, "b": b_cell, "c0": c_cell},
                          declared_outputs={"sum_bit": s_cell,
                                            "c_out": fa.declared_outputs["c_out"]})
    trace = execute(program, stack, specs, configs, variation=variation,
                    seed=seed, trace_level=trace_level)

    sum_reads = [bit for _, cell, bit in trace.reads if cell == s_cell]
    total = sum(bit << i for i, bit in enumerate(sum_reads[:bits]))
    carry = trace.reads[-1][2]
    return total, carry, trace, program
