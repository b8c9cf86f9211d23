"""Variation-aware yield estimation for step programs.

Trial t of a study with seed s reruns the program with every threshold
drawn from its own substream, ``numpy.random.default_rng((s, t))``, in the
draw order owned by the program's compiled plan. The trials are the batch
axis of the plan's step interpreter (``program._Plan.run``), which
``execute`` runs as a batch of one: each step acts on every trial at once.
Failures are attributed here, against the zero-variation run of the same
interpreter, settled from the implications' memos. Trials are processed
``BATCH_TRIALS`` at a time, so beyond the 4 bytes a trial that the report
keeps, memory stays bounded however many are asked for. Since no trial's
draws depend on another's, the same seed gives the same report and
per-trial rows, byte for byte, in any grouping of trials, and trial t
matches ``execute(..., variation="seeded", seed=(s, t))`` step for step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .device import MemristorSpec
from .program import ImpStep, StepProgram, WriteStep, _Plan
from .solver import MAX_CODE, state_of
from .topology import ImpConfig, StackTopology

__all__ = ["YieldReport", "estimate_yield"]

# Trials per batch. A batch holds a threshold table of BATCH_TRIALS x 2
# floats per draw: 0.9 MB for the full adder's 57 draws.
BATCH_TRIALS = 1024
DEGRADED_BELOW = 0.9  # the conductance scale below which a device counts as degraded
# the first state code below it; a code's scale falls as the code rises
_DEGRADED_FROM = next(code for code in range(1, MAX_CODE + 1)
                      if state_of(code).conductance_scale < DEGRADED_BELOW)


@dataclass(frozen=True, eq=False)
class YieldReport:
    """Pass statistics over seeded trials of one program. ``failed_step``
    holds, per trial, the step its failure is attributed to, or -1 where
    the trial passed; ``expected`` the output bits a trial had to give."""

    trials: int
    passes: int
    yield_fraction: float
    failure_histogram: dict[int, int]
    degraded_ratio_fraction: float
    seed: int
    failed_step: np.ndarray
    expected: dict[str, int]

    def to_json(self) -> dict:
        return {
            "trials": self.trials,
            "passes": self.passes,
            "yield": self.yield_fraction,
            "failure_histogram": {str(k): v for k, v in
                                  sorted(self.failure_histogram.items())},
            "degraded_ratio_fraction": self.degraded_ratio_fraction,
            "seed": self.seed,
        }


def _program_input_values(program: StepProgram) -> dict[str, int]:
    """Input values as loaded by the program's own write steps."""
    by_cell: dict[str, int] = {}
    for step in program.steps:
        if isinstance(step, WriteStep) and step.cell not in by_cell:
            by_cell[step.cell] = step.value
    return {var: by_cell[cell]
            for var, cell in program.declared_inputs.items()
            if cell in by_cell}


def estimate_yield(program: StepProgram, topology: StackTopology,
                   specs: dict[str, MemristorSpec],
                   configs: dict[str, ImpConfig],
                   oracle: (Callable[[dict[str, int]], Mapping[str, int]]
                            | Mapping[str, int] | None),
                   trials: int, seed: int = 0) -> YieldReport:
    """Run seeded variation trials and report the pass rate.

    ``oracle`` maps the program's declared input values to the expected
    declared output bits (or is that mapping directly); None expects every
    declared output of the zero-variation run. A trial passes iff every
    expected output decodes to its expected value. Failures are
    attributed to the first step whose post-step device states diverge from
    the zero-variation reference trace. The degraded-ratio fraction counts
    implication steps after which a driven cell's conductance scale sits
    below ``DEGRADED_BELOW`` (0.9). A ``trials`` that is not an int
    >= 1, or a ``seed`` that is not an int >= 0, raises ValueError (bools
    are not ints here); a ``trials`` too large for the per-trial results
    to be allocated raises MemoryError before any trial runs.
    """
    if not isinstance(trials, int) or isinstance(trials, bool) or trials < 1:
        raise ValueError(f"trials must be an int >= 1, got {trials!r}")
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ValueError(f"seed must be an int >= 0, got {seed!r}")
    expected = None
    if oracle is not None:
        expected = oracle(_program_input_values(program)) if callable(oracle) else oracle
        expected = dict(expected)
        unknown = set(expected) - set(program.declared_outputs)
        if unknown:
            raise ValueError(f"oracle names undeclared outputs {sorted(unknown)}")

    plan = _Plan(program, topology, specs, configs)
    trail: list[tuple] = []
    final, _ = plan.run(trail=trail)
    rows = {cell: r for r, cell in enumerate(plan.specs)}
    if expected is None:
        expected = {var: plan.bit(cell, final[rows[cell]])
                    for var, cell in program.declared_outputs.items()}
    # each implication's P and Q codes after it in the zero-variation run
    reference = np.array(trail)[:, :, None] if trail else None
    imp_steps = np.flatnonzero([isinstance(s, ImpStep) for s in program.steps])
    failed_step = np.empty(trials, dtype=np.int32)
    degraded = 0
    for start in range(0, trials, BATCH_TRIALS):
        n = min(BATCH_TRIALS, trials - start)
        trail = []
        state, _ = plan.run(plan.thresholds([(seed, t) for t in range(start, start + n)]),
                            start, trail=trail)
        failed = failed_step[start:start + n]  # a view
        failed[:] = len(program.steps) - 1
        if reference is not None:
            # before its first divergence a trial matches the reference in
            # every cell, and only an implication's P and Q can change
            codes = np.array(trail)
            differs = (codes != reference).any(axis=1)
            hit = differs.any(axis=0)
            failed[hit] = imp_steps[differs.argmax(axis=0)[hit]]
            degraded += int(np.count_nonzero((codes >= _DEGRADED_FROM).any(axis=1)))
        passed = np.ones(n, dtype=bool)
        for var, want in expected.items():
            cell = program.declared_outputs[var]
            present, inverse = np.unique(state[rows[cell]], return_inverse=True)
            bit = np.array([plan.bit(cell, code) for code in present.tolist()])
            passed &= bit[inverse] == want
        failed[passed] = -1
    histogram: dict[int, int] = {}
    for step in failed_step[failed_step >= 0].tolist():
        histogram[step] = histogram.get(step, 0) + 1
    passes = int(np.count_nonzero(failed_step < 0))
    total_imps = trials * program.census()[1]
    return YieldReport(
        trials=trials,
        passes=passes,
        yield_fraction=passes / trials,
        failure_histogram=histogram,
        degraded_ratio_fraction=(degraded / total_imps
                                 if total_imps else 0.0),
        seed=seed,
        failed_step=failed_step,
        expected=expected,
    )
