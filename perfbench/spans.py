"""Span tracer for the benchmark's traced runs.

The tracer wraps implogic's layer entry points from outside the package.
Each function is replaced in every implogic namespace that binds it, since
a module that did ``from .solver import settle_states`` calls its own
binding: patching ``implogic.solver.settle_states`` alone would miss the
executor's calls. A span records its name, start, end, parent span and a
request id; a request is one top-level call (a CLI run, an addition, an
optimize call) or one Monte Carlo trial (an ``execute`` directly under
``estimate_yield``). Aggregates (calls, total and self time per span name)
are kept for every traced pass; raw spans are kept for the first one only
and written out at the end.

An entry point that no longer exists is reported as absent, and every
metric built on it reads 0.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
from array import array

# (defining module, attribute, span name)
ENTRY_POINTS = (
    ("implogic.cli", "main", "cli.main"),
    ("implogic.montecarlo", "estimate_yield", "montecarlo.estimate_yield"),
    ("implogic.program", "ripple_adder_8bit", "program.ripple_adder_8bit"),
    ("implogic.program", "compile_full_adder", "program.compile_full_adder"),
    ("implogic.program", "execute", "program.execute"),
    ("implogic.program", "StepProgram.validate", "program.validate"),
    ("implogic.solver", "settle_states", "solver.settle_states"),
    ("implogic.solver", "solve_node", "solver.solve_node"),
    ("implogic.device", "sample_thresholds", "device.sample_thresholds"),
    ("implogic.optimizer", "optimize", "optimizer.optimize"),
    ("implogic.optimizer", "evaluate_margin", "optimizer.evaluate_margin"),
    ("implogic.optimizer", "_linear_margin_grid", "optimizer.linear_grid"),
    ("implogic.optimizer", "_nonlinear_margin_grid", "optimizer.nonlinear_grid"),
)

# (name, unit, better); the order of BENCHMARK.json's per_layer list
LAYER_METRICS = (
    ("cli.self_ms", "ms", "lower"),
    ("montecarlo.self_us_per_trial", "us", "lower"),
    ("montecarlo.execute_calls_per_trial", "ratio", "lower"),
    ("program.execute_self_us_per_step", "us", "lower"),
    ("program.validate_calls", "count", "lower"),
    ("program.validate_us_per_call", "us", "lower"),
    ("program.compile_calls", "count", "lower"),
    ("program.compile_ms_per_call", "ms", "lower"),
    ("program.compile_share_of_wall", "fraction", "lower"),
    ("solver.settle_calls", "count", "lower"),
    ("solver.settle_passes_per_call", "ratio", "lower"),
    ("solver.solves_per_imp", "ratio", "lower"),
    ("solver.closed_us_per_solve", "us", "lower"),
    ("solver.newton_us_per_solve", "us", "lower"),
    ("solver.newton_iterations_per_solve", "ratio", "lower"),
    ("device.threshold_draws_per_trial", "ratio", "lower"),
    ("device.draw_us", "us", "lower"),
    ("optimizer.grid_points", "count", "lower"),
    ("optimizer.linear_grid_ns_per_point", "ns", "lower"),
    ("optimizer.nonlinear_grid_ns_per_point", "ns", "lower"),
    ("optimizer.evaluate_margin_calls", "count", "lower"),
    ("optimizer.self_ms_per_call", "ms", "lower"),
    ("trace.overhead_fraction", "fraction", "lower"),   # computed by run.py
)

_CLOSED = "solver.solve_node[closed]"
_NEWTON = "solver.solve_node[newton]"
_GRIDS = ("optimizer.linear_grid", "optimizer.nonlinear_grid")


class PassStats:
    """Aggregates of one traced pass."""

    def __init__(self):
        self.spans: dict[str, list[int]] = {}      # name -> [calls, total_ns, self_ns]
        self.under: dict[tuple[str, str | None], int] = {}  # (name, parent) -> calls
        self.counts: dict[str, int] = {}

    def add(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def call_counts(self) -> dict:
        return {name: s[0] for name, s in self.spans.items()} | self.counts


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        # raw spans of the first traced pass: name id, start, end, parent, request
        self.columns = tuple(array("q") for _ in range(5))
        self.record = True
        self.passes: list[PassStats] = []
        # (ok, what) for each optimize call whose grid points were counted
        self.consistency: list[tuple[bool, str]] = []
        self.absent: list[str] = []
        self._stack: list[list] = []
        self._requests = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------

    def begin_pass(self, record: bool) -> None:
        self.passes.append(PassStats())
        self.record = record

    def _enter(self, name: str) -> list:
        stack = self._stack
        parent = stack[-1] if stack else None
        if parent is None or (name == "program.execute"
                              and parent[0] == "montecarlo.estimate_yield"):
            self._requests += 1
            request = self._requests
        else:
            request = parent[4]
        index = -1
        if self.record:
            index = len(self.columns[0])
            for col, value in zip(self.columns,
                                  (0, 0, 0, parent[3] if parent else -1, request)):
                col.append(value)
        frame = [name, 0, 0, index, request, parent]
        stack.append(frame)
        frame[1] = time.perf_counter_ns()
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        name, start, child_ns, index, _request, parent = frame
        duration = end - start
        stats = self.passes[-1]
        agg = stats.spans.get(name)
        if agg is None:
            agg = stats.spans[name] = [0, 0, 0]
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - child_ns
        key = (name, parent[0] if parent else None)
        stats.under[key] = stats.under.get(key, 0) + 1
        if parent is not None:
            parent[2] += duration
        if index >= 0:
            name_id = self._name_id.get(name)
            if name_id is None:
                name_id = self._name_id[name] = len(self.names)
                self.names.append(name)
            self.columns[0][index] = name_id
            self.columns[1][index] = start
            self.columns[2][index] = end

    def _wrap(self, fn, span: str):
        hook = _HOOKS.get(span)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            ctx = hook.before(tracer, fn, args, kwargs) if hook else None
            frame = tracer._enter(span)
            try:
                result = fn(*args, **kwargs)
                if hook:
                    hook.after(tracer, frame, result, ctx)
                return result
            finally:
                tracer._exit(frame)
        return wrapper

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        """Replace every entry point, in every implogic namespace bound to
        it, by its traced wrapper."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "implogic" or n.startswith("implogic."))]
        self.absent = []
        for module_name, attr, span in ENTRY_POINTS:
            owner = sys.modules.get(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(original, span)
            targets = [owner] if path else [m for m in modules
                                            if getattr(m, leaf, None) is original]
            for target in targets:
                setattr(target, leaf, wrapper)
                self._patched.append((target, leaf, original))

    def uninstall(self) -> None:
        for target, leaf, original in reversed(self._patched):
            setattr(target, leaf, original)
        self._patched.clear()

    # -- output -----------------------------------------------------------

    def write_spans(self, path) -> int:
        """Write the first traced pass's spans as gzipped CSV, one row per
        span in start order (``parent`` is a row number, -1 for none, and
        times count from the first span's start); returns the span count."""
        names, starts, ends, parents, requests = self.columns
        t0 = starts[0] if starts else 0
        with gzip.open(path, "wt") as fh:
            fh.write("name,start_ns,end_ns,parent,request\n")
            for i in range(len(names)):
                fh.write(f"{self.names[names[i]]},{starts[i] - t0},{ends[i] - t0},"
                         f"{parents[i]},{requests[i]}\n")
        return len(names)


# -- hooks: counts taken from arguments and returned values -------------------

class _Hook:
    def before(self, tracer, fn, args, kwargs):
        return None

    def after(self, tracer, frame, result, ctx):
        pass


class _ExecuteHook(_Hook):
    def before(self, tracer, fn, args, kwargs):
        program = args[0] if args else kwargs.get("program")
        return len(getattr(program, "steps", ()))

    def after(self, tracer, frame, result, steps):
        tracer.passes[-1].add("program.execute.steps", steps)


class _SolveHook(_Hook):
    """Closed-form solves report zero Newton iterations."""

    def after(self, tracer, frame, result, ctx):
        iterations = getattr(result, "iterations", 0)
        if iterations > 0:
            frame[0] = _NEWTON
            tracer.passes[-1].add("solver.newton_iterations", iterations)
        else:
            frame[0] = _CLOSED


class _GridHook(_Hook):
    def __init__(self, span: str):
        self.key = span + ".points"

    def after(self, tracer, frame, result, ctx):
        tracer.passes[-1].add(self.key, int(getattr(result, "size", 0)))


class _OptimizeHook(_Hook):
    """Each joint evaluation calls the grid once per constrained pair, so
    the grid points inside one call must equal ``evaluations`` times the
    number of pairs."""

    def before(self, tracer, fn, args, kwargs):
        bound = inspect.signature(fn).bind(*args, **kwargs)
        pairs = 1 + len(bound.arguments.get("constraints") or ())
        return pairs, _grid_points(tracer.passes[-1])

    def after(self, tracer, frame, result, ctx):
        pairs, mark = ctx
        stats = tracer.passes[-1]
        evaluations = int(result.evaluations)
        if any(f"implogic.optimizer.{name}" in tracer.absent
               for name in ("_linear_margin_grid", "_nonlinear_margin_grid")):
            stats.add("optimizer.grid_points", evaluations)
            return
        points = _grid_points(stats) - mark
        stats.add("optimizer.grid_points", points // pairs)
        tracer.consistency.append(
            (points == evaluations * pairs,
             f"optimize: {points} grid points over {pairs} pair(s), "
             f"but evaluations = {evaluations}"))


def _grid_points(stats: PassStats) -> int:
    return sum(stats.counts.get(g + ".points", 0) for g in _GRIDS)


_HOOKS = {
    "program.execute": _ExecuteHook(),
    "solver.solve_node": _SolveHook(),
    "optimizer.linear_grid": _GridHook("optimizer.linear_grid"),
    "optimizer.nonlinear_grid": _GridHook("optimizer.nonlinear_grid"),
    "optimizer.optimize": _OptimizeHook(),
}


# -- per-layer metrics ---------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    """num / den; a layer that never ran reads its numerator (0)."""
    return num / den if den else float(num)


def layer_metrics(p: PassStats, trials: int, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass of ``trials`` Monte Carlo trials
    that spent ``wall_s`` in its timed calls. Counts are per pass."""

    def calls(name):
        return p.spans.get(name, (0, 0, 0))[0]

    def total_ns(name):
        return p.spans.get(name, (0, 0, 0))[1]

    def self_ns(name):
        return p.spans.get(name, (0, 0, 0))[2]

    settle = calls("solver.settle_states")
    settle_solves = (p.under.get((_CLOSED, "solver.settle_states"), 0)
                     + p.under.get((_NEWTON, "solver.settle_states"), 0))
    return {
        "cli.self_ms": _ratio(self_ns("cli.main") / 1e6, calls("cli.main")),
        "montecarlo.self_us_per_trial":
            _ratio(self_ns("montecarlo.estimate_yield") / 1e3, trials),
        "montecarlo.execute_calls_per_trial":
            _ratio(p.under.get(("program.execute", "montecarlo.estimate_yield"), 0),
                   trials),
        "program.execute_self_us_per_step":
            _ratio(self_ns("program.execute") / 1e3,
                   p.counts.get("program.execute.steps", 0)),
        "program.validate_calls": calls("program.validate"),
        "program.validate_us_per_call":
            _ratio(total_ns("program.validate") / 1e3, calls("program.validate")),
        "program.compile_calls": calls("program.compile_full_adder"),
        "program.compile_ms_per_call":
            _ratio(total_ns("program.compile_full_adder") / 1e6,
                   calls("program.compile_full_adder")),
        "program.compile_share_of_wall":
            total_ns("program.compile_full_adder") / 1e9 / wall_s,
        "solver.settle_calls": settle,
        "solver.settle_passes_per_call": _ratio(settle_solves, settle),
        "solver.solves_per_imp": _ratio(calls(_CLOSED) + calls(_NEWTON), settle),
        "solver.closed_us_per_solve": _ratio(total_ns(_CLOSED) / 1e3, calls(_CLOSED)),
        "solver.newton_us_per_solve": _ratio(total_ns(_NEWTON) / 1e3, calls(_NEWTON)),
        "solver.newton_iterations_per_solve":
            _ratio(p.counts.get("solver.newton_iterations", 0), calls(_NEWTON)),
        "device.threshold_draws_per_trial":
            _ratio(calls("device.sample_thresholds"), trials),
        "device.draw_us": _ratio(total_ns("device.sample_thresholds") / 1e3,
                                 calls("device.sample_thresholds")),
        "optimizer.grid_points": p.counts.get("optimizer.grid_points", 0),
        "optimizer.linear_grid_ns_per_point":
            _ratio(total_ns("optimizer.linear_grid"),
                   p.counts.get("optimizer.linear_grid.points", 0)),
        "optimizer.nonlinear_grid_ns_per_point":
            _ratio(total_ns("optimizer.nonlinear_grid"),
                   p.counts.get("optimizer.nonlinear_grid.points", 0)),
        "optimizer.evaluate_margin_calls": calls("optimizer.evaluate_margin"),
        "optimizer.self_ms_per_call":
            _ratio(self_ns("optimizer.optimize") / 1e6, calls("optimizer.optimize")),
    }
