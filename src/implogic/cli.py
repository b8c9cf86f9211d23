"""Command-line front end: margin sweeps, bias optimization, program
execution, adder verification, and yield studies.

All commands are deterministic given their flags and seed: JSON output uses
sorted keys and floats rounded to 12 significant digits, so identical
invocations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
import sys

from . import margins as mg
from .device import LinearIV, MemristorSpec, _check_json
from .montecarlo import estimate_yield
from .optimizer import Infeasible, optimize
from .program import (ImpStep, ProgramError, StepProgram, _resolve_config,
                      default_configs, execute, ripple_adder_8bit)
from .solver import NoConvergence
from .topology import ImpConfig, NotAdjacent, StackTopology, build_default_stack

__all__ = ["main"]


def _round12(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def _dump_json(obj, path: str | None) -> None:
    text = json.dumps(_round12(obj), sort_keys=True, indent=2) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fmt(x) -> str:
    return f"{x:.12g}" if isinstance(x, float) else str(x)


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _load_spec_file(path: str) -> MemristorSpec:
    return MemristorSpec.from_json(_load_json(path))


def _load_circuit_file(path: str) -> tuple[StackTopology, dict[str, MemristorSpec]]:
    obj = _check_json(_load_json(path), dict, "circuit")
    specs = {name: MemristorSpec.from_json(sp)
             for name, sp in _check_json(obj.get("specs", {}), dict, "specs").items()}
    topo = StackTopology.from_json(obj)
    missing = {c.spec_ref for c in topo.cells.values()} - set(specs)
    if missing:
        raise ValueError(f"circuit file lacks specs {sorted(missing)}")
    return topo, specs


def _load_program_file(path: str) -> tuple[StepProgram, dict[str, ImpConfig]]:
    obj = _load_json(path)
    program = StepProgram.from_json(obj)
    configs = {name: ImpConfig.from_json(c)
               for name, c in _check_json(obj.get("configs", {}), dict, "configs").items()}
    return program, configs


def _auto_configs(program: StepProgram, topo: StackTopology,
                  specs: dict[str, MemristorSpec],
                  file_configs: dict[str, ImpConfig]) -> dict[str, ImpConfig]:
    """File-supplied configs, backed by the analytic defaults when the
    circuit has a single ohmic device spec to derive them from; they are the
    ohmic optimum, so no other I-V law gets them. The program is validated
    first, as ``execute`` would; then an ``auto`` implication whose config
    is still missing raises ValueError naming it, before any step runs."""
    configs = {}
    distinct = set(specs.values())
    if len(distinct) == 1 and isinstance(next(iter(distinct)).iv_model, LinearIV):
        configs.update(default_configs(next(iter(distinct))))
    configs.update(file_configs)
    program.validate(topo)
    for step in program.steps:
        if isinstance(step, ImpStep) and step.config_ref == "auto":
            try:
                _resolve_config(step, topo, configs)
            except ProgramError as exc:
                raise ValueError(f"{exc}: the program file supplies none, and it is "
                                 "derived only for a single ohmic spec") from None
    return configs


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_margins(args) -> int:
    spec = _load_spec_file(args.spec)
    gl_min, gl_max, steps = args.sweep
    grid = [gl_min + (gl_max - gl_min) * i / (steps - 1) for i in range(steps)]
    rows = mg.sweep_rows(args.ratios, grid, vstar=1.0)
    fieldnames = ["g_l_over_g_on", "ratio", "delta_over_v_star",
                  "delta_legacy_marker", "source"]
    for row in rows:
        row["source"] = "analytic"

    if args.numeric:
        rows.extend(_numeric_rows(spec, args.numeric_gl or [0.0], args.rounds))

    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _fmt(v) for k, v in row.items()})
    sys.stdout.write(f"wrote {len(rows)} rows to {args.out}\n")
    return 0


def _numeric_rows(spec: MemristorSpec, gl_over_gon: list[float],
                  rounds: int) -> list[dict]:
    """Margin points from the full numerical optimizer for the given device,
    at zero threshold variation so they compare against the ideal curves."""
    vs = spec.v_set_star
    ideal = dataclasses.replace(spec, v_set_min=vs, v_set_max=vs)
    topo = build_default_stack()  # T1 and T2: a parallel top-level pair
    ratio = spec.g_on / spec.g_off
    legacy = mg.delta_ideal_parallel(mg.legacy_load(spec.g_on, spec.g_off),
                                     spec.g_on, spec.g_off, vs) / vs
    rows = []
    for gl_norm in gl_over_gon:
        g_l = gl_norm * spec.g_on
        kind = "resistive" if g_l > 0 else "current_source"
        result = optimize(topo, "T1", "T2", {"top": ideal}, load_kind=kind,
                          g_l=g_l, rounds=rounds)
        rows.append({"g_l_over_g_on": gl_norm, "ratio": ratio,
                     "delta_over_v_star": result.margin / vs,
                     "delta_legacy_marker": legacy, "source": "numeric"})
    return rows


def _cmd_optimize(args) -> int:
    topo, specs = _load_circuit_file(args.topology)
    pairs = []
    for token in args.pairs.split(","):
        p, _, q = token.partition(":")
        if not p or not q:
            raise ValueError(f"bad pair {token!r}; expected P:Q")
        pairs.append((p.strip(), q.strip()))
    if args.load == "current":
        kind, g_l = "current_source", 0.0
    elif args.load.startswith("resistive:"):
        kind, g_l = "resistive", float(args.load.split(":", 1)[1])
    else:
        raise ValueError("load must be 'current' or 'resistive:GL'")
    result = optimize(topo, pairs[0][0], pairs[0][1], specs, load_kind=kind,
                      g_l=g_l, constraints=pairs[1:], rounds=args.rounds)
    out = result.to_json()
    out["pairs"] = [f"{p}:{q}" for p, q in pairs]
    out["load_kind"] = kind
    _dump_json(out, args.out)
    return 0


def _cmd_run(args) -> int:
    topo, specs = _load_circuit_file(args.topology)
    program, file_configs = _load_program_file(args.program)
    configs = _auto_configs(program, topo, specs, file_configs)
    variation = "seeded" if args.variation == "on" else "off"
    trace = execute(program, topo, specs, configs, variation=variation,
                    seed=args.seed)
    if args.trace:
        with open(args.trace, "w") as fh:
            for rec in trace.jsonl_records():
                fh.write(json.dumps(_round12(rec), sort_keys=True) + "\n")
    out = {
        "final": trace.final_bits,
        "outputs": trace.output_bits(program),
        "reads": [{"step": i, "cell": c, "bit": b} for i, c, b in trace.reads],
        "events": sum(len(r.events) for r in trace.steps),
        "variation": variation,
        "seed": args.seed,
    }
    _dump_json(out, args.out)
    return 0


def _cmd_adder(args) -> int:
    total, carry, _trace, program = ripple_adder_8bit(
        args.a, args.b, args.cin, bits=args.bits,
        variation="seeded" if args.variation == "on" else "off", seed=args.seed)
    resets, imps = program.census()
    _dump_json({"sum": total, "carry": carry, "resets": resets, "imps": imps,
                "a": args.a, "b": args.b, "cin": args.cin, "bits": args.bits},
               args.out)
    return 0


def _cmd_yield(args) -> int:
    topo, specs = _load_circuit_file(args.topology)
    program, file_configs = _load_program_file(args.program)
    configs = _auto_configs(program, topo, specs, file_configs)
    report = estimate_yield(program, topo, specs, configs, None,
                            trials=args.trials, seed=args.seed)
    if args.per_trial:
        rows = "".join(f"{t},1,\r\n" if step < 0 else f"{t},0,{step}\r\n"
                       for t, step in enumerate(report.failed_step.tolist()))
        with open(args.per_trial, "w", newline="") as fh:
            fh.write("trial,passed,failed_step\r\n" + rows)
    out = report.to_json()
    out["expected_outputs"] = report.expected
    _dump_json(out, args.out)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _sweep_triplet(text: str) -> tuple[float, float, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected gl_min,gl_max,steps")
    lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    if n < 2 or not 0 <= lo <= hi < math.inf:
        raise argparse.ArgumentTypeError(
            "need 0 <= gl_min <= gl_max, both finite, and steps >= 2")
    return lo, hi, n


def _bounded_list(least: float):
    """An argparse type: comma-separated finite numbers, each >= ``least``."""
    def parse(text: str) -> list[float]:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
        for value in values:
            if not least <= value < math.inf:
                raise argparse.ArgumentTypeError(
                    f"{value!r}: values must be finite and >= {least:g}")
        return values
    return parse


def _rounds(text: str) -> int:
    rounds = int(text)
    if rounds < 0:
        raise argparse.ArgumentTypeError("--rounds must be >= 0")
    return rounds


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors print the JSON error body on
    stdout, as every other failing command does, before argparse's usage
    text on stderr and exit code 2."""

    def error(self, message: str):
        _dump_json({"error": "usage", "message": message}, None)
        super().error(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="implogic",
        description="Stateful implication-logic simulator and design toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("margins", help="emit the margin-vs-load CSV family")
    p.add_argument("--spec", required=True, help="device spec JSON file")
    p.add_argument("--sweep", required=True, type=_sweep_triplet,
                   metavar="GLMIN,GLMAX,STEPS", help="normalized g_l/g_on grid")
    p.add_argument("--ratios", required=True, type=_bounded_list(1.0),
                   help="comma-separated ON/OFF conductance ratios")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--numeric", action="store_true",
                   help="append numerically optimized margin points")
    p.add_argument("--numeric-gl", type=_bounded_list(0.0), default=None,
                   help="normalized g_l list for the numeric points")
    p.add_argument("--rounds", type=_rounds, default=6)
    p.set_defaults(func=_cmd_margins)

    p = sub.add_parser("optimize", help="maximize the bias margin for pairs")
    p.add_argument("--topology", required=True, help="circuit JSON file")
    p.add_argument("--pairs", required=True,
                   help="comma-separated P:Q pairs; first is primary")
    p.add_argument("--load", default="current",
                   help="'current' or 'resistive:GL'")
    p.add_argument("--rounds", type=_rounds, default=8)
    p.add_argument("--out", default=None, help="output JSON path (default stdout)")
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("run", help="execute a step program")
    p.add_argument("--program", required=True, help="program JSON file")
    p.add_argument("--topology", required=True, help="circuit JSON file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--variation", choices=("on", "off"), default="off")
    p.add_argument("--trace", default=None, help="write per-step JSONL here")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("adder", help="ripple-carry addition on the 6-cell stack")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--cin", type=int, choices=(0, 1), required=True)
    p.add_argument("--bits", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--variation", choices=("on", "off"), default="off")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_adder)

    p = sub.add_parser("yield", help="seeded Monte Carlo yield of a program")
    p.add_argument("--program", required=True)
    p.add_argument("--topology", required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--per-trial", default=None,
                   help="write per-trial outcomes to this CSV")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_yield)

    return parser


@functools.lru_cache(maxsize=1)
def _main_parser() -> argparse.ArgumentParser:
    """The one parser of ``main`` in this process, built on its first call:
    a build costs about as much as a short warm command."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    parser = _main_parser()
    args = parser.parse_args(argv)
    if args.command == "yield" and args.trials < 1:
        parser.error("--trials must be >= 1")
    if args.command == "adder":
        if args.bits < 1:
            parser.error("--bits must be >= 1")
        for name in ("a", "b"):
            if not 0 <= getattr(args, name) < 2 ** args.bits:
                parser.error(f"--{name} must fit in {args.bits} bits")
    try:
        return args.func(args)
    except Infeasible as exc:
        err = {"error": "infeasible", "message": str(exc)}
        if exc.result is not None:
            err["result"] = exc.result.to_json()
        _dump_json(err, None)
        return 3
    except (OSError, json.JSONDecodeError, KeyError, ValueError,
            NotAdjacent, MemoryError) as exc:
        _dump_json({"error": "config", "message": f"{type(exc).__name__}: {exc}"},
                   None)
        return 2
    except (ProgramError, NoConvergence) as exc:
        _dump_json({"error": type(exc).__name__.lower(), "message": str(exc)},
                   None)
        return 1


if __name__ == "__main__":
    sys.exit(main())
