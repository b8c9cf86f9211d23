"""The four benchmark workloads.

Each workload builds its inputs from the workload seed in ``setup``, runs
one fixed batch of public-API calls per timed pass, and checks every
output. The package is looked up as ``il.<name>`` (or ``cli.main``) at call
time, so the traced run's wrappers are the ones called.

Why these four (see NOTES.md for the layer map):

- yield_nand: the CLI yield study. A small program, so per-trial overhead
  (estimate_yield, execute with the full trace, validate, threshold draws,
  failure attribution) and the closed-form solver dominate. Never touches
  Newton, compile_full_adder or the optimizer.
- yield_adder_sinh: estimate_yield on the compiled full adder with sinh
  devices. Every node solve takes the Newton path on a 35-step program.
- ripple_sweep: the criterion-5 kernel, ripple_adder_8bit at zero
  variation. Trace level "reads" (no snapshots, no threshold draws), and
  compile_full_adder reruns on every call, so a schedule memo shows here.
- optimize_bias: optimize on sinh and ohmic devices. Time goes to the
  margin grids; program, montecarlo and cli never run.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import math
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import implogic as il
import implogic.cli as cli
import calibrate
from common import derive_seed

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


class Checks:
    """Counts checked operations and the ones that were wrong or raised."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 50:
                self.notes.append(what)


@dataclass
class PassResult:
    wall_s: float
    latencies_s: list[float]
    scaled_s: list[float]  # latencies at the reference speed (calibrate.py)
    outputs: list          # one per call; None where the call raised
    errors: list[str]      # tracebacks of the calls that raised


def run_calls(calls, order, calibrated: bool = True, expected=None) -> PassResult:
    """Time each zero-argument call and the batch, running the calls in
    ``order`` (a permutation of their indices); latencies and outputs come
    back in call order. A call that raises is recorded, and the pass goes
    on. When ``calibrated``, each call is bracketed by slices of the
    calibration kernel, the one before sized by the call's ``expected``
    latency (from an earlier pass), and each latency is also given scaled
    to the reference speed; ``wall_s`` includes the slices."""
    n = len(calls)
    latencies, scaled, outputs, errors = [0.0] * n, [0.0] * n, [None] * n, []
    start = time.perf_counter()
    for i in order:
        if calibrated:
            before = calibrate.slice_for(expected[i] if expected else 0.0)
        t0 = time.perf_counter()
        try:
            outputs[i] = calls[i]()
        except Exception:  # noqa: BLE001 - a failed operation is counted, not fatal
            errors.append(traceback.format_exc())
        latencies[i] = time.perf_counter() - t0
        if calibrated:
            after = calibrate.slice_for(latencies[i])
            scaled[i] = latencies[i] * calibrate.scale(before, after)
    return PassResult(time.perf_counter() - start, latencies,
                      scaled if calibrated else [], outputs, errors)


def _rel_close(got: float, want: float, rel: float) -> bool:
    return math.isfinite(got) and abs(got - want) <= rel * abs(want)


def nand_stack_spec() -> il.MemristorSpec:
    """Ohmic devices centred at 1.5 V with a 1.0 V set-threshold window."""
    return il.MemristorSpec(v_set_min=1.0, v_set_max=2.0, v_reset_min=-1.5,
                            v_reset_max=-2.2, g_on=115e-6, g_off=10e-6)


def sinh_spec(set_half_width: float) -> il.MemristorSpec:
    iv = il.sinh_iv_from_conductances(115e-6, 10e-6, 1.5, 1.5)
    return il.MemristorSpec(v_set_min=1.5 - set_half_width,
                            v_set_max=1.5 + set_half_width, v_reset_min=-1.5,
                            v_reset_max=-2.2, g_on=115e-6, g_off=10e-6,
                            iv_model=iv)


class Workload:
    """One fixed batch of calls per pass, built by ``setup`` from the seed.

    ``calls`` gives the zero-argument calls of one pass, ``collect`` turns
    their results into comparable outputs (outside the timed section),
    ``check_pass`` checks one pass and ``final_checks`` runs once per run.
    """

    name = ""
    item = ""
    items_per_call = 1
    trials_per_pass = 0

    def __init__(self, reference: dict):
        self.reference = reference

    def collect(self, state, outputs):
        return outputs

    def final_checks(self, state, seed, first_pass_outputs, checks):
        pass


# ---------------------------------------------------------------------------
# yield_nand
# ---------------------------------------------------------------------------

class YieldNand(Workload):
    name = "yield_nand"
    item = "trial"
    ROWS = ((0, 0), (0, 1), (1, 0), (1, 1))
    TRIALS = 2500
    items_per_call = TRIALS
    trials_per_pass = TRIALS * len(ROWS)

    def setup(self, seed: int, workdir: Path) -> dict:
        spec = nand_stack_spec().to_json()
        circuit = il.build_default_stack().to_json()
        circuit["specs"] = {"bottom": spec, "top": spec}
        circuit_path = workdir / "circuit.json"
        circuit_path.write_text(json.dumps(circuit))
        rows = []
        for a, b in self.ROWS:
            prog = il.with_inputs(il.nand_macro("B1", "B2", "T2"), {"a": a, "b": b})
            path = workdir / f"nand_{a}{b}.json"
            path.write_text(json.dumps(prog.to_json()))
            rows.append({"a": a, "b": b, "program": path,
                         "cli_seed": derive_seed(seed, self.name, a, b),
                         "out": workdir / f"yield_{a}{b}.json",
                         "csv": workdir / f"trials_{a}{b}.csv"})
        state = {"circuit": circuit_path, "rows": rows, "workdir": workdir}
        warm = rows[-1]
        self._cli(state["circuit"], warm["program"], 20, 0,
                  workdir / "warm.json", workdir / "warm.csv")
        return state

    @staticmethod
    def _cli(circuit, program, trials, seed, out, per_trial) -> int:
        return cli.main(["yield", "--program", str(program), "--topology",
                         str(circuit), "--trials", str(trials), "--seed",
                         str(seed), "--per-trial", str(per_trial),
                         "--out", str(out)])

    def calls(self, state):
        return [lambda r=r: self._cli(state["circuit"], r["program"],
                                      self.TRIALS, r["cli_seed"], r["out"],
                                      r["csv"])
                for r in state["rows"]]

    def collect(self, state, outputs):
        """The CLI's products: exit code, JSON bytes, per-trial CSV bytes."""
        return [None if rc is None else
                (rc, r["out"].read_bytes(), r["csv"].read_bytes())
                for rc, r in zip(outputs, state["rows"])]

    def check_pass(self, state, outputs, checks: Checks) -> None:
        for r, out in zip(state["rows"], outputs):
            if out is None:
                continue  # counted where it raised
            checks.expect(_nand_output_ok(out, r["a"], r["b"], self.TRIALS),
                          f"yield_nand row {r['a']}{r['b']}: inconsistent CLI output")

    def final_checks(self, state, seed, first_pass_outputs, checks):
        recorded = self.reference["yield_nand"]["sha256_by_seed"].get(str(seed))
        if recorded is not None and None not in first_pass_outputs:
            checks.expect(nand_digest(first_pass_outputs) == recorded,
                          f"yield_nand seed {seed}: bytes differ from the record")
        canary = self.reference["yield_nand"]["canary"]
        checks.expect(self.canary_digest(state, canary["cli_seed"], canary["trials"])
                      == canary["sha256"],
                      "yield_nand canary: bytes differ from the record")

    def canary_digest(self, state, cli_seed: int, trials: int) -> str:
        """Digest of a small run with a fixed CLI seed, checked on every
        workload seed."""
        out, per_trial = state["workdir"] / "canary.json", state["workdir"] / "canary.csv"
        outs = []
        for r in state["rows"]:
            rc = self._cli(state["circuit"], r["program"], trials, cli_seed,
                           out, per_trial)
            outs.append((rc, out.read_bytes(), per_trial.read_bytes()))
        return nand_digest(outs)


def nand_digest(outputs) -> str:
    h = hashlib.sha256()
    for rc, js, cs in outputs:
        h.update(f"{rc}|{len(js)}|{len(cs)}|".encode())
        h.update(js)
        h.update(cs)
    return h.hexdigest()


def _nand_output_ok(out, a: int, b: int, trials: int) -> bool:
    rc, js, cs = out
    if rc != 0:
        return False
    report = json.loads(js)
    rows = list(csv.DictReader(io.StringIO(cs.decode())))
    passed = [int(row["passed"]) for row in rows]
    failed_steps = Counter(row["failed_step"] for row in rows if row["passed"] == "0")
    return (report["expected_outputs"] == {"out": int(not (a and b))}
            and report["trials"] == trials == len(rows)
            and [int(row["trial"]) for row in rows] == list(range(trials))
            and set(passed) <= {0, 1}
            and report["passes"] == sum(passed)
            and report["yield"] == float(f"{sum(passed) / trials:.12g}")
            and all((row["failed_step"] == "") == (row["passed"] == "1")
                    for row in rows)
            and report["failure_histogram"] == dict(failed_steps))


# ---------------------------------------------------------------------------
# yield_adder_sinh
# ---------------------------------------------------------------------------

def sinh_bias_configs(reference: dict) -> dict[str, il.ImpConfig]:
    """The recorded sinh bias pair. Targets that set toward the common node
    take the pair with both signs flipped."""
    v_p, i_l = reference["sinh_bias"]["v_p"], reference["sinh_bias"]["i_l"]
    return {"drive_neg": il.ImpConfig(v_p=v_p, load=il.CurrentSourceLoad(i_l)),
            "drive_pos": il.ImpConfig(v_p=-v_p, load=il.CurrentSourceLoad(-i_l))}


def full_adder_truth(a: int, b: int, c: int) -> dict[str, int]:
    return {"s": (a + b + c) & 1, "c_out": (a + b + c) >> 1}


class YieldAdderSinh(Workload):
    name = "yield_adder_sinh"
    item = "trial"
    ROWS = tuple(itertools.product((0, 1), repeat=3))
    TRIALS = 150
    items_per_call = TRIALS
    trials_per_pass = TRIALS * len(ROWS)

    def __init__(self, reference: dict):
        super().__init__(reference)
        self.configs = sinh_bias_configs(reference)

    def setup(self, seed: int, workdir: Path) -> dict:
        stack = il.build_adder_stack()
        spec = sinh_spec(0.4)
        specs = {"bottom": spec, "top": spec}
        fa = il.compile_full_adder(stack)
        rows = [{"inputs": (a, b, c),
                 "program": il.with_inputs(fa, {"a": a, "b": b, "c_in": c}),
                 "expected": full_adder_truth(a, b, c),
                 "seed": derive_seed(seed, self.name, a, b, c)}
                for a, b, c in self.ROWS]
        state = {"stack": stack, "specs": specs, "rows": rows}
        il.estimate_yield(rows[0]["program"], stack, specs, self.configs,
                          rows[0]["expected"], trials=2, seed=0)
        return state

    def calls(self, state):
        return [lambda r=r: il.estimate_yield(
                    r["program"], state["stack"], state["specs"], self.configs,
                    r["expected"], trials=self.TRIALS, seed=r["seed"])
                for r in state["rows"]]

    def collect(self, state, outputs):
        return [None if rep is None else json.dumps(rep.to_json(), sort_keys=True)
                for rep in outputs]

    def check_pass(self, state, outputs, checks: Checks) -> None:
        for r, out in zip(state["rows"], outputs):
            if out is None:
                continue
            rep = json.loads(out)
            hist = {int(k): v for k, v in rep["failure_histogram"].items()}
            n_steps = len(r["program"].steps)
            checks.expect(
                rep["trials"] == self.TRIALS
                and 0 <= rep["passes"] <= self.TRIALS
                and rep["yield"] == rep["passes"] / self.TRIALS
                and sum(hist.values()) == self.TRIALS - rep["passes"]
                and all(0 <= k < n_steps for k in hist)
                and 0.0 <= rep["degraded_ratio_fraction"] <= 1.0,
                f"yield_adder_sinh row {r['inputs']}: inconsistent report")

    def final_checks(self, state, seed, first_pass_outputs, checks):
        """The zero-variation reference must compute the full adder: trials
        are only compared with the reference, so a wrong one goes unseen."""
        for r in state["rows"]:
            trace = il.execute(r["program"], state["stack"], state["specs"],
                               self.configs, variation="off")
            checks.expect(trace.output_bits(r["program"]) == r["expected"],
                          f"yield_adder_sinh row {r['inputs']}: zero-variation "
                          "reference is not the full-adder truth table")


# ---------------------------------------------------------------------------
# ripple_sweep
# ---------------------------------------------------------------------------

# the corner triples of acceptance criterion 5
RIPPLE_CORNERS = ((0, 0, 0), (255, 1, 0), (255, 255, 1), (0, 0, 1),
                  (255, 0, 1), (0, 255, 1), (128, 127, 1), (1, 254, 1))


class RippleSweep(Workload):
    name = "ripple_sweep"
    item = "addition"
    RANDOM = 600

    def setup(self, seed: int, workdir: Path) -> dict:
        rng = np.random.default_rng(derive_seed(seed, self.name))
        drawn = rng.integers(0, [256, 256, 2], size=(self.RANDOM, 3))
        triples = list(RIPPLE_CORNERS) + [tuple(int(v) for v in t) for t in drawn]
        il.ripple_adder_8bit(*triples[-1])
        return {"triples": triples}

    def calls(self, state):
        return [lambda t=t: il.ripple_adder_8bit(*t)[:2] for t in state["triples"]]

    def check_pass(self, state, outputs, checks: Checks) -> None:
        for (a, b, c0), out in zip(state["triples"], outputs):
            if out is None:
                continue
            total, carry = out
            checks.expect(total + (carry << 8) == a + b + c0,
                          f"ripple {a}+{b}+{c0}: got sum {total} carry {carry}")

    def final_checks(self, state, seed, first_pass_outputs, checks):
        program = il.ripple_adder_8bit(*state["triples"][0])[3]
        checks.expect(program.census() == (104, 176),
                      f"ripple census {program.census()} != (104, 176)")


# ---------------------------------------------------------------------------
# optimize_bias
# ---------------------------------------------------------------------------

SINH_CASES = ("current_source", "resistive", "joint")


class OptimizeBias(Workload):
    name = "optimize_bias"
    item = "optimize call"
    OHMIC_PAIRS = 32

    def setup(self, seed: int, workdir: Path) -> dict:
        zero = sinh_spec(0.0)
        sinh_specs = {"bottom": zero, "top": zero}
        ohmic = []
        rng = np.random.default_rng(derive_seed(seed, self.name))
        while len(ohmic) < self.OHMIC_PAIRS:
            v_star, half = rng.uniform(1.3, 1.7), rng.uniform(0.0, 0.1)
            g_off = rng.uniform(5e-6, 15e-6)
            spec = il.MemristorSpec(v_set_min=v_star - half, v_set_max=v_star + half,
                                    v_reset_min=-1.5, v_reset_max=-2.2,
                                    g_on=g_off * rng.uniform(8.0, 15.0), g_off=g_off)
            g_l = il.legacy_load(spec.g_on, spec.g_off) * rng.uniform(0.5, 1.5)
            if min(il.analytic_report(spec, 0.0).delta_actual,
                   il.analytic_report(spec, g_l).delta_actual) > 0.05:
                ohmic.append((spec, g_l))
        state = {"default": il.build_default_stack(), "adder": il.build_adder_stack(),
                 "sinh_specs": sinh_specs, "ohmic": ohmic,
                 "sinh_g_l": il.legacy_load(zero.g_on, zero.g_off)}
        spec, _ = ohmic[0]
        il.optimize(state["default"], "T1", "T2", {"bottom": spec, "top": spec})
        return state

    def calls(self, state):
        default, sinh = state["default"], state["sinh_specs"]
        calls = [
            lambda: il.optimize(default, "T1", "T2", sinh),
            lambda: il.optimize(default, "T1", "T2", sinh, load_kind="resistive",
                                g_l=state["sinh_g_l"]),
            lambda: il.optimize(state["adder"], "B1", "T1", sinh,
                                constraints=[("T1", "B1")]),
        ]
        for spec, g_l in state["ohmic"]:
            specs = {"bottom": spec, "top": spec}
            calls.append(lambda s=specs: il.optimize(default, "T1", "T2", s))
            calls.append(lambda s=specs, g=g_l: il.optimize(
                default, "T1", "T2", s, load_kind="resistive", g_l=g))
        return calls

    def collect(self, state, outputs):
        return [None if res is None else summarize_optimize(res) for res in outputs]

    def check_pass(self, state, outputs, checks: Checks) -> None:
        recorded = self.reference["sinh_optimize"]
        for case, out in zip(SINH_CASES, outputs):
            if out is None:
                continue
            want = recorded[case]
            checks.expect(all(_rel_close(out[k], want[k], 1e-12)
                              for k in ("margin", "v_p", "load")),
                          f"optimize sinh {case}: {out} differs from record {want}")
        ohmic_outputs = outputs[len(SINH_CASES):]
        for i, (spec, g_l) in enumerate(state["ohmic"]):
            for out, load in zip(ohmic_outputs[2 * i:2 * i + 2], (0.0, g_l)):
                if out is None:
                    continue
                want = il.analytic_report(spec, load).delta_actual
                checks.expect(_rel_close(out["margin"], want, 1e-5),
                              f"optimize ohmic #{i} g_l={load}: margin "
                              f"{out['margin']} vs analytic {want}")


def summarize_optimize(res) -> dict:
    load = res.best_config.load
    value = load.i_l if isinstance(load, il.CurrentSourceLoad) else load.v_l
    return {"margin": res.margin, "v_p": res.best_config.v_p, "load": value,
            "evaluations": res.evaluations}


WORKLOADS = {w.name: w for w in (YieldNand, YieldAdderSinh, RippleSweep, OptimizeBias)}
