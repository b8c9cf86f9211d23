#!/usr/bin/env python3
"""Stateful implication as the universal gate.

Runs q' <- p IMP q on every pair orientation the two-level stack offers,
then builds NAND (reset + two implications) and NOT (reset + one) and
cascades them, all through the electrical solver.
"""

import itertools

import implogic as il

stack = il.build_default_stack()
spec = il.ideal_device_spec()
specs = {ref: spec for ref in ("bottom", "top")}
configs = il.default_configs(spec)

print("=" * 70)
print("Implication truth table on all four pair orientations")
print("=" * 70)
pairs = [("B2", "B1"), ("T1", "T2"), ("B2", "T2"), ("T2", "B2")]
for p, q in pairs:
    results = []
    for pv, qv in itertools.product((0, 1), repeat=2):
        prog = il.StepProgram((il.WriteStep(p, pv), il.WriteStep(q, qv),
                               il.ImpStep(p, q), il.ReadStep(q)))
        trace = il.execute(prog, stack, specs, configs)
        results.append(trace.reads[-1][2])
    pol = stack.pair_polarity(p, q).value
    print(f"{p} IMP {q} ({pol:>13}, result in {q}): "
          f"00->{results[0]} 01->{results[1]} 10->{results[2]} 11->{results[3]}"
          f"   (want 1 1 0 1)")
print()

print("=" * 70)
print("One implication step under the microscope (p=0, q=0: the set case)")
print("=" * 70)
prog = il.StepProgram((il.WriteStep("B1", 0), il.WriteStep("T2", 0),
                       il.ImpStep("B1", "T2"), il.ReadStep("T2")))
trace = il.execute(prog, stack, specs, configs)
for rec in trace.jsonl_records():
    print("  ", rec)
print()

print("=" * 70)
print("NAND = reset + 2 implications; NOT = reset + 1")
print("=" * 70)
nand = il.nand_macro("B1", "B2", "T2")
print(f"NAND census: {nand.census()[0]} reset, {nand.census()[1]} implications")
for a, b in itertools.product((0, 1), repeat=2):
    prog = il.with_inputs(nand, {"a": a, "b": b})
    out = il.execute(prog, stack, specs, configs).output_bits(prog)["out"]
    print(f"   NAND({a},{b}) = {out}")
for a in (0, 1):
    prog = il.with_inputs(il.not_macro("B1", "T1"), {"a": a})
    out = il.execute(prog, stack, specs, configs).output_bits(prog)["out"]
    print(f"   NOT({a})    = {out}")
print()

print("=" * 70)
print("Cascading: the latched NAND output drives the next gate")
print("=" * 70)
for a, b in itertools.product((0, 1), repeat=2):
    latched = il.with_inputs(il.nand_macro("B1", "B2", "T1"), {"a": a, "b": b})
    prog = il.StepProgram(latched.steps + il.not_macro("T1", "T2").steps)
    trace = il.execute(prog, stack, specs, configs)
    print(f"   AND({a},{b}) via NOT(NAND) = {trace.final_bits['T2']}")
