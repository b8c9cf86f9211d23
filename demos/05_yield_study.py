#!/usr/bin/env python3
"""Monte Carlo yield of a NAND gate under cycle-to-cycle variation.

Thresholds are resampled per step from independent per-trial substreams, so
every number here is reproducible from the seed. Yield stays at 1 while the
set-threshold half-width is below the evaluated margin and degrades
gracefully beyond it.
"""

import implogic as il

stack = il.build_default_stack()


def nand_oracle(inputs):
    return {"out": int(not (inputs["a"] and inputs["b"]))}


def spec_with_width(width):
    return il.MemristorSpec(v_set_min=1.5 - width / 2, v_set_max=1.5 + width / 2,
                            v_reset_min=-1.5, v_reset_max=-2.2,
                            g_on=115e-6, g_off=10e-6)


print("=" * 70)
print("Yield vs set-threshold spread (2000 trials per point, seed 17)")
print("=" * 70)
base_configs = il.default_configs(spec_with_width(0.0))
ideal = il.worst_slack(il.evaluate_margin(
    stack, "B1", "T2", base_configs["drive_neg"],
    spec_with_width(0.0), spec_with_width(0.0)))
print(f"evaluated zero-variation margin: {ideal * 1e3:.1f} mV")
print(f"{'half-width (mV)':>16} {'margin (mV)':>12} {'yield':>8}")
for width in (0.2, 0.4, 0.6, 0.8, 1.0, 1.2):
    spec = spec_with_width(width)
    specs = {"bottom": spec, "top": spec}
    margin = ideal - spec.set_half_width
    results = []
    for a, b in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        prog = il.with_inputs(il.nand_macro("B1", "B2", "T2"), {"a": a, "b": b})
        report = il.estimate_yield(prog, stack, specs, base_configs,
                                   nand_oracle, trials=500, seed=17)
        results.append(report.yield_fraction)
    total = sum(results) / len(results)
    print(f"{width / 2 * 1e3:>16.0f} {margin * 1e3:>12.1f} {total:>8.3f}")
print()
print("Positive margin guarantees yield 1; once the half-width crosses the")
print("zero-variation margin, some cycles draw a set threshold beyond the")
print("delivered drop and the gate starts failing.")
print()

print("=" * 70)
print("Measured variation, all four NAND input rows")
print("=" * 70)
spec = il.bottom_device_spec()
specs = {"bottom": spec, "top": spec}
configs = il.default_configs(spec)
for a, b in [(0, 0), (0, 1), (1, 0), (1, 1)]:
    prog = il.with_inputs(il.nand_macro("B1", "B2", "T2"), {"a": a, "b": b})
    report = il.estimate_yield(prog, stack, specs, configs, nand_oracle,
                               trials=2000, seed=3)
    hist = dict(sorted(report.failure_histogram.items()))
    print(f"   inputs ({a},{b}): yield {report.yield_fraction:.3f}, "
          f"degraded-ratio fraction {report.degraded_ratio_fraction:.4f}, "
          f"failures by step {hist if hist else '{}'}")
print()
print("The measured set ranges leave a positive margin at the optimal bias,")
print("so the uniform-range model yields 100% here; the failure histogram,")
print("when failures occur, points at the first step whose device states")
print("diverge from the zero-variation reference.")
print()

print("=" * 70)
print("Partial reset bookkeeping: ratio degradation under stress pulses")
print("=" * 70)
# a drop inside the gradual reset window (between the onset and the
# guaranteed-full level) knocks the ON conductance down without clearing
# the bit; the scale compounds across pulses
pulses = {"stress": il.ImpConfig(v_p=-2.1, load=il.ResistiveLoad(g_l=1e-3, v_l=0.0)),
          "full": il.ImpConfig(v_p=-3.0, load=il.ResistiveLoad(g_l=1e-3, v_l=0.0))}
program = il.StepProgram((il.WriteStep("T1", 1), il.ImpStep("T1", "T2", "stress"),
                          il.ImpStep("T1", "T2", "stress"), il.ImpStep("T1", "T2", "full")))
_, *stressed, deeper = il.execute(program, stack, specs, pulses).steps
for pulse, record in enumerate(stressed, 1):
    logic, scale = record.states_after["T1"]
    print(f"   stress pulse {pulse}: events "
          f"{[e.kind.value for e in record.events] or 'none'}, T1 scale "
          f"{scale:.2f}, still reads "
          f"{il.decode_bit(spec, il.DeviceState(il.Logic[logic], scale))}")
logic, scale = deeper.states_after["T1"]
print(f"   deeper pulse: events {[e.kind.value for e in deeper.events]}, "
      f"T1 -> {logic} scale {scale:.1f} (a full reset restores scale 1)")
