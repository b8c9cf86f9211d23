#!/usr/bin/env python3
"""Numerical bias optimization on the four-cell stack.

The optimizer searches (v_p, load) maximizing the worst slack over the full
correctness inequality set, evaluated through the node solver. For ohmic
devices it must land on the closed forms; for sinh-shaped devices there is
no closed form and the numerical answer is the design tool.
"""

import implogic as il

stack = il.build_default_stack()
spec = il.bottom_device_spec()
specs = {"bottom": spec, "top": spec}

print("=" * 70)
print("Ohmic devices: the optimizer vs the closed forms")
print("=" * 70)
rep = il.analytic_report(spec, 0.0)
res = il.optimize(stack, "T1", "T2", specs)
print(f"closed form : margin {rep.delta_actual * 1e3:7.2f} mV, "
      f"v_p {rep.optimal_v_p:+.4f} V, i_l {rep.optimal_i_l * 1e6:+.2f} uA")
print(f"optimizer   : margin {res.margin * 1e3:7.2f} mV, "
      f"v_p {res.best_config.v_p:+.4f} V, "
      f"i_l {res.best_config.load.i_l * 1e6:+.2f} uA "
      f"({res.evaluations} evaluations)")
print()

print("Binding slacks at the optimum (the three active inequalities tie):")
for key, val in sorted(res.slack_breakdown.items(), key=lambda kv: kv[1])[:4]:
    print(f"   {key:<40} {val * 1e3:8.2f} mV")
print()

print("=" * 70)
print("Output level sets the bias signs")
print("=" * 70)
for p, q in [("B1", "T1"), ("T1", "B1")]:
    r = il.optimize(stack, p, q, specs)
    pol = stack.pair_polarity(p, q).value
    print(f"{p} -> {q} ({pol:>13}, output {q}): "
          f"v_p {r.best_config.v_p:+.3f} V, i_l {r.best_config.load.i_l * 1e6:+.1f} uA, "
          f"margin {r.margin * 1e3:.1f} mV")
print()

print("=" * 70)
print("One bias for both output levels (joint constraint)")
print("=" * 70)
joint = il.optimize(stack, "B1", "T2", specs, constraints=[("T2", "B1")])
print(f"joint margin {joint.margin * 1e3:.1f} mV with "
      f"v_p {joint.best_config.v_p:+.3f} V, "
      f"i_l {joint.best_config.load.i_l * 1e6:+.1f} uA")
print("(the mirrored signs are applied automatically per pair)")
print()

print("=" * 70)
print("Nonlinear (sinh) devices")
print("=" * 70)
iv = il.sinh_iv_from_conductances(115e-6, 10e-6, 1.5, 1.5)
nspec = il.MemristorSpec(v_set_min=1.5, v_set_max=1.5, v_reset_min=-1.5,
                         v_reset_max=-2.2, g_on=115e-6, g_off=10e-6, iv_model=iv)
nspecs = {"bottom": nspec, "top": nspec}
nres = il.optimize(stack, "T1", "T2", nspecs)
linear = il.delta_ideal_parallel(0.0, nspec.g_on, nspec.g_off, nspec.v_set_star)
print(f"sinh devices: margin {nres.margin * 1e3:.1f} mV at "
      f"v_p {nres.best_config.v_p:+.3f} V, i_l {nres.best_config.load.i_l * 1e6:+.1f} uA")
print(f"ohmic theory at the same read conductances: {linear * 1e3:.1f} mV")
print(f"ratio {nres.margin / linear:.2f}: the nonlinearity costs margin but the")
print("simple theory stays a good first estimate at a ~10:1 ratio.")
print()

print("=" * 70)
print("Infeasible designs raise, they do not silently clamp")
print("=" * 70)
wide = il.MemristorSpec(v_set_min=0.7, v_set_max=2.3, v_reset_min=-1.5,
                        v_reset_max=-2.2, g_on=115e-6, g_off=10e-6)
try:
    il.optimize(stack, "T1", "T2", {"bottom": wide, "top": wide})
except il.Infeasible as exc:
    print(f"half-width {wide.set_half_width:.2f} V > v*/3 = "
          f"{wide.v_set_star / 3:.2f} V -> {exc}")
