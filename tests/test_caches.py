"""The package's process-wide caches. Each one holds state for the life of
the process, so a new one needs an entry here and traffic to justify it;
memos that serve one plan live in that plan. Modules that a run imports
stay for the life of the process too."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import implogic

PACKAGE = Path(implogic.__file__).resolve().parent


def _cached_functions():
    """(module, function) for every function in the package decorated with
    ``functools.lru_cache`` or ``functools.cache``, in any form."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for deco in node.decorator_list:
                target = deco.func if isinstance(deco, ast.Call) else deco
                name = target.attr if isinstance(target, ast.Attribute) else getattr(
                    target, "id", None)
                if name in ("lru_cache", "cache"):
                    found.append((path.stem, node.name))
    return sorted(found)


def test_process_wide_caches_are_the_listed_five():
    assert _cached_functions() == [
        ("cli", "_main_parser"),
        ("program", "_ripple_plan"),
        ("program", "_schedule_full_adder"),
        ("program", "_shape_plan"),
        ("solver", "state_of"),
    ]


# every public entry point that a benchmark workload runs, on ohmic and sinh
# devices: execute off and seeded, estimate_yield, ripple_adder_8bit and
# optimize, after which the script prints whether numpy.ma was imported
_RUNS = """
import dataclasses, sys
import implogic as il
ohmic = il.ideal_device_spec(1.5)
sinh = dataclasses.replace(ohmic, iv_model=il.sinh_iv_from_conductances(
    ohmic.g_on, ohmic.g_off, 1.5, 1.5))
default = il.build_default_stack()
nand = il.with_inputs(il.nand_macro("B1", "B2", "T2"), {"a": 1, "b": 1})
for spec in (ohmic, sinh):
    specs, configs = {"bottom": spec, "top": spec}, il.default_configs(spec)
    for variation, seed in (("off", None), ("seeded", 7)):
        il.execute(nand, default, specs, configs, variation, seed)
    il.estimate_yield(nand, default, specs, configs, None, trials=64, seed=3)
    il.optimize(default, "T1", "T2", specs, rounds=1)
il.ripple_adder_8bit(201, 77, 1)
print("numpy.ma" in sys.modules)
"""


def test_entry_points_never_import_numpy_ma():
    # np.unique without a return_* argument imports numpy.ma on numpy 2.4,
    # which adds to every workload's peak RSS
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    run = subprocess.run([sys.executable, "-c", _RUNS], env=env, capture_output=True,
                         text=True, check=True)
    assert run.stdout.split() == ["False"]
