"""The package's process-wide caches. Each one holds state for the life of
the process, so a new one needs an entry here and traffic to justify it;
memos that serve one plan live in that plan."""

import ast
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
