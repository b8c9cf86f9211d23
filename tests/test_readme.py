"""README's library quick start runs and prints what its comments state."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_prints_what_its_comments_state():
    text = README.read_text()
    block = re.search(r"## Quick start \(library\)\n\n```python\n(.*?)```", text, re.S).group(1)
    # one output line per print call; a trailing comment states that line
    stated = [line.split("#", 1)[1].strip() if "#" in line else None
              for line in block.splitlines() if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    printed = out.getvalue().splitlines()
    assert len(printed) == len(stated)
    checked = [(got, want) for got, want in zip(printed, stated) if want is not None]
    assert checked == [("{'out': 0}", "{'out': 0}"), ("9 1 (104, 176)", "9 1 (104, 176)")]
