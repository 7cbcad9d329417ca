"""The README's "Library sketch" runs as written, so a module move cannot
silently break the documented API."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_sketch() -> str:
    section = README.read_text().split("## Library sketch", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "no python block under 'Library sketch'"
    return match.group(1)


def test_library_sketch_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(library_sketch(), str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    assert len(lines) == 7  # five concurrences, the oracle gap, p_success
    assert float(lines[5]) < 1e-12  # closed form and Kraus oracle agree
    assert 0 < float(lines[6]) < 1
