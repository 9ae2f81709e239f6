"""The README's library quick tour runs as written, so a tour that calls a
renamed or deleted name fails here."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_tour() -> str:
    """The first Python block under the "Library quick tour" heading."""
    section = README.read_text().split("## Library quick tour", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_quick_tour_runs():
    code = quick_tour()
    assert "tb.tribonacci_word" in code
    exec(compile(code, f"{README.name} (Library quick tour)", "exec"), {})
