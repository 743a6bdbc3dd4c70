"""The README's library example runs as documented."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_start_code():
    """The first python block under the "Library quick start" heading."""
    text = README.read_text()
    section = text.split("\n## Library quick start\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_quick_start_runs(capsys):
    exec(compile(_quick_start_code(), "README.md (Library quick start)", "exec"), {})
    out = capsys.readouterr().out
    assert out.startswith("L1 error vs self-similar profile:")
