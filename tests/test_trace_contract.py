"""The benchmark's layer trace names aggdiff functions; each must still exist.

``perfbench/tracing.py`` looks its traced functions up by module and name and
silently skips a missing one, so a renamed function would only surface later
as missing per-layer metrics. The file is read and executed here without
being imported as a module (no bytecode is written next to it).
"""

import importlib
import runpy
from pathlib import Path

import pytest

from aggdiff.kernels import KernelTable

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
_TRACE = runpy.run_path(str(TRACING), run_name="perfbench_tracing")
TRACED = _TRACE["SPANNED"] + _TRACE["COUNTED"]


@pytest.mark.parametrize("module, name", TRACED, ids=[f"{m}.{n}" for m, n in TRACED])
def test_traced_function_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"aggdiff.{module}"), name, None))


def test_is_zero_is_a_counted_property():
    assert isinstance(vars(KernelTable).get("is_zero"), property)
