"""The public names and the functions the benchmark traces all exist."""

import runpy
from pathlib import Path

import pytest

import tcore
from tcore import contour

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.mark.parametrize("module", [tcore, contour], ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing


def test_every_traced_function_exists():
    # a traced pass wraps each (module, qualified name) in SPANS, and one that
    # no longer exists makes Tracer.install fail; run_path reads the file
    # without importing the benchmark package
    tracing = runpy.run_path(str(TRACING))
    for targets in tracing["SPANS"].values():
        for modname, qualname in targets:
            assert callable(tracing["_lookup"](modname, qualname)), (modname, qualname)
