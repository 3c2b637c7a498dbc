"""Importing the package loads neither mpmath nor the quadrature route, nor
the slow standard modules behind dataclasses, and the quadrature route runs
without mpmath."""

import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def test_import_tcore_loads_neither_mpmath_nor_contour():
    # mpmath alone takes tens of milliseconds to import, which every exact
    # route would pay at start-up if the package pulled it in
    probe = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import tcore; "
        "print(sorted(m for m in ('mpmath', 'tcore.contour') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


def test_the_quadrature_route_runs_without_mpmath():
    # the route computes in integers and Fractions; mpmath is only the
    # oracle of its tests
    probe = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); "
        "from tcore import QQ; from tcore import contour; "
        "cfg = contour.QuadratureConfig.for_region((4,), QQ(1, 100), M=16, precision_bits=64); "
        "result = contour.extract_with_doubling("
        "lambda cfg: contour.extract_cor42(3, (4,), cfg), cfg, 8); "
        "print(result.converged, 'mpmath' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "True False"


@pytest.mark.parametrize("statement", ["import tcore", "from tcore import contour"])
def test_import_loads_neither_dataclasses_nor_inspect_nor_typing(statement):
    # the three took more than half of the package's import time; -S keeps
    # the site hooks, which may load them on their own, out of the probe
    probe = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); {statement}; "
        "print(sorted(m for m in ('dataclasses', 'inspect', 'typing') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"
