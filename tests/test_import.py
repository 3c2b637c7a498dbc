"""Importing the package loads neither mpmath nor the quadrature route, and
the quadrature route runs without mpmath."""

import subprocess
import sys
from pathlib import Path

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
