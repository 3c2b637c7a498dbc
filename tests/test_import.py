"""Importing the package loads neither mpmath nor the quadrature route."""

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
