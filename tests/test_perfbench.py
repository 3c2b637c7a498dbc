"""One checked pass of each workload, run as the benchmark runs it, comes out clean."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["closed_theta", "partition_sums", "quadrature"])
def test_one_checked_pass_has_no_problems(workload):
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, str(ROOT / "perfbench" / "onepass.py"), workload, "7", "0", "1"]
    done = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=300, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["attempted"] > 0
    assert result["failures"] == []
    assert result["problems"] == []


@pytest.mark.parametrize("workload", ["closed_theta", "partition_sums", "quadrature"])
def test_one_traced_checked_pass_has_no_problems(workload):
    # the span wrappers refuse a traced name that is gone, so these passes
    # also guard every name the traced benchmark runs wrap
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, str(ROOT / "perfbench" / "onepass.py"), workload, "7", "1", "1"]
    done = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=300, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["attempted"] > 0
    assert result["failures"] == []
    assert result["problems"] == []
