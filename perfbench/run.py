"""Fixed-work, cold-start benchmark of the three n-point routes of tcore.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload closed_theta --seed 1 --seconds 30 --trace 0

A run repeats whole passes through the workload's call list (see
workloads.py), each pass in a fresh Python process started only after the
previous one has ended, until the next pass would overrun ``--seconds``; it
always makes at least MIN_PASSES passes.  No cache survives from one pass to
the next, while the calls of one pass share caches as in a user's session.

The first pass also runs the correctness checks, after its timed calls and
its memory reading; every later pass must produce outputs with the same
digest.  With ``--trace 0`` the run reports the end-to-end metrics, with
``--trace 1`` the per-layer metrics of the same passes run under span
wrappers.  Each metric is the median over the run's passes.  Every metric is
printed by name and unit, and the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_PASSES = 3
PASS_TIMEOUT_S = 150

END_TO_END = {"setup_s": "s", "pass_s": "s", "max_call_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    **{m: ("count" if m.endswith("_calls") else "s") for m in tracing.SPAN_METRICS},
    **{m: "count" for m in tracing.COUNTERS},
}


class BenchError(RuntimeError):
    pass


def run_pass(workload: str, seed: int, trace: bool, check: bool) -> dict:
    cmd = [sys.executable, str(HERE / "onepass.py"), workload, str(seed),
           str(int(trace)), str(int(check))]
    # bytecode of the checkout is compiled up front; write none elsewhere
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"a pass ran past {PASS_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"a pass exited with code {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    passes: list[dict] = []
    walls: list[float] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(workload, seed, trace, check=not passes))
        walls.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        # the first pass also checks, so later passes are timed by their median
        typical = statistics.median(walls[1:] or walls)
        if len(passes) >= MIN_PASSES and elapsed + typical > seconds:
            return passes


def _median(passes, key, sub=None) -> float:
    return statistics.median(p[sub][key] if sub else p[key] for p in passes)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "tcore" / "__init__.py").is_file():
        print(f"no tcore sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # compile once, so that every pass imports from the same bytecode cache
    for directory in (ROOT / "src" / "tcore", HERE):
        compileall.compile_dir(str(directory), quiet=1)

    try:
        passes = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(exc, file=sys.stderr)
        return 1

    first = passes[0]
    problems = list(first["problems"])
    problems += [f"pass {i + 1}: outputs differ from the checked pass"
                 for i, p in enumerate(passes) if p["digest"] != first["digest"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["failures"]) for p in passes)

    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} passes, "
          f"{attempted} calls attempted, {failed} failed, trace {args.trace}")
    for failure in sorted(set(f for p in passes for f in p["failures"])):
        print(f"  failed: {failure}")
    for problem in problems:
        print(f"  check: {problem}")
    height = first["height_bits"]
    print("  largest coefficient height in the outputs: "
          + (f"{height} bits" if height else "none, the outputs are floating-point"))
    print(f"  raw wall pass_s {_median(passes, 'wall_pass_s'):.4f} s, "
          f"calibration loop {_median(passes, 'calibration_s'):.4f} s")
    for label in first["call_s"]:
        print(f"  call {label:<50} {_median(passes, label, 'call_s'):.4f} s")
    if args.trace:
        # the difference to pass_s of an untraced run is the tracing overhead
        print(f"  {'traced pass_s':<24} {_median(passes, 'pass_s'):.6g} s")
        metrics = {m: {"value": _median(passes, m, "layers"), "unit": u}
                   for m, u in PER_LAYER_UNITS.items()}
    else:
        metrics = {m: {"value": _median(passes, m), "unit": u}
                   for m, u in END_TO_END.items()}
    for name, m in metrics.items():
        print(f"  {name:<24} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
