"""One pass through a workload's call list, in a fresh interpreter.

Usage: python3 perfbench/onepass.py WORKLOAD SEED TRACE CHECK

Prints one JSON object: set-up time (import and inputs), pass time,
per-call times, peak resident memory, the calls that failed and a digest of
every output.  Times are rescaled to a reference host speed (see
CALIBRATION_REF_S); the raw wall time of the pass is kept beside them.  With TRACE=1 the calls run under the span wrappers of tracing.py and the object
carries the per-layer metrics; with CHECK=1 it carries the problems the
checks found (an empty list when every output is right).
"""

import time

_T0 = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tcore  # noqa: E402

import workloads  # noqa: E402


def _height_bits(value) -> int:
    """Largest numerator or denominator bit length among exact coefficients."""
    if hasattr(value, "numerator"):
        return max(int(value.numerator).bit_length(), int(value.denominator).bit_length())
    if isinstance(value, dict):  # the slots of correlation_expansion
        parts = value.values()
    elif hasattr(value, "terms"):  # a series
        parts = value.terms.values()
    else:  # a cyclotomic number; a quadrature result has no exact parts
        parts = getattr(value, "coeffs", ())
    return max((_height_bits(p) for p in parts), default=0)


# The host this benchmark was tuned on changes speed by up to 1.6x over
# minutes, under load from other tenants.  Every pass therefore also times a
# fixed pure-Python loop right before and right after its calls, and reports
# its times rescaled to a host on which that loop takes CALIBRATION_REF_S.
# The raw wall times are reported next to them.
CALIBRATION_REF_S = 0.2


def _calibration_s() -> float:
    """Wall time of a fixed loop of Fraction and dict work, independent of tcore."""
    t0 = time.perf_counter()
    acc, table = Fraction(0), {}
    for i in range(1, 40001):
        acc += Fraction(i % 97 + 1, i % 89 + 2)
        table[i % 512] = acc.numerator % 1000003 + i * i % 7
    return time.perf_counter() - t0


def main() -> None:
    workload, seed, trace, check = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1", sys.argv[4] == "1"
    tracer = None
    if trace:
        # before the call list is built, so that it binds the wrapped routes
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    inputs = workloads.make_inputs(seed)
    calls = workloads.make_calls(workload, tcore, inputs)
    setup_s = time.perf_counter() - _T0

    calibration = [_calibration_s()]
    results, call_s, failures = [], [], []
    clock = time.perf_counter
    pass_start = clock()
    for call in calls:
        t0 = clock()
        try:
            results.append(call())
        except Exception as exc:  # a failed call is counted, not fatal
            results.append(exc)
            failures.append(f"{call.label}: {type(exc).__name__}: {exc}")
        call_s.append(clock() - t0)
    pass_s = clock() - pass_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    calibration.append(_calibration_s())
    scale = CALIBRATION_REF_S / (sum(calibration) / len(calibration))

    out = {
        "setup_s": setup_s * scale,
        "pass_s": pass_s * scale,
        "max_call_s": max(call_s) * scale,
        "peak_rss_mb": peak_rss_mb,
        "wall_pass_s": pass_s,
        "calibration_s": sum(calibration) / len(calibration),
        "call_s": {c.label: s * scale for c, s in zip(calls, call_s)},
        "attempted": len(calls),
        "failures": failures,
    }
    if tracer is not None:
        out["layers"] = {
            name: value * scale if name.endswith("_s") else value
            for name, value in tracer.layer_metrics().items()
        }
    digest = hashlib.sha256()
    for call, result in zip(calls, results):
        text = repr(result) if not isinstance(result, BaseException) else type(result).__name__
        digest.update(f"{call.label}={text}\n".encode())
    out["digest"] = digest.hexdigest()
    if check:
        by_label = {c.label: r for c, r in zip(calls, results)}
        problems = []
        for call, result in zip(calls, results):
            if isinstance(result, BaseException):
                continue
            try:
                problems += [f"{call.label}: {p}" for p in call.check(result, by_label)]
            except Exception as exc:  # a check that cannot run is a failed check
                problems.append(f"{call.label}: check raised {type(exc).__name__}: {exc}")
        out["problems"] = problems
        out["height_bits"] = max(
            (_height_bits(r) for r in results if not isinstance(r, BaseException)), default=0
        )
    print(json.dumps(out))


if __name__ == "__main__":
    main()
