"""Spans and counters around the public functions of each ``tcore`` layer.

``Tracer.install()`` replaces each traced function with a wrapper in every
``tcore`` module and class that holds it: ``npoint.vartheta`` as well as
``theta.vartheta``, and ``Cyclo.__rmul__`` as well as ``Cyclo.__mul__``.
A wrapper records one span (name, start, end, parent) per call in flat
arrays; the spans stay in memory until ``layer_metrics()`` reduces them at
the end of the pass.  Nothing here runs in untraced passes.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from functools import wraps

# span name -> the functions it covers, as (module, qualified name)
SPANS = {
    "cyclo.mul": [("tcore.cyclo", "Cyclo.__mul__")],
    "cyclo.inverse": [("tcore.cyclo", "Cyclo.inverse")],
    "quadext.mul": [("tcore.quadext", "SqrtExt.__mul__")],
    "qseries.mul": [("tcore.qseries", "QSeries.__mul__")],
    "qseries.qdiv": [("tcore.qseries", "qdiv")],
    "qseries.qlog": [("tcore.qseries", "qlog")],
    "qseries.taylor_mul": [("tcore.qseries", "TaylorZ.__mul__")],
    "qseries.bimul": [("tcore.qseries", "BiSeries.__mul__")],
    "qseries.bidiv": [("tcore.qseries", "BiSeries.__truediv__")],
    "theta.vartheta": [("tcore.theta", "vartheta")],
    "theta.theta3": [("tcore.theta", "theta3")],
    "theta.level_series": [("tcore.theta", "level_series")],
    "theta.macmahon": [("tcore.theta", "macmahon")],
    "partitions.enumerate": [("tcore.partitions", "enumerate_t_cores")],
    "symfunc.vertex": [("tcore.symfunc", "topological_vertex")],
    "symfunc.skew_schur": [("tcore.symfunc", "skew_schur")],
    "npoint.moment": [("tcore.npoint", "partition_moment")],
    "npoint.route": [
        ("tcore.npoint", name)
        for name in (
            "brute_force_Ft",
            "bloch_okounkov_F",
            "closed_Ft",
            "closed_Ft_r",
            "correlation_expansion",
            "qdeformed_Z_sum",
            "qdeformed_Zn_sum",
            "qdeformed_Z_product",
        )
    ],
    "contour.extract": [
        ("tcore.contour", name)
        for name in ("extract_cor42", "extract_cor43", "extract_bo_determinant")
    ],
}

# per-layer metric -> (span name, what to report); "calls" counts spans,
# "time" sums the outermost spans of the name (callees included), "self"
# sums span durations minus their child spans
SPAN_METRICS = {
    "cyclo.mul_calls": ("cyclo.mul", "calls"),
    "cyclo.mul_s": ("cyclo.mul", "time"),
    "cyclo.inverse_calls": ("cyclo.inverse", "calls"),
    "cyclo.inverse_s": ("cyclo.inverse", "time"),
    "quadext.mul_calls": ("quadext.mul", "calls"),
    "quadext.mul_s": ("quadext.mul", "time"),
    "qseries.mul_calls": ("qseries.mul", "calls"),
    "qseries.mul_s": ("qseries.mul", "time"),
    "qseries.qdiv_calls": ("qseries.qdiv", "calls"),
    "qseries.qdiv_s": ("qseries.qdiv", "time"),
    "qseries.qlog_s": ("qseries.qlog", "time"),
    "qseries.taylor_mul_calls": ("qseries.taylor_mul", "calls"),
    "qseries.taylor_mul_s": ("qseries.taylor_mul", "time"),
    "qseries.bimul_calls": ("qseries.bimul", "calls"),
    "qseries.bimul_s": ("qseries.bimul", "time"),
    "qseries.bidiv_s": ("qseries.bidiv", "time"),
    "theta.vartheta_calls": ("theta.vartheta", "calls"),
    "theta.vartheta_s": ("theta.vartheta", "time"),
    "theta.theta3_calls": ("theta.theta3", "calls"),
    "theta.theta3_s": ("theta.theta3", "time"),
    "theta.level_series_s": ("theta.level_series", "time"),
    "theta.macmahon_calls": ("theta.macmahon", "calls"),
    "theta.macmahon_s": ("theta.macmahon", "time"),
    "partitions.enumerate_s": ("partitions.enumerate", "time"),
    "symfunc.vertex_calls": ("symfunc.vertex", "calls"),
    "symfunc.vertex_s": ("symfunc.vertex", "time"),
    "symfunc.skew_schur_calls": ("symfunc.skew_schur", "calls"),
    "symfunc.skew_schur_s": ("symfunc.skew_schur", "time"),
    "npoint.moment_calls": ("npoint.moment", "calls"),
    "npoint.moment_s": ("npoint.moment", "time"),
    "npoint.route_self_s": ("npoint.route", "self"),
    "contour.extract_calls": ("contour.extract", "calls"),
    "contour.extract_s": ("contour.extract", "time"),
}

# counters kept at the same boundaries
COUNTERS = ("partitions.tcores", "partitions.partitions", "contour.grid_points")


def _lookup(modname: str, qualname: str):
    obj = importlib.import_module(modname)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


def _replace_everywhere(original, replacement) -> int:
    """Rebind every tcore module global and class attribute that is ``original``."""
    hits = 0
    for modname, module in list(sys.modules.items()):
        if modname != "tcore" and not modname.startswith("tcore."):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)
                hits += 1
            elif isinstance(value, type) and value.__module__ == modname:
                for ckey, cvalue in list(vars(value).items()):
                    if cvalue is original:
                        setattr(value, ckey, replacement)
                        hits += 1
    return hits


class Tracer:
    def __init__(self):
        self.span_names = list(SPANS)
        self.name = array("b")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts = dict.fromkeys(COUNTERS, 0)

    def install(self) -> None:
        for nid, span in enumerate(self.span_names):
            for modname, qualname in SPANS[span]:
                original = _lookup(modname, qualname)
                wrapper = self._span_wrapper(original, nid, span)
                if not _replace_everywhere(original, wrapper):
                    raise RuntimeError(f"{modname}.{qualname} was not found to wrap")
        partitions_of = _lookup("tcore.partitions", "partitions_of")
        _replace_everywhere(partitions_of, self._counting_generator(partitions_of))

    def _span_wrapper(self, fn, nid: int, span: str):
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, counts, clock = self.stack, self.counts, time.perf_counter

        if span == "partitions.enumerate":
            def after(args, result):
                counts["partitions.tcores"] += sum(len(g) for g in result.values())
        elif span == "contour.extract":
            def after(args, result):
                cfg = args[-1]
                counts["contour.grid_points"] += cfg.M**cfg.n
        else:
            after = None

        @wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _counting_generator(self, gen_fn):
        """Count the items a generator yields to callers outside itself.

        ``partitions_of`` recurses through its own module global, so nested
        generators are wrapped too; only items yielded at depth zero count.
        """
        counts = self.counts
        depth = [0]

        @wraps(gen_fn)
        def wrapper(*args, **kwargs):
            inner = gen_fn(*args, **kwargs)
            while True:
                depth[0] += 1
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    depth[0] -= 1
                if depth[0] == 0:
                    counts["partitions.partitions"] += 1
                yield item

        return wrapper

    def layer_metrics(self) -> dict:
        """Reduce the spans to the per-layer metrics of this pass."""
        k = len(self.span_names)
        calls = [0] * k
        outer_time = [0.0] * k
        self_time = [0.0] * k
        child_time = [0.0] * len(self.name)
        # bit i set: a span named i is open above this one; parents precede
        # their children in the arrays, so one forward sweep fills it
        above = [0] * len(self.name)
        for i, (nid, par, t0, t1) in enumerate(
            zip(self.name, self.parent, self.start, self.end)
        ):
            dur = t1 - t0
            calls[nid] += 1
            if par >= 0:
                child_time[par] += dur
                above[i] = above[par] | (1 << self.name[par])
            if not above[i] >> nid & 1:
                outer_time[nid] += dur
        for i, nid in enumerate(self.name):
            self_time[nid] += self.end[i] - self.start[i] - child_time[i]
        pick = {"calls": calls, "time": outer_time, "self": self_time}
        out = {}
        for metric, (span, kind) in SPAN_METRICS.items():
            out[metric] = pick[kind][self.span_names.index(span)]
        out.update(self.counts)
        return out
