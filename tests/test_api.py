"""The public names and the functions the benchmark traces all exist."""

import importlib
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


# the public surface, spelled out, so that adding or removing a name shows
# up in a test diff
PUBLIC = [
    "BiSeries", "Cyclo", "NPointResult", "QQ", "QSeries", "SValue", "SpecPoint",
    "SqrtExt", "ThetaArg", "bloch_okounkov_F", "brute_force_Ft", "closed_Ft",
    "closed_Ft_r", "conjugate", "correlation_expansion", "eisenstein",
    "enumerate_t_cores", "hook_lengths", "level_series", "macmahon", "parse_rat",
    "partition_moment", "partitions_of", "qdeformed_Z_product", "qdeformed_Z_sum",
    "qdeformed_Zn_sum", "qdiv", "qexp", "qlog", "rat", "rat_str", "skew_schur",
    "sqrt_field", "theta3", "topological_vertex", "vartheta",
]


def test_the_public_surface_is_the_listed_one():
    assert sorted(tcore.__all__) == PUBLIC


def test_every_traced_function_exists():
    # a traced pass wraps each (module, qualified name) in SPANS, and one that
    # no longer exists makes Tracer.install fail; run_path reads the file
    # without importing the benchmark package
    tracing = runpy.run_path(str(TRACING))
    for targets in tracing["SPANS"].values():
        for modname, qualname in targets:
            assert callable(tracing["_lookup"](modname, qualname)), (modname, qualname)


def test_traced_functions_are_their_owners_own_and_distinct():
    # a span wrapper replaces its function wherever that object is bound, so
    # a function inherited from a shared base, or one object behind two SPANS
    # entries, would credit one layer's calls to another
    tracing = runpy.run_path(str(TRACING))
    seen = {}
    for span, targets in tracing["SPANS"].items():
        for modname, qualname in targets:
            owner_name, _, attr = qualname.rpartition(".")
            owner = importlib.import_module(modname)
            if owner_name:
                owner = tracing["_lookup"](modname, owner_name)
            assert attr in vars(owner), (modname, qualname)
            fn = vars(owner)[attr]
            assert id(fn) not in seen, (span, qualname, seen.get(id(fn)))
            seen[id(fn)] = (span, qualname)
