"""Exact arithmetic for t-core partition statistics and n-point functions."""

from tcore._rat import QQ, parse_rat, rat, rat_str
from tcore.cyclo import Cyclo
from tcore.partitions import conjugate, enumerate_t_cores, hook_lengths, partitions_of
from tcore.npoint import (
    NPointResult,
    SValue,
    bloch_okounkov_F,
    brute_force_Ft,
    closed_Ft,
    closed_Ft_r,
    correlation_expansion,
    partition_moment,
    qdeformed_Z_product,
    qdeformed_Z_sum,
    qdeformed_Zn_sum,
)
from tcore.qseries import BiSeries, QSeries, qdiv, qexp, qlog
from tcore.quadext import SqrtExt, sqrt_field
from tcore.symfunc import SpecPoint, skew_schur, topological_vertex
from tcore.theta import (
    ThetaArg,
    eisenstein,
    level_series,
    macmahon,
    theta3,
    vartheta,
)

__all__ = [
    "QQ",
    "parse_rat",
    "rat",
    "rat_str",
    "Cyclo",
    "conjugate",
    "enumerate_t_cores",
    "hook_lengths",
    "partitions_of",
    "NPointResult",
    "SValue",
    "bloch_okounkov_F",
    "brute_force_Ft",
    "closed_Ft",
    "closed_Ft_r",
    "correlation_expansion",
    "partition_moment",
    "qdeformed_Z_product",
    "qdeformed_Z_sum",
    "qdeformed_Zn_sum",
    "BiSeries",
    "QSeries",
    "qdiv",
    "qexp",
    "qlog",
    "SqrtExt",
    "sqrt_field",
    "SpecPoint",
    "skew_schur",
    "topological_vertex",
    "ThetaArg",
    "eisenstein",
    "level_series",
    "macmahon",
    "theta3",
    "vartheta",
]
