"""Exact weight sets of simple highest-weight modules over Kac-Moody algebras."""

from .cartan import GCM, DiagramType, classify, parse_gcm, symmetrizable
from .weights import HighestWeight, integrability_set, pairing
from .modweights import (
    WeightSet,
    wt_parabolic_verma,
    wt_simple_hull,
    wt_simple_orbit,
    wt_simple_slice,
)
from .oracle import oracle_weight_set, simple_multiplicity
from .series import atiyah_bott_sum, wkw_sum

__all__ = [
    "GCM",
    "DiagramType",
    "HighestWeight",
    "WeightSet",
    "atiyah_bott_sum",
    "classify",
    "integrability_set",
    "oracle_weight_set",
    "pairing",
    "parse_gcm",
    "simple_multiplicity",
    "symmetrizable",
    "wkw_sum",
    "wt_parabolic_verma",
    "wt_simple_hull",
    "wt_simple_orbit",
    "wt_simple_slice",
]
