"""End-to-end identity checkers with machine-readable reports."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .cartan import GCM, is_finite_type
from .errors import (
    FiniteType,
    InfiniteStabilizer,
    NonIntegralPairing,
    NotFiniteType,
    WrongRank,
)
from .modweights import wt_simple_hull, wt_simple_orbit, wt_simple_slice
from .roots import positive_imaginary_up_to
from .series import (
    LaurentElt,
    TruncSeries,
    laurent_product,
    series_one,
    wkw_sum,
)
from .weights import (
    HighestWeight,
    ht,
    integrability_set,
    neg,
)
from .weyl import enumerate_group, reflect_weight, stabilizer_is_finite


@dataclass(frozen=True)
class Report:
    check: str
    passed: bool
    expected_failure: bool = False
    details: dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> dict[str, Any]:
        return {
            "check": self.check,
            "status": "PASS" if self.passed else "FAIL",
            "expected_failure": self.expected_failure,
            "details": self.details,
        }


def _laurent_json(x: LaurentElt) -> list[dict[str, Any]]:
    return [{"exponent": list(c), "coefficient": v} for c, v in x.sorted_items()]


def series_json(x: TruncSeries) -> list[dict[str, Any]]:
    """A truncated series as JSON: one offset and coefficient per term, sorted."""
    return [{"offset": list(c), "coefficient": v} for c, v in x.sorted_items()]


def verify_denominator_bases(g: GCM) -> Report:
    """Coordinate-free denominator identity over all bases of a finite root system.

    Bases are the W-images of the standard base (simple transitivity);
    both sides are exact Laurent elements on the root lattice.
    """
    if not is_finite_type(g):
        raise NotFiniteType("denominator identity requires finite type")
    lam0 = HighestWeight.of([0] * g.n)
    elements = list(enumerate_group(lam0, g, range(g.n), height=None, cap=2 ** 16))
    bases = []
    seen = set()
    for w in elements:
        base = frozenset(w.simple_images)
        assert base not in seen, "W must act simply transitively on bases"
        seen.add(base)
        bases.append(sorted(base))
    assert len(bases) == len(elements)
    all_roots: set = set()
    for base in bases:
        all_roots.update(base)
        all_roots.update(neg(b) for b in base)
    lhs = laurent_product(g.n, (neg(a) for a in sorted(all_roots)))
    rhs = LaurentElt(g.n, {})
    for base in bases:
        pi = set(base)
        rhs = rhs + laurent_product(
            g.n, (neg(a) for a in sorted(all_roots) if a not in pi)
        )
    diff = lhs - rhs
    return Report(
        "denominator",
        passed=not diff.terms,
        details={
            "bases": len(bases),
            "roots": len(all_roots),
            "difference": _laurent_json(diff),
        },
    )


def verify_rank2_macdonald(g: GCM, bound: int) -> Report:
    """Multiplicity-free Macdonald identity for rank-2 infinite type.

    LHS: the Weyl-group sum for lambda = 0 over the full infinite dihedral
    group, truncated; RHS: 1 plus the indicator of positive imaginary roots.
    """
    if g.n != 2:
        raise WrongRank(f"rank-2 identity, got rank {g.n}")
    if is_finite_type(g):
        raise FiniteType("identity requires an infinite-type diagram")
    lam0 = HighestWeight.of([0, 0])
    lhs = wkw_sum(lam0, g, bound)
    rhs = series_one(2, bound)
    for delta in positive_imaginary_up_to(g, bound):
        rhs = rhs + TruncSeries(2, bound, {delta: 1})
    diff = lhs - rhs
    return Report(
        "macdonald",
        passed=not diff.terms,
        details={
            "lhs": series_json(lhs),
            "rhs": series_json(rhs),
            "difference": series_json(diff),
        },
    )


def verify_wkw_vs_weights(lam: HighestWeight, g: GCM, bound: int) -> Report:
    """Weyl-group weight sum against the slice weight set.

    With a finite stabilizer the sum must be the 0/1 indicator of the
    weight set; with an infinite stabilizer the nonzero discrepancy is
    recorded as an expected failure.
    """
    ilam = integrability_set(lam)
    finite_stab = stabilizer_is_finite(lam, g, ilam)
    sum_series = wkw_sum(lam, g, bound)
    ws = wt_simple_slice(lam, g, bound)
    indicator = TruncSeries(g.n, bound, {c: 1 for c in ws.members})
    diff = sum_series - indicator
    coeffs_ok = all(v in (0, 1) for v in sum_series.terms.values())
    passed = not diff.terms and coeffs_ok
    return Report(
        "wkw",
        passed=passed,
        expected_failure=(not passed and not finite_stab),
        details={
            "finite_stabilizer": finite_stab,
            "coefficients_01": coeffs_ok,
            "discrepancy": series_json(diff),
        },
    )


def check_integrability_invariants(lam: HighestWeight, g: GCM, bound: int) -> Report:
    """Stabilizer invariant: s_i preserves the truncated weight set iff i in I_lambda.

    Checked inside the safe window where both an offset and its
    reflection stay under the height bound.
    """
    ws = wt_simple_slice(lam, g, bound)
    preserving = []
    for i in range(g.n):
        ok = True
        for c in ws.members:
            try:
                img = reflect_weight(lam, g, i, c)
            except NonIntegralPairing:
                ok = False
                break
            if img is None:
                ok = False  # reflection escapes mu <= lambda
                break
            if ht(img) <= bound and img not in ws.members:
                ok = False
                break
        if ok:
            preserving.append(i)
    ilam = sorted(integrability_set(lam))
    return Report(
        "integrability",
        passed=preserving == ilam,
        details={"preserving": preserving, "integrability_set": ilam},
    )


def verify_cross(lam: HighestWeight, g: GCM, bound: int) -> Report:
    """Set equality of the slice, hull, and (when applicable) orbit formulas."""
    ws_slice = wt_simple_slice(lam, g, bound)
    ws_hull = wt_simple_hull(lam, g, bound)
    details: dict = {"slice_size": len(ws_slice.members)}
    ok = ws_slice.members == ws_hull.members
    details["hull_equal"] = ok
    try:
        ws_orbit = wt_simple_orbit(lam, g, bound)
        details["orbit_equal"] = ws_orbit.members == ws_slice.members
        ok = ok and details["orbit_equal"]
    except InfiniteStabilizer:
        details["orbit_equal"] = None
    return Report("cross", passed=ok, details=details)
