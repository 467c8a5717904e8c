"""End-to-end identity checkers, each returning the JSON document the CLI prints."""

from __future__ import annotations

from collections.abc import Iterable

from .cartan import GCM, is_finite_type
from .errors import BudgetExceeded, Inapplicable
from .modweights import wt_simple_hull, wt_simple_orbit, wt_simple_slice
from .roots import positive_imaginary_up_to
from .series import decode, encode, finite_weyl_group, mul_keys, wkw_sum
from .weights import (
    HighestWeight,
    Offset,
    cartan_pairing,
    ht,
    integrability_set,
    neg,
)
from .weyl import reflect_weight, stabilizer_is_finite

# Largest |W| * |P| while the denominator check multiplies out P; D4 is
# 600,192 and fits, A5 is over it after 17 of the 25 factors of P.
DENOMINATOR_BUDGET = 10 ** 6


def report(check: str, passed: bool, details: dict[str, object],
           expected_failure: bool = False) -> dict[str, object]:
    """The document of one check: {"check", "status" (PASS or FAIL), "expected_failure",
    "details"}."""
    return {"check": check, "status": "PASS" if passed else "FAIL",
            "expected_failure": expected_failure, "details": details}


def series_json(terms: dict[Offset, int]) -> list[dict[str, object]]:
    """Series terms as JSON: one offset and coefficient per term, sorted."""
    return [{"offset": list(c), "coefficient": v} for c, v in sorted(terms.items())]


def _minus_indicator(
    terms: dict[Offset, int], ones: Iterable[Offset]
) -> dict[Offset, int]:
    """terms minus 1 at each offset of `ones`, without zero coefficients."""
    diff = dict(terms)
    for c in ones:
        diff[c] = diff.get(c, 0) - 1
    return {c: v for c, v in diff.items() if v}


def verify_denominator_bases(g: GCM) -> dict[str, object]:
    """Coordinate-free denominator identity over all bases of a finite root system.

    The bases are the images w(Pi) for w in W, and w permutes Phi, so the
    term of the base w(Pi) is w applied to P = prod over Phi minus Pi of
    (1 - e^{-a}).  Their sum, one W-orbit of P's exponents at a time, is
    subtracted from an independent product over all of Phi, exactly on the
    root lattice.  P is multiplied out one factor at a time, and
    BudgetExceeded is raised as soon as |W| times the terms of the partial
    product is over DENOMINATOR_BUDGET.
    """
    if not is_finite_type(g):
        raise Inapplicable("denominator identity requires finite type")
    elements, pos = finite_weyl_group(HighestWeight.of([0] * g.n), g)
    all_roots = sorted(pos + [neg(a) for a in pos])
    simple = set(elements[0].simple_images)
    factors = [neg(a) for a in all_roots if a not in simple]
    # Every exponent here is a signed subset sum of Phi, so |c_k| <= (2 rho)_k
    # <= ht(2 rho), and one balanced key serves P, every w(P) and the left side.
    base = 2 * sum(map(ht, pos)) + 1
    powers, limit = [base ** k for k in range(g.n)], base ** g.n
    p = {0: 1}
    for k, v in enumerate(factors, 1):
        p = mul_keys(p, {0: 1, encode(v, powers): -1}, limit)
        if len(elements) * len(p) > DENOMINATOR_BUDGET:
            raise BudgetExceeded(
                f"{len(elements)} Weyl group elements times {len(p)} terms of P"
                f" after {k} of {len(factors)} factors; budget {DENOMINATOR_BUDGET}"
            )
    diff = {0: 1}
    for a in all_roots:
        diff = mul_keys(diff, {0: 1, -encode(a, powers): -1}, limit)
    # The sum over W of w(P) is the sum over dominant d of S(d) times the sum
    # over W of e^{wd}, S(d) being P's coefficient sum on the orbit W d.  Each
    # round pops its start, so it ends even if a missing w leaves that out.
    images = [[encode(a, powers) for a in w.simple_images] for w in elements]
    while p:
        k0, s = p.popitem()
        d = list(decode(k0, base, g.n, base // 2))
        while min(a := [cartan_pairing(g, d, i) for i in range(g.n)]) < 0:
            i = a.index(min(a))
            d[i] -= a[i]  # s_i d = d - (A d)_i alpha_i
        orbit = [encode(d, k) for k in images]
        s += sum(p.pop(k, 0) for k in set(orbit))
        for k in orbit:
            diff[k] = diff.get(k, 0) - s
    left = sorted((decode(k, base, g.n, base // 2), v) for k, v in diff.items() if v)
    return report(
        "denominator",
        passed=not left,
        details={
            "bases": len(elements),
            "roots": len(all_roots),
            "difference": [{"exponent": list(c), "coefficient": v} for c, v in left],
        },
    )


def verify_rank2_macdonald(g: GCM, bound: int) -> dict[str, object]:
    """Multiplicity-free Macdonald identity for rank-2 infinite type.

    LHS: the Weyl-group sum for lambda = 0 over the full infinite dihedral
    group, truncated; RHS: 1 plus the indicator of positive imaginary roots.
    """
    if g.n != 2:
        raise Inapplicable(f"rank-2 identity, got rank {g.n}")
    if is_finite_type(g):
        raise Inapplicable("identity requires an infinite-type diagram")
    lhs = wkw_sum(HighestWeight.of([0, 0]), g, bound).terms
    rhs = [(0, 0), *positive_imaginary_up_to(g, bound)]
    diff = _minus_indicator(lhs, rhs)
    return report(
        "macdonald",
        passed=not diff,
        details={
            "lhs": series_json(lhs),
            "rhs": series_json(dict.fromkeys(rhs, 1)),
            "difference": series_json(diff),
        },
    )


def verify_wkw_vs_weights(lam: HighestWeight, g: GCM, bound: int) -> dict[str, object]:
    """Weyl-group weight sum against the slice weight set.

    With a finite stabilizer the sum must be the 0/1 indicator of the
    weight set; with an infinite stabilizer the nonzero discrepancy is
    recorded as an expected failure.
    """
    finite_stab = stabilizer_is_finite(lam, g)
    terms = wkw_sum(lam, g, bound).terms
    diff = _minus_indicator(terms, wt_simple_slice(lam, g, bound).members)
    coeffs_ok = all(v in (0, 1) for v in terms.values())
    passed = not diff and coeffs_ok
    return report(
        "wkw",
        passed=passed,
        expected_failure=(not passed and not finite_stab),
        details={
            "finite_stabilizer": finite_stab,
            "coefficients_01": coeffs_ok,
            "discrepancy": series_json(diff),
        },
    )


def check_integrability_invariants(
    lam: HighestWeight, g: GCM, bound: int
) -> dict[str, object]:
    """Stabilizer invariant: s_i preserves the truncated weight set iff i in I_lambda.

    Checked inside the safe window where both an offset and its
    reflection stay under the height bound.
    """
    ws = wt_simple_slice(lam, g, bound)

    def inside(i: int, c: Offset) -> bool:
        img = reflect_weight(lam, g, i, c)
        # None marks a reflection that leaves lambda - Q_+.
        return img is not None and (ht(img) > bound or img in ws.members)

    preserving = [i for i in range(g.n) if all(inside(i, c) for c in ws.members)]
    ilam = sorted(integrability_set(lam))
    return report(
        "integrability",
        passed=preserving == ilam,
        details={"preserving": preserving, "integrability_set": ilam},
    )


def verify_cross(lam: HighestWeight, g: GCM, bound: int) -> dict[str, object]:
    """Set equality of the slice, hull, and (when applicable) orbit formulas.

    The orbit formula refuses, and orbit_equal is null, when the stabilizer of
    lambda in W_{I_lambda} is infinite.
    """
    members = wt_simple_slice(lam, g, bound).members
    hull_equal = wt_simple_hull(lam, g, bound).members == members
    try:
        orbit_equal = wt_simple_orbit(lam, g, bound).members == members
    except Inapplicable:
        orbit_equal = None
    details = {"slice_size": len(members), "hull_equal": hull_equal, "orbit_equal": orbit_equal}
    return report("cross", passed=hull_equal and orbit_equal is not False, details=details)
