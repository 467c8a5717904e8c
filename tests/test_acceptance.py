"""Acceptance suite: one test per criterion, exact equality throughout.

Each test prints a PASS line on success so the whole gate can be read off
`pytest -v -s tests/test_acceptance.py`.
"""

from fractions import Fraction
from itertools import combinations

import pytest

from kmweights.cartan import parse_gcm
from kmweights.modweights import (
    wt_parabolic_verma,
    wt_parabolic_verma_induced,
    wt_simple_hull,
    wt_simple_orbit,
    wt_simple_slice,
)
from kmweights.oracle import oracle_weight_set, simple_multiplicity
from kmweights.series import atiyah_bott_sum, wkw_sum
from kmweights.verify import (
    check_integrability_invariants,
    verify_denominator_bases,
    verify_rank2_macdonald,
    verify_wkw_vs_weights,
)
from kmweights.weights import HighestWeight, integrability_set, offsets_up_to
from kmweights.weyl import stabilizer_is_finite

from conftest import CORPUS_CASES


def _report(line):
    print(line)


@pytest.mark.parametrize("g,lam", CORPUS_CASES)
def test_ac1_three_formulas_agree(g, lam):
    H = 10
    ws_slice = wt_simple_slice(lam, g, H)
    ws_hull = wt_simple_hull(lam, g, H)
    assert ws_hull.members == ws_slice.members
    if stabilizer_is_finite(lam, g):
        assert wt_simple_orbit(lam, g, H).members == ws_slice.members
        orbit_note = "orbit=eq"
    else:
        orbit_note = "orbit=n/a(infinite stabilizer)"
    _report(f"AC-1 PASS {g.a} q={lam.q} slice=hull {orbit_note}")


@pytest.mark.parametrize("g,lam", CORPUS_CASES)
def test_ac2_oracle_ground_truth(g, lam):
    H = 8 if g.n <= 2 else 7
    assert (
        oracle_weight_set(lam, g, H).members == wt_simple_slice(lam, g, H).members
    )
    _report(f"AC-2 PASS {g.a} q={lam.q} oracle=formulas at H={H}")


@pytest.mark.parametrize("g,lam", CORPUS_CASES)
def test_ac3_wkw_indicator(g, lam):
    H = 10
    if not stabilizer_is_finite(lam, g):
        pytest.skip("infinite stabilizer: criterion applies to finite case only")
    s = wkw_sum(lam, g, H)
    assert set(s.terms.values()) <= {1}
    assert set(s.terms) == wt_simple_slice(lam, g, H).members
    _report(f"AC-3 PASS {g.a} q={lam.q} coefficients in {{0,1}}, support=slice")


@pytest.mark.parametrize(
    "matrix,q,H",
    [
        ([[2]], ["3"], 6),
        ([[2, -1], [-1, 2]], ["1", "1"], 6),
        ([[2, -1], [-2, 2]], ["1", "0"], 6),
        ([[2, -1, 0], [-1, 2, -1], [0, -2, 2]], ["1", "0", "0"], 4),
    ],
    ids=["A1", "A2", "B2", "B3"],
)
def test_ac4_atiyah_bott_multiplicities(matrix, q, H):
    g = parse_gcm(matrix)
    lam = HighestWeight.of([Fraction(x) for x in q])
    ab = atiyah_bott_sum(lam, g, H)
    for c in offsets_up_to(g.n, H):
        assert ab.terms.get(c, 0) == simple_multiplicity(lam, g, c)
    if matrix == [[2, -1], [-1, 2]]:
        assert ab.terms.get((1, 1), 0) == 2
    _report(f"AC-4 PASS {matrix} q={q} character=oracle at H={H}")


@pytest.mark.parametrize(
    "matrix,bases,roots",
    [
        ([[2]], 2, 2),
        ([[2, -1], [-1, 2]], 6, 6),
        ([[2, -1], [-2, 2]], 8, 8),
        ([[2, -1], [-3, 2]], 12, 12),
        ([[2, -1, 0], [-1, 2, -1], [0, -2, 2]], 48, 18),
        ([[2, -1, 0], [-1, 2, -2], [0, -1, 2]], 48, 18),
        ([[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]], 192, 24),
        ([[2, 0], [0, 2]], 4, 4),
        ([[2, -1, 0, 0], [-1, 2, 0, 0], [0, 0, 2, -1], [0, 0, -1, 2]], 36, 12),
        ([[2, -1, 0], [-3, 2, 0], [0, 0, 2]], 24, 14),
    ],
    ids=["A1", "A2", "B2", "G2", "B3", "C3", "D4", "A1xA1", "A2xA2", "G2xA1"],
)
def test_ac5_denominator_bases(matrix, bases, roots):
    r = verify_denominator_bases(parse_gcm(matrix))
    assert r.passed, r.details["difference"]
    assert (r.details["bases"], r.details["roots"]) == (bases, roots)
    _report(f"AC-5 PASS {matrix} bases={r.details['bases']}")


@pytest.mark.parametrize(
    "matrix",
    [[[2, -2], [-2, 2]], [[2, -4], [-1, 2]], [[2, -3], [-3, 2]]],
    ids=["a12a21=4sym", "a12a21=4asym", "a12a21=9"],
)
def test_ac6_rank2_macdonald(matrix):
    r = verify_rank2_macdonald(parse_gcm(matrix), 10)
    assert r.passed, r.details["difference"]
    _report(f"AC-6 PASS {matrix} at H=10")


def test_ac7_trivial_module_failure_mode():
    g = parse_gcm([[2, -2], [-2, 2]])
    r = verify_wkw_vs_weights(HighestWeight.of([0, 0]), g, 8)
    assert not r.passed
    assert r.expected_failure
    disc = {tuple(t["offset"]): t["coefficient"] for t in r.details["discrepancy"]}
    # delta = alpha_0 + alpha_1; every k*delta with height <= 8 appears once.
    assert disc == {(k, k): 1 for k in range(1, 5)}
    _report("AC-7 PASS affine trivial module: discrepancy = sum of e^{-k delta}")


@pytest.mark.parametrize("g,lam", CORPUS_CASES)
def test_ac8_integrability_invariants(g, lam):
    r = check_integrability_invariants(lam, g, 10)
    assert r.passed, r.details
    _report(f"AC-8 PASS {g.a} q={lam.q} preserving={r.details['preserving']}")


@pytest.mark.parametrize("g,lam", CORPUS_CASES)
def test_ac9_parabolic_verma(g, lam):
    il = sorted(integrability_set(lam))
    H = 10
    assert (
        wt_parabolic_verma(lam, g, il, H).members
        == wt_simple_slice(lam, g, H).members
    )
    if g.n <= 2:
        for r in range(len(il) + 1):
            for J in combinations(il, r):
                assert (
                    wt_parabolic_verma(lam, g, list(J), 6).members
                    == wt_parabolic_verma_induced(lam, g, list(J), 6).members
                )
    _report(f"AC-9 PASS {g.a} q={lam.q}")
