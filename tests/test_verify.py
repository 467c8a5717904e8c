import gc
from fractions import Fraction

import pytest

from kmweights import verify
from kmweights.cartan import parse_gcm
from kmweights.errors import Inapplicable
from kmweights.modweights import wt_simple_orbit, wt_simple_slice
from kmweights.oracle import oracle_weight_set, simple_multiplicity
from kmweights.roots import positive_imaginary_up_to
from kmweights.series import finite_weyl_group
from kmweights.verify import (
    check_integrability_invariants,
    verify_denominator_bases,
    verify_rank2_macdonald,
    verify_wkw_vs_weights,
)
from kmweights.weights import HighestWeight, cartan_pairing, neg, offsets_up_to

from conftest import CORPUS_MATRICES, apply, keyed_laurent

A1 = parse_gcm([[2]])
A2 = parse_gcm([[2, -1], [-1, 2]])
B2 = parse_gcm([[2, -1], [-2, 2]])
G2 = parse_gcm([[2, -1], [-3, 2]])
AFF = parse_gcm([[2, -2], [-2, 2]])


def test_denominator_a1_hand_check():
    r = verify_denominator_bases(A1)
    assert r.passed
    assert r.details["bases"] == 2
    assert r.details["roots"] == 2


def test_denominator_a2():
    r = verify_denominator_bases(A2)
    assert r.passed
    assert r.details["bases"] == 6


def test_denominator_g2():
    r = verify_denominator_bases(G2)
    assert r.passed
    assert r.details["bases"] == 12
    assert r.details["roots"] == 12


B3 = parse_gcm([[2, -1, 0], [-1, 2, -1], [0, -2, 2]])
A4 = parse_gcm([[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]])


def folded_p(g, elements, pos):
    """P = prod over Phi minus Pi of (1 - e^{-a}) folded onto the dominant
    chamber: each exponent c moves to the one point of its W-orbit whose
    pairings are all >= 0, and coefficients on one orbit add up."""
    simple = set(elements[0].simple_images)
    p = keyed_laurent(g.n, [neg(a) for a in pos + [neg(a) for a in pos]
                            if a not in simple])
    folded = {}
    for c, v in p.items():
        (d,) = {x for x in (apply(w, c) for w in elements)
                if all(cartan_pairing(g, x, i) >= 0 for i in range(g.n))}
        folded[d] = folded.get(d, 0) + v
    return {d: v for d, v in folded.items() if v}


@pytest.mark.parametrize("g,repeat", [(g, j) for j in (-1, 0) for g in (B3, A4, G2)],
                         ids=["B3", "A4", "G2", "B3-identity", "A4-identity", "G2-identity"])
def test_denominator_repeated_element_leaves_its_image_of_p(g, repeat, monkeypatch):
    # The check sums P over each W-orbit onto its dominant point d and then
    # subtracts that sum at w d once per listed w.  A repeated element w leaves
    # -w(P folded): for w0 its exponents reach the negative digit edge -2 rho,
    # for the identity the positive one.
    elements, pos = finite_weyl_group(HighestWeight.of([0] * g.n), g)
    w = elements[repeat]
    monkeypatch.setattr(verify, "finite_weyl_group",
                        lambda lam, g: (elements + [w], pos))
    r = verify_denominator_bases(g)
    assert not r.passed
    want = sorted((apply(w, d), -v) for d, v in folded_p(g, elements, pos).items())
    assert want
    assert r.details["difference"] == [
        {"exponent": list(c), "coefficient": v} for c, v in want
    ]


@pytest.mark.parametrize("g", [G2, B3], ids=["G2", "B3"])
def test_denominator_fails_without_any_one_element(g, monkeypatch):
    # Dropping w can take the starting exponent of a fold out of its own
    # orbit list; the check must still end, and FAIL.
    elements, pos = finite_weyl_group(HighestWeight.of([0] * g.n), g)
    for j in range(len(elements)):
        kept = elements[:j] + elements[j + 1:]
        monkeypatch.setattr(verify, "finite_weyl_group", lambda lam, g: (kept, pos))
        assert not verify_denominator_bases(g).passed, elements[j].word


def test_offsets_and_denominator_check_leave_no_reference_cycles():
    # Each call frees what it built by reference counting alone, so nothing
    # waits for the cyclic collector (the denominator check on A4 holds P
    # and its keys, several hundred KiB).
    gc.collect()
    gc.disable()
    try:
        for _ in range(10):
            list(offsets_up_to(3, 4))
        assert verify_denominator_bases(A4).passed
        assert gc.collect() == 0
    finally:
        gc.enable()


FIG_RIGHT = parse_gcm(CORPUS_MATRICES["fig_right"])
FIG_RIGHT_LAM = HighestWeight.of(["1", "2", "-1/2"])


@pytest.mark.parametrize("scan", [
    lambda: list(offsets_up_to(3, 8, [(FIG_RIGHT.a[j], FIG_RIGHT_LAM.q[j].numerator)
                                      for j in (0, 1)])),
    lambda: wt_simple_slice(FIG_RIGHT_LAM, FIG_RIGHT, 8),
    lambda: wt_simple_orbit(FIG_RIGHT_LAM, FIG_RIGHT, 8),
    lambda: positive_imaginary_up_to(FIG_RIGHT, 8),
    lambda: oracle_weight_set(FIG_RIGHT_LAM, FIG_RIGHT, 6),
    lambda: simple_multiplicity(FIG_RIGHT_LAM, FIG_RIGHT, (1, 1, 1)),
], ids=["capped_offsets", "slice", "orbit", "imaginary_roots", "oracle", "multiplicity"])
def test_weight_scans_leave_no_reference_cycles(scan):
    gc.collect()
    gc.disable()
    try:
        for _ in range(10):
            scan()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_denominator_rejects_affine():
    with pytest.raises(Inapplicable, match="requires finite type"):
        verify_denominator_bases(AFF)


def test_macdonald_affine_sl2():
    r = verify_rank2_macdonald(AFF, 8)
    assert r.passed
    coeffs = {tuple(t["offset"]): t["coefficient"] for t in r.details["rhs"]}
    assert coeffs == {(0, 0): 1, (1, 1): 1, (2, 2): 1, (3, 3): 1, (4, 4): 1}


def test_macdonald_hyperbolic():
    assert verify_rank2_macdonald(parse_gcm([[2, -3], [-3, 2]]), 6).passed


def test_macdonald_rejects_finite_type():
    with pytest.raises(Inapplicable, match="requires an infinite-type diagram"):
        verify_rank2_macdonald(A2, 6)


def test_macdonald_rejects_wrong_rank():
    with pytest.raises(Inapplicable, match="^rank-2 identity, got rank 1$"):
        verify_rank2_macdonald(A1, 6)


def test_wkw_vs_weights_sl2():
    r = verify_wkw_vs_weights(HighestWeight.of([3]), A1, 8)
    assert r.passed and not r.expected_failure


def test_wkw_vs_weights_trivial_affine_fails_as_expected():
    r = verify_wkw_vs_weights(HighestWeight.of([0, 0]), AFF, 8)
    assert not r.passed
    assert r.expected_failure
    disc = {tuple(t["offset"]): t["coefficient"] for t in r.details["discrepancy"]}
    assert disc == {(k, k): 1 for k in range(1, 5)}


def test_integrability_partial():
    r = check_integrability_invariants(HighestWeight.of([1, Fraction(-7, 2)]), A2, 8)
    assert r.passed
    assert r.details["preserving"] == [0]


def test_integrability_dominant_integral():
    r = check_integrability_invariants(HighestWeight.of([1, 2]), A2, 8)
    assert r.passed
    assert r.details["preserving"] == [0, 1]


def test_integrability_verma():
    r = check_integrability_invariants(HighestWeight.of([Fraction(-3, 2)]), A1, 8)
    assert r.passed
    assert r.details["preserving"] == []
