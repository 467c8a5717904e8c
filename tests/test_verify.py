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
from kmweights.weights import HighestWeight, neg, offsets_up_to

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


@pytest.mark.parametrize("g", [B3, A4, G2], ids=["B3", "A4", "G2"])
def test_denominator_repeated_element_leaves_its_image_of_p(g, monkeypatch):
    # With the longest element w0 listed twice, the difference is -w0(P),
    # whose exponents have coordinates of both signs up to (2 rho)_k.
    elements, pos = finite_weyl_group(HighestWeight.of([0] * g.n), g)
    w0 = elements[-1]
    monkeypatch.setattr(verify, "finite_weyl_group",
                        lambda lam, g: (elements + [w0], pos))
    r = verify_denominator_bases(g)
    assert not r.passed
    simple = set(elements[0].simple_images)
    p = keyed_laurent(g.n, [neg(a) for a in pos + [neg(a) for a in pos]
                            if a not in simple])
    want = sorted((apply(w0, c), -v) for c, v in p.items())
    assert r.details["difference"] == [
        {"exponent": list(c), "coefficient": v} for c, v in want
    ]


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
