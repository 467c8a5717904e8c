import pytest
from hypothesis import given, settings

from kmweights.cartan import components, parse_gcm
from kmweights.roots import (
    RootClass,
    classify_vector,
    positive_imaginary_up_to,
    positive_real_up_to,
)
from kmweights.weyl import reflect
from kmweights.weights import is_positive, offsets_up_to

from conftest import small_gcms_and_weights

A2 = parse_gcm([[2, -1], [-1, 2]])
B2 = parse_gcm([[2, -1], [-2, 2]])
G2 = parse_gcm([[2, -1], [-3, 2]])
AFF = parse_gcm([[2, -2], [-2, 2]])
HYP = parse_gcm([[2, -3], [-3, 2]])


def test_classify_a2_highest_root():
    assert classify_vector(A2, (1, 1)) is RootClass.POSITIVE_REAL


def test_classify_a2_not_a_root():
    assert classify_vector(A2, (2, 1)) is RootClass.NOT_A_ROOT


def test_classify_affine_null_root():
    assert classify_vector(AFF, (1, 1)) is RootClass.POSITIVE_IMAGINARY


def test_classify_multiple_of_simple_root():
    assert classify_vector(A2, (2, 0)) is RootClass.NOT_A_ROOT


def test_positive_real_a2():
    assert positive_real_up_to(A2, 0) == set()
    assert positive_real_up_to(A2, 1) == {(1, 0), (0, 1)}
    assert positive_real_up_to(A2, 5) == {(1, 0), (0, 1), (1, 1)}


def test_positive_real_g2_count():
    assert len(positive_real_up_to(G2, 10)) == 6


def test_positive_real_affine_low_heights():
    assert positive_real_up_to(AFF, 3) == {(1, 0), (0, 1), (2, 1), (1, 2)}


@pytest.mark.parametrize(
    "g,count", [(parse_gcm([[2]]), 1), (A2, 3), (B2, 4), (G2, 6)]
)
def test_finite_type_root_counts_stabilize(g, count):
    assert len(positive_real_up_to(g, 20)) == count
    assert len(positive_real_up_to(g, 40)) == count


def test_finite_type_has_no_imaginary_roots():
    for g in (A2, B2, G2):
        assert positive_imaginary_up_to(g, 8) == set()


def test_affine_imaginary_are_delta_multiples():
    assert positive_imaginary_up_to(AFF, 6) == {(1, 1), (2, 2), (3, 3)}


def test_nonsymmetric_affine_imaginary_roots():
    g = parse_gcm([[2, -4], [-1, 2]])
    assert positive_imaginary_up_to(g, 6) == {(2, 1), (4, 2)}


def test_hyperbolic_imaginary_matches_fundamental_cone_scan():
    # Independent check: brute-force the W-orbit of the fundamental cone.
    H = 6
    cone = set()
    for c1 in range(H + 1):
        for c2 in range(H + 1 - c1):
            c = (c1, c2)
            if not is_positive(c):
                continue
            if all(sum(HYP.a[i][j] * c[j] for j in range(2)) <= 0 for i in range(2)):
                cone.add(c)
    orbit = set(cone)
    while True:
        grown = set(orbit)
        for c in orbit:
            for i in (0, 1):
                img = reflect(HYP, i, c)
                if is_positive(img) and sum(img) <= H:
                    grown.add(img)
        if grown == orbit:
            break
        orbit = grown
    assert positive_imaginary_up_to(HYP, H) == orbit


def test_real_roots_closed_under_descent():
    for g in (G2, AFF, HYP):
        for c in positive_real_up_to(g, 8):
            assert classify_vector(g, c) is RootClass.POSITIVE_REAL


def test_imaginary_cone_reflection_invariance():
    for g in (AFF, HYP):
        H = 6
        im = positive_imaginary_up_to(g, H)
        for c in im:
            for i in range(2):
                img = reflect(g, i, c)
                if is_positive(img) and sum(img) <= H:
                    assert img in im


def _direct_sum(g, h):
    n = g.n + h.n
    a = [[0] * n for _ in range(n)]
    for i in range(g.n):
        a[i][: g.n] = g.a[i]
    for i in range(h.n):
        a[g.n + i][g.n :] = h.a[i]
    return parse_gcm(a)


@given(small_gcms_and_weights(), small_gcms_and_weights())
@settings(max_examples=40, deadline=None)
def test_disconnected_support_is_never_a_root(gl, hl):
    # The direct sum puts vectors with non-positive pairings on two
    # unlinked blocks, so the descent can stall on a disconnected support.
    for g, bound in ((gl[0], 6), (_direct_sum(gl[0], hl[0]), 4)):
        for c in offsets_up_to(g.n, bound):
            supp = [i for i, x in enumerate(c) if x]
            if len(components(g, supp)) > 1:
                assert classify_vector(g, c) is RootClass.NOT_A_ROOT, (g.a, c)


def test_classify_stall_on_disconnected_support():
    # delta + delta' over two affine sl2 blocks pairs to 0 with every h_i.
    two_affine = parse_gcm(
        [[2, -2, 0, 0], [-2, 2, 0, 0], [0, 0, 2, -2], [0, 0, -2, 2]]
    )
    assert classify_vector(two_affine, (1, 1, 1, 1)) is RootClass.NOT_A_ROOT
    assert classify_vector(two_affine, (1, 1, 0, 0)) is RootClass.POSITIVE_IMAGINARY
    a3 = parse_gcm([[2, -1, 0], [-1, 2, -1], [0, -1, 2]])
    assert classify_vector(a3, (1, 0, 1)) is RootClass.NOT_A_ROOT
