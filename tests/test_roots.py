import pytest
from hypothesis import given, settings

from kmweights.cartan import components, parse_gcm
from kmweights.roots import positive_imaginary_up_to, positive_real_up_to
from kmweights.weights import cartan_pairing, is_positive, offsets_up_to

from conftest import reflect, small_gcms_and_weights

A2 = parse_gcm([[2, -1], [-1, 2]])
A3 = parse_gcm([[2, -1, 0], [-1, 2, -1], [0, -1, 2]])
B2 = parse_gcm([[2, -1], [-2, 2]])
G2 = parse_gcm([[2, -1], [-3, 2]])
AFF = parse_gcm([[2, -2], [-2, 2]])
HYP = parse_gcm([[2, -3], [-3, 2]])


def descent_class(g, c):
    """"real", "imaginary" or None for a nonzero c >= 0, by reflection descent.

    Lower the height by s_i while some (h_i, c) > 0.  A simple root is real;
    leaving the positive cone is not a root; a stall with all pairings <= 0
    is imaginary on a connected support and not a root otherwise.
    Reflections map roots to roots, so the answer for the end is the answer for c.
    """
    while sum(c) > 1:
        i = next((i for i in range(g.n) if cartan_pairing(g, c, i) > 0), None)
        if i is None:
            supp = [j for j, x in enumerate(c) if x]
            return "imaginary" if len(components(g, supp)) == 1 else None
        c = reflect(g, i, c)
        if c[i] < 0:
            return None
    return "real"


def test_classify_a2_highest_root():
    assert (1, 1) in positive_real_up_to(A2, 2)


def test_classify_a2_not_a_root():
    assert (2, 1) not in positive_real_up_to(A2, 3) | positive_imaginary_up_to(A2, 3)


def test_classify_affine_null_root():
    assert (1, 1) in positive_imaginary_up_to(AFF, 2)


def test_classify_multiple_of_simple_root():
    assert (2, 0) not in positive_real_up_to(A2, 2) | positive_imaginary_up_to(A2, 2)


def test_classify_stall_on_disconnected_support():
    # delta + delta' over two affine sl2 blocks pairs to 0 with every h_i.
    two_affine = parse_gcm(
        [[2, -2, 0, 0], [-2, 2, 0, 0], [0, 0, 2, -2], [0, 0, -2, 2]]
    )
    im = positive_imaginary_up_to(two_affine, 4)
    assert (1, 1, 0, 0) in im
    assert (1, 1, 1, 1) not in im | positive_real_up_to(two_affine, 4)
    assert (1, 0, 1) not in positive_real_up_to(A3, 2) | positive_imaginary_up_to(A3, 2)


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
            assert descent_class(g, c) == "real"


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
    # unlinked blocks, so K without its connectivity test would hold them.
    for g, bound in ((gl[0], 6), (_direct_sum(gl[0], hl[0]), 4)):
        real, imaginary = positive_real_up_to(g, bound), positive_imaginary_up_to(g, bound)
        for c in offsets_up_to(g.n, bound):
            if not any(c):
                continue
            kind = descent_class(g, c)
            assert (c in real, c in imaginary) == (kind == "real", kind == "imaginary"), (g.a, c)
            supp = [i for i, x in enumerate(c) if x]
            if len(components(g, supp)) > 1:
                assert c not in real and c not in imaginary, (g.a, c)
