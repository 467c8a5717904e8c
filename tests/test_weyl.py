from fractions import Fraction

import pytest

from kmweights.cartan import parse_gcm
from kmweights.errors import CapExceeded, NonIntegralPairing, NotDominantIntegral
from kmweights.roots import positive_real_up_to
from kmweights.weights import HighestWeight, ht, is_negative
from kmweights.weyl import (
    enumerate_group,
    identity,
    orbit_truncated,
    reflect,
    reflect_weight,
    stabilizer_is_finite,
)

A1 = parse_gcm([[2]])
A2 = parse_gcm([[2, -1], [-1, 2]])
AFF = parse_gcm([[2, -2], [-2, 2]])


def test_reflect_a2():
    # s_0(alpha_1) = alpha_0 + alpha_1
    assert reflect(A2, 0, (0, 1)) == (1, 1)


def test_reflect_sends_own_root_negative():
    for g in (A1, A2, AFF):
        for i in range(g.n):
            e = tuple(1 if j == i else 0 for j in range(g.n))
            assert reflect(g, i, e) == tuple(-x for x in e)


def test_reflect_is_involution():
    for v in [(1, 0), (2, 3), (0, 5), (1, 1)]:
        assert reflect(A2, 0, reflect(A2, 0, v)) == v
        assert reflect(AFF, 1, reflect(AFF, 1, v)) == v


def test_reflect_weight_sl2_string():
    lam = HighestWeight.of([3])
    assert reflect_weight(lam, A1, 0, (0,)) == (3,)
    assert reflect_weight(lam, A1, 0, (3,)) == (0,)


def test_reflect_weight_nonintegral_raises():
    lam = HighestWeight.of(["-3/2"])
    with pytest.raises(NonIntegralPairing):
        reflect_weight(lam, A1, 0, (0,))


def test_reflect_weight_above_lambda_marker():
    lam = HighestWeight.of([-2])
    assert reflect_weight(lam, A1, 0, (0,)) is None


def test_enumerate_a1_two_elements():
    lam = HighestWeight.of([3])
    assert len(list(enumerate_group(lam, A1, [0], height=50))) == 2


def test_enumerate_a2_six_elements():
    lam = HighestWeight.of([1, 1])
    words = [w.word for w in enumerate_group(lam, A2, [0, 1], height=100)]
    assert len(words) == 6
    assert max(len(w) for w in words) == 3


def test_enumerate_affine_dihedral_truncates():
    lam = HighestWeight.of([0, 0])
    els = list(enumerate_group(lam, AFF, [0, 1], height=4))
    # e, s0, s1 are inside the bound; inversion heights grow past it.
    assert identity(2) in els
    assert all(len(w.word) <= 10 for w in els)
    assert len(els) >= 3


def test_enumerate_yields_breadth_first_and_consistent_images():
    lam = HighestWeight.of([1, 1])
    prev = 0
    for w in enumerate_group(lam, A2, [0, 1], height=100):
        assert len(w.word) >= prev
        prev = len(w.word)
        # replay: w alpha_j = s_{i1}(s_{i2}(... s_{ik}(alpha_j)))
        imgs = identity(2).simple_images
        for i in reversed(w.word):
            imgs = tuple(reflect(A2, i, v) for v in imgs)
        assert w.simple_images == imgs


def test_enumerate_length_equals_inversions_rank2():
    # ell(w) = #{positive real roots sent negative}, finite type rank <= 2
    for g in (A2, parse_gcm([[2, -1], [-2, 2]]), parse_gcm([[2, -1], [-3, 2]])):
        lam = HighestWeight.of([1, 1])
        pos = positive_real_up_to(g, 12)
        for w in enumerate_group(lam, g, [0, 1], height=None):
            inv = sum(1 for b in pos if is_negative(w.apply(b)))
            assert inv == len(w.word)


def test_enumerate_cap_exceeded():
    lam = HighestWeight.of([0, 0])
    with pytest.raises(CapExceeded):
        list(enumerate_group(lam, AFF, [0, 1], height=100, cap=3))


def test_orbit_sl2():
    lam = HighestWeight.of([3])
    assert orbit_truncated(lam, A1, [0], (0,), 10) == {(0,), (3,)}


def test_orbit_zero_weight_fixed():
    lam = HighestWeight.of([1, 1])
    assert orbit_truncated(lam, A2, [0, 1], (1, 1), 10) == {(1, 1)}


def test_orbit_regular_weight_adjoint():
    # Orbit of lambda - alpha_0 in the adjoint of A2: six offsets (brute
    # force below recomputes it by closing under reflections).
    lam = HighestWeight.of([1, 1])
    got = orbit_truncated(lam, A2, [0, 1], (1, 0), 10)
    brute = {(1, 0)}
    while True:
        new = set(brute)
        for c in brute:
            for i in (0, 1):
                img = reflect_weight(lam, A2, i, c)
                if img is not None:
                    new.add(img)
        if new == brute:
            break
        brute = new
    assert got == brute
    assert len(got) == 6


def test_orbit_closed_within_window():
    lam = HighestWeight.of([1, 0])
    H = 8
    orb = orbit_truncated(lam, AFF, [0, 1], (0, 0), H)
    for c in orb:
        for i in (0, 1):
            img = reflect_weight(lam, AFF, i, c)
            if img is not None and ht(img) <= H:
                assert img in orb


def test_stabilizer_finite_cases():
    assert stabilizer_is_finite(HighestWeight.of([0, 0]), A2, [0, 1])
    assert not stabilizer_is_finite(HighestWeight.of([0, 0]), AFF, [0, 1])
    assert stabilizer_is_finite(HighestWeight.of([1, 0]), AFF, [0, 1])


@pytest.mark.parametrize("q", [-1, Fraction(1, 2)])
def test_enumerate_group_rejects_non_dominant_nodes(q):
    with pytest.raises(NotDominantIntegral):
        list(enumerate_group(HighestWeight.of([q]), A1, [0], height=None, cap=2))
