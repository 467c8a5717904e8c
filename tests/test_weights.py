from fractions import Fraction

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kmweights.cartan import components, parse_gcm
from kmweights.roots import positive_imaginary_up_to
from kmweights.weights import (
    HighestWeight,
    integrability_set,
    offsets_up_to,
    pairing,
)
from kmweights.weyl import orbit_truncated

from conftest import CORPUS_MATRICES, in_parabolic_dominant, small_gcms

FIG_LEFT = parse_gcm([[2, -1, 0], [-1, 2, -1], [0, -1, 2]])


def test_pairing_sl2():
    lam = HighestWeight.of([3])
    assert pairing(lam, parse_gcm([[2]]), (1,), 0) == 1


def test_pairing_fig_left():
    lam = HighestWeight.of([2, 0, Fraction(-1, 2)])
    assert pairing(lam, FIG_LEFT, (0, 0, 1), 1) == 1


def test_pairing_at_zero_offset_is_q():
    lam = HighestWeight.of([2, 0, Fraction(-1, 2)])
    for i in range(3):
        assert pairing(lam, FIG_LEFT, (0, 0, 0), i) == lam.q[i]


offsets3 = st.tuples(*[st.integers(0, 6)] * 3)


@given(offsets3, offsets3)
def test_pairing_linear_in_offset(c1, c2):
    lam = HighestWeight.of([2, 0, Fraction(-1, 2)])
    both = tuple(a + b for a, b in zip(c1, c2))
    for i in range(3):
        assert pairing(lam, FIG_LEFT, both, i) == (
            pairing(lam, FIG_LEFT, c1, i) + pairing(lam, FIG_LEFT, c2, i) - lam.q[i]
        )


def test_integrability_set_mixed():
    assert integrability_set(HighestWeight.of([2, 0, Fraction(-1, 2)])) == {0, 1}


def test_integrability_set_dominant_integral():
    assert integrability_set(HighestWeight.of([3, 0, 1])) == {0, 1, 2}


def test_integrability_set_empty():
    assert integrability_set(HighestWeight.of([-3])) == frozenset()


def test_parabolic_dominant_empty_nodes():
    lam = HighestWeight.of([-3])
    assert in_parabolic_dominant(lam, parse_gcm([[2]]), (5,), [])


def test_parabolic_dominant_sl2():
    lam = HighestWeight.of([3])
    g = parse_gcm([[2]])
    assert in_parabolic_dominant(lam, g, (1,), [0])
    assert not in_parabolic_dominant(lam, g, (2,), [0])


@given(offsets3)
def test_pairing_integral_on_integrability_set(c):
    lam = HighestWeight.of([2, 0, Fraction(-1, 2)])
    for i in integrability_set(lam):
        assert pairing(lam, FIG_LEFT, c, i).denominator == 1


@pytest.mark.parametrize("n,bound", [(1, 5), (2, 4), (3, 4), (4, 3)])
def test_offsets_up_to_is_lexicographic_and_complete(n, bound):
    full = list(offsets_up_to(n, bound))
    assert full == sorted(c for c in product(range(bound + 1), repeat=n) if sum(c) <= bound)


def test_offsets_up_to_zero_bound_and_empty_support():
    assert list(offsets_up_to(3, 0)) == [(0, 0, 0)]


# A 3-cycle with a_01 a_12 a_20 != a_10 a_21 a_02: not symmetrizable.
NON_SYMMETRIZABLE = parse_gcm([[2, -1, -2], [-3, 2, -1], [-1, -2, 2]])


@given(st.one_of(small_gcms(max_rank=4), st.just(NON_SYMMETRIZABLE)), st.data())
@settings(max_examples=300, deadline=None)
def test_capped_offsets_are_the_dominant_offsets_in_order(g, data):
    nodes = data.draw(st.sets(st.integers(0, g.n - 1)))
    caps = {j: data.draw(st.integers(-3, 5)) for j in sorted(nodes)}
    bound = data.draw(st.integers(0, 12))
    # The reference reads cap j as the integral pairing q_j of a highest weight.
    lam = HighestWeight.of([caps.get(j, 0) for j in range(g.n)])
    assert list(offsets_up_to(g.n, bound, [(g.a[j], cap) for j, cap in caps.items()])) == [
        c for c in product(range(bound + 1), repeat=g.n)
        if sum(c) <= bound and in_parabolic_dominant(lam, g, c, caps)]


@pytest.mark.parametrize("m", [
    CORPUS_MATRICES["aff_sl2"], CORPUS_MATRICES["aff_rank3"], CORPUS_MATRICES["fig_right"],
    CORPUS_MATRICES["hyperbolic"], [[2, -1, -1], [-3, 2, -3], [-3, -3, 2]],
    [[2, -2, 0, 0], [-2, 2, 0, 0], [0, 0, 2, -2], [0, 0, -2, 2]],
], ids=["aff_sl2", "aff_rank3", "fig_right", "hyperbolic", "hyperbolic_rank3", "two_affine"])
def test_positive_imaginary_matches_the_full_scan_of_k(m):
    g, height = parse_gcm(m), 8
    fundamental = [
        c for c in offsets_up_to(g.n, height)
        if any(c) and all(sum(a * x for a, x in zip(row, c)) <= 0 for row in m)
        and len(components(g, [i for i, x in enumerate(c) if x])) == 1
    ]
    zero = HighestWeight.of([0] * g.n)
    assert positive_imaginary_up_to(g, height) == orbit_truncated(
        zero, g, range(g.n), fundamental, height)
