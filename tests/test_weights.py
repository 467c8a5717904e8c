from fractions import Fraction

from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kmweights.cartan import parse_gcm
from kmweights.weights import (
    HighestWeight,
    in_parabolic_dominant,
    integrability_set,
    offsets_up_to,
    pairing,
)

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
