from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kmweights.cartan import is_finite_type, parse_gcm
from kmweights.errors import NotFiniteType, NotIntegrable
from kmweights.series import (
    TruncSeries,
    atiyah_bott_sum,
    finite_weyl_group,
    geometric_series,
    laurent_product,
    weyl_summand,
    wkw_sum,
)
from kmweights.weights import (
    HighestWeight,
    ht,
    is_negative,
    is_positive,
    zero_offset,
)
from kmweights.weyl import enumerate_group, identity, stabilizer_is_finite
from kmweights.weights import integrability_set

from conftest import CORPUS_MATRICES

A1 = parse_gcm([[2]])
A2 = parse_gcm([[2, -1], [-1, 2]])
AFF = parse_gcm([[2, -2], [-2, 2]])


def series_from(rank, bound, items):
    return TruncSeries(rank, bound, {tuple(c): v for c, v in items.items() if v})


def test_mul_identity():
    b = series_from(1, 5, {(0,): 1, (2,): 7, (5,): -3})
    assert (series_from(1, 5, {(0,): 1}) * b).terms == b.terms


def test_add_unequal_bounds_truncates_to_the_smaller_and_drops_zeros():
    a = series_from(2, 2, {(0, 0): 1, (1, 0): 2, (0, 1): 5, (1, 1): 4})
    b = series_from(2, 4, {(1, 0): -2, (0, 1): 1, (2, 1): 3, (4, 0): 7})
    for s in (a + b, b + a):
        assert s.bound == 2
        assert s.terms == {(0, 0): 1, (0, 1): 6, (1, 1): 4}


def test_difference_of_squares():
    one_plus = series_from(1, 2, {(0,): 1, (1,): 1})
    one_minus = series_from(1, 2, {(0,): 1, (1,): -1})
    assert (one_plus * one_minus).terms == {(0,): 1, (2,): -1}


small_series = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.integers(-5, 5),
    max_size=6,
)


@given(small_series, small_series)
@settings(max_examples=60)
def test_mul_commutative(t1, t2):
    a = series_from(2, 6, t1)
    b = series_from(2, 6, t2)
    assert (a * b).terms == (b * a).terms


def all_pairs_product(a, b):
    """Reference product: every term pair, then truncation and zero removal."""
    bound = min(a.bound, b.bound)
    out = {}
    for c1, v1 in a.terms.items():
        for c2, v2 in b.terms.items():
            c = tuple(x + y for x, y in zip(c1, c2))
            if ht(c) <= bound:
                out[c] = out.get(c, 0) + v1 * v2
    return {c: v for c, v in out.items() if v}


@st.composite
def series_of_unequal_bounds(draw):
    """Two series; the second has the larger bound and may hold terms above
    the first one's.  Coefficients +-1 on few offsets make products cancel."""
    def offsets(h):
        return st.integers(0, h).flatmap(
            lambda x: st.tuples(st.just(x), st.integers(0, h - x)))

    low = draw(st.integers(0, 4))
    high = draw(st.integers(low + 1, 7))
    coeffs = st.sampled_from([-1, 1])
    t1 = draw(st.dictionaries(offsets(low), coeffs, max_size=6))
    t2 = draw(st.dictionaries(offsets(high), coeffs, max_size=8))
    return series_from(2, low, t1), series_from(2, high, t2)


@given(series_of_unequal_bounds())
@settings(max_examples=150)
def test_mul_matches_all_pairs_product(pair):
    a, b = pair
    for x, y in ((a, b), (b, a)):
        out = x * y
        assert out.bound == a.bound
        assert out.terms == all_pairs_product(x, y)


def test_geometric_factor_identity_branch():
    e = identity(1)
    f = geometric_series(e.simple_images[0], 4)
    assert f.terms == {(0,): 1, (1,): 1, (2,): 1, (3,): 1, (4,): 1}


def test_geometric_factor_negative_branch():
    lam = HighestWeight.of([3])
    s = next(
        w for w in enumerate_group(lam, A1, [0], height=10) if w.word == (0,)
    )
    f = geometric_series(s.simple_images[0], 3)
    assert f.terms == {(1,): -1, (2,): -1, (3,): -1}


def test_truncation_contract():
    e = identity(1)
    f = geometric_series(e.simple_images[0], 2)
    assert set(f.terms) == {(0,), (1,), (2,)}


def test_weyl_summand_identity_counts_compositions():
    e = identity(2)
    s = weyl_summand(e.displacement, e.simple_images, 3)
    assert s.coeff((0, 0)) == 1
    assert all(v == 1 for v in s.terms.values())
    assert set(s.terms) == {c for c in s.terms if ht(c) <= 3}


def test_weyl_summand_sl2_reflection_term():
    # For q = 3 the non-identity summand is -e^{-4 alpha} - e^{-5 alpha} - ...
    lam = HighestWeight.of([3])
    s = next(
        w for w in enumerate_group(lam, A1, [0], height=10) if w.word == (0,)
    )
    out = weyl_summand(s.displacement, s.simple_images, 6)
    assert out.terms == {(4,): -1, (5,): -1, (6,): -1}


def test_weyl_summand_leading_sign():
    lam = HighestWeight.of([1, 1])
    for w in enumerate_group(lam, A2, [0, 1], height=20):
        out = weyl_summand(w.displacement, w.simple_images, 20)
        lead = min(out.terms, key=lambda c: (ht(c), c))
        negs = sum(1 for v in w.simple_images if is_negative(v))
        assert out.terms[lead] == (-1) ** negs


def test_wkw_sl2_integrable():
    lam = HighestWeight.of([3])
    assert wkw_sum(lam, A1, 10).terms == {(0,): 1, (1,): 1, (2,): 1, (3,): 1}


def test_wkw_verma_single_summand():
    lam = HighestWeight.of([Fraction(-3, 2)])
    out = wkw_sum(lam, A1, 6)
    assert out.terms == {(k,): 1 for k in range(7)}


def test_wkw_affine_trivial_gives_delta_string():
    lam = HighestWeight.of([0, 0])
    out = wkw_sum(lam, AFF, 6)
    assert out.terms == {(0, 0): 1, (1, 1): 1, (2, 2): 1, (3, 3): 1}


def test_wkw_rebasing_consistency():
    lam = HighestWeight.of([1, Fraction(-7, 2)])
    big = wkw_sum(lam, A2, 9)
    small = wkw_sum(lam, A2, 5)
    assert {c: v for c, v in big.terms.items() if ht(c) <= 5} == small.terms


def test_atiyah_bott_matches_wkw_for_sl2():
    lam = HighestWeight.of([3])
    assert atiyah_bott_sum(lam, A1, 8).terms == wkw_sum(lam, A1, 8).terms


def test_atiyah_bott_adjoint_zero_weight():
    lam = HighestWeight.of([1, 1])
    ab = atiyah_bott_sum(lam, A2, 4)
    assert ab.coeff((1, 1)) == 2
    assert ab.coeff((0, 0)) == 1
    assert all(v >= 0 for v in ab.terms.values())


def test_atiyah_bott_trivial_module():
    lam = HighestWeight.of([0, 0])
    assert atiyah_bott_sum(lam, A2, 6).terms == {(0, 0): 1}


def test_atiyah_bott_rejects_affine():
    with pytest.raises(NotFiniteType):
        atiyah_bott_sum(HighestWeight.of([1, 0]), AFF, 4)


def test_atiyah_bott_rejects_nonintegrable():
    with pytest.raises(NotIntegrable):
        atiyah_bott_sum(HighestWeight.of([1, -1]), A2, 4)


def test_denominator_specialization_finite_type():
    # lambda = 0, sum over all of W: the constant series 1.
    for g in (A1, A2, parse_gcm([[2, -1], [-2, 2]])):
        lam = HighestWeight.of([0] * g.n)
        total = TruncSeries(g.n, 8, {})
        for w in enumerate_group(lam, g, range(g.n), height=None):
            total = total + weyl_summand(w.displacement, w.simple_images, 8)
        assert total.terms == {zero_offset(g.n): 1}


FINITE = [
    pytest.param(parse_gcm(m), id=name)
    for name, m in CORPUS_MATRICES.items() if is_finite_type(parse_gcm(m))
] + [
    pytest.param(parse_gcm([[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1],
                            [0, 0, -1, 2]]), id="A4"),
    pytest.param(parse_gcm([[2, -1, 0], [-1, 2, -1], [0, -2, 2]]), id="B3"),
]


@pytest.mark.parametrize("g", FINITE)
def test_finite_weyl_group_roots_and_order(g):
    elements, pos = finite_weyl_group(HighestWeight.of([0] * g.n), g)
    images = {a for w in elements for a in w.simple_images if is_positive(a)}
    assert pos == sorted(images)
    # The order the budget is checked on is the number of elements listed.
    assert len(elements) * prod(ht(a) for a in pos) == prod(ht(a) + 1 for a in pos)


def test_wkw_coefficients_are_01_under_finite_stabilizer():
    lam = HighestWeight.of([1, Fraction(-7, 2)])
    assert stabilizer_is_finite(lam, A2, integrability_set(lam))
    out = wkw_sum(lam, A2, 10)
    assert set(out.terms.values()) <= {1}


def test_laurent_empty_product():
    assert laurent_product(1, []).terms == {(0,): 1}


def test_laurent_a1_both_roots():
    # (1 - e^{-alpha})(1 - e^{alpha}) = 2 - e^{alpha} - e^{-alpha}
    out = laurent_product(1, [(-1,), (1,)])
    assert out.terms == {(0,): 2, (1,): -1, (-1,): -1}


def test_laurent_order_independent():
    exps = [(-1, 0), (0, 1), (1, 1), (-1, -1)]
    a = laurent_product(2, exps)
    b = laurent_product(2, list(reversed(exps)))
    assert a.terms == b.terms


@pytest.mark.parametrize("v", [(0,), (0, 0), (1, -1), (-2, 0, 1)])
def test_geometric_series_rejects_zero_and_mixed_vectors(v):
    with pytest.raises(ValueError):
        geometric_series(v, 4)


def test_geometric_series_both_signs():
    assert geometric_series((1, 2), 7).terms == {(0, 0): 1, (1, 2): 1, (2, 4): 1}
    assert geometric_series((-1, 0), 2).terms == {(1, 0): -1, (2, 0): -1}
