from fractions import Fraction
from itertools import takewhile
from math import prod

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from kmweights.cartan import is_finite_type, parse_gcm
from kmweights.errors import Inapplicable
from kmweights.modweights import wt_simple_slice
from kmweights.roots import positive_real_up_to
from kmweights.series import (
    LaurentElt,
    TruncSeries,
    atiyah_bott_sum,
    finite_weyl_group,
    weyl_summand,
    wkw_sum,
)
from kmweights.weights import (
    HighestWeight,
    ht,
    is_negative,
    is_positive,
    neg,
    zero_offset,
)
from kmweights.weyl import enumerate_group, identity, min_summand_height, stabilizer_is_finite
from kmweights.weights import integrability_set

from conftest import CORPUS_MATRICES, apply, keyed_laurent, small_gcms_and_weights

A1 = parse_gcm([[2]])
A2 = parse_gcm([[2, -1], [-1, 2]])
AFF = parse_gcm([[2, -2], [-2, 2]])


def series_from(rank, bound, items):
    return TruncSeries(rank, bound, {tuple(c): v for c, v in items.items() if v})


def test_mul_identity():
    b = series_from(1, 5, {(0,): 1, (2,): 7, (5,): -3})
    assert (series_from(1, 5, {(0,): 1}) * b).terms == b.terms


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
    f = weyl_summand((0,), [e.simple_images[0]], 4)
    assert f.terms == {(0,): 1, (1,): 1, (2,): 1, (3,): 1, (4,): 1}


def test_geometric_factor_negative_branch():
    lam = HighestWeight.of([3])
    s = next(
        w for w in enumerate_group(lam, A1, [0], height=10) if w.word == (0,)
    )
    f = weyl_summand((0,), [s.simple_images[0]], 3)
    assert f.terms == {(1,): -1, (2,): -1, (3,): -1}


def test_truncation_contract():
    e = identity(1)
    f = weyl_summand((0,), [e.simple_images[0]], 2)
    assert set(f.terms) == {(0,), (1,), (2,)}


def test_weyl_summand_identity_counts_compositions():
    e = identity(2)
    s = weyl_summand(e.displacement, e.simple_images, 3)
    assert s.terms.get((0, 0), 0) == 1
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
    assert ab.terms.get((1, 1), 0) == 2
    assert ab.terms.get((0, 0), 0) == 1
    assert all(v >= 0 for v in ab.terms.values())


def test_atiyah_bott_trivial_module():
    lam = HighestWeight.of([0, 0])
    assert atiyah_bott_sum(lam, A2, 6).terms == {(0, 0): 1}


E7 = [[2, 0, -1, 0, 0, 0, 0], [0, 2, 0, -1, 0, 0, 0], [-1, 0, 2, -1, 0, 0, 0],
      [0, -1, -1, 2, -1, 0, 0], [0, 0, 0, -1, 2, -1, 0],
      [0, 0, 0, 0, -1, 2, -1], [0, 0, 0, 0, 0, -1, 2]]
E8 = [[2, 0, -1, 0, 0, 0, 0, 0], [0, 2, 0, -1, 0, 0, 0, 0], [-1, 0, 2, -1, 0, 0, 0, 0],
      [0, -1, -1, 2, -1, 0, 0, 0], [0, 0, 0, -1, 2, -1, 0, 0],
      [0, 0, 0, 0, -1, 2, -1, 0], [0, 0, 0, 0, 0, -1, 2, -1], [0, 0, 0, 0, 0, 0, -1, 2]]


def test_atiyah_bott_e7_56_is_whole_at_height_27():
    # |W(E7)| is over WEYL_BUDGET; the signed walk keeps only the w with ht(D_w) <= 27.
    g, lam = parse_gcm(E7), HighestWeight.of([0] * 6 + [1])
    ab = atiyah_bott_sum(lam, g, 27).terms
    # Weyl dimension, simply laced: prod over beta > 0 of (lambda + rho, beta) / (rho, beta).
    pos = positive_real_up_to(g, 6 * g.n)
    assert sum(ab.values()) == prod(ht(b) + b[6] for b in pos) // prod(map(ht, pos)) == 56
    # w0 = -1 sends offset c to 2 omega_7 - c = (2, 3, 4, 6, 5, 4, 3) - c, so the slice
    # set at height 13 and its mirror cover every height up to ht(2 omega_7) = 27.
    low = wt_simple_slice(lam, g, 13).members
    top = (2, 3, 4, 6, 5, 4, 3)
    assert set(ab.values()) == {1}
    assert set(ab) == low | {tuple(t - x for t, x in zip(top, c)) for c in low}


def test_atiyah_bott_e8_support_is_the_slice_set():
    g, lam = parse_gcm(E8), HighestWeight.of([0] * 7 + [1])
    ab = atiyah_bott_sum(lam, g, 6).terms
    assert set(ab) == wt_simple_slice(lam, g, 6).members


def test_atiyah_bott_rejects_affine():
    with pytest.raises(Inapplicable, match="requires a finite-type diagram"):
        atiyah_bott_sum(HighestWeight.of([1, 0]), AFF, 4)


def test_atiyah_bott_rejects_nonintegrable():
    with pytest.raises(Inapplicable, match="requires dominant integral highest weight"):
        atiyah_bott_sum(HighestWeight.of([1, -1]), A2, 4)


def test_denominator_specialization_finite_type():
    # lambda = 0, sum over all of W: the constant series 1.
    for g in (A1, A2, parse_gcm([[2, -1], [-2, 2]])):
        lam = HighestWeight.of([0] * g.n)
        total = {}
        for w in enumerate_group(lam, g, range(g.n), height=None):
            for c, v in weyl_summand(w.displacement, w.simple_images, 8).terms.items():
                total[c] = total.get(c, 0) + v
        assert {c: v for c, v in total.items() if v} == {zero_offset(g.n): 1}


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
    assert stabilizer_is_finite(lam, A2)
    out = wkw_sum(lam, A2, 10)
    assert set(out.terms.values()) <= {1}


def test_laurent_empty_product():
    assert keyed_laurent(1, []) == {(0,): 1}


def test_laurent_a1_both_roots():
    # (1 - e^{-alpha})(1 - e^{alpha}) = 2 - e^{alpha} - e^{-alpha}
    out = keyed_laurent(1, [(-1,), (1,)])
    assert out == {(0,): 2, (1,): -1, (-1,): -1}


def test_laurent_order_independent():
    exps = [(-1, 0), (0, 1), (1, 1), (-1, -1)]
    assert keyed_laurent(2, exps) == keyed_laurent(2, list(reversed(exps)))


@pytest.mark.parametrize("v", [(0,), (0, 0), (1, -1), (-2, 0, 1)])
def test_geometric_series_rejects_zero_and_mixed_vectors(v):
    with pytest.raises(ValueError):
        weyl_summand((0,) * len(v), [v], 4)


def test_geometric_series_both_signs():
    assert weyl_summand((0, 0), [(1, 2)], 7).terms == {(0, 0): 1, (1, 2): 1, (2, 4): 1}
    assert weyl_summand((0, 0), [(-1, 0)], 2).terms == {(1, 0): -1, (2, 0): -1}


# The integer keys of the series layer against products written on tuples.

def tuple_geometric(v, bound):
    """(1 - e^{-v})^{-1} on offset tuples: +e^{-kv} (k >= 0) or -e^{kv} (k >= 1)."""
    sign, step, k = (1, v, 0) if is_positive(v) else (-1, neg(v), 1)
    out = {}
    while k * ht(step) <= bound:
        out[tuple(k * x for x in step)] = sign
        k += 1
    return out


def tuple_weyl_sum(elements, roots_of, bound):
    """Sum over w of e^{-d} / prod (1 - e^{-v}), every term pair multiplied out."""
    total = {}
    for w in elements:
        n, d = len(w.displacement), w.displacement
        s = series_from(n, bound, {d: 1} if ht(d) <= bound else {})
        for v in roots_of(w):
            factor = series_from(n, bound, tuple_geometric(v, bound))
            s = series_from(n, bound, all_pairs_product(s, factor))
        for c, x in s.terms.items():
            total[c] = total.get(c, 0) + x
    return {c: x for c, x in total.items() if x}


@given(small_gcms_and_weights(), st.integers(0, 7))
@settings(max_examples=60, deadline=None)
def test_wkw_sum_matches_tuple_reference(case, bound):
    g, lam = case
    elements = list(enumerate_group(lam, g, integrability_set(lam), height=bound))
    want = tuple_weyl_sum(elements, lambda w: w.simple_images, bound)
    assert wkw_sum(lam, g, bound).terms == want


@given(small_gcms_and_weights(), st.integers(0, 7))
@settings(max_examples=60, deadline=None)
def test_wkw_sum_matches_whole_finite_group(case, bound):
    # The reference sums over all of W_J, not over the walk that stops early.
    g, lam = case
    nodes = sorted(integrability_set(lam))
    assume(is_finite_type(g, nodes))
    elements = takewhile(lambda w: w.length <= 64, enumerate_group(lam, g, nodes))
    want = tuple_weyl_sum(elements, lambda w: w.simple_images, bound)
    assert wkw_sum(lam, g, bound).terms == want


@pytest.mark.parametrize("m", [[[2, -1], [-3, 2]], [[2, -3], [-1, 2]]])
def test_wkw_sum_early_stop_on_g2(m):
    # At H=2 the walk stops after length 2, yet two longer elements (w0 among
    # them) have minimal summand height 2; their summands cancel below H.
    g, lam = parse_gcm(m), HighestWeight.of([0, 0])
    walked = list(enumerate_group(lam, g, [0, 1], height=2))
    assert max(w.length for w in walked) == 2
    whole = list(enumerate_group(lam, g, [0, 1], height=None))
    assert [w.length for w in whole if min_summand_height(w) <= 2 and w.length > 2] == [5, 6]
    assert tuple_weyl_sum(whole, lambda w: w.simple_images, 2) == {(0, 0): 1}
    assert wkw_sum(lam, g, 2).terms == {(0, 0): 1}


FINITE_AB = {
    "A1": [[2]], "A2": [[2, -1], [-1, 2]], "A3": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
    "A4": [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]],
    "B2": [[2, -1], [-2, 2]], "B3": [[2, -1, 0], [-1, 2, -1], [0, -2, 2]],
    "C3": [[2, -1, 0], [-1, 2, -2], [0, -1, 2]],
    "D4": [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]],
    "G2": [[2, -1], [-3, 2]],
}


@st.composite
def finite_dominant_cases(draw):
    g = parse_gcm(FINITE_AB[draw(st.sampled_from(sorted(FINITE_AB)))])
    q = draw(st.lists(st.integers(0, 2), min_size=g.n, max_size=g.n))
    lam = HighestWeight.of(q)
    return g, lam, draw(st.integers(0, 8 if g.n <= 3 else 5))


@given(finite_dominant_cases())
# The two Atiyah-Bott inputs of the series_deep benchmark.
@example((parse_gcm(FINITE_AB["A4"]), HighestWeight.of([1, 0, 0, 1]), 10))
@example((parse_gcm(FINITE_AB["B3"]), HighestWeight.of([1, 1, 0]), 16))
@settings(max_examples=40, deadline=None)
def test_atiyah_bott_sum_matches_tuple_reference(case):
    g, lam, bound = case
    elements, pos = finite_weyl_group(lam, g)
    want = tuple_weyl_sum(elements, lambda w: [apply(w, b) for b in pos], bound)
    assert atiyah_bott_sum(lam, g, bound).terms == want


def test_truncation_keeps_height_bound_and_drops_bound_plus_one():
    # Rank 1 at bound 0: only the constant term survives.
    assert weyl_summand((0,), [(1,)], 0).terms == {(0,): 1}
    assert weyl_summand((0,), [(-1,)], 0).terms == {}
    assert wkw_sum(HighestWeight.of([0]), A1, 0).terms == {(0,): 1}
    assert weyl_summand((0,), [(1,), (-1,)], 0).terms == {}
    # A term at height exactly `bound` is kept, one at bound + 1 dropped.
    a = series_from(1, 3, {(1,): 1})
    assert (a * series_from(1, 3, {(2,): 1, (3,): 1})).terms == {(3,): 1}
    assert weyl_summand((2,), [(1,)], 2).terms == {(2,): 1}
    assert weyl_summand((3,), [(1,)], 2).terms == {}
    assert weyl_summand((3,), [], 2).terms == {}
    # Coordinates equal to the bound sit next to a height over it.
    low = series_from(2, 2, {(0, 0): 1})
    high = series_from(2, 3, {(2, 0): 1, (0, 2): -1, (1, 2): 1, (0, 3): 1})
    assert (low * high).terms == {(2, 0): 1, (0, 2): -1}


def all_pairs_laurent(x, y):
    out = {}
    for c1, v1 in x.items():
        for c2, v2 in y.items():
            c = tuple(a + b for a, b in zip(c1, c2))
            out[c] = out.get(c, 0) + v1 * v2
    return {c: v for c, v in out.items() if v}


def laurent_reference(rank, exponents):
    out = {(0,) * rank: 1}
    for v in exponents:
        factor = {(0,) * rank: 1}
        factor[tuple(v)] = factor.get(tuple(v), 0) - 1
        out = all_pairs_laurent(out, factor)
    return out


@st.composite
def signed_exponent_lists(draw):
    """A rank and two lists of exponents with entries of both signs and zeros."""
    rank = draw(st.integers(1, 3))
    vec = st.lists(st.integers(-3, 3), min_size=rank, max_size=rank).map(tuple)
    return rank, draw(st.lists(vec, max_size=6)), draw(st.lists(vec, max_size=3))


@given(signed_exponent_lists())
@settings(max_examples=150, deadline=None)
def test_laurent_product_matches_all_pairs_reference(case):
    rank, first, second = case
    x = laurent_reference(rank, first)
    assert keyed_laurent(rank, first) == x
    y = laurent_reference(rank, second)
    assert (LaurentElt(rank, x) * LaurentElt(rank, y)).terms == all_pairs_laurent(x, y)


@pytest.mark.parametrize("name", ["A2", "A3", "B3", "G2"])
def test_laurent_product_at_the_balanced_digit_edge(name):
    # prod over Phi^+ of (1 - e^{-a}) reaches -2 rho, so |c_k| = (2 rho)_k
    # is the largest digit of every coordinate.
    g = parse_gcm(FINITE_AB[name])
    _, pos = finite_weyl_group(HighestWeight.of([0] * g.n), g)
    exponents = [neg(a) for a in pos]
    out = keyed_laurent(g.n, exponents)
    two_rho = tuple(map(sum, zip(*pos)))
    assert out[neg(two_rho)] == (-1) ** len(pos)
    assert out == laurent_reference(g.n, exponents)
    # A product of two elements reaches the sum of their largest digits,
    # on either side of zero.
    for top in (two_rho, neg(two_rho)):
        square = LaurentElt(g.n, {top: 1}) * LaurentElt(g.n, {top: -1})
        assert square.terms == {tuple(2 * x for x in top): -1}
