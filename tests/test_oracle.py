from fractions import Fraction
from itertools import permutations
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kmweights.cartan import parse_gcm
from kmweights.errors import BudgetExceeded
from kmweights.oracle import (
    gram_entry,
    oracle_weight_set,
    oracle_is_advisory,
    simple_multiplicity,
    word_count,
    words_of_offset,
)
from kmweights.modweights import wt_simple_slice
from kmweights.roots import positive_real_up_to
from kmweights.weights import HighestWeight, ht
from kmweights.weyl import reflect_weight

A1 = parse_gcm([[2]])
A2 = parse_gcm([[2, -1], [-1, 2]])
AFF = parse_gcm([[2, -2], [-2, 2]])


def test_norm_of_highest_weight_vector():
    assert gram_entry(HighestWeight.of([Fraction(5, 7)]), A1, (), ()) == 1


def test_sl2_single_lowering():
    assert gram_entry(HighestWeight.of([4]), A1, (0,), (0,)) == 4


@pytest.mark.parametrize("n,k", [(3, 1), (3, 3), (3, 4), (5, 2), (Fraction(-3, 2), 3)])
def test_sl2_norm_formula(n, k):
    # Independent oracle: <f^k v, f^k v> = k! * prod_{j=0}^{k-1} (n - j)
    lam = HighestWeight.of([n])
    expect = factorial(k)
    for j in range(k):
        expect *= Fraction(n) - j
    assert gram_entry(lam, A1, (0,) * k, (0,) * k) == expect


def test_gram_offset_mismatch():
    with pytest.raises(ValueError):
        gram_entry(HighestWeight.of([1, 1]), A2, (0,), (1,))


@given(st.lists(st.sampled_from([0, 1]), min_size=0, max_size=5))
@settings(max_examples=40)
def test_gram_symmetry(word):
    lam = HighestWeight.of([1, Fraction(-7, 2)])
    for other in words_of_offset(
        tuple(word.count(i) for i in range(2))
    ):
        u, v = tuple(word), other
        assert gram_entry(lam, A2, u, v) == gram_entry(lam, A2, v, u)


def test_multiplicity_highest_weight_line():
    assert simple_multiplicity(HighestWeight.of([Fraction(1, 3), 0]), A2, (0, 0)) == 1


def test_multiplicity_sl2_string_boundary():
    lam = HighestWeight.of([3])
    assert simple_multiplicity(lam, A1, (3,)) == 1
    assert simple_multiplicity(lam, A1, (4,)) == 0


def test_multiplicity_adjoint_zero_weight():
    assert simple_multiplicity(HighestWeight.of([1, 1]), A2, (1, 1)) == 2


def test_multiplicity_budget():
    with pytest.raises(BudgetExceeded):
        simple_multiplicity(HighestWeight.of([1, 1]), A2, (3, 3), budget=10)


def test_budget_checked_before_words_are_built():
    # Offset (6, 6) has 924 words; building all 12! orderings first
    # would exhaust memory.
    with pytest.raises(BudgetExceeded, match="924 words"):
        simple_multiplicity(HighestWeight.of([1, 1]), A2, (6, 6), budget=100)


@pytest.mark.parametrize("c", [(), (0,), (0, 0), (2,), (2, 1), (1, 0, 2), (2, 2, 1), (3, 3)])
def test_words_of_offset_sorted_distinct_orderings(c):
    letters = [i for i, k in enumerate(c) for _ in range(k)]
    words = words_of_offset(c)
    assert words == sorted(set(permutations(letters)))
    assert len(words) == word_count(c)


def test_multiplicity_reflection_invariance_integrable():
    lam = HighestWeight.of([2, 1])
    for c in [(0, 0), (1, 0), (1, 1), (2, 1)]:
        for i in (0, 1):
            img = reflect_weight(lam, A2, i, c)
            if img is not None and ht(img) <= 6:
                assert simple_multiplicity(lam, A2, c) == simple_multiplicity(
                    lam, A2, img
                )


def _kostant_partitions(g, c):
    pos = sorted(positive_real_up_to(g, sum(c)))

    def count(rem, idx):
        if all(x == 0 for x in rem):
            return 1
        if idx == len(pos):
            return 0
        beta = pos[idx]
        total = 0
        cur = rem
        while all(x >= 0 for x in cur):
            total += count(cur, idx + 1)
            cur = tuple(a - b for a, b in zip(cur, beta))
        return total


    return count(tuple(c), 0)


def test_verma_multiplicity_is_kostant_count():
    # Generic lambda (no (lambda + rho, beta-coroot) in Z>0 for any positive
    # root beta), finite type: L(lambda) is the Verma module and
    # multiplicities are Kostant partition counts.  I_lambda = empty alone is
    # not enough: q = (-1/2, -1/2) on A2 pairs to 1 against the highest
    # coroot and the Verma module acquires a singular vector.
    for g, qs in ((A1, [Fraction(-1, 2)]), (A2, [Fraction(-1, 2), Fraction(-1, 3)])):
        lam = HighestWeight.of(qs)
        for h in range(0, 6):
            for c in [
                tuple(v)
                for v in __import__(
                    "kmweights.modweights", fromlist=["_offsets_up_to"]
                )._offsets_up_to(g.n, h)
                if sum(v) == h
            ]:
                assert simple_multiplicity(lam, g, c) == _kostant_partitions(g, c)


def test_oracle_weight_set_sl2():
    assert oracle_weight_set(HighestWeight.of([3]), A1, 6).sorted_members() == [
        (0,),
        (1,),
        (2,),
        (3,),
    ]


def test_oracle_weight_set_verma():
    ws = oracle_weight_set(HighestWeight.of([Fraction(-3, 2)]), A1, 6)
    assert ws.sorted_members() == [(k,) for k in range(7)]


def test_oracle_weight_set_affine_matches_slice():
    lam = HighestWeight.of([1, 0])
    assert (
        oracle_weight_set(lam, AFF, 4).members
        == wt_simple_slice(lam, AFF, 4).members
    )


def test_advisory_flag():
    assert not oracle_is_advisory(A2)
    nonsym = parse_gcm([[2, -1, -2], [-2, 2, -1], [-1, -2, 2]])
    assert oracle_is_advisory(nonsym)
