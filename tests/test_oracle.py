from fractions import Fraction
from itertools import permutations, product
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kmweights import oracle
from kmweights.cartan import parse_gcm
from kmweights.errors import BudgetExceeded, InputError
from kmweights.lp import independent_rows
from kmweights.oracle import (
    GramBuilder,
    oracle_weight_set,
    simple_multiplicity,
    word_bases,
    word_code,
    word_count,
    words_of_offset,
)
from kmweights.modweights import wt_simple_slice
from kmweights.roots import positive_real_up_to
from kmweights.weights import HighestWeight, ht, offsets_up_to
from kmweights.weyl import reflect_weight

from conftest import fraction_independent_rows, small_gcms_and_weights

A1 = parse_gcm([[2]])
A2 = parse_gcm([[2, -1], [-1, 2]])
AFF = parse_gcm([[2, -2], [-2, 2]])


def gram_entry(lam, g, u, v):
    """<f_u v_lambda, f_v v_lambda>: the integer form over its scale d^k."""
    builder = GramBuilder(lam, g)
    return Fraction(builder.form(word_code(u, g.n), word_code(v, g.n)), builder.scale ** len(u))


def _offset_of(code, n):
    """The offset of the word with this code: its letter counts."""
    counts = [0] * n
    while code:
        code, digit = divmod(code, n + 1)
        counts[digit - 1] += 1
    return tuple(counts)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_word_codes_are_distinct_and_split_off_the_first_letter(n):
    codes = {}
    for k in range(7):
        for word in product(range(n), repeat=k):
            code = word_code(word, n)
            if word:
                assert divmod(code, n + 1) == (word_code(word[1:], n), word[0] + 1)
            else:
                assert code == 0
            assert codes.setdefault(code, word) == word
            assert _offset_of(code, n) == tuple(word.count(i) for i in range(n))


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


@given(st.lists(st.sampled_from([0, 1]), min_size=0, max_size=5))
@settings(max_examples=40)
def test_gram_symmetry(word):
    lam = HighestWeight.of([1, Fraction(-7, 2)])
    for other in words_of_offset(
        tuple(word.count(i) for i in range(2))
    ):
        u, v = tuple(word), other
        assert gram_entry(lam, A2, u, v) == gram_entry(lam, A2, v, u)


def _rational_form(lam, g, u, v):
    # Independent reference: the form recursion in plain Fractions, with no
    # scaling and no cache.  e_i f_v v_lambda = sum over the letters i of v
    # of (h_i, lambda - tail offset) times v with that letter removed.
    if not u:
        return Fraction(0 if v else 1)
    i, total, tail_pairing = u[0], Fraction(0), 0
    for m in range(len(v) - 1, -1, -1):
        if v[m] == i:
            shorter = v[:m] + v[m + 1 :]
            total += (lam.q[i] - tail_pairing) * _rational_form(lam, g, u[1:], shorter)
        tail_pairing += g.a[i][v[m]]
    return total


@given(small_gcms_and_weights(), st.data())
@settings(max_examples=60, deadline=None)
def test_integer_form_matches_rational_recursion(case, data):
    g, lam = case
    c = tuple(data.draw(st.lists(st.integers(0, 2), min_size=g.n, max_size=g.n)))
    words = words_of_offset(c)
    u = data.draw(st.sampled_from(words))
    v = data.draw(st.sampled_from(words))
    assert gram_entry(lam, g, u, v) == _rational_form(lam, g, u, v)


@given(small_gcms_and_weights(), st.data())
@settings(max_examples=40, deadline=None)
def test_shared_builder_matches_rational_recursion(case, data):
    # One builder answers every word pair of a few offsets in a drawn order,
    # so later entries read the raising terms and form rows that earlier
    # ones stored; each must still be d^k times the uncached rational form.
    g, lam = case
    offset = st.lists(st.integers(0, 2), min_size=g.n, max_size=g.n).map(tuple)
    offsets = data.draw(st.lists(offset.filter(lambda c: sum(c) <= 4), min_size=2, max_size=4))
    pairs = [(u, v) for c in offsets for u in words_of_offset(c) for v in words_of_offset(c)]
    builder = GramBuilder(lam, g)
    for u, v in data.draw(st.permutations(pairs)):
        expect = _rational_form(lam, g, u, v) * builder.scale ** len(u)
        assert builder.form(word_code(u, g.n), word_code(v, g.n)) == expect, (u, v)


def test_integer_form_scale_six_to_the_fourth():
    # Denominators 2 and 3, so the form is scaled by 6^4 on these words.
    lam = HighestWeight.of([Fraction(1, 2), Fraction(-1, 3)])
    words = words_of_offset((2, 2))
    for u in words:
        for v in words:
            assert gram_entry(lam, A2, u, v) == _rational_form(lam, A2, u, v)


def test_multiplicity_highest_weight_line():
    assert simple_multiplicity(HighestWeight.of([Fraction(1, 3), 0]), A2, (0, 0)) == 1


def test_multiplicity_sl2_string_boundary():
    lam = HighestWeight.of([3])
    assert simple_multiplicity(lam, A1, (3,)) == 1
    assert simple_multiplicity(lam, A1, (4,)) == 0


def test_multiplicity_adjoint_zero_weight():
    assert simple_multiplicity(HighestWeight.of([1, 1]), A2, (1, 1)) == 2


def test_multiplicity_budget(monkeypatch):
    monkeypatch.setattr(oracle, "WORD_BUDGET", 10)
    with pytest.raises(BudgetExceeded, match=r"^20 words at offset \(3, 3\) exceeds 10$"):
        simple_multiplicity(HighestWeight.of([1, 1]), A2, (3, 3))


def test_budget_checked_before_words_are_built(monkeypatch):
    # Offset (6, 6) has 924 words; building all 12! orderings first
    # would exhaust memory.
    monkeypatch.setattr(oracle, "WORD_BUDGET", 100)
    with pytest.raises(BudgetExceeded, match="924 words"):
        simple_multiplicity(HighestWeight.of([1, 1]), A2, (6, 6))


def test_default_budget_refuses_an_offset_that_exhausts_memory():
    # A2, lambda = (20, 20): the Gram matrix on the 3,432 words of offset
    # (7, 7) does not fit in 2 GB of address space.
    with pytest.raises(BudgetExceeded, match=r"^3432 words at offset \(7, 7\) exceeds 1000$"):
        simple_multiplicity(HighestWeight.of([20, 20]), A2, (7, 7))


@pytest.mark.parametrize("c", [
    (), (0,), (0, 0), (2,), (2, 1), (1, 0, 2), (2, 2, 1), (3, 3), (0, 3), (3, 0, 2),
    (1, 1, 1, 1),
])
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
                for v in offsets_up_to(g.n, h)
                if sum(v) == h
            ]:
                assert simple_multiplicity(lam, g, c) == _kostant_partitions(g, c)


def test_oracle_weight_set_sl2():
    assert sorted(oracle_weight_set(HighestWeight.of([3]), A1, 6).members) == [
        (0,),
        (1,),
        (2,),
        (3,),
    ]


def test_oracle_weight_set_verma():
    ws = oracle_weight_set(HighestWeight.of([Fraction(-3, 2)]), A1, 6)
    assert sorted(ws.members) == [(k,) for k in range(7)]


def test_oracle_weight_set_affine_matches_slice():
    lam = HighestWeight.of([1, 0])
    assert (
        oracle_weight_set(lam, AFF, 4).members
        == wt_simple_slice(lam, AFF, 4).members
    )


def test_independent_rows_are_first_spanning_rows():
    rows = [[0, 0], [7, 14], [-14, -28], [0, 6], [70, 14]]
    assert independent_rows(rows) == [1, 3]
    assert independent_rows([]) == []
    # Symmetric, indefinite: row 0 is independent though its diagonal is 0.
    assert independent_rows([[0, 1], [1, 0]]) == [0, 1]
    # Row 1 is nonzero in column 0, before row 0's pivot (column 1), so it
    # is independent and kept from column 0 on.  Reduced past that entry,
    # it would be kept from column 2 on and row 2 would look dependent.
    assert independent_rows([[0, 1, 0], [1, 1, 2], [1, 0, 1]]) == [0, 1, 2]


def test_word_bases_adjoint_a2(monkeypatch):
    # The budget bounds candidates, not words: offset (2, 1) has 3 words
    # but only the 2 candidates built on B(1, 1).
    monkeypatch.setattr(oracle, "WORD_BUDGET", 2)
    bases = word_bases(HighestWeight.of([1, 1]), A2, 4)
    assert bases[(0, 0)] == [()]
    assert bases[(1, 1)] == [(0, 1), (1, 0)]
    assert len(bases[(2, 2)]) == 1 and bases[(3, 0)] == []
    assert {c for c, b in bases.items() if b} == {
        (0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (2, 2)
    }


H_BY_RANK = {1: 6, 2: 5, 3: 4}


@given(small_gcms_and_weights())
@settings(max_examples=30, deadline=None)
def test_recursive_bases_match_all_words_and_slice(case):
    # At these heights every offset has at most 12 words, far within the
    # word budget, so the all-words rank is the reference at every offset.
    g, lam = case
    bound = H_BY_RANK[g.n]
    bases = word_bases(lam, g, bound)
    for c, basis in bases.items():
        assert len(basis) == simple_multiplicity(lam, g, c), c
    members = {c for c, basis in bases.items() if basis}
    assert oracle_weight_set(lam, g, bound).members == members
    assert members == wt_simple_slice(lam, g, bound).members


@given(small_gcms_and_weights())
@settings(max_examples=30, deadline=None)
def test_word_bases_match_fraction_rank_reference(case):
    # The bases themselves, not only their sizes: each candidate Gram is
    # built entry by entry from `GramBuilder.form` and ranked in Fractions.
    g, lam = case
    bound = H_BY_RANK[g.n]
    builder = GramBuilder(lam, g)
    expect = {}
    for c in offsets_up_to(g.n, bound):
        if not any(c):
            expect[c] = [()]
            continue
        candidates = [
            (i,) + w for i in range(g.n) if c[i]
            for w in expect[c[:i] + (c[i] - 1,) + c[i + 1 :]]
        ]
        codes = [word_code(u, g.n) for u in candidates]
        gram = [[builder.form(u, v) for v in codes] for u in codes]
        expect[c] = [candidates[k] for k in fraction_independent_rows(gram)]
    assert word_bases(lam, g, bound) == expect


@pytest.mark.parametrize("c", [(-1, 0), (1,), (0, 0, 0), (1.0, 1), (True, True), (1, False)])
def test_multiplicity_offset_must_fit_the_rank(c):
    # Unchecked, (-1, 0) raised ValueError from math.comb, (1.0, 1) a
    # TypeError, (1,) and (0, 0, 0) returned 1, and (True, True) returned
    # 2, the multiplicity at (1, 1).
    with pytest.raises(InputError, match="needs 2 nonnegative integer entries"):
        simple_multiplicity(HighestWeight.of([1, 1]), A2, c)


def test_multiplicity_takes_a_list_offset_like_its_tuple():
    lam = HighestWeight.of([1, 1])
    assert simple_multiplicity(lam, A2, [1, 1]) == simple_multiplicity(lam, A2, (1, 1)) == 2


def test_oracle_budget_checked_before_gram_entries(monkeypatch):
    # A2, lambda = (1, 1): offsets (0, 1) and (1, 0) have one basis word
    # each, so (1, 1) has two candidates; with budget 1 it must raise
    # before any form value on words of offset (1, 1) is asked for.
    asked = []
    form = GramBuilder.form

    def spy(self, u, v):
        asked.append(_offset_of(u, 2))
        return form(self, u, v)

    monkeypatch.setattr(GramBuilder, "form", spy)
    monkeypatch.setattr(oracle, "WORD_BUDGET", 1)
    with pytest.raises(BudgetExceeded, match=r"2 candidate words at offset \(1, 1\)"):
        oracle_weight_set(HighestWeight.of([1, 1]), A2, 4)
    assert (1, 0) in asked and (1, 1) not in asked
