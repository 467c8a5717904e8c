"""Ground-truth multiplicities via the contravariant form on lowering words.

dim L(lambda)_mu equals the rank of the Gram matrix of the contravariant
form on any spanning set of the Verma weight space; the words
f_{i_1} ... f_{i_k} v_lambda are such a set.  Everything is exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .cartan import GCM, symmetrizable
from .errors import BudgetExceeded
from .modweights import WeightSet, _offsets_up_to
from .weights import HighestWeight, Offset, pairing, ht

LoweringWord = tuple[int, ...]

WORD_BUDGET = 20_000


def word_offset(word: LoweringWord, n: int) -> Offset:
    out = [0] * n
    for i in word:
        out[i] += 1
    return tuple(out)


def word_count(c: Offset) -> int:
    """Number of words of offset c: the multinomial (sum c_i)! / prod c_i!."""
    total, count = 0, 1
    for k in c:
        total += k
        count *= comb(total, k)
    return count


def words_of_offset(c: Offset) -> list[LoweringWord]:
    """All distinct orderings of the multiset {i with multiplicity c_i}.

    Generated in lexicographic order by next-permutation steps, so only
    the word_count(c) distinct words are ever built.
    """
    word = [i for i, k in enumerate(c) for _ in range(k)]
    words = []
    while True:
        words.append(tuple(word))
        i = len(word) - 2
        while i >= 0 and word[i] >= word[i + 1]:
            i -= 1
        if i < 0:
            return words
        j = len(word) - 1
        while word[j] <= word[i]:
            j -= 1
        word[i], word[j] = word[j], word[i]
        word[i + 1 :] = reversed(word[i + 1 :])


def _apply_e(
    lam: HighestWeight, g: GCM, i: int, word: LoweringWord
) -> list[tuple[Fraction, LoweringWord]]:
    """e_i f_{word} v_lambda as a combination of shorter words.

    [e_i, f_j] = delta_ij h_i, and h_i is scalar on each tail weight.
    """
    out = []
    n = g.n
    for m, letter in enumerate(word):
        if letter != i:
            continue
        tail = word[m + 1 :]
        coeff = pairing(lam, g, word_offset(tail, n), i)
        if coeff:
            out.append((coeff, word[:m] + tail))
    return out


class GramBuilder:
    """Caches contravariant-form values for one (lambda, g)."""

    def __init__(self, lam: HighestWeight, g: GCM):
        self.lam = lam
        self.g = g
        self._cache: dict[tuple[LoweringWord, LoweringWord], Fraction] = {}

    def form(self, u: LoweringWord, v: LoweringWord) -> Fraction:
        if not u:
            return Fraction(1) if not v else Fraction(0)
        key = (u, v)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        total = Fraction(0)
        for coeff, shorter in _apply_e(self.lam, self.g, u[0], v):
            total += coeff * self.form(u[1:], shorter)
        self._cache[key] = total
        return total


def gram_entry(
    lam: HighestWeight, g: GCM, u: LoweringWord, v: LoweringWord
) -> Fraction:
    """<f_u v_lambda, f_v v_lambda> for words of equal offset."""
    if word_offset(u, g.n) != word_offset(v, g.n):
        raise ValueError("words have different offsets")
    return GramBuilder(lam, g).form(u, v)


def _rank(rows: list[list[Fraction]]) -> int:
    m = len(rows)
    if m == 0:
        return 0
    n = len(rows[0])
    rank = 0
    col = 0
    rows = [list(r) for r in rows]
    while rank < m and col < n:
        piv = next((r for r in range(rank, m) if rows[r][col] != 0), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        prow = rows[rank]
        inv = 1 / prow[col]
        for r in range(rank + 1, m):
            f = rows[r][col] * inv
            if f:
                rows[r] = [x - f * y for x, y in zip(rows[r], prow)]
        rank += 1
        col += 1
    return rank


def simple_multiplicity(
    lam: HighestWeight, g: GCM, c: Offset, budget: int = WORD_BUDGET
) -> int:
    """dim L(lambda)_{lambda - c}: Gram rank on all words of offset c."""
    count = word_count(c)
    if count > budget:
        raise BudgetExceeded(f"{count} words at offset {c} exceeds {budget}")
    words = words_of_offset(c)
    builder = GramBuilder(lam, g)
    k = len(words)
    gram = [[Fraction(0)] * k for _ in range(k)]
    for a in range(k):
        for b in range(a, k):
            val = builder.form(words[a], words[b])
            gram[a][b] = val
            gram[b][a] = val
    return _rank(gram)


def oracle_weight_set(
    lam: HighestWeight, g: GCM, bound: int, budget: int = WORD_BUDGET
) -> WeightSet:
    """Support of the multiplicity function up to the height bound.

    For non-symmetrizable input the construction still runs on the
    Chevalley relations alone; results are then advisory.
    """
    members = set()
    for c in _offsets_up_to(g.n, bound):
        if simple_multiplicity(lam, g, c, budget) > 0:
            members.add(c)
    return WeightSet(bound, frozenset(members), "oracle")


def oracle_is_advisory(g: GCM) -> bool:
    return symmetrizable(g) is None
