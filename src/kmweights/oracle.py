"""Ground-truth multiplicities via the contravariant form on lowering words.

The radical of the contravariant form is the maximal submodule, so
dim L(lambda)_mu is the rank of the Gram matrix on any set of words
f_{i_1} ... f_{i_k} v_lambda that spans L(lambda)_mu.  All words of the
offset are such a set (`simple_multiplicity`).  So is the recursive set
{f_i f_w v_lambda : w in B(c - e_i)} built from word bases of the weight
spaces just above, since L(lambda)_mu = sum_i f_i L(lambda)_{mu + alpha_i}
for mu != lambda (Kac, Infinite dimensional Lie algebras, ch. 9;
Kac-Kazhdan 1979); `word_bases` walks the offsets that way.  Everything
is exact.
"""

from __future__ import annotations

from itertools import product
from math import comb

from .cartan import GCM
from .errors import BudgetExceeded
from .lp import independent_rows, integer_row
from .modweights import WeightSet
from .weights import HighestWeight, Offset, offsets_up_to

LoweringWord = tuple[int, ...]

# Most words one offset may take.  A2, lambda = (20, 20): offset (6, 6) has 924
# words (13 s, 270 MiB peak); (7, 7) has 3,432 and exhausts 2 GB of memory.
WORD_BUDGET = 1_000


def word_count(c: Offset) -> int:
    """Number of words of offset c: the multinomial (sum c_i)! / prod c_i!."""
    total, count = 0, 1
    for k in c:
        total += k
        count *= comb(total, k)
    return count


def _lowered(c: Offset, table: dict[Offset, list[LoweringWord]]) -> list[LoweringWord]:
    """(i,) + w for each i with c_i > 0, ascending, and each w in table[c - e_i]."""
    return [(i,) + w for i in range(len(c)) if c[i]
            for w in table[c[:i] + (c[i] - 1,) + c[i + 1 :]]]


def words_of_offset(c: Offset) -> list[LoweringWord]:
    """All distinct orderings of the multiset {i with multiplicity c_i}, sorted.

    The words of d are `_lowered` from those of each d - e_i, so the table
    is filled over the box of offsets d <= c in lexicographic order, which
    puts every d - e_i before d.
    """
    table: dict[Offset, list[LoweringWord]] = {}
    for d in product(*(range(k + 1) for k in c)):
        table[d] = _lowered(d, table) if any(d) else [()]
    return table[c]


def _apply_e(
    q: list[int], row: list[int], i: int, word: LoweringWord
) -> list[tuple[int, LoweringWord]]:
    """e_i f_{word} v_lambda as a combination of shorter words, scaled by d.

    [e_i, f_j] = delta_ij h_i, and h_i is scalar on each tail weight:
    (h_i, lambda - sum of the tail's alphas), accumulated right to left.
    q[j] is d * (h_j, lambda) and row is d times row i of A.
    """
    out = []
    coeff = q[i]  # d * (h_i, lambda - c) for the offset c of word[m + 1:]
    for m in range(len(word) - 1, -1, -1):
        letter = word[m]
        if letter == i and coeff:
            out.append((coeff, word[:m] + word[m + 1 :]))
        coeff -= row[letter]
    return out


class GramBuilder:
    """Caches contravariant-form values for one (lambda, g), in integers.

    `form(u, v)` is d^k <f_u v_lambda, f_v v_lambda> for words of length k,
    d the lcm of the denominators of lambda: each recursion step multiplies
    by one coefficient d * (h_i, lambda - c), an integer since A is
    integral.  All words of one offset have one length, so a Gram matrix of
    integer forms is a positive multiple of the rational one, with the same
    rank and the same independent rows.
    """

    def __init__(self, lam: HighestWeight, g: GCM):
        self.scale, self._q = integer_row(lam.q)
        self._a = [[self.scale * x for x in row] for row in g.a]
        self._cache: dict[tuple[LoweringWord, LoweringWord], int] = {}

    def form(self, u: LoweringWord, v: LoweringWord) -> int:
        if not u:
            return 0 if v else 1
        key = (u, v)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        total = 0
        for coeff, shorter in _apply_e(self._q, self._a[u[0]], u[0], v):
            total += coeff * self.form(u[1:], shorter)
        self._cache[key] = total
        return total


def _gram(builder: GramBuilder, words: list[LoweringWord]) -> list[list[int]]:
    k = len(words)
    gram = [[0] * k for _ in range(k)]
    for a in range(k):
        for b in range(a, k):
            val = builder.form(words[a], words[b])
            gram[a][b] = val
            gram[b][a] = val
    return gram


def simple_multiplicity(lam: HighestWeight, g: GCM, c: Offset) -> int:
    """dim L(lambda)_{lambda - c}: Gram rank on all words of offset c."""
    count = word_count(c)
    if count > WORD_BUDGET:
        raise BudgetExceeded(f"{count} words at offset {c} exceeds {WORD_BUDGET}")
    return len(independent_rows(_gram(GramBuilder(lam, g), words_of_offset(c))))


def word_bases(
    lam: HighestWeight, g: GCM, bound: int
) -> dict[Offset, list[LoweringWord]]:
    """A word basis B(c) of L(lambda)_{lambda - c} for each offset c up to bound.

    Offsets come in lexicographic order, so every c - e_i precedes c.
    B(0) = [()]; the candidates for c != 0 are (i,) + w for w in
    B(c - e_i), and B(c) keeps those whose Gram rows are independent of
    the rows before them.  One GramBuilder serves every offset, so form
    values on shorter words are shared.  The candidate count is checked
    against WORD_BUDGET before any Gram entry of c is built.
    """
    builder = GramBuilder(lam, g)
    bases: dict[Offset, list[LoweringWord]] = {}
    for c in offsets_up_to(g.n, bound):
        if not any(c):
            bases[c] = [()]
            continue
        candidates = _lowered(c, bases)
        if len(candidates) > WORD_BUDGET:
            raise BudgetExceeded(
                f"{len(candidates)} candidate words at offset {c} exceeds {WORD_BUDGET}"
            )
        # Rows independent of the earlier rows of a symmetric matrix span
        # its row space, so the principal submatrix on them is nonsingular:
        # their words are independent in L(lambda) and their count is the rank.
        keep = independent_rows(_gram(builder, candidates))
        bases[c] = [candidates[k] for k in keep]
    return bases


def oracle_weight_set(lam: HighestWeight, g: GCM, bound: int) -> WeightSet:
    """Support of the multiplicity function up to the height bound.

    c is a member exactly when its recursive word basis B(c) from
    `word_bases` is non-empty; no offset needs all of its words.  For
    non-symmetrizable input the construction still runs on the Chevalley
    relations alone; results are then advisory.
    """
    bases = word_bases(lam, g, bound)
    return WeightSet(frozenset(c for c, basis in bases.items() if basis))
