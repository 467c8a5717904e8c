"""Ground-truth multiplicities via the contravariant form on lowering words.

The radical of the contravariant form is the maximal submodule, so
dim L(lambda)_mu is the rank of the Gram matrix on any set of words
f_{i_1} ... f_{i_k} v_lambda that spans L(lambda)_mu.  All words of the
offset are such a set (`simple_multiplicity`).  So is the recursive set
{f_i f_w v_lambda : w in B(c - e_i)} built from word bases of the weight
spaces just above, since L(lambda)_mu = sum_i f_i L(lambda)_{mu + alpha_i}
for mu != lambda (Kac, Infinite dimensional Lie algebras, ch. 9;
Kac-Kazhdan 1979); `word_bases` walks the offsets that way.  `GramBuilder`
pairs by <f_u v_lambda, f_v v_lambda> = <f_{u[1:]} v_lambda, e_{u_0} f_v v_lambda>,
keeping each e_i f_v v_lambda, built from that of v's tail, and each value,
in the row of its left word, keyed by integer `word_code`s.  Everything is exact.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import product
from math import comb, lcm

from .cartan import GCM
from .errors import BudgetExceeded, InputError
from .lp import independent_rows
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


def word_code(word: LoweringWord, n: int) -> int:
    """code(()) = 0, code((i,) + w) = code(w) (n + 1) + i + 1: one divmod splits off i + 1."""
    return sum((i + 1) * (n + 1) ** k for k, i in enumerate(word))


class GramBuilder:
    """Caches contravariant-form values for one (lambda, g), in integers.

    `form(u, v)` is d^k <f_u v_lambda, f_v v_lambda> for the codes of words of
    length k, d the lcm of the denominators of lambda: each recursion step
    multiplies by one coefficient d * (h_i, lambda - c), an integer since A is
    integral.  All words of one offset have one length, so a Gram matrix of
    integer forms is a positive multiple of the rational one, with the same
    rank and the same independent rows.  Values sit in one row per left word.
    """

    def __init__(self, lam: HighestWeight, g: GCM):
        self.n, self.base, self.scale = g.n, g.n + 1, lcm(*(q.denominator for q in lam.q))
        self._q = [q.numerator * (self.scale // q.denominator) for q in lam.q]
        self._a = [[0] + [self.scale * x for x in row] for row in g.a]  # [i][j + 1]: letter j
        self._raised = [{0: []} for _ in g.a]  # _raised[i][v] = _raise(i, v)
        self._rows = defaultdict(dict, {0: {0: 1}})  # _rows[u][v] = form(u, v)

    def _raise(self, i: int, v: int) -> list[tuple[int, int]]:
        """e_i f_v v_lambda as (coefficient, shorter word's code) terms, scaled by d.

        e_i f_{v_0} = f_{v_0} e_i + delta_{i v_0} h_i, and h_i is the scalar
        d * (h_i, lambda - sum of the tail's alphas) on f_{v[1:]} v_lambda.
        """
        terms = self._raised[i].get(v)
        if terms is None:
            tail, digit = divmod(v, self.base)
            terms = [(coeff, w * self.base + digit) for coeff, w in self._raise(i, tail)]
            if digit == i + 1:
                coeff, rest = self._q[i], tail
                while rest:
                    rest, letter = divmod(rest, self.base)
                    coeff -= self._a[i][letter]
                if coeff:
                    terms.append((coeff, tail))
            self._raised[i][v] = terms
        return terms

    def form(self, u: int, v: int) -> int:
        row = self._rows[u]
        value = row.get(v)
        if value is None:
            value, (rest, digit) = 0, divmod(u, self.base)
            tail, terms = self._rows[rest], (self._raised[digit - 1].get(v) if u else ())
            for coeff, w in self._raise(digit - 1, v) if terms is None else terms:
                known = tail.get(w)
                value += coeff * (self.form(rest, w) if known is None else known)
            row[v] = value
        return value


def _gram(builder: GramBuilder, words: list[LoweringWord]) -> list[list[int]]:
    k, codes = len(words), [word_code(w, builder.n) for w in words]
    gram = [[0] * k for _ in range(k)]
    for a in range(k):
        for b in range(a, k):
            gram[a][b] = gram[b][a] = builder.form(codes[a], codes[b])
    return gram


def simple_multiplicity(lam: HighestWeight, g: GCM, c: Offset) -> int:
    """dim L(lambda)_{lambda - c}: Gram rank on all words of offset c."""
    if len(c := tuple(c)) != g.n or not all(type(k) is int and k >= 0 for k in c):
        raise InputError(f"offset {c} needs {g.n} nonnegative integer entries")
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
