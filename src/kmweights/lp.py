"""Exact integer elimination: rank and phase-1 simplex, and certificates to reuse.

No floating point anywhere: affine diagrams sit exactly on the boundary of
finite and indefinite, and every A and b is integral (the hull's offsets and
b = (c, 1)).  One fraction-free step, `reduce`, serves the rank, diagram
classification (`cartan`) and the simplex pivots: it eliminates one column
of a row against a pivot row and divides out the gcd of the result.

`feasible` is a revised phase-1 simplex on integer rows.  A `System` keeps
A's rows and their columns A_j for many b; b enters a solve only through
its signs, which negate row i when b_i < 0.  A solve keeps each row k of
(B^-1 | x_B) times an integer s_k > 0, and scale * (y | objective) for the
duals y.  It prices column j as y A_j and forms B^-1 A_j only for the first
positive price (Bland's rule).  As every kept row is a positive multiple of
the rational one, it pivots as a full tableau would.

A solve also settles other right-hand sides b' of the same A (Farkas'
lemma: either A x = b has a solution x >= 0, or some y has y^T A <= 0 and
y^T b > 0).  Passing a `Proof` collects what the final basis shows:

* infeasible: the phase-1 duals y, a Farkas certificate.  Every b' with
  y^T b' > 0 is infeasible too.
* feasible: the final basis B and B^-1 as integer rows over one scale.
  Every b' with B^-1 b' >= 0 and zero artificial entries is feasible too.

`Certificates.decide(b)` answers for one fixed A and many b: by a proof of
an earlier solve when one applies, else by one solve.  Each proof is checked
exactly: a Farkas vector when it is stored, a basis each time it decides a b'.
"""

from __future__ import annotations

from bisect import insort
from collections.abc import Sequence
from fractions import Fraction
from math import gcd, lcm
from operator import mul

Vector = Sequence[int]


def reduce(row: Sequence[int], a: int, pivot_row: Sequence[int], p: int) -> list[int]:
    """p * row - a * pivot_row over gcd(p, a), divided by its content.

    With a and p > 0 the entries of row and pivot_row in one column, the
    result is zero there and a positive multiple of the rationally reduced row.
    """
    p, a = p // (common := gcd(p, a)), a // common
    r = [p * x - a * y for x, y in zip(row, pivot_row)]
    content = gcd(*r)
    return [x // content for x in r] if content > 1 else r


def independent_rows(rows: Sequence[Sequence[int]]) -> list[int]:
    """Indices of the integer rows independent of the rows before them.

    The echelon is sorted by pivot column and keeps each row from its pivot
    on.  A row is reduced on its tail at each pivot in turn until it has a
    nonzero entry before the next pivot (or after the last): it is then
    independent, and is kept from its first nonzero entry on.  So the kept
    rows count the rank.
    """
    kept: list[int] = []
    echelon: list[tuple[int, list[int]]] = []  # (pivot column, row[pivot:])
    for index, row in enumerate(rows):
        r, lead = list(row), 0  # r is zero before lead
        for col, prow in echelon:
            if any(r[lead:col]):
                break
            if r[col]:
                r[col:] = reduce(r[col:], r[col], prow, prow[0])
            lead = col + 1
        lead = next((k for k in range(lead, len(r)) if r[k]), None)
        if lead is not None:
            insort(echelon, (lead, r[lead:]))
            kept.append(index)
    return kept


class Proof:
    """What one `feasible` solve leaves besides its answer, not yet checked.

    `farkas` is set when the system is infeasible; `basis` (column indices,
    n + i standing for the artificial of row i), `inverse` and `scale`
    (B^-1 = inverse / scale in the caller's rows) when it is feasible.
    `a_b`, A's rows on the basis, is kept by the first `Certificates` check.
    """

    __slots__ = ("farkas", "basis", "inverse", "scale", "a_b")

    def __init__(self):
        self.farkas, self.basis, self.inverse, self.scale, self.a_b = None, None, None, 1, None


class System(list):
    """A's integer rows and their columns A_j: the setup `feasible` shares over b."""

    __slots__ = ("columns",)

    def __init__(self, a: Sequence[Vector]):
        super().__init__(list(row) for row in a)
        self.columns = list(zip(*self))


def feasible(a: Sequence[Vector], b: Vector,
             proof: Proof | None = None) -> dict[int, Fraction] | None:
    """A basic solution {j: x_j} of A x = b, x >= 0, or None if there is none.

    A and b are integral; x is exact, in `Fraction`s.  When `proof` is given,
    the solve's certificate is written into it.
    """
    if not isinstance(a, System):
        a = System(a)
    m, n = len(a), len(a.columns)
    # Row i of the solved system is signs_i (a_i | b_i), with a right side >= 0.
    signs = [-1 if v < 0 else 1 for v in b]
    rhs = list(map(mul, signs, b))
    cols = a.columns
    if -1 in signs:
        cols = [tuple(map(mul, col, signs)) for col in cols]
    # rows[k] is s_k (B^-1 | x_B | 0), the 0 under the objective's scale.
    rows = [[0] * m + [v, 0] for v in rhs]
    for i, row in enumerate(rows):
        row[i] = 1
    # Column n + i is row i's artificial: e_i, and -1 under the scale for its cost.
    cols = cols + [(*row[:m], 0, -1) for row in rows]
    basis = list(range(n, n + m))
    priced = cols[:n] + [()] * m  # a basic column, priced 0, is () here

    # Phase 1 minimizes the sum of artificials.  z is scale * (y | objective)
    # for its duals y, then scale > 0, and z A_j is scale times a reduced cost.
    z = [1] * m + [sum(rhs), 1]
    while True:
        for enter, col in enumerate(priced):  # Bland: the first positive one
            if col and (cost := sum(map(mul, col, z))) > 0:
                break
        else:
            break
        column = [sum(map(mul, col, row)) for row in rows]
        # Ratio test x_i / column_i, cross-multiplied; phase 1 is bounded
        # below, so some row has a positive entry.
        leave, *others = [i for i in range(m) if column[i] > 0]
        for i in others:
            diff = rows[i][m] * column[leave] - rows[leave][m] * column[i]
            if diff < 0 or (diff == 0 and basis[i] < basis[leave]):
                leave = i
        pivot, p = rows[leave], column[leave]
        rows = [
            reduce(row, c, pivot, p) if c and row is not pivot else row
            for row, c in zip(rows, column)
        ]
        z = reduce(z, cost, pivot, p)
        priced[basis[leave]], priced[enter] = cols[basis[leave]], ()
        basis[leave] = enter

    if z[m] != 0:
        if proof is not None:
            # z[i] / z[-1] = y_i for the duals y of the signed rows.
            proof.farkas = [z[i] * signs[i] for i in range(m)]
        return None
    # s_k is row k's entry in its basic column.
    s = [sum(map(mul, cols[j], row)) for row, j in zip(rows, basis)]
    if proof is not None:
        proof.basis, proof.scale = basis, lcm(*s)
        proof.inverse = [
            [proof.scale // s[k] * rows[k][i] * signs[i] for i in range(m)]
            for k in range(m)
        ]
    return {basis[k]: Fraction(rows[k][m], s[k]) for k in range(m) if basis[k] < n}


class Certificates:
    """Feasibility of A x = b, x >= 0, for one A (`a`, one `System`) and many b.

    The exactly checked proofs of earlier solves are kept: Farkas vectors in
    `farkas`, feasible bases (as their `Proof`) in `bases`.  A and b are
    integral, so every check is an integer dot product.
    """

    def __init__(self, a: Sequence[Vector]):
        self.a = System(a)
        self.n = len(self.a.columns)
        self.farkas: list[list[int]] = []
        self.bases: list[Proof] = []

    def decide(self, b: Vector) -> bool:
        """Whether A x = b has some x >= 0: by a stored proof that settles b,
        else by one `feasible` solve, whose proof is kept if it checks exactly.
        """
        for y in self.farkas:
            if sum(map(mul, y, b)) > 0:
                return False
        for proof in self.bases:
            if self._scaled_solution(proof, b) is not None:
                return True
        proof = Proof()
        if feasible(self.a, b, proof) is None:
            if self.is_farkas(proof.farkas, b):
                self.farkas.append(proof.farkas)
            return False
        if self._scaled_solution(proof, b) is not None:
            self.bases.append(proof)
        return True

    def is_farkas(self, y: Vector, b: Vector) -> bool:
        """y^T A <= 0 on every integer column A_j and y^T b > 0: A x = b
        has no x >= 0."""
        return sum(map(mul, y, b)) > 0 and all(
            sum(map(mul, y, col)) <= 0 for col in self.a.columns)

    def _scaled_solution(self, proof: Proof, b: Vector) -> dict[int, int] | None:
        """{j: scale * x_j} for the basic j < n, or None if the basis fails.

        Artificial basic entries must be 0, and A_B x_B = b is checked
        exactly, so a wrong inverse can only make this return None.
        """
        x = []  # scale * x_B
        for j, row in zip(proof.basis, proof.inverse):
            v = sum(map(mul, row, b))
            if v < 0 or (v and j >= self.n):
                return None
            x.append(v)
        if proof.a_b is None:  # A_B, read once per proof; an artificial column as 0
            proof.a_b = [[row[j] if j < self.n else 0 for j in proof.basis] for row in self.a]
        for row, bi in zip(proof.a_b, b):
            if sum(map(mul, row, x)) != proof.scale * bi:
                return None
        return {j: v for j, v in zip(proof.basis, x) if j < self.n}
