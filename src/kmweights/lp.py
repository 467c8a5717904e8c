"""Exact rational linear-programming feasibility, and certificates to reuse.

`feasible` decides whether {x >= 0 : A x = b} is nonempty by a phase-1
simplex with Bland's rule over Fractions.  No floating point anywhere: the
affine cases this package cares about sit exactly on the finite/indefinite
boundary.

A solve also settles other right-hand sides b' of the same A (Farkas'
lemma: either A x = b has a solution x >= 0, or some y has y^T A <= 0 and
y^T b > 0).  Passing a `Proof` collects what the final tableau shows:

* infeasible: the phase-1 duals y, a Farkas certificate.  Every b' with
  y^T b' > 0 is infeasible too.
* feasible: the final basis B and its exact inverse.  Every b' with
  B^-1 b' >= 0 and zero artificial entries is feasible too.

`Certificates` keeps the proofs of earlier solves on one fixed A.  It
checks each one exactly before trusting it: a Farkas vector when it is
stored, and a basis each time it decides a new b'.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

Row = list[Fraction]


@dataclass
class Proof:
    """What one `feasible` solve leaves besides its answer, not yet checked.

    `farkas` is set when the system is infeasible; `basis` (column indices,
    n + i standing for the artificial of row i) and `inverse` (B^-1 in the
    caller's row signs) when it is feasible.
    """

    farkas: Optional[Row] = None
    basis: Optional[list[int]] = None
    inverse: Optional[list[Row]] = None


def feasible(
    a: Sequence[Sequence[Fraction]],
    b: Sequence[Fraction],
    proof: Optional[Proof] = None,
) -> Optional[list[Fraction]]:
    """Return some x >= 0 with A x = b, or None if the system is infeasible.

    When `proof` is given, the solve's certificate is written into it.
    """
    m = len(a)
    if m == 0:
        return []
    n = len(a[0])

    # Normalize to b >= 0, then append one artificial variable per row.
    tab: list[Row] = []
    rhs: Row = []
    signs: list[int] = []
    for i in range(m):
        row = [Fraction(v) for v in a[i]]
        bi = Fraction(b[i])
        sign = -1 if bi < 0 else 1
        if sign < 0:
            row = [-v for v in row]
            bi = -bi
        tab.append(row)
        rhs.append(bi)
        signs.append(sign)

    total = n + m
    for i in range(m):
        for j in range(m):
            tab[i].append(Fraction(1 if i == j else 0))
    basis = list(range(n, total))

    # Phase-1 objective: minimize the sum of artificials.
    cost = [Fraction(0)] * total
    for j in range(n, total):
        cost[j] = Fraction(1)
    # Reduced costs relative to the artificial basis.
    z = [Fraction(0)] * total
    for j in range(total):
        z[j] = sum(tab[i][j] for i in range(m)) - cost[j]
    zval = sum(rhs)

    while True:
        enter = -1
        for j in range(total):  # Bland: smallest index with positive reduced cost
            if z[j] > 0:
                enter = j
                break
        if enter < 0:
            break
        leave = -1
        best: Optional[Fraction] = None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = rhs[i] / tab[i][enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            break  # unbounded phase-1 cannot happen, guard anyway
        piv = tab[leave][enter]
        tab[leave] = [v / piv if v else v for v in tab[leave]]
        rhs[leave] /= piv
        for i in range(m):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [u - f * v if v else u for u, v in zip(tab[i], tab[leave])]
                rhs[i] -= f * rhs[leave]
        f = z[enter]
        z = [u - f * v if v else u for u, v in zip(z, tab[leave])]
        zval -= f * rhs[leave]
        basis[leave] = enter

    if zval != 0:
        if proof is not None:
            # z[n+i] = y_i - 1 for the duals y of the sign-normalized rows.
            proof.farkas = [(z[n + i] + 1) * signs[i] for i in range(m)]
        return None
    if proof is not None:
        # The artificial columns of the final tableau hold B^-1 of the
        # sign-normalized system; undo the row flips.
        proof.basis = list(basis)
        proof.inverse = [[tab[k][n + i] * signs[i] for i in range(m)] for k in range(m)]
    x = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = rhs[i]
    return x


def _dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    return sum((p * q for p, q in zip(u, v)), Fraction(0))


class Certificates:
    """Exactly checked proofs of earlier solves of A x = b, x >= 0, for one A.

    `decide(b)` answers from the stored proofs when one applies; `learn`
    stores the proof of a fresh `feasible` solve.
    """

    def __init__(self, a: Sequence[Sequence[Fraction]]):
        self.a: list[Row] = [[Fraction(v) for v in row] for row in a]
        self.n = len(self.a[0]) if self.a else 0
        self.farkas: list[Row] = []
        self.bases: list[tuple[list[int], list[Row]]] = []

    def decide(self, b: Sequence[Fraction]) -> Optional[bool]:
        """Feasibility of A x = b if a stored proof settles it, else None."""
        for y in self.farkas:
            if _dot(y, b) > 0:
                return False
        for basis, inverse in self.bases:
            if self.basis_solution(basis, inverse, b) is not None:
                return True
        return None

    def learn(self, b: Sequence[Fraction], proof: Proof) -> None:
        """Store the proofs of a solve for b that check exactly; drop the rest."""
        if proof.farkas is not None and self.is_farkas(proof.farkas, b):
            self.farkas.append(proof.farkas)
        if proof.basis is not None and proof.inverse is not None:
            if self.basis_solution(proof.basis, proof.inverse, b) is not None:
                self.bases.append((proof.basis, proof.inverse))

    def is_farkas(self, y: Sequence[Fraction], b: Sequence[Fraction]) -> bool:
        """y^T A <= 0 on every column and y^T b > 0: A x = b has no x >= 0."""
        return _dot(y, b) > 0 and all(
            _dot(y, [row[j] for row in self.a]) <= 0 for j in range(self.n)
        )

    def basis_solution(
        self, basis: Sequence[int], inverse: Sequence[Row], b: Sequence[Fraction]
    ) -> Optional[list[Fraction]]:
        """x >= 0 with A x = b from x_B = B^-1 b, or None if this basis fails.

        Artificial basic entries must be 0, and A_B x_B = b is checked
        exactly, so a wrong inverse can only make this return None.
        """
        x_b: dict[int, Fraction] = {}
        for j, row in zip(basis, inverse):
            v = _dot(row, b)
            if v < 0 or (j >= self.n and v != 0):
                return None
            if j < self.n:
                x_b[j] = v
        for row, bi in zip(self.a, b):
            if sum((row[j] * v for j, v in x_b.items()), Fraction(0)) != bi:
                return None
        x = [Fraction(0)] * self.n
        for j, v in x_b.items():
            x[j] = v
        return x
