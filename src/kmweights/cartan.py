"""Generalized Cartan matrices: validation, classification of node sets."""

from __future__ import annotations

import enum
from collections.abc import Callable, Hashable, Iterable, Sequence
from fractions import Fraction

from .errors import InputError
from .lp import feasible


class DiagramType(enum.Enum):
    FINITE = "Finite"
    AFFINE = "Affine"
    INDEFINITE = "Indefinite"


class GCM:
    """An n x n generalized Cartan matrix with string node labels, "0"..."n-1" by default.

    Axioms: a[i][i] = 2, a[i][j] <= 0 off the diagonal, and
    a[i][j] = 0 iff a[j][i] = 0.
    """

    __slots__ = ("a", "labels")

    def __init__(self, a: tuple[tuple[int, ...], ...],
                 labels: tuple[str, ...] | None = None):
        n = len(a)
        if labels is None:
            labels = tuple(str(i) for i in range(n))
        if len(labels) != n:
            raise InputError(f"expected {n} labels, got {len(labels)}")
        if len(set(labels)) != n:
            raise InputError("labels must be distinct")
        for i, row in enumerate(a):
            if len(row) != n:
                raise InputError(f"row {i} has length {len(row)}, expected {n}")
        for i, row in enumerate(a):
            if row[i] != 2:
                raise InputError(f"a[{i}][{i}] = {row[i]} != 2")
            for j, v in enumerate(row):
                if i != j and v > 0:
                    raise InputError(f"a[{i}][{j}] = {v} > 0")
                if i != j and (v == 0) != (a[j][i] == 0):
                    raise InputError(f"a[{i}][{j}] = {v} but a[{j}][{i}] = {a[j][i]}")
        self.a, self.labels = a, labels

    @property
    def n(self) -> int:
        return len(self.a)

    def neighbors(self, i: int) -> list[int]:
        return [j for j in range(self.n) if j != i and self.a[i][j] != 0]


def parse_gcm(matrix: Sequence[Sequence[int]], labels: Sequence[str] | None = None) -> GCM:
    """Validate a non-empty integer matrix (nested lists) as a GCM.

    Entries must be integers and labels strings; nothing is coerced, so
    -1.7 or a label string split into characters is an error.
    """
    if not isinstance(matrix, (list, tuple)) or not matrix:
        raise InputError("matrix must be a non-empty list of rows")
    for row in matrix:
        if not isinstance(row, (list, tuple)):
            raise InputError(f"matrix row {row!r} is not a list")
        for v in row:
            if not isinstance(v, int) or isinstance(v, bool):
                raise InputError(f"matrix entries must be integers, got {v!r}")
    if labels is not None and (
        not isinstance(labels, (list, tuple))
        or not all(isinstance(x, str) for x in labels)
    ):
        raise InputError(f"labels must be a list of strings, got {labels!r}")
    return GCM(tuple(tuple(row) for row in matrix),
               None if labels is None else tuple(labels))


def components(g: GCM, nodes: Iterable[int] | None = None) -> list[tuple[int, ...]]:
    """Connected components of the Dynkin diagram on `nodes` (default: all).

    Each component is sorted; components come in order of their least node.
    """
    left = set(range(g.n) if nodes is None else nodes)
    out = []
    while left:
        comp = closure([min(left)], lambda i: [j for j in g.neighbors(i) if j in left])
        left -= comp
        out.append(tuple(sorted(comp)))
    return out


def closure(seeds: Iterable[Hashable], successors: Callable[[Hashable], Iterable]) -> set:
    """Everything reachable from `seeds` by repeated `successors`, seeds included.

    Breadth-first; each element is expanded once.
    """
    queue = list(seeds)
    out = set(queue)
    for x in queue:  # the loop also visits what it appends
        for y in successors(x):
            if y not in out:
                out.add(y)
                queue.append(y)
    return out


def _component_type(g: GCM, nodes: tuple[int, ...]) -> DiagramType:
    # Vinberg trichotomy for an indecomposable GCM A, decided by exact LP:
    #   Finite: exists u > 0 with Au > 0;  Affine: exists u > 0 with Au = 0.
    # Both systems are homogeneous, so strictness can be replaced by >= 1.
    k = len(nodes)
    a = [[g.a[nodes[i]][nodes[j]] for j in range(k)] for i in range(k)]
    row_sums = [sum(row) for row in a]
    # Finite: A(x + 1) - s = 1, i.e. Ax - s = 1 - A1, x, s >= 0.
    eq = [a[i] + [-1 if i == j else 0 for j in range(k)] for i in range(k)]
    if feasible(eq, [1 - row_sums[i] for i in range(k)]) is not None:
        return DiagramType.FINITE
    # Affine: A(x + 1) = 0, i.e. Ax = -A1, x >= 0.
    if feasible(a, [-row_sums[i] for i in range(k)]) is not None:
        return DiagramType.AFFINE
    return DiagramType.INDEFINITE


def classify(
    g: GCM, nodes: Iterable[int] | None = None
) -> list[tuple[tuple[int, ...], DiagramType]]:
    """Label each component of the diagram on `nodes` (default: all) by its type."""
    return [(comp, _component_type(g, comp)) for comp in components(g, nodes)]


def is_finite_type(g: GCM, nodes: Iterable[int] | None = None) -> bool:
    return all(t is DiagramType.FINITE for _, t in classify(g, nodes))


def symmetrizable(g: GCM) -> tuple[Fraction, ...] | None:
    """A positive rational diagonal d with d_i a_ij = d_j a_ji, or None.

    Spreads d along diagram edges from each node not yet reached, then checks
    every edge: a cycle with inconsistent proportionality fails the check.
    """
    d: dict[int, Fraction] = {}

    def spread(i: int) -> list[int]:
        new = [j for j in g.neighbors(i) if j not in d]
        for j in new:
            d[j] = d[i] * Fraction(g.a[i][j], g.a[j][i])
        return new

    for i in range(g.n):
        if i not in d:
            d[i] = Fraction(1)
            closure([i], spread)
    if all(d[i] * g.a[i][j] == d[j] * g.a[j][i] for i in d for j in g.neighbors(i)):
        return tuple(d[i] for i in range(g.n))
    return None
