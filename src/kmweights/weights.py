"""Highest weights, offsets, pairings, integrability.

A weight is always mu = lambda - sum_i c_i alpha_i and is stored as the
offset vector c; lambda itself enters only through its exact rational
pairings q_i = (h_i, lambda).
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction

from .cartan import GCM

Offset = tuple[int, ...]
SignedOffset = tuple[int, ...]


class HighestWeight:
    """lambda given by its pairings q_i = (h_i, lambda), exact rationals."""

    __slots__ = ("q",)

    def __init__(self, q: tuple[Fraction, ...]):
        self.q = q

    @staticmethod
    def of(values: Iterable) -> HighestWeight:
        return HighestWeight(tuple(Fraction(v) for v in values))


def ht(c: Sequence[int]) -> int:
    return sum(c)


def zero_offset(n: int) -> Offset:
    return (0,) * n


def unit(n: int, i: int) -> SignedOffset:
    return tuple(1 if j == i else 0 for j in range(n))


def add(c1: Sequence[int], c2: Sequence[int]) -> tuple[int, ...]:
    return tuple(map(operator.add, c1, c2))


def offsets_up_to(n: int, bound: int) -> Iterator[Offset]:
    """Offsets c >= 0 of rank n and height <= bound, in lexicographic order.

    The order puts every c - e_i before c.
    """
    if n == 0:
        yield ()
        return
    for first in range(bound + 1):
        for rest in offsets_up_to(n - 1, bound - first):
            yield (first,) + rest


def neg(c: Sequence[int]) -> tuple[int, ...]:
    return tuple(-x for x in c)


def is_positive(c: Sequence[int]) -> bool:
    """All entries >= 0 and not all zero."""
    return all(x >= 0 for x in c) and any(x != 0 for x in c)


def is_negative(c: Sequence[int]) -> bool:
    return all(x <= 0 for x in c) and any(x != 0 for x in c)


def cartan_pairing(g: GCM, c: Sequence[int], i: int) -> int:
    """(h_i, sum_j c_j alpha_j) = (A c)_i."""
    return sum(g.a[i][j] * c[j] for j in range(g.n))


def pairing(lam: HighestWeight, g: GCM, c: Sequence[int], i: int) -> Fraction:
    """(h_i, lambda - sum_j c_j alpha_j) = q_i - (A c)_i."""
    return lam.q[i] - cartan_pairing(g, c, i)


def integrability_set(lam: HighestWeight) -> frozenset[int]:
    """I_lambda: nodes where (h_i, lambda) is a nonnegative integer."""
    return frozenset(
        i for i, qi in enumerate(lam.q) if qi.denominator == 1 and qi >= 0
    )


def in_parabolic_dominant(
    lam: HighestWeight, g: GCM, c: Sequence[int], nodes: Iterable[int]
) -> bool:
    """mu = lambda - c lies in the parabolic dominant chamber for `nodes`."""
    # (h_i, mu) = q_i - (A c)_i is an integer exactly when q_i is.
    for i in nodes:
        q = lam.q[i]
        if q.denominator != 1 or q.numerator < cartan_pairing(g, c, i):
            return False
    return True
