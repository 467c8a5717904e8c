"""Highest weights, offsets, pairings, integrability.

A weight is always mu = lambda - sum_i c_i alpha_i and is stored as the
offset vector c; lambda itself enters only through its exact rational
pairings q_i = (h_i, lambda).
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from operator import mul

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


def offsets_up_to(n: int, bound: int,
                  caps: Sequence[tuple[Sequence[int], int]] = ()) -> Iterator[Offset]:
    """Offsets c >= 0 of rank n, height <= bound and row . c <= cap for each (row, cap)
    in caps, in the lexicographic order, which puts every c - e_i before c.  The last
    coordinate t is solved, not scanned, from x t <= s, x = row[-1], s = cap - row . prefix."""
    if n == 0:
        if all(s >= 0 for _, s in caps):
            yield ()
        return
    if n == 1:
        low, high = 0, bound
        for (x,), s in caps:
            if x > 0:
                high = min(high, s // x)
            elif x < 0:
                low = max(low, -(s // -x))  # the ceiling of s / x
            elif s < 0:
                return
        yield from ((t,) for t in range(low, high + 1))
        return
    for first in range(bound + 1):
        rest = [(row[1:], s - row[0] * first) for row, s in caps]
        for tail in offsets_up_to(n - 1, bound - first, rest):
            yield (first,) + tail


def neg(c: Sequence[int]) -> tuple[int, ...]:
    return tuple(-x for x in c)


def is_positive(c: Sequence[int]) -> bool:
    """All entries >= 0 and not all zero."""
    return all(x >= 0 for x in c) and any(x != 0 for x in c)


def is_negative(c: Sequence[int]) -> bool:
    return all(x <= 0 for x in c) and any(x != 0 for x in c)


def cartan_pairing(g: GCM, c: Sequence[int], i: int) -> int:
    """(h_i, sum_j c_j alpha_j) = (A c)_i."""
    return sum(map(mul, g.a[i], c))


def pairing(lam: HighestWeight, g: GCM, c: Sequence[int], i: int) -> Fraction:
    """(h_i, lambda - sum_j c_j alpha_j) = q_i - (A c)_i."""
    return lam.q[i] - cartan_pairing(g, c, i)


def integrability_set(lam: HighestWeight) -> frozenset[int]:
    """I_lambda: nodes where (h_i, lambda) is a nonnegative integer."""
    return frozenset(
        i for i, qi in enumerate(lam.q) if qi.denominator == 1 and qi >= 0
    )

