"""Truncated character series and finite Laurent elements.

A TruncSeries stores integer coefficients on offsets c (meaning e^{lambda - c})
of height <= H.  A LaurentElt stores exact finite-support exponents of either
sign on the root lattice; no truncation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod
from typing import Iterable

from .cartan import GCM, is_finite_type
from .errors import BudgetExceeded, NotFiniteType, NotIntegrable
from .roots import positive_real_up_to
from .weights import (
    HighestWeight,
    Offset,
    SignedOffset,
    add,
    ht,
    integrability_set,
    is_negative,
    is_positive,
    neg,
    scale,
)
from .weyl import GroupElement, enumerate_group

# Largest finite Weyl group that is listed; each element holds about 1.5 KB.
# E6 (51,840) fits; A8 (362,880) and E7 (2,903,040) do not.
WEYL_BUDGET = 10 ** 5


@dataclass(frozen=True)
class TruncSeries:
    """Integer series in e^{-alpha_i}, truncated at total height <= bound."""

    rank: int
    bound: int
    terms: dict[Offset, int] = field(default_factory=dict)

    def __post_init__(self):
        for c, v in self.terms.items():
            assert v != 0, "zero coefficients must not be stored"
            assert len(c) == self.rank and min(c) >= 0, f"bad offset {c}"
            assert ht(c) <= self.bound, f"offset {c} beyond bound {self.bound}"

    def coeff(self, c: Offset) -> int:
        return self.terms.get(tuple(c), 0)

    def support(self) -> set[Offset]:
        return set(self.terms)

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        return _collect(self.rank, min(self.bound, other.bound), (self, other))

    def __sub__(self, other: "TruncSeries") -> "TruncSeries":
        return self + TruncSeries(
            other.rank, other.bound, {c: -v for c, v in other.terms.items()}
        )

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        bound = min(self.bound, other.bound)
        right = sorted((ht(c), c, v) for c, v in other.terms.items())
        terms: dict[Offset, int] = {}
        for c1, v1 in self.terms.items():
            room = bound - ht(c1)
            for h2, c2, v2 in right:
                if h2 > room:
                    break
                c = add(c1, c2)
                w = terms.get(c, 0) + v1 * v2
                if w:
                    terms[c] = w
                else:
                    terms.pop(c, None)
        return TruncSeries(self.rank, bound, terms)

    def sorted_items(self) -> list[tuple[Offset, int]]:
        return sorted(self.terms.items())


def _collect(rank: int, bound: int, parts: Iterable[TruncSeries]) -> TruncSeries:
    """The sum of `parts` at heights <= bound."""
    terms: dict[Offset, int] = {}
    for part in parts:
        for c, v in part.terms.items():
            if ht(c) <= bound:
                terms[c] = terms.get(c, 0) + v
    return TruncSeries(rank, bound, {c: v for c, v in terms.items() if v})


def geometric_series(v: SignedOffset, bound: int) -> TruncSeries:
    """The highest-weight expansion of (1 - e^{-v})^{-1}, v positive or negative.

    Offsets are measured downward from the caller's base: for v > 0 the
    terms are +e^{-k v} (k >= 0); for v < 0 they are -e^{k v} (k >= 1),
    and -k v is again a positive vector.
    """
    if is_positive(v):
        step, sign, start = v, 1, 0
    elif is_negative(v):
        step, sign, start = neg(v), -1, 1
    else:
        raise ValueError(f"{v} is neither positive nor negative")
    terms: dict[Offset, int] = {}
    k = start
    while ht(scale(k, step)) <= bound:
        terms[scale(k, step)] = sign
        k += 1
    return TruncSeries(len(v), bound, terms)


def weyl_summand(
    d: Offset, images: Iterable[SignedOffset], bound: int
) -> TruncSeries:
    """e^{-d} / prod over v in images of (1 - e^{-v}), as offsets from e^lambda.

    The summand of w over a root set R takes d = lambda - w lambda and the
    images w(beta), beta in R: R = Pi gives the Weyl-group weight sum and
    R = Phi^+ the Atiyah-Bott sum.
    """
    out = TruncSeries(len(d), bound, {tuple(d): 1} if ht(d) <= bound else {})
    for v in images:
        if not out.terms:
            break
        out = out * geometric_series(v, bound)
    return out


def wkw_sum(lam: HighestWeight, g: GCM, bound: int) -> TruncSeries:
    """Sum of weyl_summand over W_{I_lambda}, exact at heights <= bound."""
    group = enumerate_group(lam, g, integrability_set(lam), height=bound)
    return _collect(g.n, bound, (
        weyl_summand(w.displacement, w.simple_images, bound) for w in group
    ))


def atiyah_bott_sum(lam: HighestWeight, g: GCM, bound: int) -> TruncSeries:
    """Full character of L(lambda) for finite type, dominant integral lambda.

    Summands run over all w in W with the product taken over every
    positive root (all root multiplicities are 1 in finite type).
    """
    if not is_finite_type(g):
        raise NotFiniteType("character sum requires a finite-type diagram")
    if integrability_set(lam) != frozenset(range(g.n)):
        raise NotIntegrable("requires dominant integral highest weight")
    elements, pos = finite_weyl_group(lam, g)
    return _collect(g.n, bound, (
        weyl_summand(w.displacement, (w.apply(beta) for beta in pos), bound)
        for w in elements
    ))


def finite_weyl_group(
    lam: HighestWeight, g: GCM
) -> tuple[list[GroupElement], list[SignedOffset]]:
    """All of W for a finite-type g, in length order, and its positive roots.

    Phi^+ comes sorted.  |W| = prod over beta in Phi^+ of (ht beta + 1) / ht beta
    (Macdonald 1972), so BudgetExceeded is raised with the exact count, before
    any element is built, when W has more than WEYL_BUDGET elements.
    """
    # Every coefficient of a positive root of finite type is at most 6 (E8).
    pos = sorted(positive_real_up_to(g, 6 * g.n))
    size = prod(ht(a) + 1 for a in pos) // prod(ht(a) for a in pos)
    if size > WEYL_BUDGET:
        raise BudgetExceeded(f"Weyl group has {size} elements; budget {WEYL_BUDGET}")
    return list(enumerate_group(lam, g, range(g.n), height=None, cap=2 ** 16)), pos


@dataclass(frozen=True)
class LaurentElt:
    """Exact finite-support element of the group ring of the root lattice."""

    rank: int
    terms: dict[SignedOffset, int] = field(default_factory=dict)

    def __mul__(self, other: "LaurentElt") -> "LaurentElt":
        terms: dict[SignedOffset, int] = {}
        for c1, v1 in self.terms.items():
            for c2, v2 in other.terms.items():
                c = add(c1, c2)
                w = terms.get(c, 0) + v1 * v2
                if w:
                    terms[c] = w
                else:
                    terms.pop(c, None)
        return LaurentElt(self.rank, terms)


def laurent_one(rank: int) -> LaurentElt:
    return LaurentElt(rank, {(0,) * rank: 1})


def laurent_product(rank: int, exponents: Iterable[SignedOffset]) -> LaurentElt:
    """Exact expansion of prod (1 - e^{v}) over the given exponents v."""
    out = laurent_one(rank)
    for v in exponents:
        out = out * LaurentElt(rank, {(0,) * rank: 1, tuple(v): -1})
    return out
