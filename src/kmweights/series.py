"""Truncated character series and finite Laurent elements.

A TruncSeries stores integer coefficients on offsets c (meaning e^{lambda - c})
of height <= H.  A LaurentElt stores exact finite-support exponents of either
sign on the root lattice; no truncation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .cartan import GCM, is_finite_type
from .errors import NotFiniteType, NotIntegrable
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
        bound = min(self.bound, other.bound)
        terms: dict[Offset, int] = {}
        for src in (self.terms, other.terms):
            for c, v in src.items():
                if ht(c) <= bound:
                    w = terms.get(c, 0) + v
                    if w:
                        terms[c] = w
                    else:
                        terms.pop(c, None)
        return TruncSeries(self.rank, bound, terms)

    def __sub__(self, other: "TruncSeries") -> "TruncSeries":
        return self + TruncSeries(
            other.rank, other.bound, {c: -v for c, v in other.terms.items()}
        )

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        bound = min(self.bound, other.bound)
        terms: dict[Offset, int] = {}
        for c1, v1 in self.terms.items():
            h1 = ht(c1)
            if h1 > bound:
                continue
            for c2, v2 in other.terms.items():
                if h1 + ht(c2) > bound:
                    continue
                c = add(c1, c2)
                w = terms.get(c, 0) + v1 * v2
                if w:
                    terms[c] = w
                else:
                    terms.pop(c, None)
        return TruncSeries(self.rank, bound, terms)

    def sorted_items(self) -> list[tuple[Offset, int]]:
        return sorted(self.terms.items())


def series_monomial(c: Offset, bound: int) -> TruncSeries:
    if ht(c) > bound:
        return TruncSeries(len(c), bound, {})
    return TruncSeries(len(c), bound, {tuple(c): 1})


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
    lam: HighestWeight, g: GCM, w: GroupElement, bound: int
) -> TruncSeries:
    """The term w e^lambda / prod_i (1 - e^{-alpha_i}), rebased to e^lambda."""
    out = series_monomial(w.displacement, bound)
    for i in range(g.n):
        if not out.terms:
            break
        out = out * geometric_series(w.simple_images[i], bound)
    return out


def wkw_sum(lam: HighestWeight, g: GCM, bound: int) -> TruncSeries:
    """Sum of weyl_summand over W_{I_lambda}, exact at heights <= bound."""
    ilam = integrability_set(lam)
    out = TruncSeries(g.n, bound, {})
    for w in enumerate_group(lam, g, ilam, height=bound):
        out = out + weyl_summand(lam, g, w, bound)
    return out


def atiyah_bott_sum(lam: HighestWeight, g: GCM, bound: int) -> TruncSeries:
    """Full character of L(lambda) for finite type, dominant integral lambda.

    Summands run over all w in W with the product taken over every
    positive root (all root multiplicities are 1 in finite type).
    """
    if not is_finite_type(g):
        raise NotFiniteType("character sum requires a finite-type diagram")
    if integrability_set(lam) != frozenset(range(g.n)):
        raise NotIntegrable("requires dominant integral highest weight")
    elements, pos_roots = finite_weyl_group(lam, g)
    out = TruncSeries(g.n, bound, {})
    for w in elements:
        term = series_monomial(w.displacement, bound)
        for beta in pos_roots:
            if not term.terms:
                break
            term = term * geometric_series(w.apply(beta), bound)
        out = out + term
    return out


def finite_weyl_group(
    lam: HighestWeight, g: GCM
) -> tuple[list[GroupElement], list[SignedOffset]]:
    """All of W for a finite-type g, in length order, and its positive roots.

    Every real root is some w(alpha_i), so the positive images w(alpha_i)
    are exactly Phi^+; they come sorted.
    """
    elements = list(enumerate_group(lam, g, range(g.n), height=None, cap=2 ** 16))
    pos = {a for w in elements for a in w.simple_images if is_positive(a)}
    return elements, sorted(pos)


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
