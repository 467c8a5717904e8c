"""Truncated character series and finite Laurent elements.

A TruncSeries stores integer coefficients on offsets c (meaning e^{lambda - c})
of height <= H.  A LaurentElt stores exact finite-support exponents of either
sign on the root lattice; no truncation.

Products are multiplied out on one additive integer key per exponent,
key(c) = sum of c_k powers[k], so one dict of keys holds an expansion:
- truncated, B = bound + 1: key(c) = ht(c) B^n + sum of c_k B^k.  If c >= 0
  and ht(c) <= bound, each c_k <= bound < B is a digit below the height digit,
  so keys are unique and ht(c) <= bound is the one comparison key < B^(n+1).
- signed, |c_k| <= m, base = 2m + 1: key(c) = sum of c_k base^k.  Each c_k is
  a balanced digit in [-m, m], so keys are unique and |key| < base^n / 2.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import chain
from math import prod
from operator import mul

from .cartan import GCM, is_finite_type
from .errors import BudgetExceeded, Inapplicable
from .roots import positive_real_up_to
from .weights import (
    HighestWeight,
    Offset,
    SignedOffset,
    ht,
    integrability_set,
    is_negative,
    is_positive,
    zero_offset,
)
from .weyl import WEYL_BUDGET, GroupElement, enumerate_group, orbit_walk

Keys = dict[int, int]


def encode(c: Iterable[int], powers: list[int]) -> int:
    return sum(map(mul, c, powers))


def decode(key: int, base: int, n: int, shift: int) -> tuple[int, ...]:
    """The n lowest digits of key in `base`, each in [-shift, base - 1 - shift]."""
    digits = []
    for _ in range(n):
        digits.append((key + shift) % base - shift)
        key = (key - digits[-1]) // base
    return tuple(digits)


def _keys(terms: dict[tuple[int, ...], int], powers: list[int]) -> Keys:
    # Offsets over a smaller bound may share keys, all at or over its limit.
    return {encode(c, powers): v for c, v in terms.items()}


def mul_keys(left: Keys, right: Keys, limit: int) -> Keys:
    """The product of two expansions in keys, kept below `limit`: the right factor
    is walked in increasing key order, and each row stops at the limit."""
    ordered = sorted(right.items())
    out: Keys = {}
    for k1, v1 in left.items():
        room = limit - k1
        for k2, v2 in ordered:
            if k2 >= room:
                break
            k = k1 + k2
            out[k] = out.get(k, 0) + v1 * v2
    return {k: v for k, v in out.items() if v}


def truncated_code(rank: int, bound: int) -> tuple[list[int], int]:
    """powers and limit of the truncated key at `bound`."""
    b = bound + 1
    return [b ** rank + b ** k for k in range(rank)], b ** (rank + 1)


def _series(rank: int, bound: int, parts: Iterable[Keys]) -> TruncSeries:
    """The sum of truncated expansions, decoded at the keys below the limit."""
    total: Keys = {}
    for part in parts:
        for k, v in part.items():
            total[k] = total.get(k, 0) + v
    limit = truncated_code(rank, bound)[1]
    return TruncSeries(rank, bound, {
        decode(k, bound + 1, rank, 0): v for k, v in total.items() if v and k < limit
    })


class TruncSeries:
    """Integer series in e^{-alpha_i}, truncated at total height <= bound."""

    __slots__ = ("rank", "bound", "terms")

    def __init__(self, rank: int, bound: int, terms: dict[Offset, int]):
        self.rank, self.bound, self.terms = rank, bound, terms

    def __mul__(self, other: TruncSeries) -> TruncSeries:
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        bound = min(self.bound, other.bound)
        powers, limit = truncated_code(self.rank, bound)
        return _series(self.rank, bound, [
            mul_keys(_keys(self.terms, powers), _keys(other.terms, powers), limit)
        ])


def _summand_keys(out: Keys, images: Iterable[SignedOffset], powers: list[int],
                  limit: int) -> Keys:
    """out / prod over v in images of (1 - e^{-v}), in truncated keys below `limit`.

    key is additive, and a root v has a key of its sign.  Offsets are measured
    downward from the caller's base: a factor expands to +e^{-k v} (k >= 0) for
    v > 0 and to -e^{k v} (k >= 1) for v < 0, and -k v is again a positive vector.
    """
    for step in (encode(a, powers) for a in images):
        sign, k, step = (1, 0, step) if step > 0 else (-1, -step, -step)
        out = mul_keys(out, dict.fromkeys(range(k, limit, step), sign), limit)
    return out


def weyl_summand(d: Offset, images: Iterable[SignedOffset], bound: int) -> TruncSeries:
    """e^{-d} / prod over v in images of (1 - e^{-v}), as offsets from e^lambda.

    The summand of w over a root set R takes d = lambda - w lambda and the
    images w(beta), beta in R: R = Pi gives the Weyl-group weight sum, and
    R = Phi^+ the per-summand Atiyah-Bott reference the tests check against.
    """
    images = list(images)
    if bad := [v for v in images if not (is_positive(v) or is_negative(v))]:
        raise ValueError(f"{bad[0]} is neither positive nor negative")
    powers, limit = truncated_code(len(d), bound)
    keys = _summand_keys({encode(d, powers): 1}, images, powers, limit)
    return _series(len(d), bound, [keys])


def wkw_sum(lam: HighestWeight, g: GCM, bound: int) -> TruncSeries:
    """Sum of weyl_summand over W_{I_lambda}, exact at heights <= bound."""
    powers, limit = truncated_code(g.n, bound)
    return _series(g.n, bound, (
        _summand_keys({encode(w.displacement, powers): 1}, w.simple_images, powers, limit)
        for w in enumerate_group(lam, g, integrability_set(lam), height=bound)
    ))


def atiyah_bott_sum(lam: HighestWeight, g: GCM, bound: int) -> TruncSeries:
    """Full character of L(lambda) for finite type, dominant integral lambda.

    The Atiyah-Bott sum over W (root multiplicities are 1 in finite type) as one
    Weyl numerator over the Weyl denominator: prod over beta in Phi^+ of
    (1 - e^{-w beta}) is eps(w) e^{-(rho - w rho)} times its value at w = e, so
    the summand of w is eps(w) e^{-D_w} / prod_beta (1 - e^{-beta}), D_w the
    displacement lambda + rho - w(lambda + rho).  The numerator is the height-mode
    `orbit_walk` of offset 0 at lambda + rho, each point signed by the parity of its
    distance l(w); every pairing of lambda + rho is >= 1, so the walk keeps exactly
    the w with ht(D_w) <= bound.  Expansion in e^{-alpha_i} is a ring map and every
    D_w is >= 0, so truncating the quotient at the bound truncates the sum term by
    term, and a root over the bound has the factor 1.
    """
    if not is_finite_type(g):
        raise Inapplicable("character sum requires a finite-type diagram")
    if integrability_set(lam) != frozenset(range(g.n)):
        raise Inapplicable("requires dominant integral highest weight")
    shifted = HighestWeight(tuple(q + 1 for q in lam.q))
    powers, limit = truncated_code(g.n, bound)
    walk, _ = orbit_walk(shifted, g, range(g.n), [zero_offset(g.n)], height=bound)
    numerator = {encode(c, powers): (-1) ** d for c, d in walk.items()}
    roots = sorted(positive_real_up_to(g, bound))
    return _series(g.n, bound, [_summand_keys(numerator, roots, powers, limit)])


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
    # The longest element w0 has no children, so the walk ends at it.
    return list(enumerate_group(lam, g, range(g.n))), pos


class LaurentElt:
    """Exact finite-support element of the group ring of the root lattice."""

    __slots__ = ("rank", "terms")

    def __init__(self, rank: int, terms: dict[SignedOffset, int]):
        self.rank, self.terms = rank, terms

    def __mul__(self, other: LaurentElt) -> LaurentElt:
        m = sum(max(map(abs, chain(*x.terms)), default=0) for x in (self, other))
        powers = [(2 * m + 1) ** k for k in range(self.rank)]
        keys = mul_keys(_keys(self.terms, powers), _keys(other.terms, powers),
                        (2 * m + 1) ** self.rank)
        return LaurentElt(self.rank, {
            decode(k, 2 * m + 1, self.rank, m): v for k, v in keys.items()
        })
