"""Weyl group elements, reflections, and truncated enumeration."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .cartan import GCM, DiagramType, classify, subdiagram
from .errors import CapExceeded, NonIntegralPairing, NotDominantIntegral
from .weights import (
    HighestWeight,
    Offset,
    SignedOffset,
    add,
    cartan_pairing,
    ht,
    is_negative,
    is_positive,
    neg,
    pairing,
    unit,
    zero_offset,
)


@dataclass(frozen=True)
class GroupElement:
    """w in W as (reduced word, images w(alpha_i), displacement lambda - w lambda)."""

    word: tuple[int, ...]
    simple_images: tuple[SignedOffset, ...]
    displacement: Offset

    @property
    def length(self) -> int:
        return len(self.word)

    @property
    def sign(self) -> int:
        return -1 if self.length % 2 else 1

    def apply(self, v: Sequence[int]) -> SignedOffset:
        """Image of a root-lattice vector under w, by linearity."""
        n = len(self.simple_images)
        out = [0] * n
        for j, vj in enumerate(v):
            if vj:
                img = self.simple_images[j]
                for k in range(n):
                    out[k] += vj * img[k]
        return tuple(out)


def identity(n: int) -> GroupElement:
    return GroupElement((), tuple(unit(n, i) for i in range(n)), zero_offset(n))


def reflect(g: GCM, i: int, v: Sequence[int]) -> SignedOffset:
    """s_i on the root lattice: alpha_j -> alpha_j - a_ij alpha_i."""
    out = list(v)
    out[i] -= cartan_pairing(g, v, i)
    return tuple(out)


def reflect_weight(
    lam: HighestWeight, g: GCM, i: int, c: Sequence[int]
) -> Optional[Offset]:
    """Offset of s_i(lambda - c); None marks an image above lambda.

    Raises NonIntegralPairing when (h_i, mu) is not an integer, i.e. the
    reflection leaves lambda - Z Delta.
    """
    p = pairing(lam, g, c, i)
    if p.denominator != 1:
        raise NonIntegralPairing(f"(h_{i}, mu) = {p} not an integer")
    out = list(c)
    out[i] += int(p)
    if out[i] < 0:
        return None
    return tuple(out)


def min_summand_height(lam: HighestWeight, w: GroupElement) -> int:
    """Height of the lowest-order term the summand of w can contribute."""
    h = ht(w.displacement)
    for img in w.simple_images:
        if is_negative(img):
            h += -ht(img)
    return h


def _extend(lam: HighestWeight, g: GCM, w: GroupElement, i: int) -> GroupElement:
    """w s_i with length(w s_i) = length(w) + 1 (caller checks w alpha_i > 0)."""
    n = g.n
    img_i = w.simple_images[i]
    new_images = tuple(
        tuple(w.simple_images[j][k] - g.a[i][j] * img_i[k] for k in range(n))
        for j in range(n)
    )
    qi = lam.q[i]
    if qi.denominator != 1 or qi < 0:
        raise NotDominantIntegral(f"(h_{i}, lambda) = {qi}: cannot extend by s_{i}")
    # qi >= 0 and w alpha_i > 0, so the displacement height cannot fall.
    d = add(w.displacement, tuple(int(qi) * x for x in img_i))
    return GroupElement(w.word + (i,), new_images, d)


def enumerate_group(
    lam: HighestWeight,
    g: GCM,
    nodes: Iterable[int],
    height: Optional[int] = None,
    cap: Optional[int] = None,
) -> Iterator[GroupElement]:
    """Breadth-first stream of W_J, J = nodes, deduplicated.

    Yields every element whose minimal summand height is <= `height`
    (every element of length <= cap when height is None).  Elements are
    produced in length order; dedup key is (simple_images, displacement).
    Raises CapExceeded if the cap is hit while some frontier element is
    still inside the height bound.
    """
    nodes = sorted(nodes)
    if cap is None:
        cap = (10 * height + 64) if height is not None else 64
    e = identity(g.n)
    seen = {(e.simple_images, e.displacement)}
    frontier = [e]
    while frontier:
        live = False
        for w in frontier:
            if height is None or min_summand_height(lam, w) <= height:
                live = True
                yield w
        if not live:
            return
        if frontier[0].length >= cap:
            if height is None:
                return
            raise CapExceeded(
                f"frontier alive at word length {cap}; height bound {height}"
            )
        nxt = []
        for w in frontier:
            for i in nodes:
                if is_positive(w.simple_images[i]):
                    child = _extend(lam, g, w, i)
                    key = (child.simple_images, child.displacement)
                    if key not in seen:
                        seen.add(key)
                        nxt.append(child)
        frontier = nxt


def orbit_truncated(
    lam: HighestWeight,
    g: GCM,
    nodes: Iterable[int],
    c: Offset,
    height: int,
) -> set[Offset]:
    """W_J-orbit of a J-dominant offset, truncated at ht <= height.

    Sound because height is nondecreasing along the weak order from a
    dominant start.
    """
    nodes = list(nodes)
    if ht(c) > height:
        return set()
    out = {tuple(c)}
    frontier = [tuple(c)]
    while frontier:
        nxt = []
        for cur in frontier:
            for i in nodes:
                img = reflect_weight(lam, g, i, cur)
                if img is None or ht(img) > height or img in out:
                    continue
                out.add(img)
                nxt.append(img)
        frontier = nxt
    return out


def stabilizer_is_finite(lam: HighestWeight, g: GCM, nodes: Iterable[int]) -> bool:
    """Whether the stabilizer of lambda in W_J is finite.

    The stabilizer of a J-dominant weight is the standard parabolic on
    J_0 = {i in J : (h_i, lambda) = 0}; it is finite iff the subdiagram
    on J_0 is of finite type throughout.
    """
    j0 = [i for i in nodes if lam.q[i] == 0]
    if not j0:
        return True
    sub = subdiagram(g, j0)
    return all(t is DiagramType.FINITE for _, t in classify(sub))
