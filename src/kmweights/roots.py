"""Real and imaginary roots up to a height bound."""

from __future__ import annotations

import enum

from .cartan import GCM, closure, components
from .weights import SignedOffset, cartan_pairing, ht, is_positive, offsets_up_to, unit
from .weyl import reflect


class RootClass(enum.Enum):
    POSITIVE_REAL = "PositiveReal"
    POSITIVE_IMAGINARY = "PositiveImaginary"
    NOT_A_ROOT = "NotARoot"


def classify_vector(g: GCM, c: SignedOffset) -> RootClass:
    """Classify a nonzero nonnegative vector by reflection descent.

    Repeatedly apply a simple reflection that strictly lowers height.
    Reaching a simple root certifies PositiveReal; leaving the positive
    cone certifies NotARoot.  Stalling inside the fundamental cone (all
    pairings <= 0) certifies PositiveImaginary when the support is
    connected and NotARoot otherwise.  Reflections map roots to roots and
    non-roots to non-roots, so the answer for the stall is the answer for c.
    """
    if not is_positive(c):
        raise ValueError("expected a nonzero vector with nonnegative entries")
    cur = tuple(c)
    while True:
        if ht(cur) == 1:
            return RootClass.POSITIVE_REAL
        descent = -1
        for i in range(g.n):
            if cartan_pairing(g, cur, i) > 0:
                descent = i
                break
        if descent < 0:
            supp = [i for i, x in enumerate(cur) if x]
            if len(components(g, supp)) == 1:
                return RootClass.POSITIVE_IMAGINARY
            return RootClass.NOT_A_ROOT
        cur = reflect(g, descent, cur)
        if cur[descent] < 0:
            return RootClass.NOT_A_ROOT


def positive_real_up_to(g: GCM, height: int) -> set[SignedOffset]:
    """All positive real roots of height <= `height`.

    BFS over simple reflections starting from the simple roots; pruning
    at the height bound is complete because the descent path from any
    real root to a simple root is height-monotone.
    """
    seeds = [unit(g.n, i) for i in range(g.n)] if height >= 1 else []
    return closure(seeds, lambda c: [
        t for i in range(g.n) if is_positive(t := reflect(g, i, c)) and ht(t) <= height
    ])


def positive_imaginary_up_to(g: GCM, height: int) -> set[SignedOffset]:
    """All positive imaginary roots of height <= `height` (full scan)."""
    out: set[SignedOffset] = set()
    for c in offsets_up_to(g.n, height):
        if any(c) and classify_vector(g, c) is RootClass.POSITIVE_IMAGINARY:
            out.add(c)
    return out
