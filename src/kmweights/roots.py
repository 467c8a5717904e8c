"""Real and imaginary roots up to a height bound."""

from __future__ import annotations

from .cartan import GCM, closure, components
from .weights import SignedOffset, cartan_pairing, ht, is_positive, offsets_up_to, unit
from .weyl import reflect


def _orbits_up_to(g: GCM, seeds: list[SignedOffset], height: int) -> set[SignedOffset]:
    """Positive images of `seeds` under simple reflections, of ht <= height.  This
    holds every root of ht <= height whose height-lowering descent ends in a seed."""
    return closure(seeds, lambda c: [
        t for i in range(g.n) if is_positive(t := reflect(g, i, c)) and ht(t) <= height
    ])


def positive_real_up_to(g: GCM, height: int) -> set[SignedOffset]:
    """All positive real roots of height <= `height`: the orbits of the simple roots."""
    return _orbits_up_to(g, [unit(g.n, i) for i in range(g.n)] if height >= 1 else [], height)


def positive_imaginary_up_to(g: GCM, height: int) -> set[SignedOffset]:
    """All positive imaginary roots of height <= `height`: the orbits of K.

    Kac's fundamental set K is the c != 0 with connected support and
    (h_i, c) <= 0 for all i.  Every positive imaginary root descends to K by
    height-lowering reflections (Kac, Infinite dimensional Lie algebras, Thm 5.4).
    """
    fundamental = [c for c in offsets_up_to(g.n, height) if any(c)
                   and all(cartan_pairing(g, c, i) <= 0 for i in range(g.n))
                   and len(components(g, [i for i, x in enumerate(c) if x])) == 1]
    return _orbits_up_to(g, fundamental, height)
