"""Real and imaginary roots up to a height bound: W-orbits at lambda = 0."""

from __future__ import annotations

from .cartan import GCM, components
from .weights import HighestWeight, SignedOffset, offsets_up_to, unit
from .weyl import orbit_truncated


def positive_real_up_to(g: GCM, height: int) -> set[SignedOffset]:
    """All positive real roots of height <= `height`: the orbits of the simple roots.
    At lambda = 0, `reflect_weight` is s_i on the root lattice, and the images
    it drops are those that leave the positive cone."""
    return orbit_truncated(HighestWeight.of([0] * g.n), g, range(g.n),
                           [unit(g.n, i) for i in range(g.n)], height)


def positive_imaginary_up_to(g: GCM, height: int) -> set[SignedOffset]:
    """All positive imaginary roots of height <= `height`: the orbits of K.

    Kac's fundamental set K is the c != 0 with connected support and
    (h_i, c) <= 0 for all i.  Every positive imaginary root descends to K by
    height-lowering reflections (Kac, Infinite dimensional Lie algebras, Thm 5.4).
    """
    fundamental = [c for c in offsets_up_to(g.n, height, [(row, 0) for row in g.a])
                   if any(c) and len(components(g, [i for i, x in enumerate(c) if x])) == 1]
    return orbit_truncated(HighestWeight.of([0] * g.n), g, range(g.n), fundamental, height)
