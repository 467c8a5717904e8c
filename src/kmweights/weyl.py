"""Weyl group elements, reflections, and truncated enumeration."""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence

from .cartan import GCM, is_finite_type
from .errors import BudgetExceeded, Inapplicable
from .weights import (
    HighestWeight,
    Offset,
    add,
    cartan_pairing,
    ht,
    is_negative,
    is_positive,
    unit,
    zero_offset,
)

# Most Weyl group elements (about 1.5 KB each) one enumeration builds, or points (n
# ints) one orbit_walk keeps, whatever its mode.  E6 (51,840) fits; A8 (362,880) and
# E7 (2,903,040) do not.
WEYL_BUDGET = 10 ** 5


class GroupElement(namedtuple("GroupElement", "word simple_images displacement")):
    """w in W as (reduced word, images w(alpha_i), displacement lambda - w lambda)."""

    __slots__ = ()

    @property
    def length(self) -> int:
        return len(self.word)


def identity(n: int) -> GroupElement:
    return GroupElement((), tuple(unit(n, i) for i in range(n)), zero_offset(n))


def reflect_weight(lam: HighestWeight, g: GCM, i: int, c: Sequence[int]) -> Offset | None:
    """Offset of s_i(lambda - c), or None when it is not lambda - c' with c' >= 0.

    None marks an image above lambda or a non-integral (h_i, lambda - c).
    """
    q = lam.q[i]
    out = list(c)
    out[i] += q.numerator - cartan_pairing(g, c, i)
    return tuple(out) if q.denominator == 1 and out[i] >= 0 else None


def levi_nodes(lam: HighestWeight, nodes: Iterable[int]) -> list[int]:
    """J = nodes sorted, checked to lie in I_lambda, so that W_J acts on lambda - Q_+."""
    nodes = sorted(nodes)
    for i in nodes:
        if lam.q[i].denominator != 1 or lam.q[i] < 0:
            raise Inapplicable(f"(h_{i}, lambda) = {lam.q[i]}")
    return nodes


def min_summand_height(w: GroupElement) -> int:
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
    # q_i >= 0 (levi_nodes) and w alpha_i > 0, so the displacement height cannot fall.
    d = add(w.displacement, tuple(lam.q[i].numerator * x for x in img_i))
    return GroupElement(w.word + (i,), new_images, d)


def enumerate_group(
    lam: HighestWeight, g: GCM, nodes: Iterable[int], height: int | None = None
) -> Iterator[GroupElement]:
    """Breadth-first stream of W_J, J = nodes, each element built once.

    Yields, in length order, the elements whose minimal summand height is <= `height`
    (all of W_J when height is None: a caller that wants a prefix stops reading), and
    stops after the first length with none of them: a longer element inside the bound
    is then missed.  For finite W_J its summands cancel below the bound;
    tests/test_series.py checks wkw_sum against all of W_J.  w != e is built only from
    its parent w s_d, d its largest descent in J (w alpha_d < 0), so w.word[:-1] is the
    parent's word.  Raises BudgetExceeded once element WEYL_BUDGET + 1 is built, and
    Inapplicable, before the identity, unless J lies in I_lambda.
    """
    nodes = levi_nodes(lam, nodes)
    frontier = [identity(g.n)]
    built = 1
    while frontier:
        live = False
        for w in frontier:
            if height is None or min_summand_height(w) <= height:
                live = True
                yield w
        if not live:
            return
        nxt = []
        for w in frontier:
            for i in nodes:
                if is_positive(w.simple_images[i]):
                    child = _extend(lam, g, w, i)
                    if all(j <= i or is_positive(child.simple_images[j]) for j in nodes):
                        nxt.append(child)
                        built += 1
                        if built > WEYL_BUDGET:
                            raise BudgetExceeded(
                                f"{built} Weyl group elements by word length "
                                f"{child.length}; budget {WEYL_BUDGET}"
                            )
        frontier = nxt


def orbit_walk(lam: HighestWeight, g: GCM, nodes: Iterable[int], seeds: Iterable[Offset],
               height: int | None = None, depth: int | None = None
               ) -> tuple[dict[Offset, int], bool]:
    """W_J-orbits of `seeds`, J = nodes, by `reflect_weight` at lambda: each point's
    reflection distance from the seeds, and whether the walk is whole.

    One breadth-first queue.  Points (seeds included) of ht > `height` are dropped,
    which loses nothing when the seeds are J-dominant (height is nondecreasing along
    the weak order from a dominant start) or, at lambda = 0, Pi or K (every positive
    root descends to a seed by height-lowering reflections).  The walk stops, not
    whole, once distance `depth` + 1 would add a point.  From offset 0 at a lambda
    with every (h_i, lambda) >= 1, i in J, each point is lambda - w lambda for one w
    in W_J, at distance l(w).  Raises BudgetExceeded at point WEYL_BUDGET + 1, and
    Inapplicable unless J lies in I_lambda."""
    nodes = levi_nodes(lam, nodes)
    dist = dict.fromkeys((tuple(c) for c in seeds if height is None or ht(c) <= height), 0)
    queue = list(dist)
    for c in queue:  # the loop also visits what it appends
        for i in nodes:
            img = reflect_weight(lam, g, i, c)
            if img is None or img in dist or (height is not None and ht(img) > height):
                continue
            if dist[c] == depth:  # breadth-first: the whole ball is in dist
                return dist, False
            dist[img] = dist[c] + 1
            queue.append(img)
            if len(dist) > WEYL_BUDGET:
                raise BudgetExceeded(f"{len(dist)} points by reflection "
                                     f"distance {dist[img]}; budget {WEYL_BUDGET}")
    return dist, True


def orbit_truncated(lam: HighestWeight, g: GCM, nodes: Iterable[int], seeds: Iterable[Offset],
                    height: int) -> set[Offset]:
    """The points of the height-mode `orbit_walk`."""
    return set(orbit_walk(lam, g, nodes, seeds, height=height)[0])


def stabilizer_is_finite(lam: HighestWeight, g: GCM) -> bool:
    """Whether the stabilizer of lambda in W_{I_lambda} is finite.

    The stabilizer of an I_lambda-dominant weight is the standard parabolic
    on J_0 = {i : (h_i, lambda) = 0}, a subset of I_lambda; it is finite iff
    the diagram on J_0 is of finite type throughout.
    """
    return is_finite_type(g, [i for i, q in enumerate(lam.q) if q == 0])
