"""Weight sets of simple and parabolic Verma highest-weight modules.

Three independent constructions of wt L(lambda) — integrable-slice union,
parabolic orbit scan, and convex-hull membership by exact LP — plus the
parabolic Verma generalization.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Iterable, Iterator, Optional, Sequence

from .cartan import GCM
from .errors import InfiniteStabilizer, NotDominantIntegral
from .lp import Certificates, Proof, feasible
from .roots import positive_imaginary_up_to, positive_real_up_to
from .weights import (
    HighestWeight,
    Offset,
    SignedOffset,
    add,
    ht,
    in_parabolic_dominant,
    integrability_set,
    is_positive,
    neg,
    zero_offset,
)
from .weyl import enumerate_group, orbit_truncated, stabilizer_is_finite


@dataclass(frozen=True)
class WeightSet:
    """Truncated weight set of a highest-weight module, as offsets."""

    bound: int
    members: frozenset[Offset]
    method: str
    complete: bool = True

    def sorted_members(self) -> list[Offset]:
        return sorted(self.members)

    def __contains__(self, c: Offset) -> bool:
        return tuple(c) in self.members


@dataclass(frozen=True)
class HullModel:
    """Generators of conv L(lambda): orbit vertices plus boundary rays.

    Vertices are offsets of w lambda; rays are the weight-space directions
    -w alpha_i for i outside the integrability set.  Generated to Weyl-word
    depth L, so membership answers are sound but only depth-complete.
    `complete` is true when W_J has no element longer than L, so the
    generators are all of them and a non-member is certainly outside.

    `certificates` holds the membership LP matrix, built once per model,
    and the exact proofs that earlier `hull_contains` solves left on it.
    """

    vertices: frozenset[Offset]
    rays: frozenset[SignedOffset]
    depth: int
    complete: bool

    @cached_property
    def certificates(self) -> Certificates:
        # Columns: one per vertex (with convexity row 1), one per ray.
        # Rows: n coordinate equations, then sum of vertex weights = 1.
        # Ray directions are stored in weight space; offsets grow along -ray.
        verts = sorted(self.vertices)
        rays = sorted(self.rays)
        n = len(verts[0])
        a = [[v[k] for v in verts] + [-r[k] for r in rays] for k in range(n)]
        a.append([1] * len(verts) + [0] * len(rays))
        return Certificates(a)


def _offsets_up_to(n: int, bound: int) -> Iterator[Offset]:
    if n == 0:
        yield ()
        return
    for first in range(bound + 1):
        for rest in _offsets_up_to(n - 1, bound - first):
            yield (first,) + rest


def _support_components(g: GCM, supp: Sequence[int]) -> list[list[int]]:
    supp = list(supp)
    out = []
    left = set(supp)
    while left:
        start = min(left)
        comp = {start}
        stack = [start]
        while stack:
            i = stack.pop()
            for j in g.neighbors(i):
                if j in left and j not in comp:
                    comp.add(j)
                    stack.append(j)
        left -= comp
        out.append(sorted(comp))
    return out


def _nondegenerate(lam: HighestWeight, g: GCM, c: Offset) -> bool:
    """Every connected component of supp(c) meets a node with (h_i, lambda) != 0."""
    supp = [i for i, x in enumerate(c) if x != 0]
    return all(
        any(lam.q[i] != 0 for i in comp) for comp in _support_components(g, supp)
    )


def wt_integrable(
    lam: HighestWeight, g: GCM, nodes: Iterable[int], bound: int
) -> WeightSet:
    """Weights of the integrable module L_l(lambda) over the Levi on `nodes`.

    W_J-orbits of the J-dominant mu <= lambda whose offset is nondegenerate;
    offsets are full-rank but supported on J.
    """
    nodes = sorted(nodes)
    for i in nodes:
        qi = lam.q[i]
        if qi.denominator != 1 or qi < 0:
            raise NotDominantIntegral(f"(h_{i}, lambda) = {qi}")
    members: set[Offset] = set()
    node_set = set(nodes)
    for c in _offsets_up_to(g.n, bound):
        if any(c[i] for i in range(g.n) if i not in node_set):
            continue
        if not in_parabolic_dominant(lam, g, c, nodes):
            continue
        if not _nondegenerate(lam, g, c):
            continue
        members |= orbit_truncated(lam, g, nodes, c, bound)
    return WeightSet(bound, frozenset(members), "integrable")


def _shifted(lam: HighestWeight, g: GCM, b: Offset) -> HighestWeight:
    """Pairings of lambda - sum b_i alpha_i."""
    return HighestWeight(
        tuple(
            lam.q[i] - sum(g.a[i][j] * b[j] for j in range(g.n)) for i in range(g.n)
        )
    )


def _slice_union(
    lam: HighestWeight, g: GCM, nodes: Sequence[int], bound: int
) -> set[Offset]:
    """Union over b supported off `nodes` of b + wt_integrable(lambda - b)."""
    members: set[Offset] = set()
    for b in _offsets_up_to(g.n, bound):
        if any(b[i] for i in nodes):
            continue
        inner = wt_integrable(_shifted(lam, g, b), g, nodes, bound - ht(b))
        for c in inner.members:
            members.add(add(b, c))
    return members


def wt_simple_slice(lam: HighestWeight, g: GCM, bound: int) -> WeightSet:
    """Integrable Slice Decomposition of wt L(lambda)."""
    ilam = sorted(integrability_set(lam))
    return WeightSet(bound, frozenset(_slice_union(lam, g, ilam, bound)), "slice")


def wt_simple_orbit(lam: HighestWeight, g: GCM, bound: int) -> WeightSet:
    """Orbit formula: W_{I_lambda} applied to dominant mu <= lambda.

    Requires a finite stabilizer of lambda in W_{I_lambda}.
    """
    ilam = sorted(integrability_set(lam))
    if not stabilizer_is_finite(lam, g, ilam):
        raise InfiniteStabilizer(
            "lambda has infinite stabilizer in the integrable Weyl subgroup"
        )
    members: set[Offset] = set()
    for c in _offsets_up_to(g.n, bound):
        if in_parabolic_dominant(lam, g, c, ilam):
            members |= orbit_truncated(lam, g, ilam, c, bound)
    return WeightSet(bound, frozenset(members), "orbit")


def hull_generators(
    lam: HighestWeight, g: GCM, nodes: Iterable[int], depth: int
) -> HullModel:
    """Ray Decomposition generators to Weyl-word depth `depth`."""
    nodes = sorted(nodes)
    outside = [i for i in range(g.n) if i not in set(nodes)]
    vertices: set[Offset] = set()
    rays: set[SignedOffset] = set()
    complete = True
    for w in enumerate_group(lam, g, nodes, height=None, cap=depth):
        vertices.add(w.displacement)
        for i in outside:
            rays.add(neg(w.apply(tuple(1 if j == i else 0 for j in range(g.n)))))
        # w s_i is longer than w exactly when w alpha_i > 0.
        if w.length == depth and any(is_positive(w.simple_images[i]) for i in nodes):
            complete = False
    return HullModel(frozenset(vertices), frozenset(rays), depth, complete)


def hull_contains(model: HullModel, c: Offset) -> bool:
    """Exact LP membership of the offset c in conv(vertices) + cone(rays).

    True is definitive; False only means not certifiable at this depth,
    unless the model is complete.  A Farkas vector or feasible basis that
    an earlier call on the same model proved, and that checks exactly for
    c, decides c without a new LP.
    """
    certs = model.certificates
    b = [Fraction(x) for x in c] + [Fraction(1)]
    known = certs.decide(b)
    if known is None:
        proof = Proof()
        known = feasible(certs.a, b, proof) is not None
        certs.learn(b, proof)
    return known


def wt_simple_hull(
    lam: HighestWeight, g: GCM, bound: int, depth: Optional[int] = None
) -> WeightSet:
    """Hull formula: offsets of height <= bound inside conv L(lambda).

    Candidates already satisfy mu <= lambda by construction.  One model
    at Weyl-word depth `depth` (default 2 * bound + 4) decides every
    candidate; its certificate caches leave an LP only for the candidates
    no earlier proof settles.  The set is flagged incomplete unless the
    model has every generator.
    """
    if depth is None:
        depth = 2 * bound + 4
    model = hull_generators(lam, g, integrability_set(lam), depth)
    members = frozenset(c for c in _offsets_up_to(g.n, bound) if hull_contains(model, c))
    return WeightSet(bound, members, "hull", model.complete)


def wt_parabolic_verma(
    lam: HighestWeight, g: GCM, nodes: Iterable[int], bound: int
) -> WeightSet:
    """Weights of the parabolic Verma module M(lambda, J), J = nodes.

    Slice construction with J in place of I_lambda; J must be contained in
    the integrability set and lambda must be dominant integral on J.
    """
    nodes = sorted(nodes)
    for i in nodes:
        qi = lam.q[i]
        if qi.denominator != 1 or qi < 0:
            raise NotDominantIntegral(f"(h_{i}, lambda) = {qi}")
    return WeightSet(bound, frozenset(_slice_union(lam, g, nodes, bound)), "pverma")


def wt_parabolic_verma_induced(
    lam: HighestWeight, g: GCM, nodes: Iterable[int], bound: int
) -> WeightSet:
    """Independent construction of wt M(lambda, J) by parabolic induction.

    wt L_l(lambda) on J, lowered by arbitrary nonnegative combinations of
    positive roots whose support meets the complement of J.
    """
    nodes = sorted(nodes)
    node_set = set(nodes)
    pos = positive_real_up_to(g, bound) | positive_imaginary_up_to(g, bound)
    lowering = sorted(
        beta
        for beta in pos
        if any(beta[i] for i in range(g.n) if i not in node_set)
    )
    # All Z>=0-combinations of the lowering roots, by height DP.
    cone: set[Offset] = {zero_offset(g.n)}
    for beta in lowering:
        grown = set(cone)
        frontier = set(cone)
        while frontier:
            nxt = set()
            for c in frontier:
                u = add(c, beta)
                if ht(u) <= bound and u not in grown:
                    grown.add(u)
                    nxt.add(u)
            frontier = nxt
        cone = grown
    levi = wt_integrable(lam, g, nodes, bound)
    members: set[Offset] = set()
    for cu in cone:
        room = bound - ht(cu)
        for cl in levi.members:
            if ht(cl) <= room:
                members.add(add(cu, cl))
    return WeightSet(bound, frozenset(members), "pverma-induced")
