"""Weight sets of simple and parabolic Verma highest-weight modules.

Three independent constructions of wt L(lambda) — integrable-slice union,
parabolic orbit scan, and convex-hull membership by exact LP — plus the
parabolic Verma generalization.
"""

from __future__ import annotations

from collections.abc import Iterable

from .cartan import GCM, closure, components
from .errors import Inapplicable
from .lp import Certificates
from .roots import positive_imaginary_up_to, positive_real_up_to
from .weights import (
    HighestWeight,
    Offset,
    SignedOffset,
    add,
    cartan_pairing,
    ht,
    integrability_set,
    neg,
    offsets_up_to,
    unit,
    zero_offset,
)
from .weyl import levi_nodes, orbit_truncated, orbit_walk, stabilizer_is_finite


class WeightSet:
    """Truncated weight set of a highest-weight module, as offsets."""

    __slots__ = ("members", "complete")

    def __init__(self, members: frozenset[Offset], complete: bool = True):
        self.members, self.complete = members, complete


class HullModel:
    """Generators of conv L(lambda): orbit vertices plus boundary rays.

    Vertices are offsets of w lambda; rays are the weight-space directions
    -w alpha_i for i outside the integrability set.  Generated to reflection
    distance L, so membership answers are sound but only depth-complete.
    `complete` is true when no point lies at distance L + 1, so the
    generators over all of W_J are these and a non-member is certainly outside.

    `certificates` holds the membership LP matrix, built with the model,
    and the exact proofs that earlier `hull_contains` solves left on it.
    """

    __slots__ = ("vertices", "rays", "complete", "certificates")

    def __init__(self, vertices: frozenset[Offset], rays: frozenset[SignedOffset],
                 complete: bool):
        self.vertices, self.rays, self.complete = vertices, rays, complete
        # Columns: one per vertex (with convexity row 1), one per ray.
        # Rows: n coordinate equations, then sum of vertex weights = 1.
        # Ray directions are stored in weight space; offsets grow along -ray.
        verts, rays = sorted(vertices), sorted(rays)
        a = [[v[k] for v in verts] + [-r[k] for r in rays] for k in range(len(verts[0]))]
        a.append([1] * len(verts) + [0] * len(rays))
        self.certificates = Certificates(a)


def wt_integrable(
    lam: HighestWeight, g: GCM, nodes: Iterable[int], bound: int
) -> WeightSet:
    """Weights of the integrable module L_l(lambda) over the Levi on `nodes`.

    The members of wt_parabolic_verma(lambda, J), J = nodes, supported on J:
    s_i, i in J, moves only c_i, so exactly the orbits seeded with b = 0 stay
    on J.  Offsets are full-rank.
    """
    nodes = sorted(nodes)
    return WeightSet(frozenset(c for c in wt_parabolic_verma(lam, g, nodes, bound).members
                               if not any(x for i, x in enumerate(c) if i not in nodes)))


def wt_simple_slice(lam: HighestWeight, g: GCM, bound: int) -> WeightSet:
    """Integrable Slice Decomposition: wt L(lambda) = wt M(lambda, I_lambda)."""
    return wt_parabolic_verma(lam, g, integrability_set(lam), bound)


def wt_simple_orbit(lam: HighestWeight, g: GCM, bound: int) -> WeightSet:
    """Orbit formula: W_{I_lambda} applied to dominant mu <= lambda.

    Requires a finite stabilizer of lambda in W_{I_lambda}.
    """
    ilam = sorted(integrability_set(lam))
    if not stabilizer_is_finite(lam, g):
        raise Inapplicable("lambda has infinite stabilizer in the integrable Weyl subgroup")
    seeds = offsets_up_to(g.n, bound, [(g.a[j], lam.q[j].numerator) for j in ilam])
    return WeightSet(frozenset(orbit_truncated(lam, g, ilam, seeds, bound)))


def hull_generators(lam: HighestWeight, g: GCM, depth: int) -> HullModel:
    """Ray Decomposition generators on J = I_lambda to reflection distance `depth`.

    Two depth-mode `orbit_walk`s.  Vertices: the ball about offset 0 at lambda.
    Rays: minus the ball about the alpha_i, i outside J, at lambda = 0 (coordinate
    i stays 1: disjoint orbits).  A point's distance is the least length of a w in
    W_J that reaches it; the model is complete when both walks are whole."""
    nodes = sorted(integrability_set(lam))
    vertices, whole = orbit_walk(lam, g, nodes, [zero_offset(g.n)], depth=depth)
    roots, rays_whole = orbit_walk(HighestWeight.of([0] * g.n), g, nodes, [
        unit(g.n, i) for i in range(g.n) if i not in nodes], depth=depth)
    return HullModel(frozenset(vertices), frozenset(map(neg, roots)), whole and rays_whole)


def hull_model(lam: HighestWeight, g: GCM, bound: int, depth: int | None) -> HullModel:
    """The hull model of lambda on I_lambda for heights <= bound.

    Reflection distance `depth`, or 2 * bound + 4 when it is None.
    """
    return hull_generators(lam, g, 2 * bound + 4 if depth is None else depth)


def hull_contains(model: HullModel, c: Offset) -> bool:
    """Exact LP membership of the offset c in conv(vertices) + cone(rays).

    True is definitive; False only means not certifiable at this depth,
    unless the model is complete.  A Farkas vector or feasible basis that
    an earlier call on the same model proved, and that checks exactly for
    c, decides c without a new LP.
    """
    return model.certificates.decide([*c, 1])


def hull_weight_set(model: HullModel, bound: int) -> WeightSet:
    """Offsets of height <= bound that `model` certifies.

    The model's LP has rank + 1 rows.  The set is flagged incomplete unless
    the model has every generator.
    """
    n = len(model.certificates.a) - 1
    members = frozenset(c for c in offsets_up_to(n, bound) if hull_contains(model, c))
    return WeightSet(members, model.complete)


def wt_simple_hull(lam: HighestWeight, g: GCM, bound: int) -> WeightSet:
    """Hull formula: offsets of height <= bound inside conv L(lambda).

    Candidates already satisfy mu <= lambda by construction.  One model
    from `hull_model` decides every candidate; its certificate caches
    leave an LP only for the candidates no earlier proof settles.
    """
    return hull_weight_set(hull_model(lam, g, bound, None), bound)


def wt_parabolic_verma(
    lam: HighestWeight, g: GCM, nodes: Iterable[int], bound: int
) -> WeightSet:
    """Weights of the parabolic Verma module M(lambda, J), J = nodes.

    Slice construction with J in place of I_lambda: the union over b supported
    off J of b + wt_integrable(lambda - b), as one W_J-closure at lambda of the
    seeds c of ht <= bound that are J-dominant and nondegenerate against
    lambda - b, b = c off J (each component of supp(c) in J meets an i with
    (h_i, lambda - b) != 0).  s_i, i in J, moves only c_i, so a W_J-orbit is
    b plus the orbit of c - b at lambda - b.  The nondegeneracy test reads only b
    and supp(c) in J, so it is decided once per such pair.
    Raises Inapplicable unless J lies in the integrability set.
    """
    nodes = levi_nodes(lam, nodes)
    seeds, nondegenerate = [], {}
    for c in offsets_up_to(g.n, bound, [(g.a[j], lam.q[j].numerator) for j in nodes]):
        b = tuple(0 if i in nodes else x for i, x in enumerate(c))
        key = b, tuple(i for i in nodes if c[i])
        if key not in nondegenerate:
            nondegenerate[key] = all(
                any(lam.q[i].numerator != cartan_pairing(g, b, i) for i in comp)
                for comp in components(g, key[1]))
        if nondegenerate[key]:
            seeds.append(c)
    return WeightSet(frozenset(orbit_truncated(lam, g, nodes, seeds, bound)))


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
    # All Z>=0-combinations of the lowering roots up to the height bound.
    cone = closure([zero_offset(g.n)], lambda c: [
        u for beta in lowering if ht(u := add(c, beta)) <= bound
    ])
    levi = wt_integrable(lam, g, nodes, bound)
    members: set[Offset] = set()
    for cu in cone:
        room = bound - ht(cu)
        for cl in levi.members:
            if ht(cl) <= room:
                members.add(add(cu, cl))
    return WeightSet(frozenset(members))
