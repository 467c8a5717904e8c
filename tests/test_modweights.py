from fractions import Fraction
from itertools import combinations

import pytest

from kmweights.cartan import parse_gcm
from kmweights.errors import InfiniteStabilizer, NotDominantIntegral
from kmweights.modweights import (
    hull_contains,
    hull_generators,
    wt_integrable,
    wt_parabolic_verma,
    wt_parabolic_verma_induced,
    wt_simple_hull,
    wt_simple_orbit,
    wt_simple_slice,
)
from kmweights.weights import HighestWeight, ht, integrability_set

A1 = parse_gcm([[2]])
A2 = parse_gcm([[2, -1], [-1, 2]])
AFF = parse_gcm([[2, -2], [-2, 2]])


def test_integrable_sl2_string():
    ws = wt_integrable(HighestWeight.of([3]), A1, [0], 10)
    assert ws.sorted_members() == [(0,), (1,), (2,), (3,)]


def test_integrable_trivial_module():
    ws = wt_integrable(HighestWeight.of([0, 0]), A2, [0, 1], 8)
    assert ws.members == {(0, 0)}


def test_integrable_affine_trivial_excludes_delta():
    ws = wt_integrable(HighestWeight.of([0, 0]), AFF, [0, 1], 8)
    assert ws.members == {(0, 0)}
    assert (1, 1) not in ws.members


def test_integrable_rejects_nonintegral():
    with pytest.raises(NotDominantIntegral):
        wt_integrable(HighestWeight.of([Fraction(-3, 2)]), A1, [0], 4)


def test_slice_verma_line():
    ws = wt_simple_slice(HighestWeight.of([Fraction(-3, 2)]), A1, 7)
    assert ws.sorted_members() == [(k,) for k in range(8)]


def test_slice_adjoint():
    ws = wt_simple_slice(HighestWeight.of([1, 1]), A2, 10)
    assert len(ws.members) == 7
    assert (1, 1) in ws.members and (2, 0) not in ws.members


def test_slice_always_contains_zero_offset():
    for q in [[3], [0], [Fraction(-3, 2)]]:
        assert (0,) * 1 in wt_simple_slice(HighestWeight.of(q), A1, 5).members


def test_slice_rays_off_integrable_directions():
    # lambda with 2 not in I_lambda: the -alpha_2 ray stays in the set.
    g = parse_gcm([[2, -1, 0], [-1, 2, -1], [0, -1, 2]])
    lam = HighestWeight.of([2, 0, Fraction(-1, 2)])
    ws = wt_simple_slice(lam, g, 6)
    for k in range(7):
        assert (0, 0, k) in ws.members


def test_orbit_matches_slice_sl2():
    lam = HighestWeight.of([3])
    assert (
        wt_simple_orbit(lam, A1, 10).members
        == wt_simple_slice(lam, A1, 10).members
    )


def test_orbit_infinite_stabilizer_refused():
    with pytest.raises(InfiniteStabilizer):
        wt_simple_orbit(HighestWeight.of([0, 0]), AFF, 6)


def test_orbit_matches_slice_partially_integrable():
    lam = HighestWeight.of([1, Fraction(-7, 2)])
    assert (
        wt_simple_orbit(lam, A2, 8).members == wt_simple_slice(lam, A2, 8).members
    )


def test_hull_generators_sl2_segment():
    model = hull_generators(HighestWeight.of([3]), A1, [0], 2)
    assert model.vertices == {(0,), (3,)}
    assert model.rays == frozenset()


def test_hull_generators_verma_cone():
    model = hull_generators(HighestWeight.of([Fraction(-3, 2)]), A1, [], 2)
    assert model.vertices == {(0,)}
    assert model.rays == {(-1,)}


def test_hull_generators_vertices_replay():
    # Every vertex must be a genuine orbit point of lambda.
    lam = HighestWeight.of([1, 1])
    model = hull_generators(lam, A2, [0, 1], 6)
    orbit = wt_simple_orbit(lam, A2, 12)
    assert model.vertices <= orbit.members


def test_hull_contains_lambda():
    model = hull_generators(HighestWeight.of([3]), A1, [0], 2)
    assert hull_contains(model, (0,))


def test_hull_contains_segment_interior_and_exterior():
    model = hull_generators(HighestWeight.of([3]), A1, [0], 4)
    assert hull_contains(model, (1,))
    assert not hull_contains(model, (4,))


def test_hull_set_sl2():
    ws = wt_simple_hull(HighestWeight.of([3]), A1, 10, 2)
    assert ws.sorted_members() == [(0,), (1,), (2,), (3,)]


def test_hull_excludes_outside_adjoint():
    ws = wt_simple_hull(HighestWeight.of([1, 1]), A2, 4)
    assert (2, 0) not in ws.members


def test_parabolic_full_integrability_is_slice():
    lam = HighestWeight.of([1, Fraction(-7, 2)])
    il = sorted(integrability_set(lam))
    assert (
        wt_parabolic_verma(lam, A2, il, 8).members
        == wt_simple_slice(lam, A2, 8).members
    )


def test_parabolic_empty_is_verma_cone():
    lam = HighestWeight.of([1, 1])
    ws = wt_parabolic_verma(lam, A2, [], 4)
    assert ws.members == {(i, j) for i in range(5) for j in range(5) if i + j <= 4}


def test_parabolic_strictly_between():
    lam = HighestWeight.of([1, 1])
    empty = wt_parabolic_verma(lam, A2, [], 4).members
    half = wt_parabolic_verma(lam, A2, [0], 4).members
    full = wt_parabolic_verma(lam, A2, [0, 1], 4).members
    assert full < half < empty


def test_parabolic_monotone_in_integrability():
    lam = HighestWeight.of([2, 1])
    g = parse_gcm([[2, -1], [-2, 2]])
    sets = {
        J: wt_parabolic_verma(lam, g, list(J), 6).members
        for r in range(3)
        for J in combinations([0, 1], r)
    }
    for j1, s1 in sets.items():
        for j2, s2 in sets.items():
            if set(j1) <= set(j2):
                assert s2 <= s1


def test_parabolic_induction_cross_check():
    lam = HighestWeight.of([1, 0])
    for g in (A2, AFF):
        il = sorted(integrability_set(lam))
        for r in range(len(il) + 1):
            for J in combinations(il, r):
                a = wt_parabolic_verma(lam, g, list(J), 6).members
                b = wt_parabolic_verma_induced(lam, g, list(J), 6).members
                assert a == b


def test_hull_consistency_members_certify():
    lam = HighestWeight.of([2, Fraction(-1, 3)])
    g = parse_gcm([[2, -1], [-3, 2]])
    H = 6
    ws = wt_simple_slice(lam, g, H)
    model = hull_generators(lam, g, sorted(integrability_set(lam)), 2 * H + 4)
    for c in ws.members:
        assert hull_contains(model, c)


@pytest.mark.parametrize(
    "q,nodes,depth,complete",
    [
        ([3], [0], 1, True),  # W = {1, s}: nothing longer than s
        ([3], [0], 0, False),
        ([Fraction(-3, 2)], [], 0, True),  # trivial W_J
        ([1, 1], [0, 1], 3, True),  # longest element of W(A2) has length 3
        ([1, 1], [0, 1], 2, False),
    ],
)
def test_hull_model_complete_only_when_w_j_exhausted(q, nodes, depth, complete):
    g = A1 if len(q) == 1 else A2
    assert hull_generators(HighestWeight.of(q), g, nodes, depth).complete is complete

