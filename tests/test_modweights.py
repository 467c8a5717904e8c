from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kmweights import lp
from kmweights.cartan import parse_gcm
from kmweights.errors import BudgetExceeded, Inapplicable
from kmweights.modweights import (
    hull_contains,
    hull_generators,
    hull_model,
    hull_weight_set,
    wt_integrable,
    wt_parabolic_verma,
    wt_parabolic_verma_induced,
    wt_simple_hull,
    wt_simple_orbit,
    wt_simple_slice,
)
from kmweights.weights import (
    HighestWeight,
    add,
    ht,
    integrability_set,
    offsets_up_to,
    pairing,
)
from kmweights.weyl import stabilizer_is_finite

from conftest import PAIRINGS, hull_generators_by_elements, small_gcms, small_gcms_and_weights

A1 = parse_gcm([[2]])
A2 = parse_gcm([[2, -1], [-1, 2]])
AFF = parse_gcm([[2, -2], [-2, 2]])


def test_integrable_sl2_string():
    ws = wt_integrable(HighestWeight.of([3]), A1, [0], 10)
    assert sorted(ws.members) == [(0,), (1,), (2,), (3,)]


def test_integrable_trivial_module():
    ws = wt_integrable(HighestWeight.of([0, 0]), A2, [0, 1], 8)
    assert ws.members == {(0, 0)}


def test_integrable_affine_trivial_excludes_delta():
    ws = wt_integrable(HighestWeight.of([0, 0]), AFF, [0, 1], 8)
    assert ws.members == {(0, 0)}
    assert (1, 1) not in ws.members


def test_integrable_rejects_nonintegral():
    with pytest.raises(Inapplicable, match=r"^\(h_0, lambda\) = -3/2$"):
        wt_integrable(HighestWeight.of([Fraction(-3, 2)]), A1, [0], 4)


def test_slice_verma_line():
    ws = wt_simple_slice(HighestWeight.of([Fraction(-3, 2)]), A1, 7)
    assert sorted(ws.members) == [(k,) for k in range(8)]


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
    with pytest.raises(Inapplicable, match="^lambda has infinite stabilizer"):
        wt_simple_orbit(HighestWeight.of([0, 0]), AFF, 6)


def test_orbit_matches_slice_partially_integrable():
    lam = HighestWeight.of([1, Fraction(-7, 2)])
    assert (
        wt_simple_orbit(lam, A2, 8).members == wt_simple_slice(lam, A2, 8).members
    )


def test_hull_generators_sl2_segment():
    model = hull_generators(HighestWeight.of([3]), A1, 2)
    assert model.vertices == {(0,), (3,)}
    assert model.rays == frozenset()


def test_hull_generators_verma_cone():
    model = hull_generators(HighestWeight.of([Fraction(-3, 2)]), A1, 2)
    assert model.vertices == {(0,)}
    assert model.rays == {(-1,)}


def test_hull_generators_vertices_replay():
    # Every vertex must be a genuine orbit point of lambda.
    lam = HighestWeight.of([1, 1])
    model = hull_generators(lam, A2, 6)
    orbit = wt_simple_orbit(lam, A2, 12)
    assert model.vertices <= orbit.members


def test_hull_contains_lambda():
    model = hull_generators(HighestWeight.of([3]), A1, 2)
    assert hull_contains(model, (0,))


def test_hull_contains_segment_interior_and_exterior():
    model = hull_generators(HighestWeight.of([3]), A1, 4)
    assert hull_contains(model, (1,))
    assert not hull_contains(model, (4,))


def test_hull_set_sl2():
    ws = hull_weight_set(hull_model(HighestWeight.of([3]), A1, 10, 2), 10)
    assert sorted(ws.members) == [(0,), (1,), (2,), (3,)]


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
    model = hull_generators(lam, g, 2 * H + 4)
    for c in ws.members:
        assert hull_contains(model, c)


@pytest.mark.parametrize(
    "name,q,nodes,depth,complete",
    [
        ("A1", [3], [0], 1, True),  # W = {1, s}: the orbit {0, 3} is reached by s
        ("A1", [3], [0], 0, False),
        ("A1", [Fraction(-3, 2)], [], 0, True),  # trivial W_J
        ("A2", [1, 1], [0, 1], 3, True),  # longest element of W(A2) has length 3
        ("A2", [1, 1], [0, 1], 2, False),
        ("aff_sl2", [0, 0], [0, 1], 2, True),  # orbit {0} inside an infinite W_J
        ("aff_sl2", [1, 0], [0, 1], 6, False),  # infinite orbit
    ],
)
def test_hull_model_complete_only_when_orbits_exhausted(name, q, nodes, depth, complete):
    # The model walks W_J on J = I_lambda, which is `nodes` in each case.
    lam, g = HighestWeight.of(q), {"A1": A1, "A2": A2, "aff_sl2": AFF}[name]
    assert sorted(integrability_set(lam)) == nodes
    assert hull_generators(lam, g, depth).complete is complete


def test_hull_generators_over_budget_before_any_lp(monkeypatch):
    # The W-orbit of this regular weight has 164,478 points within distance
    # 16; the budget is checked as each point is added, before any LP.
    def no_lp(*args, **kwargs):
        raise AssertionError("lp.feasible called")

    monkeypatch.setattr(lp, "feasible", no_lp)
    g = parse_gcm([[2, -1, -1], [-3, 2, -3], [-3, -3, 2]])
    with pytest.raises(BudgetExceeded, match=(
        "^100001 points by reflection distance 16; budget 100000$"
    )):
        hull_generators(HighestWeight.of([1, 1, 1]), g, 16)


@given(small_gcms(max_rank=4), st.data(), st.integers(0, 12))
@settings(max_examples=100, deadline=None)
def test_hull_generators_match_the_element_walk(g, data, depth):
    lam = HighestWeight.of(data.draw(st.lists(st.sampled_from(PAIRINGS), min_size=g.n,
                                              max_size=g.n)))
    try:
        model = hull_generators(lam, g, depth)
        vertices, rays = hull_generators_by_elements(lam, g, depth)
    except BudgetExceeded:
        assume(False)
    assert model.vertices == vertices
    assert model.rays == rays


@given(small_gcms_and_weights(), st.integers(0, 8))
@settings(max_examples=60, deadline=None)
def test_complete_hull_is_the_slice_set(case, depth):
    g, lam = case
    bound = H_BY_RANK[g.n]
    model = hull_model(lam, g, bound, depth)
    assume(model.complete)
    assert hull_weight_set(model, bound).members == wt_simple_slice(lam, g, bound).members


@pytest.mark.parametrize("bound", [0, 4])
def test_parabolic_rejects_nodes_outside_integrability_set(bound):
    lam = HighestWeight.of([1, Fraction(-1, 2)])
    with pytest.raises(Inapplicable, match=r"^\(h_1, lambda\) = -1/2$"):
        wt_parabolic_verma(lam, A2, [0, 1], bound)


H_BY_RANK = {1: 8, 2: 6, 3: 4}


@given(small_gcms_and_weights())
@settings(max_examples=40, deadline=None)
def test_slice_hull_and_orbit_agree_on_random_gcms(case):
    g, lam = case
    bound = H_BY_RANK[g.n]
    members = wt_simple_slice(lam, g, bound).members
    assert wt_simple_hull(lam, g, bound).members == members
    if stabilizer_is_finite(lam, g):
        assert wt_simple_orbit(lam, g, bound).members == members


@given(small_gcms_and_weights(), st.data())
@settings(max_examples=100, deadline=None)
def test_parabolic_verma_is_union_of_slices_for_every_j(case, data):
    # The slice formula read literally: for each b >= 0 supported off J, the
    # Levi weights at lambda - b, shifted by b.
    g, lam = case
    bound = H_BY_RANK[g.n]
    nodes = sorted(data.draw(st.sets(st.integers(0, g.n - 1))) & integrability_set(lam))
    union = set()
    for b in offsets_up_to(g.n, bound):
        if any(b[i] for i in nodes):
            continue
        shifted = HighestWeight(tuple(pairing(lam, g, b, i) for i in range(g.n)))
        inner = wt_integrable(shifted, g, nodes, bound - ht(b)).members
        union |= {add(b, c) for c in inner}
    members = wt_parabolic_verma(lam, g, nodes, bound).members
    assert members == union
    levi = {c for c in members if all(c[i] == 0 for i in range(g.n) if i not in nodes)}
    assert wt_integrable(lam, g, nodes, bound).members == levi
