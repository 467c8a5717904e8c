import json
import math
import subprocess
import sys
from fractions import Fraction
from itertools import takewhile
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import kmweights
from kmweights import weyl
from kmweights.cartan import is_finite_type, parse_gcm
from kmweights.errors import BudgetExceeded, Inapplicable
from kmweights.roots import positive_real_up_to
from kmweights.weights import (
    HighestWeight,
    ht,
    integrability_set,
    is_negative,
    is_positive,
    offsets_up_to,
    pairing,
)
from kmweights.weyl import (
    _extend,
    enumerate_group,
    identity,
    min_summand_height,
    orbit_truncated,
    orbit_walk,
    reflect_weight,
    stabilizer_is_finite,
)

from conftest import (
    PAIRINGS,
    apply,
    in_parabolic_dominant,
    reflect,
    small_gcms,
    small_gcms_and_weights,
)

A1 = parse_gcm([[2]])
A2 = parse_gcm([[2, -1], [-1, 2]])
AFF = parse_gcm([[2, -2], [-2, 2]])


def test_reflect_a2():
    # s_0(alpha_1) = alpha_0 + alpha_1
    assert reflect(A2, 0, (0, 1)) == (1, 1)


def test_reflect_sends_own_root_negative():
    for g in (A1, A2, AFF):
        for i in range(g.n):
            e = tuple(1 if j == i else 0 for j in range(g.n))
            assert reflect(g, i, e) == tuple(-x for x in e)


def test_reflect_is_involution():
    for v in [(1, 0), (2, 3), (0, 5), (1, 1)]:
        assert reflect(A2, 0, reflect(A2, 0, v)) == v
        assert reflect(AFF, 1, reflect(AFF, 1, v)) == v


def test_reflect_weight_sl2_string():
    lam = HighestWeight.of([3])
    assert reflect_weight(lam, A1, 0, (0,)) == (3,)
    assert reflect_weight(lam, A1, 0, (3,)) == (0,)


def test_reflect_weight_nonintegral_raises():
    # s_0 leaves lambda - Q; the walk over W_J, not the reflection, refuses J.
    lam = HighestWeight.of(["-3/2"])
    assert reflect_weight(lam, A1, 0, (0,)) is None
    with pytest.raises(Inapplicable, match=r"^\(h_0, lambda\) = -3/2$"):
        orbit_truncated(lam, A1, [0], [(0,)], 10)


def test_reflect_weight_above_lambda_marker():
    lam = HighestWeight.of([-2])
    assert reflect_weight(lam, A1, 0, (0,)) is None


def test_enumerate_a1_two_elements():
    lam = HighestWeight.of([3])
    assert len(list(enumerate_group(lam, A1, [0], height=50))) == 2


def test_enumerate_a2_six_elements():
    lam = HighestWeight.of([1, 1])
    words = [w.word for w in enumerate_group(lam, A2, [0, 1], height=100)]
    assert len(words) == 6
    assert max(len(w) for w in words) == 3


def test_enumerate_affine_dihedral_truncates():
    lam = HighestWeight.of([0, 0])
    els = list(enumerate_group(lam, AFF, [0, 1], height=4))
    # e, s0, s1 are inside the bound; inversion heights grow past it.
    assert identity(2) in els
    assert all(len(w.word) <= 10 for w in els)
    assert len(els) >= 3


def test_enumerate_yields_breadth_first_and_consistent_images():
    lam = HighestWeight.of([1, 1])
    prev = 0
    for w in enumerate_group(lam, A2, [0, 1], height=100):
        assert len(w.word) >= prev
        prev = len(w.word)
        # replay: w alpha_j = s_{i1}(s_{i2}(... s_{ik}(alpha_j)))
        imgs = identity(2).simple_images
        for i in reversed(w.word):
            imgs = tuple(reflect(A2, i, v) for v in imgs)
        assert w.simple_images == imgs


def test_enumerate_length_equals_inversions_rank2():
    # ell(w) = #{positive real roots sent negative}, finite type rank <= 2
    for g in (A2, parse_gcm([[2, -1], [-2, 2]]), parse_gcm([[2, -1], [-3, 2]])):
        lam = HighestWeight.of([1, 1])
        pos = positive_real_up_to(g, 12)
        for w in enumerate_group(lam, g, [0, 1], height=None):
            inv = sum(1 for b in pos if is_negative(apply(w, b)))
            assert inv == len(w.word)


def test_enumerate_over_weyl_budget():
    # This hyperbolic W has 42,554 elements of length <= 14 and 164,478 of
    # length <= 16; the budget is checked as each element is built.
    g = parse_gcm([[2, -1, -1], [-3, 2, -3], [-3, -3, 2]])
    with pytest.raises(BudgetExceeded, match=(
        "^100001 Weyl group elements by word length 16; budget 100000$"
    )):
        list(takewhile(lambda w: w.length <= 16,
                       enumerate_group(HighestWeight.of([1, 1, 1]), g, range(3))))


def test_whole_infinite_group_ends_at_the_budget(monkeypatch):
    # Affine sl2 has two elements of each length >= 1: the whole-group walk
    # builds element 1,001 at length 500 and refuses, never stopping quietly.
    monkeypatch.setattr(weyl, "WEYL_BUDGET", 1000)
    walk = enumerate_group(HighestWeight.of([0, 0]), AFF, [0, 1])
    with pytest.raises(BudgetExceeded, match=(
        "^1001 Weyl group elements by word length 500; budget 1000$"
    )):
        list(walk)


def _seen_set_walk(lam, g, nodes, height):
    """W_J level by level, keeping the first copy of each (images, displacement)."""
    level = [identity(g.n)]
    seen = {(level[0].simple_images, level[0].displacement)}
    while level:
        inside = [w for w in level if height is None or min_summand_height(w) <= height]
        if not inside:
            return
        yield from inside
        nxt = []
        for w in level:
            for i in nodes:
                if is_positive(w.simple_images[i]):
                    child = _extend(lam, g, w, i)
                    if (child.simple_images, child.displacement) not in seen:
                        seen.add((child.simple_images, child.displacement))
                        nxt.append(child)
        level = nxt


@given(small_gcms_and_weights(), st.data())
@settings(max_examples=200, deadline=None)
def test_enumerate_group_is_a_tree_of_reduced_words(case, data):
    g, lam = case
    integrable = sorted(integrability_set(lam))
    drop = data.draw(st.sets(st.sampled_from(integrable), max_size=1)) if integrable else set()
    nodes = [i for i in integrable if i not in drop]
    if data.draw(st.booleans()):
        height, cap = None, data.draw(st.integers(0, 5))
    else:
        height, cap = data.draw(st.integers(0, 6)), math.inf
    try:
        got = list(takewhile(lambda w: w.length <= cap,
                             enumerate_group(lam, g, nodes, height=height)))
    except BudgetExceeded:
        return  # an infinite W_J whose walk outlives the element budget
    keys = [(w.length, w.simple_images, w.displacement) for w in got]
    assert len(set(keys)) == len(keys)
    assert set(keys) == {
        (w.length, w.simple_images, w.displacement)
        for w in takewhile(lambda w: w.length <= cap, _seen_set_walk(lam, g, nodes, height))
    }
    words = set()
    for prev, w in zip([identity(g.n)] + got, got):
        assert prev.length <= w.length
        # Under a height bound a parent can itself lie above the bound.
        assert height is not None or w.length == 0 or w.word[:-1] in words
        words.add(w.word)
        x = identity(g.n)
        for i in w.word:  # the word is reduced and spells w
            assert is_positive(x.simple_images[i])
            x = _extend(lam, g, x, i)
        assert x == w


def _replayed(lam, g, word):
    """(w alpha_j for each j, lambda - w lambda) for w spelled by `word`, each
    simple reflection applied right to left on its own: s_i beta = beta - (A beta)_i
    alpha_i on roots, and the same rule at lambda on the offset of lambda - c."""
    images = [tuple(int(j == k) for k in range(g.n)) for j in range(g.n)]
    c = (0,) * g.n
    for i in reversed(word):
        images = [reflect(g, i, v) for v in images]
        c = tuple(x + int(pairing(lam, g, c, i)) * (k == i) for k, x in enumerate(c))
    return tuple(images), c


@given(small_gcms_and_weights(), st.data())
@settings(max_examples=150, deadline=None)
def test_group_elements_match_their_words_reflection_by_reflection(case, data):
    # Builds every element from its word alone, apart from _extend.
    g, lam = case
    integrable = sorted(integrability_set(lam))
    nodes = sorted(data.draw(st.sets(st.sampled_from(integrable)))) if integrable else []
    height = data.draw(st.one_of(st.none(), st.integers(0, 6)))
    try:
        got = list(takewhile(lambda w: w.length <= 5,
                             enumerate_group(lam, g, nodes, height=height)))
    except BudgetExceeded:
        return
    for w in got:
        assert (w.simple_images, w.displacement) == _replayed(lam, g, w.word)
        for img in w.simple_images:  # a real root is positive or negative
            assert is_positive(img) == (ht(img) > 0)
            assert is_negative(img) == (ht(img) < 0)


def test_orbit_sl2():
    lam = HighestWeight.of([3])
    assert orbit_truncated(lam, A1, [0], [(0,)], 10) == {(0,), (3,)}
    assert orbit_truncated(lam, A1, [0], [(0,)], 2) == {(0,)}
    assert orbit_truncated(lam, A1, [0], [(3,)], 2) == set()


def test_orbit_zero_weight_fixed():
    lam = HighestWeight.of([1, 1])
    assert orbit_truncated(lam, A2, [0, 1], [(1, 1)], 10) == {(1, 1)}


def test_orbit_regular_weight_adjoint():
    # Orbit of lambda - alpha_0 in the adjoint of A2: six offsets (brute
    # force below recomputes it by closing under reflections).
    lam = HighestWeight.of([1, 1])
    got = orbit_truncated(lam, A2, [0, 1], [(1, 0)], 10)
    brute = {(1, 0)}
    while True:
        new = set(brute)
        for c in brute:
            for i in (0, 1):
                img = reflect_weight(lam, A2, i, c)
                if img is not None:
                    new.add(img)
        if new == brute:
            break
        brute = new
    assert got == brute
    assert len(got) == 6


def test_orbit_closed_within_window():
    lam = HighestWeight.of([1, 0])
    H = 8
    orb = orbit_truncated(lam, AFF, [0, 1], [(0, 0)], H)
    for c in orb:
        for i in (0, 1):
            img = reflect_weight(lam, AFF, i, c)
            if img is not None and ht(img) <= H:
                assert img in orb


def test_orbit_drops_seeds_above_height():
    lam = HighestWeight.of([1, 1])
    seeds = [(0, 0), (1, 1)]  # both dominant; (1, 1) has height 2
    assert orbit_truncated(lam, A2, [0, 1], seeds, 1) == {(0, 0), (1, 0), (0, 1)}
    assert (1, 1) in orbit_truncated(lam, A2, [0, 1], seeds, 2)


@given(small_gcms_and_weights(), st.integers(0, 5))
@settings(max_examples=100, deadline=None)
def test_orbit_of_seeds_is_union_of_single_orbits(case, height):
    g, lam = case
    nodes = sorted(integrability_set(lam))
    # Seeds up to height + 2, so some lie above the bound and must drop out.
    seeds = [c for c in offsets_up_to(g.n, height + 2) if in_parabolic_dominant(lam, g, c, nodes)]
    union = set()
    for c in seeds:
        union |= orbit_truncated(lam, g, nodes, [c], height)
    assert orbit_truncated(lam, g, nodes, seeds, height) == union


def test_orbit_ball_is_whole_exactly_from_the_orbit_radius():
    # The vertex ball of A2 at (1, 1) is its six-point orbit, of radius 3.
    lam = HighestWeight.of([1, 1])
    ball, whole = orbit_walk(lam, A2, [0, 1], [(0, 0)], depth=3)
    assert (len(ball), whole) == (6, True)
    ball, whole = orbit_walk(lam, A2, [0, 1], [(0, 0)], depth=2)
    assert (len(ball), whole) == (5, False)


@given(small_gcms(max_rank=4), st.data())
@settings(max_examples=60, deadline=None)
def test_walk_distance_at_lambda_plus_rho_is_the_length(g, data):
    # Pairings q_i + 1 >= 1: each point is w(lambda + rho) for one w, at distance l(w).
    assume(is_finite_type(g))
    q = data.draw(st.lists(st.integers(0, 2), min_size=g.n, max_size=g.n))
    shifted = HighestWeight.of([x + 1 for x in q])
    want = {w.displacement: w.length
            for w in takewhile(lambda w: w.length <= 64,
                               enumerate_group(shifted, g, range(g.n)))}
    dist, whole = orbit_walk(shifted, g, range(g.n), [(0,) * g.n])
    assert (dist, whole) == (want, True)
    # Height rises strictly along a reduced word, so pruning keeps every distance.
    height = data.draw(st.integers(0, max(map(ht, want))))
    dist, whole = orbit_walk(shifted, g, range(g.n), [(0,) * g.n], height=height)
    assert (dist, whole) == ({c: d for c, d in want.items() if ht(c) <= height}, True)


def _reference_walk(lam, g, nodes, seeds, height, depth):
    """orbit_walk level by level under `reflect_weight`: (distances, whole)."""
    def fits(c):
        return height is None or ht(c) <= height

    dist = {tuple(c): 0 for c in seeds if fits(c)}
    level, d = list(dist), 0
    while level:
        nxt = []
        for c in level:
            for i in nodes:
                img = reflect_weight(lam, g, i, c)
                if img is None or img in dist or not fits(img):
                    continue
                if d == depth:
                    return dist, False
                dist[img] = d + 1
                nxt.append(img)
        level, d = nxt, d + 1
    return dist, True


@st.composite
def walk_cases(draw):
    """A GCM of rank <= 4, a fractional lambda, J in I_lambda, arbitrary seeds (some
    not J-dominant, some above the height) and a height mode or a depth 0-4."""
    g = draw(small_gcms(max_rank=4))
    lam = HighestWeight.of(draw(st.lists(st.sampled_from(PAIRINGS), min_size=g.n,
                                         max_size=g.n)))
    integrable = sorted(integrability_set(lam))
    nodes = sorted(draw(st.sets(st.sampled_from(integrable)))) if integrable else []
    seeds = draw(st.lists(st.lists(st.integers(0, 3), min_size=g.n, max_size=g.n),
                          min_size=1, max_size=4))
    if draw(st.booleans()):
        height, depth = draw(st.integers(0, 8)), None
    else:
        height, depth = None, draw(st.integers(0, 4))
    return g, lam, nodes, seeds, height, depth


@given(walk_cases(), st.data())
@settings(max_examples=300, deadline=None)
def test_orbit_walk_matches_the_reflection_reference(case, data):
    g, lam, nodes, seeds, height, depth = case
    want = _reference_walk(lam, g, nodes, seeds, height, depth)
    dist, whole = orbit_walk(lam, g, nodes, seeds, height=height, depth=depth)
    assert (list(dist.items()), whole) == (list(want[0].items()), want[1])  # visit order too
    # Under a smaller budget the walk refuses with the reference's message: before any
    # reflection when the kept seeds are over the budget, else at the first point a
    # reflection adds past it.
    budget = data.draw(st.integers(1, max(1, len(want[0]))))
    kept = sum(d == 0 for d in want[0].values())
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(weyl, "WEYL_BUDGET", budget)
        if kept > budget:
            message = f"{kept} seeds; budget {budget}"
        elif len(want[0]) <= budget:
            assert orbit_walk(lam, g, nodes, seeds, height=height, depth=depth) == want
            return
        else:
            message = (f"{budget + 1} points by reflection distance "
                       f"{list(want[0].values())[budget]}; budget {budget}")
        with pytest.raises(BudgetExceeded, match=f"^{message}$"):
            orbit_walk(lam, g, nodes, seeds, height=height, depth=depth)


def test_walk_counts_its_seeds_against_the_budget(monkeypatch):
    # At lambda = 0 no reflection moves a positive root of A2 to a new point, so
    # only the seed count can refuse.
    lam, roots = HighestWeight.of([0, 0]), [(1, 0), (0, 1), (1, 1)]
    monkeypatch.setattr(weyl, "WEYL_BUDGET", 3)
    assert orbit_walk(lam, A2, [0, 1], roots) == (dict.fromkeys(roots, 0), True)
    monkeypatch.setattr(weyl, "WEYL_BUDGET", 1)
    with pytest.raises(BudgetExceeded, match=r"^3 seeds; budget 1$"):
        orbit_walk(lam, A2, [0, 1], roots)


def test_height_walk_counts_points_against_the_budget(monkeypatch):
    # The affine orbit of lambda = (1, 0) meets heights 0, 1, 3, 6, 10, 15, ...
    monkeypatch.setattr(weyl, "WEYL_BUDGET", 5)
    lam = HighestWeight.of([1, 0])
    assert len(orbit_truncated(lam, AFF, [0, 1], [(0, 0)], 14)) == 5
    with pytest.raises(BudgetExceeded, match=r"^6 points by reflection distance 5; budget 5$"):
        orbit_truncated(lam, AFF, [0, 1], [(0, 0)], 15)


def test_hull_depth_past_the_orbit_radius_ends_with_the_orbit(tmp_path):
    # The walk stops when the orbit is exhausted, not after depth + 1 passes.
    path = tmp_path / "a2.json"
    path.write_text('{"cartan": [[2, -1], [-1, 2]], "lambda": ["1", "1"]}')
    src = Path(kmweights.__file__).resolve().parent.parent
    main = "import sys; sys.path.insert(0, sys.argv.pop(1)); from kmweights.cli import main; main()"
    offsets = []
    for depth in (20, 10 ** 15):
        done = subprocess.run(
            [sys.executable, "-c", main, str(src), "weights", "--input", str(path),
             "--method", "hull", "--height", "4", "--depth", str(depth)],
            capture_output=True, text=True, timeout=20,
        )
        assert (done.returncode, done.stderr) == (0, "")
        doc = json.loads(done.stdout)
        assert doc["complete"]
        offsets.append(doc["offsets"])
    assert offsets[0] == offsets[1]


def test_stabilizer_finite_cases():
    assert stabilizer_is_finite(HighestWeight.of([0, 0]), A2)
    assert not stabilizer_is_finite(HighestWeight.of([0, 0]), AFF)
    assert stabilizer_is_finite(HighestWeight.of([1, 0]), AFF)


@pytest.mark.parametrize("q", [-1, Fraction(1, 2)])
def test_enumerate_group_rejects_non_dominant_nodes(q):
    walk = takewhile(lambda w: w.length <= 2, enumerate_group(HighestWeight.of([q]), A1, [0]))
    with pytest.raises(Inapplicable, match=rf"^\(h_0, lambda\) = {q}$"):
        next(walk)  # raised before the identity is yielded


@given(small_gcms_and_weights(), st.data())
@settings(max_examples=80, deadline=None)
def test_integer_pairings_match_fraction_definition(case, data):
    # Both functions compare integers; the reference works on (h_i, mu) itself.
    g, lam = case
    c = data.draw(st.lists(st.integers(0, 4), min_size=g.n, max_size=g.n).map(tuple))
    nodes = data.draw(st.sets(st.integers(0, g.n - 1)))
    p = [pairing(lam, g, c, i) for i in range(g.n)]
    dominant = all(p[i].denominator == 1 and p[i] >= 0 for i in nodes)
    assert in_parabolic_dominant(lam, g, c, nodes) == dominant
    for i in range(g.n):
        if p[i].denominator != 1:  # s_i leaves lambda - Q
            assert reflect_weight(lam, g, i, c) is None
            continue
        img = list(c)
        img[i] += int(p[i])
        assert reflect_weight(lam, g, i, c) == (tuple(img) if img[i] >= 0 else None)
