from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kmweights import modweights
from kmweights.cartan import parse_gcm
from kmweights.lp import Certificates, Proof, feasible
from kmweights.modweights import (
    _offsets_up_to,
    hull_contains,
    hull_generators,
    wt_simple_hull,
)
from kmweights.weights import HighestWeight, integrability_set

from conftest import CORPUS_CASES

AFF_RANK3 = parse_gcm([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])


def _dot(u, v):
    return sum(p * q for p, q in zip(u, v))


def _assert_farkas(a, b, y):
    assert len(y) == len(a)
    for j in range(len(a[0])):
        assert _dot(y, [row[j] for row in a]) <= 0
    assert _dot(y, b) > 0


@pytest.mark.parametrize(
    "a,b",
    [
        ([[1, 1], [1, -1]], [-1, 2]),
        ([[1, 0], [0, 1], [1, 1]], [1, 1, -3]),
        ([[1, -1, 0], [0, 1, -1], [1, 1, 1]], [-2, -2, 1]),
        ([[2, 1], [-1, 3]], [-1, -1]),
    ],
)
def test_farkas_certificate_with_negative_rows(a, b):
    proof = Proof()
    assert feasible(a, b, proof) is None
    assert proof.basis is None
    _assert_farkas(a, b, proof.farkas)
    assert Certificates(a).is_farkas(proof.farkas, b)


small_systems = st.integers(1, 3).flatmap(
    lambda m: st.tuples(
        st.integers(1, 4).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                min_size=m,
                max_size=m,
            )
        ),
        st.lists(st.integers(-4, 4), min_size=m, max_size=m),
    )
)


@given(small_systems)
@settings(max_examples=150, deadline=None)
def test_every_solve_leaves_a_checked_proof(system):
    a, b = system
    proof = Proof()
    x = feasible(a, b, proof)
    certs = Certificates(a)
    if x is None:
        _assert_farkas(a, b, proof.farkas)
    else:
        assert proof.farkas is None
        y = certs.basis_solution(proof.basis, proof.inverse, b)
        assert y is not None and min(y, default=0) >= 0
        assert [_dot(row, y) for row in a] == b
    certs.learn(b, proof)
    assert certs.decide(b) is (x is not None)


def test_basis_reuse_inside_and_outside_its_cone():
    a = [[1, 0, 1, 2], [0, 1, 1, -1]]
    b = [3, 1]
    proof = Proof()
    assert feasible(a, b, proof) is not None
    certs = Certificates(a)
    certs.learn(b, proof)
    assert len(certs.bases) == 1
    # A positive combination of the basic columns lies in the basis cone.
    basic = [j for j in proof.basis if j < len(a[0])]
    inside = [sum((k + 1) * a[r][j] for k, j in enumerate(basic)) for r in range(2)]
    x = certs.basis_solution(proof.basis, proof.inverse, inside)
    assert x is not None and min(x) >= 0
    assert [_dot(row, x) for row in a] == inside
    assert certs.decide(inside) is True
    # -inside needs negative coefficients on the same columns.
    outside = [-v for v in inside]
    assert certs.basis_solution(proof.basis, proof.inverse, outside) is None


def test_proofs_that_do_not_check_are_dropped():
    a = [[1, 1], [1, -1]]
    b = [Fraction(2), Fraction(0)]
    certs = Certificates(a)
    # y = (1, 0) has y^T A = (1, 1) > 0: not a certificate.
    certs.learn(b, Proof(farkas=[Fraction(1), Fraction(0)]))
    assert certs.farkas == []
    # A wrong inverse would claim x = (2, 0), which misses the second row.
    wrong = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(0)]]
    certs.learn(b, Proof(basis=[0, 1], inverse=wrong))
    assert certs.bases == []
    assert certs.decide(b) is None


def _assert_cache_matches_fresh_solves(lam, g, bound, depth):
    model = hull_generators(lam, g, integrability_set(lam), depth)
    a = [list(row) for row in model.certificates.a]
    for c in _offsets_up_to(g.n, bound):
        fresh = feasible(a, [Fraction(x) for x in c] + [Fraction(1)]) is not None
        assert hull_contains(model, c) is fresh, c


@pytest.mark.parametrize("g,lam", CORPUS_CASES)
def test_cached_membership_matches_fresh_lp_on_corpus(g, lam):
    _assert_cache_matches_fresh_solves(lam, g, 4, 12)


PAIRINGS = [0, 1, 2, Fraction(-1, 2), Fraction(-3, 2), Fraction(1, 3)]


@st.composite
def small_gcms_and_weights(draw):
    n = draw(st.integers(1, 3))
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            a[i][j] = draw(st.sampled_from([0, -1, -2, -3]))
            if a[i][j]:
                a[j][i] = draw(st.sampled_from([-1, -2, -3]))
    q = draw(st.lists(st.sampled_from(PAIRINGS), min_size=n, max_size=n))
    return parse_gcm(a), HighestWeight.of(q)


@given(small_gcms_and_weights(), st.integers(0, 4), st.integers(0, 5))
@settings(max_examples=40, deadline=None)
def test_cached_membership_matches_fresh_lp_on_random_gcms(case, bound, depth):
    g, lam = case
    _assert_cache_matches_fresh_solves(lam, g, bound, depth)


def test_hull_needs_few_lp_solves(monkeypatch):
    calls = []

    def counting(a, b, proof=None):
        calls.append(b)
        return feasible(a, b, proof)

    monkeypatch.setattr(modweights, "feasible", counting)
    ws = wt_simple_hull(HighestWeight.of([1, 0, 0]), AFF_RANK3, 10)
    assert len(ws.members) == 31
    assert len(calls) <= 60
