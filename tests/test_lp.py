from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kmweights import modweights
from kmweights.cartan import parse_gcm
from kmweights.lp import Certificates, Proof, feasible
from kmweights.modweights import (
    hull_contains,
    hull_generators,
    wt_simple_hull,
)
from kmweights.weights import HighestWeight, offsets_up_to

from conftest import CORPUS_CASES, small_gcms_and_weights

AFF_RANK3 = parse_gcm([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])


def _dot(u, v):
    return sum(p * q for p, q in zip(u, v))


def basis_solution(certs, proof, b):
    """x >= 0 with A x = b from the proof's basis, or None if the basis fails."""
    x_b = certs._scaled_solution(proof.basis, proof.inverse, proof.scale, b)
    if x_b is None:
        return None
    return [Fraction(x_b.get(j, 0), proof.scale) for j in range(certs.n)]


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


# Rational entries make feasible scale its rows to integers; the proofs it
# leaves must still check exactly against the caller's rows.
RATIONALS = [Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3)]


def _entries(bound):
    return st.one_of(st.integers(-bound, bound), st.sampled_from(RATIONALS))


small_systems = st.integers(1, 3).flatmap(
    lambda m: st.tuples(
        st.integers(1, 4).flatmap(
            lambda n: st.lists(
                st.lists(_entries(3), min_size=n, max_size=n),
                min_size=m,
                max_size=m,
            )
        ),
        st.lists(_entries(4), min_size=m, max_size=m),
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
        y = basis_solution(certs, proof, b)
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
    x = basis_solution(certs, proof, inside)
    assert x is not None and min(x) >= 0
    assert [_dot(row, x) for row in a] == inside
    assert certs.decide(inside) is True
    # -inside needs negative coefficients on the same columns.
    outside = [-v for v in inside]
    assert basis_solution(certs, proof, outside) is None


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
    model = hull_generators(lam, g, depth)
    a = [list(row) for row in model.certificates.a]
    for c in offsets_up_to(g.n, bound):
        fresh = feasible(a, [Fraction(x) for x in c] + [Fraction(1)]) is not None
        assert hull_contains(model, c) is fresh, c


@pytest.mark.parametrize("g,lam", CORPUS_CASES)
def test_cached_membership_matches_fresh_lp_on_corpus(g, lam):
    _assert_cache_matches_fresh_solves(lam, g, 4, 12)


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
