import io
import json
from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kmweights import cartan, lp
from kmweights.cartan import parse_gcm
from kmweights.cli import run
from kmweights.lp import Certificates, Proof, System, feasible, independent_rows, reduce
from kmweights.modweights import (
    HullModel,
    hull_contains,
    hull_generators,
    wt_simple_hull,
    wt_simple_slice,
)
from kmweights.weights import HighestWeight, offsets_up_to

from conftest import (
    CORPUS_CASES,
    CORPUS_MATRICES,
    CORPUS_WEIGHTS,
    fraction_independent_rows,
    fraction_phase1,
    small_gcms_and_weights,
)

AFF_RANK3 = parse_gcm([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])


def _dot(u, v):
    return sum(p * q for p, q in zip(u, v))


def basis_solution(certs, proof, b):
    """x >= 0 with A x = b from the proof's basis, or None if the basis fails."""
    x_b = certs._scaled_solution(proof, b)
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


def _entries(bound):
    return st.integers(-bound, bound)


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
    assert certs.decide(b) is (x is not None)
    assert len(certs.farkas) + len(certs.bases) == 1


def _proof_fields(proof):
    return proof.farkas, proof.basis, proof.inverse, proof.scale


@given(
    small_systems,
    st.lists(st.lists(_entries(4), min_size=3, max_size=3), min_size=1, max_size=4),
    st.lists(_entries(4), min_size=3, max_size=3),
)
@settings(max_examples=150, deadline=None)
def test_one_system_serves_every_sign_pattern_of_b(system, more, y):
    # One System serves every b: rows whose b_i is negative must be negated
    # per b, as a fresh solve on plain rows does, and left as kept otherwise.
    a, b = system
    m = len(a)
    shared = System(a)
    flips = [[s * v for s, v in zip(signs, b)] for signs in product((1, -1), repeat=m)]
    for rhs in flips + [c[:m] for c in more]:
        proof, plain = Proof(), Proof()
        x = feasible(shared, rhs, proof)
        assert x == feasible(a, rhs, plain)
        assert _proof_fields(proof) == _proof_fields(plain)
        ref_x, ref_basis, ref_inverse, _ = fraction_phase1(a, rhs)
        assert x == ref_x
        if x is None:
            _assert_farkas(a, rhs, proof.farkas)
        else:
            assert proof.basis == ref_basis
            assert [[Fraction(v, proof.scale) for v in row] for row in proof.inverse] == ref_inverse
        # The Farkas check reads the kept columns: it must judge any y as the
        # caller's rows do.
        plain_farkas = _dot(y[:m], rhs) > 0 and all(
            _dot(y[:m], [row[j] for row in a]) <= 0 for j in range(len(a[0])))
        assert Certificates(a).is_farkas(y[:m], rhs) is plain_farkas


# Up to 30 columns, so Bland's rule passes over many nonpositive prices, and
# b often 0, so the ratio test often ties and falls to its basis tie-break.
wide_systems = st.integers(1, 4).flatmap(
    lambda m: st.tuples(
        st.integers(5, 30).flatmap(
            lambda n: st.lists(
                st.lists(_entries(3), min_size=n, max_size=n),
                min_size=m,
                max_size=m,
            )
        ),
        st.lists(st.one_of(st.just(0), _entries(4)), min_size=m, max_size=m),
    )
)


@given(st.one_of(small_systems, wide_systems))
@settings(max_examples=150, deadline=None)
def test_feasible_pivots_as_the_fraction_tableau(system):
    a, b = system
    proof = Proof()
    x = feasible(a, b, proof)
    ref_x, ref_basis, ref_inverse, ref_farkas = fraction_phase1(a, b)
    assert x == ref_x
    if x is None:
        # A positive multiple of the reference's phase-1 duals.
        k = next(i for i, y in enumerate(ref_farkas) if y)
        ratio = Fraction(proof.farkas[k]) / ref_farkas[k]
        assert ratio > 0
        assert [ratio * y for y in ref_farkas] == proof.farkas
    else:
        assert proof.basis == ref_basis
        assert [[Fraction(v, proof.scale) for v in row] for row in proof.inverse] == ref_inverse


def _no_lp(*args, **kwargs):
    raise AssertionError("lp.feasible called")


def test_basis_reuse_inside_and_outside_its_cone(monkeypatch):
    a = [[1, 0, 1, 2], [0, 1, 1, -1]]
    b = [3, 1]
    certs = Certificates(a)
    assert certs.decide(b) is True
    assert len(certs.bases) == 1
    proof = certs.bases[0]
    monkeypatch.setattr(lp, "feasible", _no_lp)
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


def test_proofs_that_do_not_check_are_dropped(monkeypatch):
    a = [[1, 1], [1, -1]]
    b = [2, 0]
    certs = Certificates(a)

    def bogus_farkas(a, b, proof):
        # y = (1, 0) has y^T A = (1, 1) > 0: not a certificate.
        proof.farkas = [1, 0]
        return None

    def wrong_inverse(a, b, proof):
        # A wrong inverse would claim x = (2, 0), which misses the second row.
        proof.basis = [0, 1]
        proof.inverse = [[1, 0], [0, 0]]
        return {0: Fraction(2)}

    monkeypatch.setattr(lp, "feasible", bogus_farkas)
    assert certs.decide(b) is False
    assert certs.farkas == []
    monkeypatch.setattr(lp, "feasible", wrong_inverse)
    assert certs.decide(b) is True
    assert certs.bases == []

    # Many columns and rows: a check that stops one column or one row short
    # keeps these.  y = (1, 0, 0) has y^T A_j = -1 on every column but the last.
    wide = [[-1] * 7 + [1], [1, 0, 2, 3, 1, 0, 1, 2], [0, 1, 1, 0, 2, 1, 3, 1]]
    certs = Certificates(wide)

    def last_column_breaks(a, b, proof):
        proof.farkas = [1, 0, 0]
        return None

    def last_row_breaks(a, b, proof):
        # x_B = B^-1 b = (1, 1, 0) >= 0 on columns 0, 1 and row 2's artificial,
        # and A_B x_B = (-2, 1, 1) is b = (-2, 1, 2) on every row but the last.
        proof.basis = [0, 1, 10]
        proof.inverse = [[0, 1, 0], [0, 1, 0], [1, 0, 1]]
        return {0: Fraction(1), 1: Fraction(1)}

    monkeypatch.setattr(lp, "feasible", last_column_breaks)
    assert certs.decide([1, 0, 0]) is False
    assert certs.farkas == []
    monkeypatch.setattr(lp, "feasible", last_row_breaks)
    assert certs.decide([-2, 1, 2]) is True
    assert certs.bases == []


@given(
    st.integers(1, 3).flatmap(
        lambda m: st.integers(1, 4).flatmap(
            lambda n: st.tuples(
                st.lists(st.lists(_entries(3), min_size=n, max_size=n),
                         min_size=m, max_size=m),
                st.lists(st.lists(_entries(4), min_size=m, max_size=m),
                         min_size=1, max_size=6),
            )
        )
    )
)
@settings(max_examples=150, deadline=None)
def test_proofs_carry_over_to_other_right_hand_sides(system):
    a, bs = system
    certs = Certificates(a)
    calls = []

    def counting(a, b, proof=None):
        calls.append(b)
        return feasible(a, b, proof)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp, "feasible", counting)
        for b in bs:
            fresh = feasible(a, b) is not None
            assert certs.decide(b) is fresh
            before = len(calls)
            assert certs.decide(b) is fresh
            assert len(calls) == before
    for y in certs.farkas:
        for j in range(len(a[0])):
            assert _dot(y, [row[j] for row in a]) <= 0


def _assert_cache_matches_fresh_solves(lam, g, bound, depth):
    model = hull_generators(lam, g, depth)
    a = [list(row) for row in model.certificates.a]
    for c in offsets_up_to(g.n, bound):
        fresh = feasible(a, [*c, 1]) is not None
        assert hull_contains(model, c) is fresh, c


@pytest.mark.parametrize("g,lam", CORPUS_CASES)
def test_cached_membership_matches_fresh_lp_on_corpus(g, lam):
    _assert_cache_matches_fresh_solves(lam, g, 4, 12)


@given(small_gcms_and_weights(), st.integers(0, 4), st.integers(0, 5))
@settings(max_examples=40, deadline=None)
def test_cached_membership_matches_fresh_lp_on_random_gcms(case, bound, depth):
    g, lam = case
    _assert_cache_matches_fresh_solves(lam, g, bound, depth)


def _non_int_entries(a, b):
    return [x for x in [*(v for row in a for v in row), *b] if type(x) is not int]


@pytest.mark.parametrize("name,qs", [
    pytest.param(name, qs, id=f"{name}:{','.join(qs)}")
    for name in CORPUS_MATRICES for qs in CORPUS_WEIGHTS[name]
])
def test_every_cli_lp_is_integral(tmp_path, monkeypatch, name, qs):
    # `lp` has no path for rational entries: every LP the CLI solves, for
    # fractional lambda too, must have integer A and b.
    solves = []

    def integral(a, b, proof=None):
        assert _non_int_entries(a, b) == []
        solves.append(b)
        return feasible(a, b, proof)

    monkeypatch.setattr(lp, "feasible", integral)
    monkeypatch.setattr(cartan, "feasible", integral)
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({"cartan": CORPUS_MATRICES[name], "lambda": qs}))
    for argv in (["classify"], ["weights", "--method", "hull", "--height", "4"],
                 ["verify", "--check", "cross", "--height", "4"]):
        assert run([argv[0], "--input", str(path), *argv[1:]], stdout=io.StringIO()) == 0
    assert solves


def test_the_integral_check_flags_a_fraction_hull():
    model = HullModel(frozenset({(Fraction(0), Fraction(0)), (Fraction(-1), Fraction(1, 2))}),
                      frozenset(), True)
    assert _non_int_entries(model.certificates.a, [0, 0, 1])


def test_hull_needs_few_lp_solves(monkeypatch):
    # The figures `bench/count.py aff_rank3 1,0,0 weights --method hull
    # --height 10` reports; without basis reuse the same run takes 40 solves.
    results = []

    def counting(a, b, proof=None):
        results.append(feasible(a, b, proof))
        return results[-1]

    monkeypatch.setattr(lp, "feasible", counting)
    ws = wt_simple_hull(HighestWeight.of([1, 0, 0]), AFF_RANK3, 10)
    assert len(ws.members) == 31
    assert len(results) == 24
    assert sum(x is None for x in results) == 9


def test_wide_hull_needs_few_lp_solves(monkeypatch):
    # lambda is regular, so the default depth 2H + 4 lists 11,008 vertices:
    # LPs of 4 rows and thousands of columns, where a solve must not touch
    # every column on every pivot.
    g = parse_gcm([[2, -1, -1], [-3, 2, -3], [-3, -3, 2]])
    lam = HighestWeight.of([1, 1, 1])
    results = []

    def counting(a, b, proof=None):
        results.append(feasible(a, b, proof))
        return results[-1]

    monkeypatch.setattr(lp, "feasible", counting)
    ws = wt_simple_hull(lam, g, 4)
    assert ws.members == wt_simple_slice(lam, g, 4).members
    assert len(ws.members) == 24
    assert ws.complete is False
    assert len(results) == 9


@st.composite
def rank_matrices(draw):
    """Integer rows: random ones with integer combinations of earlier rows
    inserted, or a symmetric indefinite B^T D B of low rank."""
    entry = st.integers(-5, 5)
    width = draw(st.integers(0, 8))
    if draw(st.booleans()):
        b = draw(st.lists(st.lists(entry, min_size=width, max_size=width), max_size=8))
        d = draw(st.lists(st.integers(-3, 3), min_size=len(b), max_size=len(b)))
        return [
            [sum(b[k][i] * d[k] * b[k][j] for k in range(len(b))) for j in range(width)]
            for i in range(width)
        ]
    rows = draw(st.lists(st.lists(entry, min_size=width, max_size=width), max_size=8))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(rows)))
        coeffs = draw(st.lists(entry, min_size=at, max_size=at))
        combo = [sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(width)]
        rows.insert(at, combo)
    return rows


@given(rank_matrices())
@settings(max_examples=300, deadline=None)
def test_independent_rows_match_fraction_elimination(rows):
    assert independent_rows(rows) == fraction_independent_rows(rows)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_reduce_is_the_primitive_positive_multiple(data):
    # Pivot entries share factors with each other and with the rows, so the
    # gcd(p, a) step and the content division both have work to do.
    width = data.draw(st.integers(1, 5))
    entry = st.integers(-4, 4).map(lambda x: 6 * x) | st.integers(-40, 40)
    row = data.draw(st.lists(entry, min_size=width, max_size=width))
    pivot_row = data.draw(st.lists(entry, min_size=width, max_size=width))
    a = data.draw(entry)
    p = data.draw(st.integers(1, 40) | st.integers(1, 7).map(lambda x: 6 * x))
    plain = [p * x - a * y for x, y in zip(row, pivot_row)]
    content = gcd(*plain)
    got = reduce(row, a, pivot_row, p)
    assert got == ([x // content for x in plain] if content else plain)


def test_reduce_divides_out_the_row_content():
    # Without the content division these rows would come out as [4, 6]
    # and, after dividing p and a by gcd(6, 4) = 2, as [18, 15].
    assert reduce([4, 6], 0, [0, 0], 1) == [2, 3]
    assert reduce([2, 9], 3, [4, 3], 2) == [-8, 9]
    assert reduce([6, 9], 4, [0, 6], 6) == [6, 5]
