from fractions import Fraction
from itertools import combinations, permutations
from math import prod

import pytest
from hypothesis import given, settings

from kmweights.cartan import (
    DiagramType,
    classify,
    components,
    is_finite_type,
    parse_gcm,
    symmetrizable,
)
from kmweights.errors import InputError

from conftest import small_gcms

FIG_LEFT = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
FIG_RIGHT = [[2, -2, -1], [-2, 2, 0], [-1, 0, 2]]


def test_parse_valid_three_node():
    g = parse_gcm(FIG_LEFT)
    assert g.n == 3
    assert g.labels == ("0", "1", "2")


def test_parse_smallest():
    assert parse_gcm([[2]]).n == 1


def test_parse_rejects_asymmetric_vanishing():
    with pytest.raises(InputError, match=r"a\[1\]\[0\]"):
        parse_gcm([[2, -1], [0, 2]])


def test_parse_rejects_bad_diagonal():
    with pytest.raises(InputError, match=r"^a\[0\]\[0\] = 1 != 2$"):
        parse_gcm([[1]])


def test_parse_rejects_positive_offdiagonal():
    with pytest.raises(InputError, match=r"^a\[0\]\[1\] = 1 > 0$"):
        parse_gcm([[2, 1], [1, 2]])


@pytest.mark.parametrize(
    "matrix,expected",
    [
        ([[2, -1], [-1, 2]], DiagramType.FINITE),
        ([[2, -2], [-2, 2]], DiagramType.AFFINE),
        ([[2, -3], [-3, 2]], DiagramType.INDEFINITE),
        ([[2, -4], [-1, 2]], DiagramType.AFFINE),
        ([[2]], DiagramType.FINITE),
    ],
)
def test_classify_trichotomy(matrix, expected):
    g = parse_gcm(matrix)
    [(nodes, t)] = classify(g)
    assert nodes == tuple(range(g.n))
    assert t is expected


def test_classify_splits_components():
    g = parse_gcm([[2, 0, 0], [0, 2, -2], [0, -2, 2]])
    got = dict(classify(g))
    assert got[(0,)] is DiagramType.FINITE
    assert got[(1, 2)] is DiagramType.AFFINE


def test_classify_permutation_invariant():
    # Relabeling nodes permutes the component sets, nothing else.
    g = parse_gcm([[2, -3, 0], [-3, 2, 0], [0, 0, 2]])
    perm = [2, 0, 1]
    pg = parse_gcm([[g.a[perm[i]][perm[j]] for j in range(3)] for i in range(3)])
    types = sorted(t.value for _, t in classify(g))
    ptypes = sorted(t.value for _, t in classify(pg))
    assert types == ptypes


# A subdiagram is the diagram on a node set, which classify takes.
def test_subdiagram_fig_left():
    assert classify(parse_gcm(FIG_LEFT), [1, 2]) == [((1, 2), DiagramType.FINITE)]


def test_subdiagram_fig_right():
    g = parse_gcm(FIG_RIGHT)
    assert classify(g, [0, 1]) == [((0, 1), DiagramType.AFFINE)]
    assert not is_finite_type(g, [0, 1])


def test_subdiagram_empty():
    g = parse_gcm(FIG_LEFT)
    assert classify(g, []) == []
    assert is_finite_type(g, [])


def test_subdiagram_of_finite_stays_finite():
    g = parse_gcm(FIG_LEFT)
    for r in range(4):
        for nodes in combinations(range(3), r):
            assert is_finite_type(g, nodes)


def test_symmetrizable_symmetric_case():
    assert symmetrizable(parse_gcm([[2, -1], [-1, 2]])) == (1, 1)


def test_symmetrizable_b2_witness():
    # Solve d_1 a_12 = d_2 a_21 over positive rationals.
    d = symmetrizable(parse_gcm([[2, -2], [-1, 2]]))
    assert d == (Fraction(1), Fraction(2))


@pytest.mark.parametrize("matrix", [FIG_LEFT, FIG_RIGHT, [[2, -4], [-1, 2]]])
def test_symmetrizer_witness_is_exact(matrix):
    g = parse_gcm(matrix)
    d = symmetrizable(g)
    assert d is not None
    for i in range(g.n):
        assert d[i] > 0
        for j in range(g.n):
            assert d[i] * g.a[i][j] == d[j] * g.a[j][i]


@given(small_gcms(max_rank=4))
@settings(max_examples=200, deadline=None)
def test_symmetrizable_iff_cycle_products_agree(g):
    # Kac, Ex. 2.1: A is symmetrizable iff every cycle i1, ..., ik of distinct
    # nodes has a_{i1 i2} ... a_{ik i1} = a_{i2 i1} ... a_{i1 ik}.
    def cycle_ok(cyc):
        steps = list(zip(cyc, cyc[1:] + cyc[:1]))
        return prod(g.a[i][j] for i, j in steps) == prod(g.a[j][i] for i, j in steps)

    cycles = [cyc for k in range(3, g.n + 1) for cyc in permutations(range(g.n), k)]
    d = symmetrizable(g)
    assert (d is None) == (not all(cycle_ok(cyc) for cyc in cycles))
    if d is not None:
        assert all(x > 0 for x in d)
        pairs = [(i, j) for i in range(g.n) for j in range(g.n)]
        assert all(d[i] * g.a[i][j] == d[j] * g.a[j][i] for i, j in pairs)


def test_components_of_whole_diagram():
    g = parse_gcm([[2, -1, 0, 0], [-1, 2, 0, 0], [0, 0, 2, -1], [0, 0, -1, 2]])
    assert components(g) == [(0, 1), (2, 3)]
    assert components(g, range(4)) == components(g)


def test_components_on_node_subsets():
    g = parse_gcm(FIG_LEFT)  # the path 0 - 1 - 2
    assert components(g, [0, 2]) == [(0,), (2,)]
    assert components(g, [2, 1]) == [(1, 2)]
    assert components(g, {1}) == [(1,)]
    assert components(g, []) == []
