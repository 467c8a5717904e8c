from fractions import Fraction
from itertools import takewhile
from math import lcm

import pytest
from hypothesis import strategies as st

from kmweights import HighestWeight, parse_gcm
from kmweights.series import decode, encode, mul_keys
from kmweights.weights import integrability_set, neg
from kmweights.weyl import enumerate_group

# The standing corpus: every GCM gets >= 3 highest weights mixing integral,
# non-integral, and zero pairings.
CORPUS_MATRICES = {
    "A1": [[2]],
    "A2": [[2, -1], [-1, 2]],
    "A3": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
    "B2": [[2, -1], [-2, 2]],
    "G2": [[2, -1], [-3, 2]],
    "aff_sl2": [[2, -2], [-2, 2]],
    "aff_rank3": [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]],
    "hyperbolic": [[2, -3], [-3, 2]],
    "fig_right": [[2, -2, -1], [-2, 2, 0], [-1, 0, 2]],
}

CORPUS_WEIGHTS = {
    "A1": [["3"], ["-3/2"], ["0"]],
    "A2": [["1", "1"], ["1", "-7/2"], ["0", "0"]],
    # first entry realizes the I_lambda = {1, 2} pattern (0-indexed)
    "A3": [["-1/2", "2", "0"], ["1", "1", "1"], ["0", "0", "0"]],
    "B2": [["1", "0"], ["-5/2", "2"], ["0", "0"]],
    "G2": [["1", "1"], ["2", "-1/3"], ["0", "0"]],
    "aff_sl2": [["1", "0"], ["0", "0"], ["-1/2", "2"]],
    "aff_rank3": [["1", "0", "0"], ["2", "-3/2", "1"], ["0", "0", "0"]],
    "hyperbolic": [["1", "1"], ["0", "0"], ["3", "-2/7"]],
    # first entry realizes the I_lambda = {0, 1} pattern
    "fig_right": [["1", "2", "-1/2"], ["0", "1", "-3/4"], ["0", "0", "0"]],
}


def corpus():
    for name, m in CORPUS_MATRICES.items():
        g = parse_gcm(m)
        for qs in CORPUS_WEIGHTS[name]:
            lam = HighestWeight.of([Fraction(x) for x in qs])
            yield name, g, lam, qs


def fraction_independent_rows(rows):
    """Reference for `lp.independent_rows`: row k is kept when it raises the
    rank of the rows kept before it, each rank by Gaussian elimination in
    Fractions from scratch."""

    def rank(m):
        m = [[Fraction(x) for x in row] for row in m]
        r = 0
        for col in range(len(m[0]) if m else 0):
            pivot = next((i for i in range(r, len(m)) if m[i][col]), None)
            if pivot is None:
                continue
            m[r], m[pivot] = m[pivot], m[r]
            for i in range(r + 1, len(m)):
                f = m[i][col] / m[r][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
            r += 1
        return r

    kept = []
    for k, row in enumerate(rows):
        if rank([rows[j] for j in kept] + [row]) > len(kept):
            kept.append(k)
    return kept


def fraction_phase1(a, b):
    """Reference for `lp.feasible`: phase 1 on a dense Fraction tableau.

    Row i is f_i (a_i | b_i), with f_i the lcm of the row's denominators,
    negated when b_i < 0 (phase 1 minimizes the sum of the artificials of
    these rows), and an artificial column e_i (column n + i) of cost 1.
    Bland's rule enters the first column with a positive reduced cost; the
    ratio test leaves the row of least ratio, then of least basic column.
    Returns (x, basis, inverse, farkas): x the basic solution {j: x_j} or
    None, inverse B^-1 in the caller's rows, and farkas the phase-1 duals in
    the caller's rows when the system is infeasible (else None).
    """
    m, n = len(a), len(a[0])
    factor = []
    for row, v in zip(a, b):
        f = lcm(*(Fraction(x).denominator for x in [*row, v]))
        factor.append(-f if v < 0 else f)
    tab = [
        [Fraction(factor[i] * v) for v in a[i]]
        + [Fraction(int(i == k)) for k in range(m)]
        + [Fraction(factor[i] * b[i])]
        for i in range(m)
    ]
    cost = [0] * n + [1] * m
    basis = list(range(n, n + m))
    while True:
        reduced = [
            sum(cost[basis[k]] * tab[k][j] for k in range(m)) - cost[j]
            for j in range(n + m)
        ]
        enter = next((j for j in range(n + m) if reduced[j] > 0), None)
        if enter is None:
            break
        rows = [k for k in range(m) if tab[k][enter] > 0]
        leave = min(rows, key=lambda k: (tab[k][-1] / tab[k][enter], basis[k]))
        pivot = [v / tab[leave][enter] for v in tab[leave]]
        tab = [
            pivot if k == leave else [v - row[enter] * w for v, w in zip(row, pivot)]
            for k, row in enumerate(tab)
        ]
        basis[leave] = enter
    # Columns n + i hold B^-1 of the scaled rows; y = c_B B^-1 are the duals.
    inverse = [[row[n + i] * factor[i] for i in range(m)] for row in tab]
    if sum(cost[basis[k]] * tab[k][-1] for k in range(m)) > 0:
        duals = [sum(cost[basis[k]] * tab[k][n + i] for k in range(m)) for i in range(m)]
        return None, basis, inverse, [y * f for y, f in zip(duals, factor)]
    x = {basis[k]: tab[k][-1] for k in range(m) if basis[k] < n}
    return x, basis, inverse, None


PAIRINGS = [0, 1, 2, -1, Fraction(-1, 2), Fraction(-3, 2), Fraction(1, 3)]


@st.composite
def small_gcms(draw, max_rank=3):
    """A random GCM of rank <= max_rank with a symmetric zero pattern."""
    n = draw(st.integers(1, max_rank))
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            a[i][j] = draw(st.sampled_from([0, -1, -2, -3]))
            if a[i][j]:
                a[j][i] = draw(st.sampled_from([-1, -2, -3]))
    return parse_gcm(a)


@st.composite
def small_gcms_and_weights(draw):
    """A random GCM of rank <= 3 (symmetric zero pattern) and highest weight."""
    g = draw(small_gcms())
    q = draw(st.lists(st.sampled_from(PAIRINGS), min_size=g.n, max_size=g.n))
    return g, HighestWeight.of(q)


def reflect(g, i, v):
    """s_i on the root lattice, alpha_j -> alpha_j - a_ij alpha_i: a reference
    written apart from the offset reflection of kmweights.weyl."""
    out = list(v)
    out[i] -= sum(g.a[i][j] * v[j] for j in range(g.n))
    return tuple(out)


def in_parabolic_dominant(lam, g, c, nodes):
    """mu = lambda - c lies in the parabolic dominant chamber for `nodes`: the
    per-offset predicate that the capped `weights.offsets_up_to` replaces, as a reference."""
    # (h_i, mu) = q_i - (A c)_i is an integer exactly when q_i is.
    for i in nodes:
        q = lam.q[i]
        if q.denominator != 1 or q.numerator < sum(g.a[i][j] * c[j] for j in range(g.n)):
            return False
    return True


def apply(w, v):
    """w v for a root-lattice vector v, by linearity in the images w(alpha_i)."""
    return tuple(sum(x * y for x, y in zip(v, col)) for col in zip(*w.simple_images))


def hull_generators_by_elements(lam, g, depth):
    """Vertices lambda - w lambda and rays -w alpha_i, i outside J = I_lambda,
    over the w in W_J of length <= depth, read off the element walk: a
    reference for the point walks of `hull_generators`."""
    nodes = sorted(integrability_set(lam))
    vertices, rays = set(), set()
    for w in takewhile(lambda w: w.length <= depth, enumerate_group(lam, g, nodes)):
        vertices.add(w.displacement)
        rays.update(neg(w.simple_images[i]) for i in range(g.n) if i not in nodes)
    return vertices, rays


def keyed_laurent(rank, exponents):
    """prod over v of (1 - e^{v}), multiplied out by `mul_keys` on the balanced
    key of the denominator check and decoded with `decode`.

    The digit bound m = max_k sum over v of |v_k| bounds every coordinate of
    every partial product, and a product over Phi^+ of (1 - e^{-a}) reaches it.
    """
    exponents = [tuple(v) for v in exponents]
    m = max((sum(map(abs, col)) for col in zip(*exponents)), default=0)
    base = 2 * m + 1
    powers = [base ** k for k in range(rank)]
    out = {0: 1}
    for v in exponents:
        factor = {0: 1}
        key = encode(v, powers)
        factor[key] = factor.get(key, 0) - 1
        out = mul_keys(out, factor, base ** rank)
    return {decode(k, base, rank, m): v for k, v in out.items()}


CORPUS_CASES = [
    pytest.param(g, lam, id=f"{name}:{','.join(qs)}")
    for name, g, lam, qs in corpus()
]


@pytest.fixture
def a1():
    return parse_gcm([[2]])


@pytest.fixture
def a2():
    return parse_gcm([[2, -1], [-1, 2]])


@pytest.fixture
def aff_sl2():
    return parse_gcm([[2, -2], [-2, 2]])


@pytest.fixture
def g2():
    return parse_gcm([[2, -1], [-3, 2]])
