from fractions import Fraction

import pytest
from hypothesis import strategies as st

from kmweights import HighestWeight, parse_gcm

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


PAIRINGS = [0, 1, 2, Fraction(-1, 2), Fraction(-3, 2), Fraction(1, 3)]


@st.composite
def small_gcms_and_weights(draw):
    """A random GCM of rank <= 3 (symmetric zero pattern) and highest weight."""
    n = draw(st.integers(1, 3))
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            a[i][j] = draw(st.sampled_from([0, -1, -2, -3]))
            if a[i][j]:
                a[j][i] = draw(st.sampled_from([-1, -2, -3]))
    q = draw(st.lists(st.sampled_from(PAIRINGS), min_size=n, max_size=n))
    return parse_gcm(a), HighestWeight.of(q)


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
