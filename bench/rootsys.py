"""Root-system arithmetic written apart from kmweights, for checking its outputs.

Everything works on plain integer lists and Fractions.  A weight is stored as
its offset c, meaning mu = lambda - sum_i c_i alpha_i, and lambda enters only
through its pairings q_i = (h_i, lambda), as in the program's JSON.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product


def offsets_up_to(n, h):
    """All c in Z_{>=0}^n with sum(c) <= h."""
    return [c for c in product(range(h + 1), repeat=n) if sum(c) <= h]


def pairing(a, q, c, i):
    """(h_i, lambda - sum_j c_j alpha_j)."""
    return q[i] - sum(a[i][j] * c[j] for j in range(len(c)))


def reflect(a, q, c, i):
    """Offset of s_i(lambda - c); its i-th entry may come out negative."""
    p = pairing(a, q, c, i)
    if p.denominator != 1:
        raise ValueError(f"s_{i} leaves lambda - Q at offset {c}")
    out = list(c)
    out[i] += int(p)
    return tuple(out)


def integrable_nodes(q):
    """I_lambda: the nodes where (h_i, lambda) is a nonnegative integer."""
    return [i for i, x in enumerate(q) if x.denominator == 1 and x >= 0]


def positive_roots_and_coroots(a):
    """Positive roots of a finite-type matrix, each with its coroot.

    w alpha_i and w h_i are reached by the same reflections: s_j acts on the
    root lattice through the rows of A and on the coroot lattice through its
    columns.
    """
    n = len(a)
    start = [(tuple(int(i == k) for k in range(n)),) * 2 for i in range(n)]
    found = dict(start)
    frontier = list(start)
    while frontier:
        nxt = []
        for beta, gamma in frontier:
            for j in range(n):
                b = list(beta)
                b[j] -= sum(a[j][k] * beta[k] for k in range(n))
                g = list(gamma)
                g[j] -= sum(a[k][j] * gamma[k] for k in range(n))
                b, g = tuple(b), tuple(g)
                if min(b) >= 0 and any(b) and b not in found:
                    found[b] = g
                    nxt.append((b, g))
        frontier = nxt
    return found


@lru_cache(maxsize=None)
def finite_type(a, limit=1000):
    """Whether the root system of `a` (a tuple of rows) is finite: its positive
    roots run out."""
    n = len(a)
    found = {tuple(int(i == k) for k in range(n)) for i in range(n)}
    frontier = list(found)
    while frontier and len(found) <= limit:
        nxt = []
        for beta in frontier:
            for j in range(n):
                b = list(beta)
                b[j] -= sum(a[j][k] * beta[k] for k in range(n))
                b = tuple(b)
                if min(b) >= 0 and b not in found:
                    found.add(b)
                    nxt.append(b)
        frontier = nxt
    return not frontier


def weyl_dimension(a, q):
    """dim L(lambda) = prod over positive coroots of (lambda+rho, b)/(rho, b)."""
    dim = Fraction(1)
    for coroot in positive_roots_and_coroots(a).values():
        dim *= Fraction(sum(k * (x + 1) for k, x in zip(coroot, q)), sum(coroot))
    return dim


def lowest_offset(a, q):
    """Offset of w0 lambda for dominant integral lambda of finite type."""
    c = (0,) * len(q)
    while True:
        i = next((i for i in range(len(q)) if pairing(a, q, c, i) > 0), None)
        if i is None:
            return c
        c = reflect(a, q, c, i)


def finite_weight_set(a, q, h):
    """Weights of L(lambda) for finite type and dominant integral lambda.

    mu is a weight exactly when its dominant conjugate lies below lambda.
    Raising mu by reflections lowers the offset's height; a negative entry
    on the way means mu is not below lambda.
    """
    out = set()
    for c in offsets_up_to(len(q), h):
        d = c
        while min(d) >= 0:
            i = next((i for i in range(len(q)) if pairing(a, q, d, i) < 0), None)
            if i is None:
                out.add(c)
                break
            d = reflect(a, q, d, i)
    return out


def weight_set_faults(a, q, h, members):
    """Properties every truncated wt L(lambda) has; returns the first broken one.

    lambda is a weight; the set is closed under s_i for i in I_lambda wherever
    the image stays under the height bound; for i outside I_lambda every
    lambda - k alpha_i with k <= h is a weight.
    """
    n = len(q)
    members = set(map(tuple, members))
    if (0,) * n not in members:
        return "lambda itself is missing"
    for c in members:
        if min(c) < 0 or sum(c) > h:
            return f"offset {c} outside the height window"
    ilam = integrable_nodes(q)
    for i in ilam:
        for c in members:
            img = reflect(a, q, c, i)
            if img[i] < 0:
                return f"s_{i} lifts offset {c} above lambda"
            if sum(img) <= h and img not in members:
                return f"s_{i} image {img} of {c} is missing"
    for i in range(n):
        if i not in ilam:
            for k in range(h + 1):
                c = tuple(k if j == i else 0 for j in range(n))
                if c not in members:
                    return f"string offset {c} is missing"
    return None


def _descend(a, c):
    """Lower a positive vector by simple reflections until none lowers it.

    Stops at height 1, at a vector in the fundamental chamber, or at the
    first vector with a negative entry.
    """
    n = len(c)
    while sum(c) > 1:
        i = next((i for i in range(n) if sum(a[i][j] * c[j] for j in range(n)) > 0), None)
        if i is None:
            return c
        out = list(c)
        out[i] -= sum(a[i][j] * c[j] for j in range(n))
        c = tuple(out)
        if min(c) < 0:
            return c
    return c


def _connected(a, nodes):
    nodes = set(nodes)
    seen = {min(nodes)}
    stack = list(seen)
    while stack:
        i = stack.pop()
        for j in nodes - seen:
            if a[i][j]:
                seen.add(j)
                stack.append(j)
    return seen == nodes


def root_kind(a, c):
    """'real', 'imaginary' or None for a nonzero vector c >= 0.

    Real roots are W-images of simple roots; positive imaginary roots are
    W-images of vectors with connected support and no positive pairing.
    """
    d = _descend(a, c)
    if min(d) < 0:
        return None
    if sum(d) == 1:
        return "real"
    supp = [i for i, x in enumerate(d) if x]
    if sum(d) == 0 or not _connected(a, supp):
        return None
    return "imaginary"


def roots_up_to(a, h, kind):
    return {c for c in offsets_up_to(len(a), h) if any(c) and root_kind(a, c) == kind}


def weyl_order(a):
    """|W| for finite type: the orbit of the regular weight rho."""
    n = len(a)
    rho = [Fraction(1)] * n
    seen = {(0,) * n}
    frontier = list(seen)
    while frontier:
        nxt = []
        for c in frontier:
            for i in range(n):
                img = list(c)
                img[i] += int(pairing(a, rho, c, i))
                img = tuple(img)
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return len(seen)
