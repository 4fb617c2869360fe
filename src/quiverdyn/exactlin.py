"""Dense linear algebra over the rationals.

Matrices are lists (or tuples) of rows of Fraction entries. Every result
here is exact: no pivoting heuristics or tolerances are needed. Sizes are
desk scale (dimensions well below 100), so Gaussian elimination and
Faddeev-LeVerrier are entirely adequate.

Univariate polynomials appear as coefficient lists in increasing degree,
again with Fraction entries. Their linear and quadratic factors over Q are
found by one loop, rational_factors, which takes candidates from numeric
roots and keeps only those that exact division proves.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from .errors import SolveFailed


# --- matrix basics -----------------------------------------------------------

def shape(A):
    return (len(A), len(A[0]) if A else 0)


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def zeros(m, n):
    return [[Fraction(0)] * n for _ in range(m)]


def transpose(A):
    return [list(col) for col in zip(*A)] if A else []

def matmul(A, B):
    m, k = shape(A)
    k2, n = shape(B)
    if k != k2:
        raise ValueError("matmul shape mismatch")
    Bt = transpose(B)
    return [[sum(a * b for a, b in zip(row, col)) for col in Bt] for row in A]


def matvec(A, x):
    return [sum(a * b for a, b in zip(row, x)) for row in A]


def madd(A, B):
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def msub(A, B):
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mscale(A, c):
    c = Fraction(c)
    return [[c * a for a in row] for row in A]


def trace(A):
    return sum(A[i][i] for i in range(len(A)))


def is_zero_matrix(A):
    return all(x == 0 for row in A for x in row)


# --- elimination ------------------------------------------------------------

def rref(A):
    """Reduced row echelon form. Returns (R, pivot_columns)."""
    R = [list(map(Fraction, row)) for row in A]
    m, n = shape(R)
    pivots = []
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, m) if R[i][c] != 0), None)
        if pivot is None:
            continue
        R[r], R[pivot] = R[pivot], R[r]
        pv = R[r][c]
        R[r] = [x / pv for x in R[r]]
        for i in range(m):
            if i != r and R[i][c] != 0:
                f = R[i][c]
                R[i] = [x - f * y for x, y in zip(R[i], R[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return R, pivots


def nullspace(A):
    """Basis of the kernel as a list of Fraction vectors.

    Uses the free-variable convention: each basis vector has a 1 in one free
    column and 0 in the others, ordered by ascending free column index.
    """
    n = shape(A)[1]
    return rref_nullspace(*rref(A), n) if n else []


def rref_nullspace(R, pivots, n):
    """The nullspace basis of a matrix with n columns from its rref."""
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -R[r][fc]
        basis.append(v)
    return basis


def solve(A, b):
    """Solve A x = b exactly; raises SolveFailed if inconsistent.

    If the system is underdetermined, free variables are set to zero.
    """
    m, n = shape(A)
    aug = [list(row) + [Fraction(bb)] for row, bb in zip(A, b)]
    R, pivots = rref(aug)
    for row in R:
        if all(x == 0 for x in row[:n]) and row[n] != 0:
            raise SolveFailed("inconsistent linear system")
    x = [Fraction(0)] * n
    for r, pc in enumerate(pivots):
        if pc < n:
            x[pc] = R[r][n]
    return x


def solve_matrix(A, B):
    """Solve A X = B columnwise."""
    Bt = transpose(B)
    cols = [solve(A, col) for col in Bt]
    return transpose(cols)


def inverse(A):
    n = len(A)
    aug = [list(row) + list(erow) for row, erow in zip(A, identity(n))]
    R, pivots = rref(aug)
    if pivots != list(range(n)):
        raise SolveFailed("matrix is singular")
    return [row[n:] for row in R]


# --- characteristic polynomial and friends -----------------------------------

def charpoly(A):
    """Monic characteristic polynomial det(tI - A).

    Returned as a coefficient list [c0, c1, ..., 1] in increasing degree,
    computed by the Faddeev-LeVerrier recursion.
    """
    n = len(A)
    coeffs = [Fraction(0)] * n + [Fraction(1)]
    M = identity(n)
    for k in range(1, n + 1):
        AM = matmul(A, M)
        ck = -trace(AM) / k
        coeffs[n - k] = ck
        M = madd(AM, mscale(identity(n), ck))
    return coeffs


def eval_matrix_poly(p, A):
    """Evaluate a coefficient-list polynomial at a square matrix (Horner)."""
    n = len(A)
    result = zeros(n, n)
    for c in reversed(p):
        result = matmul(result, A)
        for i in range(n):
            result[i][i] += c
    return result


# --- univariate polynomials over Q -------------------------------------------

def poly_trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_degree(p):
    return len(poly_trim(p)) - 1


def poly_mul(p, q):
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return poly_trim(out)


def poly_divmod(p, q):
    p = poly_trim([Fraction(c) for c in p])
    q = poly_trim([Fraction(c) for c in q])
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    quot = [Fraction(0)] * max(0, len(p) - len(q) + 1)
    rem = list(p)
    while len(rem) >= len(q) and rem:
        f = rem[-1] / q[-1]
        k = len(rem) - len(q)
        quot[k] = f
        for i, b in enumerate(q):
            rem[k + i] -= f * b
        rem = poly_trim(rem)
    return poly_trim(quot), rem


def poly_gcd(p, q):
    p, q = poly_trim(p), poly_trim(q)
    while q:
        p, q = q, poly_divmod(p, q)[1]
    return [c / p[-1] for c in p]


def poly_deriv(p):
    return poly_trim([c * i for i, c in enumerate(p)][1:])


def poly_squarefree_part(p):
    """p / gcd(p, p'), normalized monic."""
    q = poly_divmod(p, poly_gcd(p, poly_deriv(p)))[0]
    return [c / q[-1] for c in q]


def poly_shift(p, c):
    """p(t + c), exactly (Taylor shift by Horner's rule)."""
    q = []
    for a in reversed(p):
        q = [x + c * y for x, y in zip([Fraction(0)] + q, q + [Fraction(0)])]
        q[0] += a
    return q


def _numeric_roots(p):
    return np.roots([float(c) for c in reversed(p)])


def _rational_near(x, scale, bound):
    # limit_denominator(N) returns a/b (b <= N) when x is within 1/(2bN)
    # of it; x is good to 1e-14 * scale, so N = (2e-14 * scale)**-0.5.
    if scale:
        bound = min(bound, int((2e-14 * scale) ** -0.5) + 1)
    return Fraction(x).limit_denominator(bound)


def _proven_factor(g, degree):
    """A monic factor of degree 1 or 2 of the monic squarefree g that exact
    division proves, or None. Its coefficients lie in Z/D and Z/D**2, D the
    lcm of g's denominators (Gauss's lemma on D**n g(t/D)). g is shifted
    exactly to the nearest rational (denominator <= 2D) of each root z and
    solved again while the shift at least halves, so z's cluster is solved
    at its own scale; roots within its largest correction are tracked from
    there too. At each centre c, each root c + x, good to about 1e-14
    max(|x|, off) with off the distance the centre was rounded by, gives a
    linear candidate and each pair a quadratic (its product r (sum - r)
    from the better known root r)."""
    D = math.lcm(*(c.denominator for c in g))

    def pair(c, x, w, sx, sw):
        if sw < sx:
            x, w, sx, sw = w, x, sw, sx
        s = _rational_near(2 * c + Fraction((x + w).real), sx + sw, D)
        a, b = Fraction(x.real), Fraction(x.imag)
        p = (c + a) * (s - c - a) + b * b
        return [_rational_near(p, sx * abs(w - x), D * D), -s, Fraction(1)]

    zs = _numeric_roots(g)
    starts = [(Fraction(0), g, zs, i) for i in range(len(zs))]
    centres, tried = set(), set()
    for k, (c, h, roots, i) in enumerate(starts):
        steps, off = [math.inf], 0
        while True:
            x = roots[i]
            est = c + Fraction(x.real)
            step = _rational_near(est, max(abs(x), off), 2 * D) - c
            if not step or abs(step) > steps[-1] / 2:
                break
            h, c, off = poly_shift(h, step), c + step, abs(c + step - est)
            steps.append(abs(step))
            roots = _numeric_roots(h)
            i = np.argmin(abs(roots - (x - float(step))))
        if c in centres:
            continue
        centres.add(c)
        if k < len(zs):
            window = max(steps[2:], default=0)
            starts += [(c, h, roots, j) for j, w in enumerate(roots)
                       if j != i and abs(w) < window]
        scales = [max(abs(w), off) for w in roots]
        if degree == 1:
            candidates = ([-_rational_near(c + Fraction(w.real), s, D),
                           Fraction(1)] for w, s in zip(roots, scales))
        else:
            candidates = (pair(c, roots[j], roots[l], scales[j], scales[l])
                          for j, l in itertools.combinations(
                              range(len(roots)), 2))
        for f in candidates:
            if tuple(f) not in tried:
                tried.add(tuple(f))
                if not poly_divmod(g, f)[1]:
                    return f
    return None


def divide_out(p, f):
    """(m, p / f**m) for the largest m such that f**m divides p."""
    m, (quo, rem) = 0, poly_divmod(p, f)
    while not rem:
        p, m = quo, m + 1
        quo, rem = poly_divmod(p, f)
    return m, p


def _factors_of_degree(p, degree):
    """(factors, monic cofactor): the monic factors of p of the given
    degree that _proven_factor finds in its squarefree part, each with its
    multiplicity."""
    p = poly_trim([Fraction(c) for c in p])
    if not p:
        raise ValueError("zero polynomial")
    rest = [c / p[-1] for c in p]
    g, factors = poly_squarefree_part(rest), []
    while poly_degree(g) >= degree:
        f = g if poly_degree(g) == degree else _proven_factor(g, degree)
        if f is None:
            break
        g = poly_divmod(g, f)[0]
        m, rest = divide_out(rest, f)
        factors.append((f, m))
    return factors, rest


def rational_roots(p):
    """(roots, cofactor): the rational roots of p, sorted, with their
    multiplicities, and the monic rest of p, holding any root missed."""
    factors, cofactor = _factors_of_degree(p, 1)
    return sorted((-f[0], m) for f, m in factors), cofactor


def rational_factors(p):
    """(factors, cofactor): the monic linear, then quadratic factors of p
    over Q with their multiplicities, and the monic rest of p."""
    roots, cofactor = rational_roots(p)
    quadratics, cofactor = _factors_of_degree(cofactor, 2)
    return [([-r, Fraction(1)], m) for r, m in roots] + quadratics, cofactor
