"""Dense linear algebra over the rationals.

Matrices are lists (or tuples) of rows of Fraction entries. Everything here
is exact: no pivoting heuristics or tolerances are needed. Sizes are desk
scale (dimensions well below 100), so Gaussian elimination and
Faddeev-LeVerrier are entirely adequate.

Univariate polynomials appear as coefficient lists in increasing degree,
again with Fraction entries.
"""

from __future__ import annotations

from fractions import Fraction

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


def mat_pow(A, k):
    n = len(A)
    result = identity(n)
    base = [row[:] for row in A]
    while k:
        if k & 1:
            result = matmul(result, base)
        k >>= 1
        if k:
            base = matmul(base, base)
    return result


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


def rank(A):
    return len(rref(A)[1])


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
    p = poly_trim(p)
    return len(p) - 1


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
    if p:
        lead = p[-1]
        p = [c / lead for c in p]
    return p


def poly_deriv(p):
    return poly_trim([c * i for i, c in enumerate(p)][1:])


def poly_squarefree_part(p):
    """p / gcd(p, p'), normalized monic."""
    g = poly_gcd(p, poly_deriv(p))
    if poly_degree(g) <= 0:
        q = poly_trim(p)
    else:
        q = poly_divmod(p, g)[0]
    if q:
        lead = q[-1]
        q = [c / lead for c in q]
    return q


def poly_eval(p, x):
    total = Fraction(0) if isinstance(x, (int, Fraction)) else 0.0
    for c in reversed(poly_trim(p)):
        total = total * x + c
    return total


def rational_roots(p):
    """All rational roots of p with multiplicities.

    Returns (roots, cofactor) where roots is a list of (root, multiplicity)
    sorted by root value, and cofactor is the remaining monic factor with no
    rational roots.
    """
    p = poly_trim([Fraction(c) for c in p])
    if not p:
        raise ValueError("zero polynomial")
    roots = []
    # factor out t^k first
    k = 0
    while p[0] == 0:
        p = p[1:]
        k += 1
    if k:
        roots.append((Fraction(0), k))
    if poly_degree(p) >= 1:
        # clear denominators -> integer coefficients
        from math import lcm
        den = lcm(*[c.denominator for c in p]) if len(p) > 1 else p[0].denominator
        ip = [int(c * den) for c in p]
        from math import gcd
        g = 0
        for c in ip:
            g = gcd(g, c)
        if g > 1:
            ip = [c // g for c in ip]

        def divisors(n):
            n = abs(n)
            out = set()
            d = 1
            while d * d <= n:
                if n % d == 0:
                    out.add(d)
                    out.add(n // d)
                d += 1
            return out

        candidates = set()
        for num in divisors(ip[0]):
            for den2 in divisors(ip[-1]):
                candidates.add(Fraction(num, den2))
                candidates.add(Fraction(-num, den2))
        for r in sorted(candidates):
            mult = 0
            while poly_degree(p) >= 1 and poly_eval(p, r) == 0:
                p = poly_divmod(p, [-r, Fraction(1)])[0]
                mult += 1
            if mult:
                roots.append((r, mult))
    roots.sort(key=lambda t: t[0])
    if p:
        lead = p[-1]
        p = [c / lead for c in p]
    return roots, p
