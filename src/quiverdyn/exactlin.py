"""Dense linear algebra over the rationals.

Matrices are lists (or tuples) of rows of Fraction (or int) entries; all
results are exact and unique, and hold Fractions. Products clear one
denominator per matrix and multiply ints, rref keeps its rows primitive
integers, and charpoly is Berkowitz's division-free recursion.

Univariate polynomials appear as coefficient lists in increasing degree,
with int or Fraction entries in and Fraction entries out. Inside, the
factoring layer (gcd, squarefree part, Taylor shift, division) runs on
primitive integer lists. Linear and quadratic factors over Q are found by
one loop, rational_factors, which takes candidates from numeric roots and
keeps only those that exact division proves.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import mul

import numpy as np

from .errors import SolveFailed

_ZERO = Fraction(0)


# --- matrix basics -----------------------------------------------------------

def shape(A):
    return (len(A), len(A[0]) if A else 0)


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def zeros(m, n):
    return [[_ZERO] * n for _ in range(m)]


def _cleared(A):
    """(N, d): A = N / d, N integer, d the lcm of A's denominators."""
    d = math.lcm(*{x.denominator for row in A for x in row})
    if d == 1:
        return [[x.numerator for x in row] for row in A], 1
    return [[x.numerator * (d // x.denominator) for x in row]
            for row in A], d


def _over(N, d):
    """The integer matrix N divided by d, as Fractions."""
    return [[Fraction(x, d) if x else _ZERO for x in row] for row in N]


def _square(A, what):
    if any(len(row) != len(A) for row in A):
        raise ValueError(f"{what}: matrix is not square")
    return len(A)


def matmul(A, B):
    if shape(A)[1] != len(B):
        raise ValueError("matmul shape mismatch")
    (N, dA), (M, dB) = _cleared(A), _cleared(B)
    Mt = list(zip(*M))
    return _over([[sum(map(mul, r, c)) for c in Mt] for r in N], dA * dB)


def matvec(A, x):
    (N, dA), ((v,), dx) = _cleared(A), _cleared([x])
    return _over([[sum(map(mul, row, v)) for row in N]], dA * dx)[0]


# --- elimination ------------------------------------------------------------

def _primitive(row):
    """The integer row divided by the gcd of its entries."""
    g = math.gcd(*row)
    return [x // g for x in row] if g > 1 else row


def rref(A):
    """Reduced row echelon form (R, pivot_columns), by Gauss-Jordan on
    primitive integer rows; each pivot row is divided once, at the end."""
    R = [_primitive(_cleared([row])[0][0]) for row in A]
    m, n = shape(R)
    pivots = []
    for c in range(n):
        r = len(pivots)
        pivot = next((i for i in range(r, m) if R[i][c]), None)
        if pivot is None:
            continue
        R[r], R[pivot] = R[pivot], R[r]
        prow, p = R[r], R[r][c]
        for i in range(m):
            f = R[i][c]
            if f and i != r:
                g = math.gcd(p, f)
                a, b = p // g, f // g
                R[i] = _primitive([a * x - b * y for x, y in zip(R[i], prow)])
        pivots.append(c)
    return ([_over([row], row[c])[0] for row, c in zip(R, pivots)]
            + zeros(m - len(pivots), n)), pivots


def nullspace(A):
    """Basis of the kernel: one vector per free column, in ascending order,
    with a 1 there and 0 in the other free columns."""
    n = shape(A)[1]
    return rref_nullspace(*rref(A), n) if n else []


def rref_nullspace(R, pivots, n):
    """The nullspace basis of a matrix with n columns from its rref."""
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        v = [Fraction(int(c == fc)) for c in range(n)]
        for r, pc in enumerate(pivots):
            v[pc] = -R[r][fc]
        basis.append(v)
    return basis


def solve(A, b):
    """The unique x with A x = b, or SolveFailed (see solve_matrix)."""
    return [row[0] for row in solve_matrix(A, [[c] for c in b])]


def solve_matrix(A, B):
    """The unique X with A X = B, from one rref of [A | B]; SolveFailed
    when A has rank below its column count or a column is inconsistent."""
    n = shape(A)[1]
    R, pivots = rref([list(row) + list(rb) for row, rb in zip(A, B)])
    rank = sum(c < n for c in pivots)
    if rank < n:
        raise SolveFailed(f"matrix has rank {rank} < {n} columns")
    if len(pivots) > n:
        raise SolveFailed("inconsistent linear system")
    return [row[n:] for row in R[:n]]


def inverse(A):
    """A^-1; SolveFailed when A is singular."""
    return solve_matrix(A, identity(_square(A, "inverse")))


# --- characteristic polynomial and friends -----------------------------------

def charpoly(A):
    """det(tI - A) as coefficients [c0, c1, ..., 1], increasing degree.

    Berkowitz's recursion on N = dA builds q, det(tI - N_r) for the leading
    r x r blocks N_r highest degree first; at r = n, q_j = d^j c_(n-j)."""
    n = _square(A, "charpoly")
    (N, d), q = _cleared(A), [1]
    for r in range(n):
        row, v = N[r][:r], [N[i][r] for i in range(r)]
        col = [1, -N[r][r]]      # first column of the Toeplitz step
        for _ in range(r):
            col.append(-sum(map(mul, row, v)))
            v = [sum(map(mul, N[i][:r], v)) for i in range(r)]
        q = [sum(col[j - i] * q[i] for i in range(min(j, r) + 1))
             for j in range(r + 2)]
    return [Fraction(c, d ** j) for j, c in enumerate(q)][::-1]


def eval_matrix_poly(p, A):
    """p(A) by Horner on ints: with A = N/d and p = c/e, H = c_m I and
    H -> H N + c_k d^(m-k) I end at e d^m p(A)."""
    n = _square(A, "eval_matrix_poly")
    (N, d), ((c,), e) = _cleared(A), _cleared([list(p) or [0]])
    Nt = list(zip(*N))
    H = [[c[-1] * (i == j) for j in range(n)] for i in range(n)]
    for k in range(1, len(c)):
        H = [[sum(map(mul, row, col)) for col in Nt] for row in H]
        for i in range(n):
            H[i][i] += c[-1 - k] * d ** k
    return _over(H, e * d ** (len(c) - 1))


# --- univariate polynomials over Q -------------------------------------------
#
# The factoring layer computes on primitive integer lists with a positive
# leading coefficient, the one integer associate of a polynomial over Q. By
# Gauss's lemma a primitive F divides P over Q exactly when P / F is integral,
# so every division below is an exact integer division. Results leave this
# module as Fraction lists, monic except divide_out's exact quotient.

def poly_trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_degree(p):
    return len(poly_trim(p)) - 1


def poly_mul(p, q):
    """p q, for int, Fraction or float coefficients."""
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return poly_trim(out)


def poly_deriv(p):
    return poly_trim([c * i for i, c in enumerate(p)][1:])


def _integral(p):
    """The primitive integer associate of p, leading coefficient > 0."""
    (P,), _ = _cleared([poly_trim(p)])
    g = math.gcd(*P)
    if P and P[-1] < 0:
        g = -g
    return [x // g for x in P] if g not in (0, 1) else P


def _nonzero(p):
    P = _integral(p)
    if not P:
        raise ValueError("zero polynomial")
    return P


def _monic(P):
    return [Fraction(x, P[-1]) for x in P]


def _roots(P):
    # x / P[-1] is the correctly rounded float of the monic coefficient
    return np.roots([x / P[-1] for x in reversed(P)])


def _quo(P, F):
    """P / F when the primitive F divides P, else None."""
    R, n, b = list(P), len(F) - 1, F[-1]
    Q = [0] * (len(R) - n)
    for k in reversed(range(len(Q))):
        a, r = divmod(R[k + n], b)
        if r:
            return None
        Q[k] = a
        if a:
            for i in range(n):
                R[k + i] -= a * F[i]
    return None if any(R[:n]) else Q


def _gcd(P, Q):
    """gcd of primitive P and Q by the primitive pseudo-remainder
    sequence."""
    while Q:
        R, b = P, Q[-1]
        while len(R) >= len(Q):
            a, k = R[-1], len(R) - len(Q)
            g = math.gcd(a, b)
            R = [x * (b // g) for x in R]
            for i, y in enumerate(Q):
                R[k + i] -= (a // g) * y
            R = poly_trim(R)
        P, Q = Q, _integral(R)
    return P


def _squarefree(P):
    return _quo(P, _gcd(P, _integral(poly_deriv(P))))


def _shifted(P, step):
    """The primitive associate of P(t + step), by Horner's rule in
    b t + a for step = a / b."""
    a, b = step.numerator, step.denominator
    H, w = [], 1
    for c in reversed(P):
        H = [a * x + b * y for x, y in zip(H + [0], [0] + H)]
        H[0] += c * w
        w *= b
    return _integral(H)


def poly_gcd(p, q):
    """The monic gcd of p and q ([] when both are 0)."""
    return _monic(_gcd(_integral(p), _integral(q)))


def poly_squarefree_part(p):
    """p / gcd(p, p'), normalized monic."""
    return _monic(_squarefree(_nonzero(p)))


def _divide_out(P, F):
    """(m, P / F**m) for the largest m such that F**m divides P."""
    m, Q = 0, _quo(P, F)
    while Q is not None:
        P, m, Q = Q, m + 1, _quo(Q, F)
    return m, P


def divide_out(p, f):
    """(m, p / f**m) for the largest m such that f**m divides p; f of
    degree at least 1, p not 0."""
    P, F = _integral(p), _integral(f)
    if not P or len(F) < 2:
        raise ValueError("divide_out needs p != 0 and deg f >= 1")
    m, Q = _divide_out(P, F)
    scale = Fraction(poly_trim(p)[-1]) / Fraction(poly_trim(f)[-1]) ** m
    return m, [x * scale for x in _monic(Q)]


def _rational_near(x, scale, bound):
    # limit_denominator(N) returns a/b (b <= N) when x is within 1/(2bN)
    # of it; x is good to 1e-14 * scale, so N = (2e-14 * scale)**-0.5.
    if scale:
        bound = min(bound, int((2e-14 * scale) ** -0.5) + 1)
    return Fraction(x).limit_denominator(bound)


def _proven_factor(G, degree):
    """A primitive factor of degree 1 or 2 of the primitive squarefree G
    that exact division proves, or None. The monic factor's coefficients
    lie in Z/D and Z/D**2, D the lcm of the denominators of G / G[-1]
    (Gauss's lemma on D**n g(t/D)). G is shifted exactly to the nearest
    rational (denominator <= 2D) of each root z and solved again while the
    shift at least halves, so z's cluster is solved at its own scale; roots
    within its largest correction are tracked from there too. At each
    centre c, each root c + x, good to about 1e-14 max(|x|, off) with off
    the distance the centre was rounded by, gives a linear candidate and
    each pair a quadratic (its product r (sum - r) from the better known
    root r)."""
    D = math.lcm(*(G[-1] // math.gcd(G[-1], x) for x in G))

    def linear(c, w, s):
        r = _rational_near(c + Fraction(w.real), s, D)
        return (-r.numerator, r.denominator)

    def pair(c, x, w, sx, sw):
        if sw < sx:
            x, w, sx, sw = w, x, sw, sx
        s = _rational_near(2 * c + Fraction((x + w).real), sx + sw, D)
        a, b = Fraction(x.real), Fraction(x.imag)
        p = _rational_near((c + a) * (s - c - a) + b * b,
                           sx * abs(w - x), D * D)
        e = math.lcm(p.denominator, s.denominator)
        return (p.numerator * (e // p.denominator),
                -s.numerator * (e // s.denominator), e)

    zs = _roots(G)
    starts = [(Fraction(0), G, zs, i) for i in range(len(zs))]
    centres, tried = set(), set()
    for k, (c, H, roots, i) in enumerate(starts):
        steps, off = [math.inf], 0
        while True:
            x = roots[i]
            est = c + Fraction(x.real)
            step = _rational_near(est, max(abs(x), off), 2 * D) - c
            if not step or abs(step) > steps[-1] / 2:
                break
            H, c, off = _shifted(H, step), c + step, abs(c + step - est)
            steps.append(abs(step))
            roots = _roots(H)
            i = np.argmin(abs(roots - (x - float(step))))
        if c in centres:
            continue
        centres.add(c)
        if k < len(zs):
            window = max(steps[2:], default=0)
            starts += [(c, H, roots, j) for j, w in enumerate(roots)
                       if j != i and abs(w) < window]
        scales = [max(abs(w), off) for w in roots]
        if degree == 1:
            candidates = (linear(c, w, s) for w, s in zip(roots, scales))
        else:
            candidates = (pair(c, roots[j], roots[l], scales[j], scales[l])
                          for j, l in itertools.combinations(
                              range(len(roots)), 2))
        for F in candidates:
            if F not in tried:
                tried.add(F)
                if _quo(G, F) is not None:
                    return F
    return None


def _factors_of_degree(P, degree):
    """(factors, cofactor): the primitive factors of the primitive P of
    the given degree that _proven_factor finds in its squarefree part,
    each with its multiplicity, and P divided by them."""
    G, factors = _squarefree(P), []
    while len(G) > degree:
        F = G if len(G) == degree + 1 else _proven_factor(G, degree)
        if F is None:
            break
        G = _quo(G, F)
        m, P = _divide_out(P, F)
        factors.append((F, m))
    return factors, P


def rational_roots(p):
    """(roots, cofactor): the rational roots of p, sorted, with their
    multiplicities, and the monic rest of p, holding any root missed."""
    factors, rest = _factors_of_degree(_nonzero(p), 1)
    return (sorted((Fraction(-F[0], F[1]), m) for F, m in factors),
            _monic(rest))


def rational_factors(p):
    """(factors, cofactor): the monic linear, then quadratic factors of p
    over Q with their multiplicities, and the monic rest of p."""
    roots, cofactor = rational_roots(p)
    quadratics, rest = _factors_of_degree(_integral(cofactor), 2)
    return ([([-r, Fraction(1)], m) for r, m in roots]
            + [(_monic(F), m) for F, m in quadratics]), _monic(rest)


def shared_factors(polys):
    """(factors, mults) for nonzero polys: the monic factors that
    rational_factors proves in the lcm of the polys, then the squarefree
    part of its unproven cofactor, pairwise coprime; mults[i][k] is the
    multiplicity of factors[i] in polys[k]."""
    Ps, lcm = [_nonzero(p) for p in polys], [1]
    for P in Ps:
        lcm = poly_mul(lcm, _quo(P, _gcd(lcm, P)))
    found, rest = rational_factors(lcm)
    Fs = [_integral(f) for f, _ in found]
    if len(rest) > 1:
        Fs.append(_squarefree(_integral(rest)))
    mults = [[] for _ in Fs]
    for P in Ps:
        for row, F in zip(mults, Fs):
            m, P = _divide_out(P, F)
            row.append(m)
    return [_monic(F) for F in Fs], mults
