"""Exact rational vectors and small dense linear algebra.

Vectors are tuples of int or Fraction (floats convert exactly), matrices
tuples of rows; `dot` stays an int on ints.  Every elimination takes integer
rows, as every caller holds its points and normals as integer numerators
over one denominator: one fraction-free integer elimination (Bareiss)
returns its pivot columns, `det`, `rank` and `null_vector` read its echelon
form, and `solve`, `solve_general` and `inverse` back-substitute in it.
`hermite` keeps its row operations in GL(n, Z) with extended-gcd steps
instead.
"""

import re
from fractions import Fraction
from math import gcd
from operator import mul, sub

# Fraction("1e-100000000") builds 10**100000000 and does not return: a
# decimal exponent beyond the 4300 digits int() takes from a string is refused.
MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


def rat(x) -> Fraction:
    """Coerce ints, 'num/den' strings, floats and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str):
        exponent = _EXPONENT.search(x)
        if exponent and abs(int(exponent[1])) > MAX_EXPONENT:
            raise ValueError(f"exponent {exponent[1]} in {x!r} is beyond "
                             f"+-{MAX_EXPONENT}")
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {x!r}") from None
    return Fraction(x)


def rat_str(q) -> str:
    """Serialize an int or a Fraction as 'num' or 'num/den'."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def vec(xs) -> tuple:
    return tuple(rat(x) for x in xs)


def vsub(a, b):
    return tuple(map(sub, a, b))


def dot(a, b):
    return sum(map(mul, a, b))


def _bareiss(rows):
    """Fraction-free echelon form of integer rows in place (Bareiss, Math.
    Comp. 22, 1968): row_i = (p row_i - row_i[c] row_r) / p_prev is exact, as
    every entry is a minor.  A row with 0 under the pivot only scales by p /
    p_prev, so it is left as it is when the pivot repeats.  Returns (pivot
    columns, +-last pivot): the pivot columns are the columns independent of
    the columns before them, as many as the rank, and +-the last pivot is
    det if square."""
    pivots, sign, prev, m = [], 1, 1, len(rows)
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        for p in range(r, m):
            if rows[p][c]:
                break
        else:
            continue  # no pivot in column c
        if p != r:
            rows[r], rows[p] = rows[p], rows[r]
            sign = -sign
        top = rows[r]
        pv = top[c]
        for i in range(r + 1, m):
            f = rows[i][c]
            if f:
                rows[i] = [(pv * x - f * y) // prev for x, y in zip(rows[i], top)]
            elif pv != prev:
                rows[i] = [pv * x // prev for x in rows[i]]
        prev = pv
        pivots.append(c)
        if r + 1 == m:
            break
    return pivots, sign * prev


def null_vector(rows):
    """+-the cofactor vector of n - 1 integer rows of rank n - 1 in Z^n, or
    None: the free column gets the last pivot, +-its cofactor, and exact
    back substitution the rest, since the solution is integral."""
    rows = list(rows)
    n = len(rows[0])
    pivots = _bareiss(rows)[0]
    if len(pivots) != n - 1:
        return None
    a = [0] * n
    a[next(c for c in range(n) if c not in pivots)] = rows[-1][pivots[-1]]
    for row, c in reversed(list(zip(rows, pivots))):
        a[c] = -sum(map(mul, row[c + 1:], a[c + 1:])) // row[c]
    return a


def hermite(A):
    """(H, W), int rows, with W A = H for an integer m x n matrix A: H is the
    Hermite normal form (row echelon over Z, each pivot p > 0 with the
    entries above it in [0, p)) and W is unimodular, from extended-gcd row
    steps (Cohen, A Course in Computational Algebraic Number Theory, 2.4)."""
    m, n = len(A), len(A[0])
    rows = [list(a) + [int(i == j) for j in range(m)] for i, a in enumerate(A)]
    r = 0
    for c in range(n):
        for i in range(r + 1, m):
            while rows[i][c]:
                q = rows[r][c] // rows[i][c]
                rows[r], rows[i] = rows[i], [x - q * y for x, y in zip(rows[r], rows[i])]
        if r < m and rows[r][c]:
            if rows[r][c] < 0:
                rows[r] = [-x for x in rows[r]]
            for i in range(r):
                q = rows[i][c] // rows[r][c]
                rows[i] = [x - q * y for x, y in zip(rows[i], rows[r])]
            r += 1
    return [row[:n] for row in rows], [row[n:] for row in rows]


def rank(vectors) -> int:
    return len(_bareiss(list(vectors))[0])


def det(A):
    pivots, d = _bareiss(list(A))
    return d if len(pivots) == len(A) else 0


def _solve_columns(A, bs):
    """(pivot columns of A, D, [y with A (y / D) = b, every free unknown 0,
    for b in bs]), or None if some b is inconsistent, for integer A and bs.
    Bareiss runs on [A | b ...]; its last pivot D is the minor of A's pivot
    rows and columns, so D x is integral (Cramer) and the back substitution
    exact in ints."""
    n = len(A[0]) if A else 0
    rows = [[*a, *c] for a, c in zip(A, zip(*bs))]
    pivots = _bareiss(rows)[0]
    if pivots and pivots[-1] >= n:
        return None
    D = rows[len(pivots) - 1][pivots[-1]] if pivots else 1
    ys = []
    for j in range(n, n + len(bs)):
        y = [0] * n
        for row, c in reversed(list(zip(rows, pivots))):
            y[c] = (D * row[j] - sum(map(mul, row[c + 1:n], y[c + 1:]))) // row[c]
        ys.append(y)
    return pivots, D, ys


def solve(A, b):
    """Solve a square exact system; returns a tuple or None if singular."""
    found = _solve_columns(A, [b])
    if found is None or len(found[0]) < len(A):
        return None
    _, D, [y] = found
    return tuple(Fraction(v, D) for v in y)


def solve_general(A, b):
    """One solution of a possibly rectangular consistent system, else None:
    the one whose free unknowns are 0."""
    found = _solve_columns(A, [b])
    if found is None:
        return None
    _, D, [y] = found
    return tuple(Fraction(v, D) for v in y)


def inverse(A):
    """The inverse of a unimodular integer matrix as a tuple of int rows:
    the last pivot D is +-det A = +-1, so the solutions y / D of the identity's
    columns are D y.  ValueError for a singular or non-unimodular matrix."""
    n = len(A)
    found = _solve_columns(A, [[int(i == j) for i in range(n)] for j in range(n)])
    if found is None or found[1] not in (1, -1):
        raise ValueError("only a unimodular matrix has an integer inverse")
    _, D, ys = found
    return tuple(zip(*([D * v for v in y] for y in ys)))


def primitive_integer(v):
    """The primitive integer vector in the direction of a nonzero integer v."""
    g = gcd(*v)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(x // g for x in v)
