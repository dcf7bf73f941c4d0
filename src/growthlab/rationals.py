"""Exact rational vectors and small dense linear algebra.

Vectors are tuples of int or Fraction (floats convert exactly), matrices
tuples of rows; `dot` stays an int on ints.  Every elimination is one
fraction-free integer elimination (Bareiss) on rows cleared of
denominators: `det`, `rank` and `null_vector` read its echelon form, and
`solve`, `solve_general` and `inverse` back-substitute in it.
"""

from fractions import Fraction
from math import gcd, lcm
from operator import mul


def rat(x) -> Fraction:
    """Coerce ints, 'num/den' strings, floats and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str):
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {x!r}") from None
    return Fraction(x)


def rat_str(q) -> str:
    """Serialize a rational as 'num' or 'num/den'."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def vec(xs) -> tuple:
    return tuple(rat(x) for x in xs)


def vsub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def dot(a, b):
    return sum(map(mul, a, b))


def is_integral(v) -> bool:
    return all(Fraction(x).denominator == 1 for x in v)


def _integer_rows(rows):
    """Rows scaled to ints by the lcm of their denominators; the scales' product."""
    out, scale = [], 1
    for row in rows:
        row = [x if type(x) is int else rat(x) for x in row]
        d = lcm(*(x.denominator for x in row))
        out.append([x.numerator * (d // x.denominator) for x in row])
        scale *= d
    return out, scale


def _bareiss(rows):
    """Fraction-free echelon form of integer rows in place (Bareiss, Math.
    Comp. 22, 1968): row_i = (p row_i - row_i[c] row_r) / p_prev is exact, as
    every entry is a minor.  Returns (rank, +-last pivot); det if square."""
    r, sign, prev = 0, 1, 1
    for c in range(len(rows[0]) if rows else 0):
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        if p != r:
            rows[r], rows[p] = rows[p], rows[r]
            sign = -sign
        top = rows[r]
        pv = top[c]
        for i in range(r + 1, len(rows)):
            f = rows[i][c]
            rows[i] = [(pv * x - f * y) // prev for x, y in zip(rows[i], top)]
        prev = pv
        r += 1
        if r == len(rows):
            break
    return r, sign * prev


def null_vector(rows):
    """+-the cofactor vector of n - 1 integer rows of rank n - 1 in Z^n, or
    None: the free column gets the last pivot, +-its cofactor, and exact
    back substitution the rest, since the solution is integral."""
    rows = [list(r) for r in rows]
    n = len(rows[0])
    if _bareiss(rows)[0] != n - 1:
        return None
    pivots = [next(c for c in range(n) if row[c]) for row in rows]
    a = [0] * n
    a[next(c for c in range(n) if c not in pivots)] = rows[-1][pivots[-1]]
    for row, c in reversed(list(zip(rows, pivots))):
        a[c] = -sum(x * y for x, y in zip(row[c + 1:], a[c + 1:])) // row[c]
    return a


def rank(vectors) -> int:
    return _bareiss(_integer_rows(vectors)[0])[0]


def det(A):
    rows, scale = _integer_rows(A)
    r, d = _bareiss(rows)
    d = d if r == len(rows) else 0
    return d if scale == 1 else Fraction(d, scale)


def _solve_columns(A, bs):
    """(pivot columns of A, [x with A x = b, every free unknown 0, for b in
    bs]), or None if some b is inconsistent.  Bareiss runs on [A | b ...]
    cleared of denominators (scaling a row keeps the solutions); its last
    pivot D is the minor of A's pivot rows and columns, so D x is integral
    (Cramer) and the back substitution exact in ints."""
    n = len(A[0]) if A else 0
    rows = _integer_rows([[*a, *c] for a, c in zip(A, zip(*bs))])[0]
    r = _bareiss(rows)[0]
    pivots = [next(c for c, x in enumerate(row) if x) for row in rows[:r]]
    if pivots and pivots[-1] >= n:
        return None
    D = rows[r - 1][pivots[-1]] if r else 1
    xs = []
    for j in range(n, n + len(bs)):
        y = [0] * n
        for row, c in reversed(list(zip(rows, pivots))):
            y[c] = (D * row[j] - sum(map(mul, row[c + 1:n], y[c + 1:]))) // row[c]
        xs.append(tuple(Fraction(v, D) for v in y))
    return pivots, xs


def solve(A, b):
    """Solve a square exact system; returns a tuple or None if singular."""
    found = _solve_columns(A, [b])
    if found is None or len(found[0]) < len(A):
        return None
    return found[1][0]


def solve_general(A, b):
    """One solution of a possibly rectangular consistent system, else None:
    the one whose free unknowns are 0."""
    found = _solve_columns(A, [b])
    return None if found is None else found[1][0]


def inverse(A):
    """The inverse of a square matrix as a tuple of rows, or None if singular."""
    n = len(A)
    found = _solve_columns(A, [[int(i == j) for i in range(n)] for j in range(n)])
    return None if found is None else tuple(zip(*found[1]))


def primitive_integer(v):
    """Scale a nonzero rational vector to a primitive integer vector (same direction)."""
    v = vec(v)
    denom = lcm(*(x.denominator for x in v))
    ints = [int(x * denom) for x in v]
    g = gcd(*ints)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(x // g for x in ints)


def simplest_fraction_in(lo, hi) -> Fraction:
    """The fraction with smallest denominator in the closed interval [lo, hi].

    Stern-Brocot descent; ties on denominator resolved toward the smaller
    absolute numerator, which makes the result unique.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    if lo > hi:
        raise ValueError("empty interval")
    if lo <= 0 <= hi:
        return Fraction(0)
    if hi < 0:
        return -simplest_fraction_in(-hi, -lo)

    # 0 < lo <= hi: walk the continued fraction of the interval.
    p0, q0, p1, q1 = 0, 1, 1, 0
    a, b = lo, hi
    while True:
        f = a.numerator // a.denominator
        if f == b.numerator // b.denominator and a.numerator % a.denominator != 0:
            p0, p1 = p1, f * p1 + p0
            q0, q1 = q1, f * q1 + q0
            a, b = 1 / (b - f), 1 / (a - f)
        else:
            # smallest integer in [a, b] completes the fraction
            if a.numerator % a.denominator == 0:
                f = a.numerator // a.denominator
            else:
                f = f + 1
            return Fraction(f * p1 + p0, f * q1 + q0)
