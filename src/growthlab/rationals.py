"""Exact rational vectors and small dense linear algebra over Fraction.

Everything here is exact.  Vectors are plain tuples of Fraction, matrices are
tuples of row tuples.  Floats are converted with Fraction(float), which is
exact for every finite float.
"""

from fractions import Fraction
from math import gcd


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
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def is_integral(v) -> bool:
    return all(Fraction(x).denominator == 1 for x in v)


def mat_vec(A, x):
    return tuple(dot(row, x) for row in A)


def pivot(rows, r, c):
    """Scale row r to a unit entry in column c and clear column c elsewhere."""
    pv = rows[r][c]
    rows[r] = [x / pv for x in rows[r]]
    for i in range(len(rows)):
        if i != r and rows[i][c] != 0:
            f = rows[i][c]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]


def _eliminate(rows):
    """Row-reduce in place; returns list of pivot column indices."""
    pivots = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pivot(rows, r, c)
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def rank(vectors) -> int:
    rows = [list(map(rat, v)) for v in vectors if any(x != 0 for x in v)]
    if not rows:
        return 0
    return len(_eliminate(rows))


def det(A) -> Fraction:
    n = len(A)
    rows = [list(map(rat, row)) for row in A]
    result = Fraction(1)
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != c:
            rows[c], rows[pivot_row] = rows[pivot_row], rows[c]
            result = -result
        result *= rows[c][c]
        inv = 1 / rows[c][c]
        for i in range(c + 1, n):
            if rows[i][c] != 0:
                f = rows[i][c] * inv
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return result


def solve(A, b):
    """Solve a square exact system; returns a tuple or None if singular."""
    n = len(A)
    rows = [list(map(rat, A[i])) + [rat(b[i])] for i in range(n)]
    pivots = _eliminate(rows)
    if pivots != list(range(n)):
        return None
    return tuple(rows[i][n] for i in range(n))


def solve_general(A, b):
    """One solution of a possibly rectangular consistent system, else None."""
    m = len(A)
    ncols = len(A[0]) if m else 0
    rows = [list(map(rat, A[i])) + [rat(b[i])] for i in range(m)]
    pivots = _eliminate(rows)
    if pivots and pivots[-1] == ncols:  # a pivot in b: inconsistent
        return None
    x = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        x[c] = rows[i][ncols]
    return tuple(x)


def inverse(A):
    n = len(A)
    rows = [list(map(rat, A[i])) + [Fraction(1 if i == j else 0) for j in range(n)]
            for i in range(n)]
    pivots = _eliminate(rows)
    if pivots != list(range(n)):
        return None
    return tuple(tuple(rows[i][n:]) for i in range(n))


def primitive_integer(v):
    """Scale a nonzero rational vector to a primitive integer vector (same direction)."""
    v = vec(v)
    from math import lcm
    denom = 1
    for x in v:
        denom = lcm(denom, x.denominator)
    ints = [int(x * denom) for x in v]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
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
