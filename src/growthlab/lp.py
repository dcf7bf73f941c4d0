"""Exact rational linear programming.

A small two-phase simplex over Fraction with Bland's rule, which cannot
cycle, so termination is guaranteed.  Sized for the desk-scale problems in
this package (tens of variables, a handful of equality rows).
"""

from fractions import Fraction

from .rationals import rat

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


def solve_lp(A, b, c):
    """Minimize c.x subject to A x = b, x >= 0, all data exact rationals.

    Returns (status, value, x) where x is a tuple of Fractions when status
    is 'optimal', else None.
    """
    m = len(A)
    n = len(c)
    rows = [[rat(v) for v in A[i]] + [rat(b[i])] for i in range(m)]
    for row in rows:
        if row[-1] < 0:
            for j in range(len(row)):
                row[j] = -row[j]
    # artificial columns n..n+m-1 form the initial basis
    for i, row in enumerate(rows):
        row[-1:-1] = [Fraction(1 if j == i else 0) for j in range(m)]
    basis = list(range(n, n + m))

    cost1 = [Fraction(0)] * n + [Fraction(1)] * m
    status = _simplex(rows, basis, cost1, allowed=n + m)
    if status != OPTIMAL or _objective(rows, basis, cost1) > 0:
        return INFEASIBLE, None, None

    _drive_out_artificials(rows, basis, n)

    cost2 = [rat(v) for v in c] + [Fraction(0)] * m
    status = _simplex(rows, basis, cost2, allowed=n)
    if status == UNBOUNDED:
        return UNBOUNDED, None, None
    x = [Fraction(0)] * n
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = rows[i][-1]
    return OPTIMAL, _objective(rows, basis, cost2), tuple(x)


def _objective(rows, basis, cost):
    return sum((cost[basis[i]] * rows[i][-1] for i in range(len(rows))), Fraction(0))


def _reduced_cost(rows, basis, cost, j):
    return cost[j] - sum(cost[basis[i]] * rows[i][j] for i in range(len(rows)))


def _pivot(rows, basis, r, j):
    """Gauss-Jordan step: scale row r to a unit entry in column j, clear
    column j elsewhere, and make j basic in row r."""
    pv = rows[r][j]
    rows[r] = [x / pv for x in rows[r]]
    for i, row in enumerate(rows):
        if i != r and row[j] != 0:
            f = row[j]
            rows[i] = [x - f * y for x, y in zip(row, rows[r])]
    basis[r] = j


def _simplex(rows, basis, cost, allowed):
    m = len(rows)
    while True:
        entering = None
        for j in range(allowed):  # Bland: first improving column
            if j in basis:
                continue
            if _reduced_cost(rows, basis, cost, j) < 0:
                entering = j
                break
        if entering is None:
            return OPTIMAL
        leaving = None
        best = None
        for i in range(m):
            a = rows[i][entering]
            if a > 0:
                ratio = rows[i][-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leaving]):
                    best, leaving = ratio, i
        if leaving is None:
            return UNBOUNDED
        _pivot(rows, basis, leaving, entering)


def _drive_out_artificials(rows, basis, n):
    """Replace basic artificials by structural columns; drop redundant rows."""
    i = 0
    while i < len(rows):
        if basis[i] >= n:
            j = next((j for j in range(n) if rows[i][j] != 0), None)
            if j is None:
                del rows[i]
                del basis[i]
                continue
            _pivot(rows, basis, i, j)
        i += 1


def envelope_min(points, values, y):
    """Exact min of sum(l_i * values_i) over convex combinations hitting y.

    The points live in R^d; the LP asks for weights l >= 0 with
    sum l_i points_i = y and sum l_i = 1.  Returns the optimal Fraction, or
    None when y is outside the convex hull of the points.
    """
    A = [[p[r] for p in points] for r in range(len(y))] + [[1] * len(points)]
    status, value, _ = solve_lp(A, [*y, 1], values)
    return value if status == OPTIMAL else None
