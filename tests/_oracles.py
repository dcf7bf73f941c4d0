"""Independent oracles the tests check the package against.

Each oracle is deliberately implemented with a different method than the
package uses: facets by cofactor-expansion hyperplanes through point
subsets, areas by Pick's theorem, volumes by Ehrhart differences, radial
components and conjugates by grid search, support functions by the
largest dot product over the slopes, slices by crossing every segment
between two vertices, simplex inclusion by bisection with membership tests,
lattice points by testing every point of the bounding box against those
facets, vertices and membership by those facets too, determinants by
Laplace expansion and ranks by the largest nonzero minor, edges and affine
bases by those ranks, relative volumes by vertex coordinates in an
integer-kernel basis of the span's lattice, simplest fractions by
scanning denominators, and softmax gradients chunk by chunk in fresh
arrays, concatenated.
"""

from fractions import Fraction
from itertools import combinations, product
from math import ceil, floor, gcd, lcm


def _cofactor_normal(points):
    """Normal of the hyperplane through n points in R^n via cofactors."""
    p0 = points[0]
    rows = [[Fraction(x) - Fraction(y) for x, y in zip(p, p0)] for p in points[1:]]
    n = len(p0)

    def det(mat):
        mat = [row[:] for row in mat]
        m = len(mat)
        result = Fraction(1)
        for c in range(m):
            piv = next((i for i in range(c, m) if mat[i][c] != 0), None)
            if piv is None:
                return Fraction(0)
            if piv != c:
                mat[c], mat[piv] = mat[piv], mat[c]
                result = -result
            result *= mat[c][c]
            for i in range(c + 1, m):
                f = mat[i][c] / mat[c][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[c])]
        return result

    a = []
    sign = 1
    for i in range(n):
        minor = [[row[j] for j in range(n) if j != i] for row in rows]
        a.append(sign * det(minor))
        sign = -sign
    if all(x == 0 for x in a):
        return None
    b = sum(ai * Fraction(x) for ai, x in zip(a, p0))
    return tuple(a), b


def _primitive(a, b):
    from math import lcm
    denom = 1
    for x in list(a) + [b]:
        denom = lcm(denom, Fraction(x).denominator)
    ints = [int(Fraction(x) * denom) for x in list(a) + [b]]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    return tuple(x // g for x in ints[:-1]), Fraction(ints[-1] // g)


def brute_force_facets(points):
    """All supporting hyperplanes through n-point subsets, canonicalized as
    (primitive outward normal, offset) pairs."""
    points = [tuple(Fraction(x) for x in p) for p in points]
    n = len(points[0])
    out = set()
    for ids in combinations(range(len(points)), n):
        hp = _cofactor_normal([points[i] for i in ids])
        if hp is None:
            continue
        a, b = hp
        vals = [sum(ai * x for ai, x in zip(a, p)) for p in points]
        if all(v <= b for v in vals):
            out.add(_primitive(a, b))
        elif all(v >= b for v in vals):
            out.add(_primitive(tuple(-x for x in a), -b))
    return out


def brute_force_lattice_points(points, k):
    """Sorted integer points of k conv(points), each box point tested against
    brute_force_facets of the k-scaled points.

    The points span a flat below full dimension when every hyperplane of
    brute_force_facets, if any, holds them all.  Then they are the graph of
    an affine map over d coordinates on which their differences keep their
    rank d: the integer points of the hull projected to those coordinates,
    each lifted by its coordinates in d independent differences, are kept
    when the lift is integral.
    """
    scaled = [tuple(k * Fraction(x) for x in p) for p in points]
    n = len(scaled[0])
    ranges = [range(ceil(min(p[c] for p in scaled)),
                    floor(max(p[c] for p in scaled)) + 1) for c in range(n)]
    if n == 1:
        return [(x,) for x in ranges[0]]
    facets = brute_force_facets(scaled)
    if all(sum(ai * x for ai, x in zip(a, p)) == b for a, b in facets for p in scaled):
        return _flat_lattice_points(scaled)
    return [x for x in product(*ranges)
            if all(sum(ai * xi for ai, xi in zip(a, x)) <= b for a, b in facets)]


def greedy_affine_basis(points):
    """The indices i >= 1, in order, whose difference points[i] - points[0]
    raises the minor_rank of the differences kept before it."""
    ids, basis = [], []
    for i, p in enumerate(points[1:], 1):
        row = [x - y for x, y in zip(p, points[0])]
        if minor_rank(basis + [row]) > len(basis):
            ids.append(i)
            basis.append(row)
    return ids


def _flat_lattice_points(points):
    """The integer points of the hull of points whose affine span is not
    full-dimensional, by the lift of brute_force_lattice_points."""
    p0 = points[0]
    basis = [[x - y for x, y in zip(points[i], p0)] for i in greedy_affine_basis(points)]
    if not basis:
        return [tuple(int(x) for x in p0)] if all(x.denominator == 1 for x in p0) else []
    d = len(basis)
    cols = next(c for c in combinations(range(len(p0)), d)
                if minor_rank([[row[j] for j in c] for row in basis]) == d)
    heads = [[row[j] for j in cols] for row in basis]
    # the coordinates of e_j, so that y - p0 has sum_j (y_j - p0_j) inv[j]
    inv = [_coordinates(heads, [int(i == j) for i in range(d)]) for j in range(d)]
    out = []
    for y in brute_force_lattice_points([[p[j] for j in cols] for p in points], 1):
        t = [sum((y[j] - p0[c]) * inv[j][i] for j, c in enumerate(cols)) for i in range(d)]
        x = [x0 + sum(ti * row[c] for ti, row in zip(t, basis)) for c, x0 in enumerate(p0)]
        if all(v.denominator == 1 for v in x):
            out.append(tuple(int(v) for v in x))
    return sorted(out)


def laplace_det(rows):
    """Determinant by cofactor expansion along the first row, in Fraction."""
    rows = [[Fraction(x) for x in row] for row in rows]
    if not rows:
        return Fraction(1)
    return sum((-1) ** j * x * laplace_det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j, x in enumerate(rows[0]) if x != 0)


def minor_rank(rows):
    """Largest r with a nonzero r x r minor."""
    m, n = len(rows), len(rows[0]) if rows else 0
    for r in range(min(m, n), 0, -1):
        if any(laplace_det([[rows[i][j] for j in cols] for i in ids]) != 0
               for ids in combinations(range(m), r)
               for cols in combinations(range(n), r)):
            return r
    return 0


def brute_force_vertices(points):
    """Sorted points of a full-dimensional cloud lying on facets of
    brute_force_facets whose normals have a nonzero n x n minor."""
    points = sorted({tuple(Fraction(x) for x in p) for p in points})
    facets = brute_force_facets(points)
    n = len(points[0])
    return [p for p in points
            if minor_rank([a for a, b in facets
                           if sum(ai * x for ai, x in zip(a, p)) == b]) == n]


def brute_force_edges(vertices):
    """Index pairs (i, j), i < j, of the vertices of a full-dimensional
    polytope whose common facets of brute_force_facets have normals of
    minor_rank n - 1."""
    facets = brute_force_facets(vertices)
    on = [{a for a, b in facets if sum(ai * x for ai, x in zip(a, v)) == b}
          for v in vertices]
    n = len(vertices[0])
    return {(i, j) for i, j in combinations(range(len(on)), 2)
            if minor_rank(list(on[i] & on[j])) == n - 1}


def brute_force_slice(vertices, normal, value):
    """Sorted vertices of conv(vertices) cut by the plane normal.x = value.

    The candidates are the vertices on the plane and the crossing of the
    segment between every pair of vertices on opposite sides, edge or not.
    They keep the points that brute_force_vertices keeps in the first
    coordinates on which their differences keep their rank: with the last
    coordinate dropped for a full slice whose normal ends in a nonzero entry.
    """
    vertices = [tuple(Fraction(x) for x in v) for v in vertices]
    side = [sum(a * x for a, x in zip(normal, v)) - Fraction(value) for v in vertices]
    pts = {v for v, s in zip(vertices, side) if s == 0}
    for (v, s), (w, t) in combinations(zip(vertices, side), 2):
        if s * t < 0:
            pts.add(tuple(x + s / (s - t) * (y - x) for x, y in zip(v, w)))
    pts = sorted(pts)
    if len(pts) <= 1:
        return pts
    diffs = [[x - y for x, y in zip(p, pts[0])] for p in pts[1:]]
    d = minor_rank(diffs)
    cols = next(c for c in combinations(range(len(pts[0])), d)
                if minor_rank([[row[j] for j in c] for row in diffs]) == d)
    lift = {tuple(p[j] for j in cols): p for p in pts}
    return sorted(lift[q] for q in brute_force_vertices(list(lift)))


def in_hull(points, x):
    """Whether x satisfies every facet of brute_force_facets(points), for a
    full-dimensional cloud."""
    return all(sum(ai * Fraction(xi) for ai, xi in zip(a, x)) <= b
               for a, b in brute_force_facets(points))


def pick_area(interior, boundary):
    """Pick's theorem: area = I + B/2 - 1 for a lattice polygon."""
    return Fraction(interior) + Fraction(boundary, 2) - 1


def ehrhart_volume_3d(n1, n2, n3, n4):
    """Leading Ehrhart coefficient of a lattice 3-polytope from four counts:
    the third forward difference over 3! ."""
    return Fraction(n4 - 3 * n3 + 3 * n2 - n1, 6)


def bisection_simplex_inclusion(P, contains, hi, tol=Fraction(1, 2 ** 40)):
    """sup{lam : lam * simplex inside P} by bisection on exact membership of
    the scaled simplex vertices."""
    n = P.ambient_dim
    def fits(lam):
        return all(contains(P, tuple(lam if j == i else Fraction(0)
                                     for j in range(n))) for i in range(n))
    lo = Fraction(0)
    hi = Fraction(hi)
    while not fits(lo):
        return Fraction(0)
    while fits(hi):
        hi *= 2
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if fits(mid):
            lo = mid
        else:
            hi = mid
    return lo


def support_value(slopes, x):
    """The support function of the slopes at x: the largest dot product,
    exact for exact x."""
    return max(sum(a * b for a, b in zip(v, x)) for v in slopes)


def grid_inf_radial(f, lam, x, t_lo=-50.0, t_hi=50.0, steps=4001):
    """Grid infimum of f(x + t*ones) - lam*t; resolution-limited."""
    n = len(x)
    best = None
    for i in range(steps):
        t = t_lo + (t_hi - t_lo) * i / (steps - 1)
        val = f(tuple(float(c) + t for c in x)) - float(lam) * t
        if best is None or val < best:
            best = val
    return best


def grid_conjugate_1d(f, y, lo=-60.0, hi=60.0, steps=120001):
    """Grid supremum of y*x - f(x) in one variable."""
    best = None
    for i in range(steps):
        x = lo + (hi - lo) * i / (steps - 1)
        val = float(y) * x - f((x,))
        if best is None or val > best:
            best = val
    return best


def grid_conjugate_2d(f, y, lo=-40.0, hi=40.0, steps=161):
    """Coarse 2-d grid supremum of <y, x> - f(x), refined once around the max."""
    def scan(cx, cy, half, steps):
        best, arg = None, None
        for i in range(steps):
            for j in range(steps):
                x = (cx - half + 2 * half * i / (steps - 1),
                     cy - half + 2 * half * j / (steps - 1))
                val = float(y[0]) * x[0] + float(y[1]) * x[1] - f(x)
                if best is None or val > best:
                    best, arg = val, x
        return best, arg

    center = ((lo + hi) / 2, (lo + hi) / 2)
    half = (hi - lo) / 2
    best, arg = scan(center[0], center[1], half, steps)
    for _ in range(4):
        half = half * 4 / (steps - 1)
        best, arg = scan(arg[0], arg[1], half, steps)
    return best


def integer_kernel(rows):
    """Basis of {x in Z^n : R x = 0} for an integer matrix R, via column ops."""
    m = len(rows)
    n = len(rows[0])
    A = [list(map(int, r)) for r in rows]
    U = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def col_addmul(t, s, f):
        for i in range(m):
            A[i][t] += f * A[i][s]
        for i in range(n):
            U[i][t] += f * U[i][s]

    def col_swap(i, j):
        for r in A:
            r[i], r[j] = r[j], r[i]
        for r in U:
            r[i], r[j] = r[j], r[i]

    r = 0
    for i in range(m):
        while True:
            nz = [j for j in range(r, n) if A[i][j] != 0]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda j: abs(A[i][j]))
            q = A[i][nz[1]] // A[i][nz[0]]
            col_addmul(nz[1], nz[0], -q)
        nz = [j for j in range(r, n) if A[i][j] != 0]
        if nz:
            col_swap(r, nz[0])
            r += 1
    return [tuple(U[i][j] for i in range(n)) for j in range(r, n)]


def _coordinates(basis, w):
    """t with sum_j t_j basis[j] = w, for independent basis vectors and w in
    their span, by Gauss-Jordan elimination in Fraction."""
    d = len(basis)
    rows = [[Fraction(b[i]) for b in basis] + [Fraction(w[i])] for i in range(len(w))]
    for c in range(d):
        p = next(i for i in range(c, len(rows)) if rows[i][c] != 0)
        rows[c], rows[p] = rows[p], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for i in range(len(rows)):
            if i != c and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    if any(row[d] != 0 for row in rows[d:]):
        raise ValueError("point off the span")
    return tuple(row[d] for row in rows[:d])


def kernel_relative_volume(vertices, volume):
    """Lattice-normalized volume of conv(vertices) in its affine span, for a
    cloud that is not full-dimensional: the vertex differences, cleared of
    denominators, have the integer kernel K, and the integer kernel of K is a
    basis of the span's integer directions.  volume(coords) is the volume of
    the hull of the vertices' coordinates in that basis; a point has 1."""
    vs = [tuple(Fraction(x) for x in v) for v in vertices]
    diffs = [[x - y for x, y in zip(v, vs[0])] for v in vs]
    rows = []
    for row in diffs:
        if any(row):
            scale = lcm(*(x.denominator for x in row))
            rows.append([int(x * scale) for x in row])
    if not rows:
        return Fraction(1)
    basis = integer_kernel(integer_kernel(rows))
    return volume([_coordinates(basis, row) for row in diffs])


def scan_simplest_fraction(lo, hi):
    """The fraction in [lo, hi] with the least denominator q, then the least
    absolute numerator: 0 if the interval holds 0, the mirror image of
    [-hi, -lo] if it is negative, else ceil(lo q) / q for the first q = 1,
    2, ... with ceil(lo q) <= floor(hi q)."""
    lo, hi = Fraction(lo), Fraction(hi)
    if lo <= 0 <= hi:
        return Fraction(0)
    if hi < 0:
        return -scan_simplest_fraction(-hi, -lo)
    q = 1
    while ceil(lo * q) > floor(hi * q):
        q += 1
    return Fraction(ceil(lo * q), q)


def ball_samples(n, samples, seed, radius):
    """`samples` seeded uniform points of the radius ball in R^n: normal
    draws over their norms (0 kept as 1), times radius U^(1/n)."""
    import numpy as np
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((samples, n))
    norms = np.linalg.norm(X, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    r = radius * rng.random(samples) ** (1.0 / n)
    return X / norms * r[:, None]


def chunked_softmax_gradients(exponents, X, k, chunk=20000):
    """The gradients of (1/k) ln sum_a exp(<a, x>) at the rows of X: for each
    chunk of rows, XA = X A^T shifted by its row maxima, W = exp(XA) over its
    row sums, then (W A) / k, each step in a new array; the chunks are
    concatenated."""
    import numpy as np
    A = np.array(exponents, dtype=float)
    parts = []
    for i in range(0, len(X), chunk):
        XA = X[i:i + chunk] @ A.T
        XA -= XA.max(axis=1, keepdims=True)
        W = np.exp(XA)
        W /= W.sum(axis=1, keepdims=True)
        parts.append((W @ A) / k)
    return np.concatenate(parts)
