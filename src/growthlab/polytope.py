"""Exact rational polytope algebra.

A full-dimensional polytope is stored in ints over the least common
denominator D > 0 of its vertices: vertices as integer numerator tuples X
(the points X / D), facets as pairs (a, c), a primitive, meaning a.x <= c /
D.  The hull runs in ints on the input times the lcm of its
denominators: points strictly inside an axis-parallel segment are dropped,
the pivot columns of one elimination on the differences of the rest give
their affine basis and the first simplex, the hull is built incrementally
from it, and its simplicial facets are certified by incidence (each input
point inside each facet halfspace, the facets an oriented boundary cycle of
degree 1).  Edges come from the certified incidence; a pair with a simple
end (n facets) needs no rank, and each vertex's primitive edge generators
come from one pass over the edges.  The certificate also gives the volume,
stored with the polytope: a simplex's orientation determinant times (b -
a.r) / (a.a), for its plane a.x = b and the first input point r, is the
cone determinant over it from r.  Scaling and unimodular maps act on D,
the numerators and the volume, with no new hull.  `vertices`
and `facets` are Fraction views, built once per polytope for reports and
JSON.  Below full dimension d >= 1 there is an integer chart (U, T, P'): U
x has the constant tail T / D on aff(P) for a unimodular U, and P' is the
full-dimensional d-polytope of the heads of U P; D is the vertices' least
denominator here too.
"""

from fractions import Fraction
from functools import cached_property
from itertools import combinations, product
from math import comb, factorial, gcd, lcm, prod

from .errors import (
    DegenerateInput,
    DimensionMismatch,
    GrowthLabError,
    NotDelzantVertex,
    NotLatticePolytope,
    NotNormalized,
)
from .rationals import (
    _bareiss,
    det,
    dot,
    hermite,
    inverse,
    null_vector,
    primitive_integer,
    rank,
    rat,
    rat_str,
    solve,  # not called here; perfbench's tracer wraps polytope.solve
    solve_general,
    vec,
    vsub,
)

# dilate_boxes refuses dilates whose bounding boxes hold more lattice points,
# one box alone or a series of them together.
MAX_BOX_POINTS = 2_000_000


class HalfSpace:
    """{x : <normal, x> <= offset}, the view of a stored facet a.x <= c / D:
    (D a, c) / gcd(D, c), a primitive integer vector, in dimension n > 1;
    normal (1,) or (-1,) and offset an endpoint in dimension 1."""

    def __init__(self, normal, offset):
        self.normal, self.offset = normal, offset

    def to_json_dict(self):
        return {"normal": [rat_str(a) for a in self.normal],
                "offset": rat_str(self.offset)}


def _scaled_normal(a, c, D):
    """The HalfSpace normal of a.x <= c / D (its sign in dimension 1)."""
    g = gcd(D, c)
    return tuple(D // g * x for x in a)


class UnimodularMap:
    """Affine map p -> A (p - base) with A in GL(n, Z), given by integer rows."""

    def __init__(self, matrix, base):
        self.matrix, self.base = matrix, base

    def image(self, P, G):
        """The polytope A (P - base) of a full-dimensional P, given G = A^-1,
        from P's certified data over E, the lcm of the denominators of P and
        base = B / E: X / D goes to A (e X - B) / E, e = E / D, and as x = G y
        + base, a.x <= c / D becomes (G^T a).y <= (c e - a.B) / E."""
        E = lcm(P.denom, *(x.denominator for x in self.base))
        e = E // P.denom
        B = [x.numerator * (E // x.denominator) for x in self.base]
        Gt = list(zip(*G))

        def point(X):
            w = [e * x - b for x, b in zip(X, B)]
            return tuple(dot(row, w) for row in self.matrix)

        return P._image(point, lambda a, c: (tuple(dot(g, a) for g in Gt), c * e - dot(a, B)),
                        E, 1)

    def to_json_dict(self):
        return {"matrix": [[rat_str(x) for x in row] for row in self.matrix],
                "base": [rat_str(x) for x in self.base]}


class Polytope:
    """Immutable exact polytope; do not mutate attributes after construction.
    It keeps the sorted vertex numerators `int_vertices` over `denom`, and if
    full-dimensional the facet pairs `int_facets`, each vertex numerator's
    facet indices `_incidence` and the volume `_volume`, else if not a point
    the chart `_chart` (U, T, P'), T over `denom`.  Every P is stored over
    the least common denominator of its vertices, so a lattice P has `denom`
    1.  Its edges and edge generators, its row scans of kP
    (`_scans`, by level) and its Ehrhart differences are computed once, on
    first use."""

    def __init__(self, ambient_dim, vertices, dim, denom, chart=None, facets=(), incidence=None,
                 volume=None):
        self.ambient_dim, self.dim, self.denom = ambient_dim, dim, denom
        self.int_vertices, self.int_facets = tuple(sorted(vertices)), facets
        self._chart, self._incidence, self._volume = chart, incidence, volume
        self._vertices = self._facets = self._edges = self._generators = None
        self._ehrhart = None
        self._scans = {}

    @property
    def vertices(self):
        """Sorted vertex tuples of Fractions."""
        if self._vertices is None:
            self._vertices = tuple(tuple(Fraction(x, self.denom) for x in X)
                                   for X in self.int_vertices)
        return self._vertices

    @property
    def facets(self):
        """Sorted HalfSpace views of int_facets; none below full dimension."""
        if self._facets is None:
            D = self.denom
            self._facets = tuple(HalfSpace(a, Fraction(c, D)) if self.dim == 1 else
                                 HalfSpace(_scaled_normal(a, c, D), Fraction(c // gcd(D, c)))
                                 for a, c in self.int_facets)
        return self._facets

    # -- constructors --------------------------------------------------

    @classmethod
    def empty(cls, ambient_dim):
        return cls(ambient_dim, (), -1, 1)

    @classmethod
    def from_points(cls, points, ambient_dim=None):
        """Convex hull of arbitrary points; lower-dimensional results allowed.
        The hull runs on the points times D > 0, which keeps their order.
        _axis_endpoints runs first: it keeps conv(pts) and so the affine
        span, and one _affine_basis of what it keeps gives both the
        dimension and the first simplex of a full-dimensional hull."""
        pts = [tuple(x if type(x) is int else rat(x) for x in p) for p in points]
        if ambient_dim is None:
            ambient_dim = len(pts[0])
        if any(len(p) != ambient_dim for p in pts):
            raise DimensionMismatch("points of mixed dimension")
        if not pts:
            return cls.empty(ambient_dim)
        D = lcm(*(x.denominator for p in pts for x in p))
        pts = _axis_endpoints(sorted({tuple(x.numerator * (D // x.denominator) for x in p)
                                      for p in pts}))
        base, basis = pts[0], _affine_basis(pts)
        d = len(basis)
        if d == ambient_dim:
            return _hull_full_dim(pts, ambient_dim, D, basis)
        if d == 0:
            return cls(ambient_dim, [base], 0, D)
        U = _chart_matrix(list(zip(*(vsub(pts[i], base) for i in basis))), d)
        images = [tuple(dot(row, p) for row in U) for p in pts]
        point = {y[:d]: p for y, p in zip(images, pts)}
        heads = _axis_endpoints(sorted(point))
        Q = _hull_full_dim(heads, d, D, _affine_basis(heads))
        g = D // Q.denom
        return _flat(ambient_dim, [point[tuple(g * x for x in H)] for H in Q.int_vertices], d, D,
                     (U, images[0][d:], Q))

    # -- basic queries --------------------------------------------------

    @property
    def is_empty(self):
        return self.dim < 0

    @property
    def is_point(self):
        return self.dim == 0

    @property
    def is_full_dim(self):
        return self.dim == self.ambient_dim and self.dim >= 0

    def edges(self):
        """Vertex index pairs forming 1-faces, as a tuple computed once."""
        if self._edges is None:
            self._edges = tuple(self._find_edges())
        return self._edges

    def _find_edges(self):
        """Pairs of vertices whose common facets have normals of rank n - 1.
        At a simple vertex, one with exactly n facets, the certified rank n
        of its n normals makes every n - 1 of them independent, and two
        vertices share at most n - 1 facets; so a pair with a simple end is
        an edge iff it shares n - 1 facets, with no rank to take.  Below
        full dimension, the edges of P' through the chart."""
        if not self.is_full_dim:
            if self.dim <= 0:
                return []
            U, _, Q = self._chart  # P'.denom divides D
            index = {tuple(dot(row, X) for row in U[:self.dim]): i
                     for i, X in enumerate(self.int_vertices)}
            g = self.denom // Q.denom
            at = [index[tuple(g * x for x in H)] for H in Q.int_vertices]
            return [(at[i], at[j]) for i, j in Q.edges()]
        n = self.ambient_dim
        active = [self._incidence[X] for X in self.int_vertices]
        simple = [len(fs) == n for fs in active]
        pairs = ((i, j, active[i] & active[j])
                 for i, j in combinations(range(len(active)), 2))
        return [(i, j) for i, j, common in pairs if len(common) >= n - 1
                and (simple[i] or simple[j]
                     or rank([self.int_facets[k][0] for k in common]) == n - 1)]

    def scaled(self, c):
        """cP.  For c = p/q > 0 and dim P >= 1 there is no new hull.  A
        full-dimensional P maps X / D to p X / (q D), a facet a.x <= b / D
        to a.x <= p b / (q D) and its volume V to c^n V.  A lower-dimensional
        P keeps U of its chart and maps T / D to p T / (q D) and P' to cP'."""
        c = rat(c)
        if c <= 0 or self.dim < 1:
            return Polytope.from_points([tuple(c * x for x in v) for v in self.vertices],
                                        self.ambient_dim)
        p, E = c.numerator, c.denominator * self.denom
        if not self.is_full_dim:
            U, T, Q = self._chart
            return _flat(self.ambient_dim, [tuple(p * x for x in X) for X in self.int_vertices],
                         self.dim, E, (U, tuple(p * t for t in T), Q.scaled(c)))
        return self._image(lambda X: tuple(p * x for x in X), lambda a, b: (a, p * b), E,
                           c ** self.ambient_dim)

    def _image(self, point, facet, E, scale):
        """The image of a full-dimensional P under an invertible affine map
        that multiplies volume by `scale`: `point` maps vertex numerators and
        `facet` pairs (a, c) to ones over E, a' primitive.  Every facet holds
        a vertex Y, so the gcd g of E and the vertex images divides every c'
        = a'.Y, and dividing by g reduces to the vertices' lowest terms.
        Facets re-sort."""
        images = [(point(X), fs) for X, fs in self._incidence.items()]
        g = gcd(E, *(y for Y, _ in images for y in Y))
        D = E // g
        facets = [(a, c // g) for a, c in (facet(*f) for f in self.int_facets)]
        order = sorted(range(len(facets)), key=lambda i: _scaled_normal(*facets[i], D))
        index = {i: j for j, i in enumerate(order)}
        incidence = {tuple(y // g for y in Y): frozenset(index[i] for i in fs)
                     for Y, fs in images}
        return Polytope(self.ambient_dim, incidence, self.ambient_dim, D,
                        facets=tuple(facets[i] for i in order), incidence=incidence,
                        volume=self._volume * scale)

    # -- serialization ---------------------------------------------------

    def to_json_dict(self, with_facets=True):
        d = {"dim": self.ambient_dim,
             "vertices": [[rat_str(x) for x in v] for v in self.vertices]}
        if with_facets and self.is_full_dim:
            d["facets"] = [f.to_json_dict() for f in self.facets]
        return d

    @classmethod
    def from_json_dict(cls, d):
        if not isinstance(d, dict) or "vertices" not in d or "dim" not in d:
            raise DegenerateInput('polytope JSON needs "dim" and "vertices"')
        dim = d["dim"]
        if type(dim) is not int or dim < 1:  # type() also refuses bool
            raise DegenerateInput('polytope "dim" must be a positive integer')
        try:
            pts = [[rat(x) for x in v] for v in d["vertices"]]
        except (TypeError, OverflowError):  # a non-list, null or infinite coordinate
            pts = None
        if pts is None or any(type(x) is bool for v in d["vertices"] for x in v):
            raise DegenerateInput('polytope "vertices" must be a list of rational lists')
        return cls.from_points(pts, dim)

    @cached_property
    def _key(self):
        """The vertex numerators over their least denominator."""
        g = gcd(self.denom, *(x for X in self.int_vertices for x in X))
        return self.denom // g, tuple(tuple(x // g for x in X) for X in self.int_vertices)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Polytope)
            and (self.ambient_dim, self.dim) == (other.ambient_dim, other.dim)
            and self._key == other._key)

    def __hash__(self):
        return hash((self.ambient_dim, self._key))

    def __repr__(self):
        if self.is_empty:
            return f"Polytope(empty, ambient={self.ambient_dim})"
        return (f"Polytope(dim={self.dim}, ambient={self.ambient_dim}, "
                f"vertices={len(self.vertices)})")


# -- hull machinery -------------------------------------------------------


def _chart_matrix(M, d):
    """A unimodular U with U M = [H; 0] for an integer n x d matrix M of rank
    d.  As W M = [H'; 0] for the Hermite transform W of M, the first d
    columns of W^-1 are a basis of Z^n cap span(M); U inverts W^-1 with them
    replaced by that lattice's Hermite basis E.  The head h_j of x is (x_r -
    sum_{i<j} E_i[r] h_i) / E_j[r] at the pivot r of E_j, 0 <= E_i[r] <
    E_j[r], so it spans at most x_r's range plus those of h_1 .. h_{j-1};
    the heads of W x alone can span orders of magnitude more."""
    W_inv = inverse(hermite(M)[1])
    E = hermite([[row[j] for row in W_inv] for j in range(d)])[0]
    return inverse([tuple(e[i] for e in E) + row[d:] for i, row in enumerate(W_inv)])


def _affine_basis(pts):
    """The first indices i, in order, with pts[i] - pts[0] independent of the
    differences before it, for integer pts: a basis of the affine span's
    directions.  They are the pivot columns of one elimination on the
    differences taken as columns."""
    p0 = pts[0]
    rows = [[p[c] - x for p in pts[1:]] for c, x in enumerate(p0)]
    return [1 + c for c in _bareiss(rows)[0]]


def _axis_endpoints(pts):
    """Points that end their axis-parallel line through pts in every direction.

    A point strictly between two others on a line is not a vertex, so this
    O(n N) pass keeps every vertex and conv(pts): the Akl-Toussaint
    interior-discard heuristic applied along the coordinate axes.
    """
    keep = set(pts)
    for c in range(len(pts[0])):
        ends = {}
        for p in pts:
            key = p[:c] + p[c + 1:]
            lo, hi = ends.get(key, (p[c], p[c]))
            ends[key] = (min(lo, p[c]), max(hi, p[c]))
        keep = {p for p in keep if p[c] in ends[p[:c] + p[c + 1:]]}
    return [p for p in pts if p in keep]


def _facet(pts, ids, total):
    """(ids, a, b) for the plane a.x = b through pts[ids], a the primitive cofactor
    vector of the difference rows, with total / (n + 1) on the side a.x <= b."""
    p0 = pts[ids[0]]
    a = null_vector([vsub(pts[i], p0) for i in ids[1:]])
    if a is None:
        raise GrowthLabError("degenerate hull facet")
    g = gcd(*a)
    if dot(a, total) > (len(p0) + 1) * dot(a, p0):
        g = -g
    a = tuple(x // g for x in a)
    return frozenset(ids), a, dot(a, p0)


def _incremental_hull(pts, n, basis):
    """Simplicial facets [(ids frozenset, a, b)] of the hull of integer pts,
    from the simplex of pts[0] and the points of basis = _affine_basis(pts).
    The pts are in lexicographic order, so each point added is the largest
    so far, a vertex of the hull with it: it sees at least one facet."""
    simplex = [0] + basis
    total = tuple(map(sum, zip(*(pts[i] for i in simplex))))
    facets = [_facet(pts, simplex[:drop] + simplex[drop + 1:], total)
              for drop in range(n + 1)]

    in_simplex = set(simplex)
    for idx in range(len(pts)):
        if idx in in_simplex:
            continue
        p = pts[idx]
        visible = [f for f in facets if dot(f[1], p) > f[2]]
        ridge_count = {}
        for ids, _, _ in visible:
            for r in combinations(sorted(ids), n - 1):
                ridge_count[r] = ridge_count.get(r, 0) + 1
        horizon = [r for r, cnt in ridge_count.items() if cnt == 1]
        visible_set = {f[0] for f in visible}
        facets = [f for f in facets if f[0] not in visible_set]
        facets += [_facet(pts, ridge + (idx,), total) for ridge in horizon]
    return facets


def _certify(pts, facets, halfspaces, n):
    """Check the simplicial facets of integer points pts; return the map of
    vertex indices to facets and n! vol conv(pts).

    halfspaces is _dedupe_halfspaces(facets, D).  Checks: (a) every point
    lies in every facet plane's halfspace a.x <= b; (b) each simplicial
    facet's n points lie on its plane a.x = b and have orientation sign
    s = sign det[p1 - p0, ..., p_{n-1} - p0, a] != 0; (c) the signed ridge
    sums of sum_i s (-1)^i [p0 .. ^pi .. p_{n-1}] over all simplicial facets
    vanish; (d) on the plane with the fewest simplices, the barycenter m of
    the first, s0, lies in no other.  The vertices, returned with the indices
    of their halfspaces, are the points whose active normals have rank n.

    Soundness.  Let P = conv(pts).  By (a) and (b) each simplex lies in
    the face of P on its plane, so the chain c = sum s [p0 .. p_{n-1}] lies
    on the sphere bd P, and s orients every simplex like bd P (outward
    normal last).  By (c), c is a cycle, so it covers bd P with a single
    degree d.  Over a point of bd P off every ridge, d is the number of
    simplices covering it, each counted +1; so d >= 1 and the simplices
    cover bd P.  A simplex over a relative-interior point of a facet F
    that is off every ridge lies in aff F, so every facet of P is listed,
    and by (a) the halfspaces cut out exactly P.  Every vertex of P is an
    input point, and a point of P is a vertex iff its active normals have
    rank n.  The unsigned check "each ridge lies in exactly two simplices"
    is not enough: ab, bc, ac on three collinear points a, b, c pass it,
    while their signed ridge sums are 2, 0, -2.  By (d), d = 1 and the
    simplices triangulate bd P: m is in the relative interior of s0, so of
    the facet F on its plane; if d >= 2, the points of s0 near m off every
    ridge lie in d >= 2 simplices in aff F, so some closed s != s0 contains m.

    Volume.  The simplices triangulate bd P, so the cones over them from r =
    pts[0] in P fill P and meet in no volume.  With orient = det[p1 - p0,
    ..., p_{n-1} - p0, a] as in (b), r - p0 is (a.r - b) / (a.a) times a
    plus a vector in the span of the other rows, so the cone's integer
    determinant is +-(b - a.r) orient / (a.a), and the division is exact.
    """
    ridge_sum, r, total = {}, pts[0], 0
    for ids, a, b in facets:
        simplex = sorted(ids)
        p0 = pts[simplex[0]]
        if any(dot(a, pts[i]) != b for i in simplex):
            raise GrowthLabError("hull facet point off its plane")
        pivots, orient = _bareiss([vsub(pts[i], p0) for i in simplex[1:]] + [a])
        if len(pivots) < n:
            raise GrowthLabError("degenerate hull facet")
        s = 1 if orient > 0 else -1
        total += (b - dot(a, r)) * abs(orient) // dot(a, a)
        for i in range(n):
            ridge = tuple(simplex[:i] + simplex[i + 1:])
            ridge_sum[ridge] = ridge_sum.get(ridge, 0) + s * (-1) ** i
    if any(ridge_sum.values()):
        raise GrowthLabError("hull facets do not form an oriented cycle")
    group = [[pts[i] for i in sorted(ids)]
             for ids, _, _ in min(halfspaces.values(), key=len)]
    nm = tuple(map(sum, zip(*group[0])))  # n times the barycenter m
    # n times the barycentric coordinates of m in s: n m - n s0 = sum nu_i (s_i - s0)
    nus = [solve_general(list(zip(*(vsub(q, s[0]) for q in s[1:]))),
                         tuple(x - n * y for x, y in zip(nm, s[0])))
           for s in group[1:]]
    if any(min(nu) >= 0 and sum(nu) <= n for nu in nus):
        raise GrowthLabError("hull facets cover the boundary more than once")
    planes = list(halfspaces)
    verts = {}
    for idx, p in enumerate(pts):
        active = []
        for i, (a, b) in enumerate(planes):
            v = dot(a, p)
            if v > b:
                raise GrowthLabError("input point outside a hull facet")
            if v == b:
                active.append(i)
        if len(active) >= n and len(_bareiss([planes[i][0] for i in active])[0]) == n:
            verts[idx] = frozenset(active)
    return verts, total


def _dedupe_halfspaces(facets, D):
    """Simplicial facets grouped by plane (a, b), a.p <= b for the points
    p = D x, and sorted as the HalfSpaces of the planes in x."""
    groups = {}
    for f in facets:
        groups.setdefault(f[1:], []).append(f)
    return dict(sorted(groups.items(), key=lambda g: _scaled_normal(*g[0], D)))


def _flat(ambient_dim, vertices, d, D, chart):
    """The d-dimensional Polytope of the vertex numerators over D with chart
    (U, T, P'), reduced to lowest terms: T / D is the tail of U X / D for a
    vertex X, so the gcd of D and the vertex numerators divides T too, and
    P'.denom still divides the reduced D."""
    U, T, Q = chart
    g = gcd(D, *(x for X in vertices for x in X))
    return Polytope(ambient_dim, [tuple(x // g for x in X) for X in vertices], d, D // g,
                    chart=(U, tuple(t // g for t in T), Q))


def _hull_full_dim(pts, n, D, basis):
    """The certified full-dimensional Polytope conv(pts) / D of integer pts,
    their own _axis_endpoints with basis = _affine_basis(pts), reduced to
    lowest terms, with its volume: the n! vol conv(pts) of _certify over
    n! D^n."""
    if n == 1:
        lo, hi = min(pts), max(pts)
        incidence = {lo: frozenset({0}), hi: frozenset({1})}
        facets, total = (((-1,), -lo[0]), ((1,), hi[0])), hi[0] - lo[0]
    else:
        simplicial = _incremental_hull(pts, n, basis)
        halfspaces = _dedupe_halfspaces(simplicial, D)
        verts, total = _certify(pts, simplicial, halfspaces, n)
        incidence = {pts[i]: fs for i, fs in verts.items()}
        facets = tuple(halfspaces)
    P = Polytope(n, incidence, n, D, facets=facets, incidence=incidence,
                 volume=Fraction(total, factorial(n) * D ** n))
    return P if D == 1 else P._image(lambda X: X, lambda a, c: (a, c), D, 1)


# -- public operations ------------------------------------------------------


def hull(points):
    """Exact convex hull; requires a full-dimensional affine span."""
    P = Polytope.from_points(points)
    if not P.is_full_dim:
        raise DegenerateInput(f"affine span has dimension {P.dim} < {P.ambient_dim}")
    return P


class DelzantVertexReport:
    def __init__(self, vertex, ok, generators, determinant):
        self.vertex, self.ok = vertex, ok
        self.generators, self.determinant = generators, determinant


class DelzantReport:
    def __init__(self, entries, ok):
        self.entries, self.ok = entries, ok

    def failing_vertices(self):
        return [e.vertex for e in self.entries if not e.ok]

    def to_json_dict(self):
        return {"ok": self.ok,
                "vertices": [{"vertex": [rat_str(x) for x in e.vertex],
                              "ok": e.ok,
                              "generators": [[rat_str(x) for x in g] for g in e.generators],
                              "det": None if e.determinant is None else rat_str(e.determinant)}
                             for e in self.entries]}


def _edge_generators(P):
    """Each vertex's sorted primitive integer edge directions, by vertex
    index, from one pass over the edges; computed once per polytope."""
    if P._generators is None:
        X = P.int_vertices
        at = [[] for _ in X]
        for i, j in P.edges():
            g = primitive_integer(vsub(X[j], X[i]))
            at[i].append(g)
            at[j].append(tuple(-x for x in g))
        P._generators = tuple(tuple(sorted(gens)) for gens in at)
    return P._generators


def is_delzant(P):
    """Per-vertex unimodularity check for a full-dimensional lattice polytope,
    on the edge generators that P keeps (_edge_generators)."""
    if not P.is_full_dim:
        raise DegenerateInput("Delzant check requires a full-dimensional polytope")
    if P.denom != 1:
        raise NotLatticePolytope("vertices must be integral")
    n, entries = P.ambient_dim, []
    for v, gens in zip(P.vertices, _edge_generators(P)):
        d = det(gens) if len(gens) == n else None
        entries.append(DelzantVertexReport(v, d in (1, -1), gens, d))
    return DelzantReport(tuple(entries), all(e.ok for e in entries))


def _descending_generators(P, i):
    """The primitive edge generators at P's i-th vertex in descending
    lexicographic order: the columns of G in normalize_at_vertex, the
    order that makes its map the identity on an already normalized vertex."""
    return _edge_generators(P)[i][::-1]


def normalize_at_vertex(P, v):
    """Translate v to the origin and map its edge cone to the positive
    orthant: the image Q = A (P - v) of P, where A = G^-1 maps the columns
    of G, the _descending_generators at v, to e_1, ..., e_n.  The vertex is
    found by its numerators over P.denom, and G is unimodular iff it has an
    integer inverse.  Returns (Q, map).  NotDelzantVertex for a non-vertex
    or a vertex without n unimodular edge generators."""
    v, D = vec(v), P.denom
    X = tuple(x.numerator * (D // x.denominator) for x in v)
    if any(D % x.denominator for x in v) or X not in P.int_vertices:
        raise NotDelzantVertex(f"{v} is not a vertex")
    n = P.ambient_dim
    gens = _descending_generators(P, P.int_vertices.index(X))
    if len(gens) != n:
        raise NotDelzantVertex(f"vertex {v} has {len(gens)} edges, expected {n}")
    G = tuple(zip(*gens))
    try:
        A = inverse(G)
    except ValueError:
        raise NotDelzantVertex(f"edge generators at {v} are not unimodular") from None
    umap = UnimodularMap(A, v)
    # n unimodular edge directions at v make P full-dimensional
    Q = umap.image(P, G)
    if any(x < 0 for Y in Q.int_vertices for x in Y):
        raise GrowthLabError("normalized polytope left the positive orthant")
    return Q, umap


def normalized_facets(P, i):
    """The facets of Q = normalize_at_vertex(P, v)[0] at the i-th vertex v
    of a lattice P that is Delzant there, as the sorted pairs (b, m) of Q's
    facets b.y <= m, read off P's facets with no elimination.  A lattice P
    is stored over D = 1, and with G as in normalize_at_vertex, x = G y + v
    takes a.x <= c to (G^T a).y <= c - a.v, G^T a primitive as G is
    unimodular.  A full-dimensional polytope has one such H-representation,
    so two keys are equal exactly when their normalized polytopes are."""
    X = P.int_vertices[i]
    gens = _descending_generators(P, i)
    return tuple(sorted((tuple(dot(g, a) for g in gens), c - dot(a, X))
                        for a, c in P.int_facets))


def lattice_points(P, k=1):
    """Integer points of the dilate kP, sorted: the points of each row of
    _rows in turn.  Below full dimension, after dilate_boxes, U maps Z^n
    onto itself and kP onto kP' x {k T / D}: none unless k T / D is
    integral, else U^-1 (h, k T / D) over the points h of _rows(P', k)."""
    if P.is_empty:
        return []
    k = int(k)
    if P.is_full_dim:
        return row_points(_rows(P, k))
    dilate_boxes(P, (k,))
    if P.is_point:
        [X] = P.int_vertices
        return [] if any(k * x % P.denom for x in X) else [tuple(k * x // P.denom for x in X)]
    U, T, Q = P._chart
    if any(k * t % P.denom for t in T):
        return []
    tail, V = tuple(k * t // P.denom for t in T), inverse(U)
    return sorted(tuple(dot(row, h + tail) for row in V) for h in row_points(_rows(Q, k)))


def row_points(rows):
    """The integer points of the rows (head, lo, hi) of _rows, in order."""
    return [head + (x,) for head, lo, hi in rows for x in range(lo, hi + 1)]


def row_count(rows):
    """The number of integer points of the rows of _rows, with no point
    built: N(k) = h^0(kL) in the toric case for the rows of kP."""
    return sum(hi - lo + 1 for _, lo, hi in rows)


def _rows(P, k):
    """The rows of _scan_rows(P, k), scanned once per polytope and level."""
    rows = P._scans.get(k)
    if rows is None:
        rows = P._scans[k] = _scan_rows(P, k)
    return rows


def _scan_rows(P, k):
    """The nonempty rows (head, lo, hi) of the full-dimensional kP, by
    ascending head x' in the bounding box: x' + (x_n,) is in kP iff lo <=
    x_n <= hi.

    For integer x, a.x <= k c / D iff a.x <= floor(k c / D).  The scan sets
    one coordinate at a time and keeps each facet's residual r = floor(k c /
    D) minus a.x over the coordinates set so far, updated as x_i steps.  A
    facet whose normal ends at coordinate i bounds x_i alone once x_1 ..
    x_{i-1} are set: x_i <= r // a_i (a_i > 0) or x_i >= -(r // -a_i)
    (a_i < 0).  The box is first checked by dilate_boxes."""
    [(los, his)] = dilate_boxes(P, (k,))
    n, normals, out = P.ambient_dim, [a for a, _ in P.int_facets], []
    last = [max(i for i, x in enumerate(a) if x) for a in normals]
    cols = list(zip(*normals))
    ends = [[(j, cols[i][j]) for j, t in enumerate(last) if t == i] for i in range(n)]

    def scan(i, head, res):
        lo, hi = los[i], his[i]
        for j, a in ends[i]:
            if a > 0:
                hi = min(hi, res[j] // a)
            else:
                lo = max(lo, -(res[j] // -a))
        if i == n - 1:
            if lo <= hi:
                out.append((head, lo, hi))
            return
        col = cols[i]
        res = [r - a * lo for r, a in zip(res, col)]
        for x in range(lo, hi + 1):
            scan(i + 1, head + (x,), res)
            res = [r - a for r, a in zip(res, col)]

    scan(0, (), [k * c // P.denom for _, c in P.int_facets])
    return out


def lattice_count(P, k):
    """N(k) = #(kP cap Z^n) for a full-dimensional lattice polytope P, with
    no point built.  A level k <= n counts the rows of its own scan, so a
    small level never scans a larger box.  Above n, N(k) is the Ehrhart
    polynomial of P, of degree n with leading coefficient vol(P): N(k) =
    sum_{j <= n} C(k, j) Delta^j N(0), from N(0) = 1 and the row counts
    N(1), ..., N(n), whose boxes hold fewer points than kP's.  The
    differences are taken once per polytope, with Delta^n N(0) = n! vol(P)
    checked.  The box of kP is first checked by dilate_boxes."""
    k, n = int(k), P.ambient_dim
    if k <= n:
        return row_count(_rows(P, k))
    dilate_boxes(P, (k,))
    if P._ehrhart is None:
        values, diffs = [1] + [row_count(_rows(P, j)) for j in range(1, n + 1)], []
        while values:
            diffs.append(values[0])
            values = [b - a for a, b in zip(values, values[1:])]
        if diffs[n] != factorial(n) * volume(P):
            raise GrowthLabError("the Ehrhart leading coefficient is not the volume")
        P._ehrhart = tuple(diffs)
    return sum(comb(k, j) * d for j, d in enumerate(P._ehrhart))


def dilate_boxes(P, ks):
    """Integer bounding boxes (lows, highs) of kP for the ascending ks, checked
    before any enumeration: ValueError if they hold more than MAX_BOX_POINTS
    lattice points, one box alone or all together."""
    if P.is_empty:
        return []
    cols, D = list(zip(*P.int_vertices)), P.denom
    mins, maxs = [min(c) for c in cols], [max(c) for c in cols]
    boxes, total = [], 0
    for k in ks:
        if k < 1:
            raise ValueError("dilation factor must be a positive integer")
        los, his = [-(-k * x // D) for x in mins], [k * x // D for x in maxs]
        box = prod(hi - lo + 1 for lo, hi in zip(los, his))
        total += box
        if total > MAX_BOX_POINTS:
            what = (f"the bounding box of {k}P has {box} lattice points" if box > MAX_BOX_POINTS
                    else f"the bounding boxes of kP for k up to {k} have {total} "
                         "lattice points together")
            raise ValueError(f"{what}, above the limit of {MAX_BOX_POINTS}")
        boxes.append((los, his))
    return boxes


def volume(P):
    """Exact Lebesgue volume: the one the hull certificate gave (_certify),
    carried through scaled and unimodular images; 0 for empty or
    lower-dimensional input."""
    return P._volume if P.is_full_dim else Fraction(0)


def relative_volume(P):
    """Volume of a nonempty P in its affine span, normalized so a lattice
    cell has volume 1: volume(P') below full dimension, as U maps the span's
    integer directions onto Z^d x {0} (Beck and Robins, Computing the
    Continuous Discretely)."""
    if P.is_point:
        return Fraction(1)
    return volume(P if P.is_full_dim else P._chart[2])


def simplex_inclusion(P):
    """sup of lam >= 0 with lam * (standard simplex) inside P, exact.

    Requires P normalized: the origin is a vertex and P sits in the positive
    orthant.  The value is the facet minimum of c / (D max(a)), over facets
    a.x <= c / D whose normal has a positive coordinate.
    """
    _require_normalized(P)
    best = min((Fraction(c, max(a)) for a, c in P.int_facets if max(a) > 0), default=None)
    if best is None:
        raise GrowthLabError("bounded polytope must bound the simplex scale")
    return best / P.denom


def _require_normalized(P):
    if not P.is_full_dim:
        raise NotNormalized("polytope must be full-dimensional")
    if (0,) * P.ambient_dim not in P._incidence:
        raise NotNormalized("origin must be a vertex")
    if any(any(x < 0 for x in X) for X in P.int_vertices):
        raise NotNormalized("polytope must lie in the positive orthant")


def slice_vertices(P, normal, value):
    """The sorted vertices of the full-dimensional P cut by the plane
    normal.x = value, integer normal; [] when the plane misses P.  They are
    the vertices of P on the plane and the crossings of P's edges through
    it (Ziegler, Lectures on Polytopes, ch. 2), so no hull is needed.  With
    value = p / q and residuals r = q (normal.X) - p D of the numerators X,
    the edge X_i X_j crosses where r_i r_j < 0, at (X_i r_j - X_j r_i) /
    ((r_j - r_i) D)."""
    value = rat(value)
    p, q, D, X = value.numerator, value.denominator, P.denom, P.int_vertices
    r = [q * dot(normal, Y) - p * D for Y in X]
    out = [v for v, t in zip(P.vertices, r) if t == 0]
    for i, j in P.edges():
        if r[i] * r[j] < 0:
            e = (r[j] - r[i]) * D
            out.append(tuple(Fraction(x * r[j] - y * r[i], e) for x, y in zip(X[i], X[j])))
    return sorted(out)


def standard_simplex(n):
    """conv{0, e_1, ..., e_n}."""
    return hull([tuple(int(j == i) for j in range(n)) for i in range(-1, n)])


def box(sides):
    """Axis box prod [0, a_i]."""
    pts = [tuple(sides[i] if bit else 0 for i, bit in enumerate(bits))
           for bits in product((0, 1), repeat=len(sides))]
    return hull(pts)
