"""Exact rational polytope algebra.

Polytopes carry both a vertex and a facet description, kept consistent by
construction.  The hull runs in ints on the input times D, the lcm of its
denominators: points strictly inside an axis-parallel segment are dropped,
the hull of the rest is built incrementally with primitive integer normals,
and its simplicial facets are certified by incidence (each input point
inside each facet halfspace, the facets an oriented boundary cycle of degree
1).  Only vertices, facets and simplices are divided by D.  Volumes and
triangulations are cones over those simplices, each cone's determinant taken
in ints; a positive scaling or a unimodular map, which maps points in ints,
carries them over with no new hull.  Lower-dimensional polytopes (slices,
faces) are stored in ambient coordinates with an affine-span basis and a
full-dimensional polytope in span coordinates.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import ceil, factorial, floor, gcd, lcm, prod

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
    _integer_rows,
    det,
    dot,
    inverse,
    is_integral,
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


@dataclass(frozen=True)
class HalfSpace:
    """{x : <normal, x> <= offset}; (normal, offset) is a primitive integer
    vector, except in dimension 1: normal (1,) or (-1,), offset an endpoint."""

    normal: tuple
    offset: Fraction

    def value(self, x):
        return dot(self.normal, x)

    def to_json_dict(self):
        return {"normal": [rat_str(a) for a in self.normal],
                "offset": rat_str(self.offset)}


@dataclass(frozen=True)
class UnimodularMap:
    """Affine map p -> A (p - base) with A in GL(n, Z), given by integer rows."""

    matrix: tuple
    base: tuple

    def apply(self, p):
        """A (p - base) in ints: p - base times the lcm d of their
        denominators, multiplied by A's rows and divided by d at the end."""
        p = vec(p)
        d = lcm(*(x.denominator for x in p), *(x.denominator for x in self.base))
        diff = [x.numerator * (d // x.denominator) - y.numerator * (d // y.denominator)
                for x, y in zip(p, self.base)]
        return tuple(Fraction(dot(row, diff), d) for row in self.matrix)

    def image(self, P, G):
        """The polytope A (P - base), given G = A^-1; both routes map points by
        apply.  A full-dimensional P maps its certified data with no new hull:
        with x = G y + base, a facet a.x <= b becomes (G^T a).y <= b - a.base.
        Any other P is re-hulled."""
        if not P.is_full_dim:
            return Polytope.from_points([self.apply(v) for v in P.vertices], P.ambient_dim)
        Gt = [[int(x) for x in col] for col in zip(*G)]
        return P._image(self.apply,
                        lambda a, b: (tuple(dot(g, a) for g in Gt), b - dot(a, self.base)))

    def to_json_dict(self):
        return {"matrix": [[rat_str(x) for x in row] for row in self.matrix],
                "base": [rat_str(x) for x in self.base]}


class Polytope:
    """Immutable exact polytope; do not mutate attributes after construction.

    A full-dimensional one keeps its certified boundary complex: `_boundary[i]`
    lists the simplices on facet i, `_incidence` each vertex's facet indices."""

    def __init__(self, ambient_dim, vertices, facets, dim, span_point=None,
                 span_basis=None, span_poly=None, boundary=(), incidence=None):
        self.ambient_dim = ambient_dim
        self.vertices = tuple(sorted(vertices))
        self.facets = facets
        self.dim = dim
        self._span_point = span_point
        self._span_basis = span_basis
        self._span_poly = span_poly
        self._boundary = boundary
        self._incidence = incidence
        self._edges = None
        self._volume = None

    # -- constructors --------------------------------------------------

    @classmethod
    def empty(cls, ambient_dim):
        return cls(ambient_dim, (), (), -1)

    @classmethod
    def from_points(cls, points, ambient_dim=None):
        """Convex hull of arbitrary points; lower-dimensional results allowed.
        The hull runs on the points times D > 0, which keeps their order."""
        pts = [tuple(x if type(x) is int else rat(x) for x in p) for p in points]
        if ambient_dim is None:
            if not pts:
                raise DegenerateInput("ambient dimension unknown for empty input")
            ambient_dim = len(pts[0])
        if any(len(p) != ambient_dim for p in pts):
            raise DimensionMismatch("points of mixed dimension")
        if not pts:
            return cls.empty(ambient_dim)
        D = lcm(*(x.denominator for p in pts for x in p))
        pts = sorted({tuple(x.numerator * (D // x.denominator) for x in p) for p in pts})
        base = pts[0]
        basis = [vsub(pts[i], base) for i in _affine_basis(pts)]
        d = len(basis)
        if d == ambient_dim:
            incidence, facets, boundary = _hull_full_dim(pts, ambient_dim, D)
            return cls(ambient_dim, incidence, facets, ambient_dim,
                       boundary=boundary, incidence=incidence)
        if d == 0:
            return cls(ambient_dim, (_unscaled(base, D),), (), 0)
        # project to span coordinates, which scaling by D leaves unchanged
        coords = []
        cols = list(zip(*basis))  # n x d system
        for p in pts:
            s = solve_general(cols, vsub(p, base))
            if s is None:
                raise GrowthLabError("span projection failed")
            coords.append(s)
        span_poly = cls.from_points(coords, d)
        base, basis = _unscaled(base, D), tuple(_unscaled(b, D) for b in basis)
        verts = tuple(_from_span(base, basis, s) for s in span_poly.vertices)
        return cls(ambient_dim, verts, (), d, span_point=base,
                   span_basis=basis, span_poly=span_poly)

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

    def contains(self, x):
        x = vec(x)
        if len(x) != self.ambient_dim:
            raise DimensionMismatch("point/polytope dimension mismatch")
        if self.is_empty:
            return False
        if self.is_point:
            return x == self.vertices[0]
        if self.is_full_dim:
            # a.x <= b as a.(x d) <= b d in ints, d the lcm of x's denominators
            d = lcm(*(c.denominator for c in x))
            xd = [c.numerator * (d // c.denominator) for c in x]
            return all(dot(f.normal, xd) * f.offset.denominator <= f.offset.numerator * d
                       for f in self.facets)
        cols = list(zip(*self._span_basis))
        s = solve_general(cols, vsub(x, self._span_point))
        if s is None:
            return False
        if _from_span(self._span_point, self._span_basis, s) != x:
            return False
        return self._span_poly.contains(s)

    def active_facets(self, v):
        """Facets through the vertex v of a full-dimensional polytope."""
        return tuple(self.facets[i] for i in sorted(self._incidence[vec(v)]))

    def edges(self):
        """Vertex index pairs forming 1-faces, as a tuple computed once."""
        if self._edges is None:
            self._edges = tuple(self._find_edges())
        return self._edges

    def _find_edges(self):
        if not self.is_full_dim:
            if self.dim <= 0:
                return []
            amb = [_from_span(self._span_point, self._span_basis, s)
                   for s in self._span_poly.vertices]
            index = {v: i for i, v in enumerate(self.vertices)}
            return [(index[amb[i]], index[amb[j]])
                    for i, j in self._span_poly.edges()]
        n = self.ambient_dim
        active = [self._incidence[v] for v in self.vertices]
        pairs = ((i, j, active[i] & active[j])
                 for i, j in combinations(range(len(active)), 2))
        return [(i, j) for i, j, common in pairs if len(common) >= n - 1
                and rank([self.facets[k].normal for k in common]) == n - 1]

    def neighbors(self, v):
        v = vec(v)
        idx = self.vertices.index(v)
        return [self.vertices[j if i == idx else i]
                for i, j in self.edges() if idx in (i, j)]

    def scaled(self, c):
        """cP.  For c > 0 and dim P >= 1 there is no new hull.  A
        lower-dimensional P keeps its span polytope, as x = p0 + sum s_i b_i
        maps to c x = c p0 + sum s_i (c b_i).  A full-dimensional P maps its
        certified data; a facet a.x <= b becomes a.x <= c b."""
        c = rat(c)

        def image(p):
            return tuple(c * x for x in p)

        if c <= 0 or self.dim < 1:
            return Polytope.from_points([image(v) for v in self.vertices], self.ambient_dim)
        if not self.is_full_dim:
            return Polytope(self.ambient_dim, [image(v) for v in self.vertices], (), self.dim,
                            span_point=image(self._span_point),
                            span_basis=tuple(map(image, self._span_basis)),
                            span_poly=self._span_poly)
        return self._image(image, lambda a, b: (a, c * b))

    def _image(self, point, facet):
        """The image of a full-dimensional P under an invertible affine map,
        given on points and on facet pairs (a, b) -> (a', b') with a' integer,
        from the certified data of P with no new hull.  Each image facet is
        made primitive again and the facets re-sorted."""
        facets = []
        for f in self.facets:
            a, b = facet(f.normal, f.offset)  # b = p/q: (q a, p) / gcd(a, p) is primitive
            q, g = (b.denominator, gcd(*a, b.numerator)) if self.dim > 1 else (1, 1)
            facets.append(HalfSpace(tuple(q * x // g for x in a), b * q / g))
        order = sorted(range(len(facets)), key=lambda i: (facets[i].normal, facets[i].offset))
        index = {i: j for j, i in enumerate(order)}
        points = {id(p): p for group in self._boundary for s in group for p in s}
        points.update((id(v), v) for v in self._incidence)
        images = {i: point(p) for i, p in points.items()}
        incidence = {images[id(v)]: frozenset(index[i] for i in fs)
                     for v, fs in self._incidence.items()}
        boundary = tuple(tuple(tuple(images[id(p)] for p in s) for s in self._boundary[i])
                         for i in order)
        return Polytope(self.ambient_dim, incidence, tuple(facets[i] for i in order),
                        self.ambient_dim, boundary=boundary, incidence=incidence)

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

    def __eq__(self, other):
        return (isinstance(other, Polytope)
                and self.ambient_dim == other.ambient_dim
                and self.vertices == other.vertices)

    def __hash__(self):
        return hash((self.ambient_dim, self.vertices))

    def __repr__(self):
        if self.is_empty:
            return f"Polytope(empty, ambient={self.ambient_dim})"
        return (f"Polytope(dim={self.dim}, ambient={self.ambient_dim}, "
                f"vertices={len(self.vertices)})")


# -- hull machinery -------------------------------------------------------


def _from_span(base, basis, s):
    out = list(base)
    for coef, b in zip(s, basis):
        for i in range(len(out)):
            out[i] += coef * b[i]
    return tuple(out)


def _unscaled(p, D):
    return tuple(Fraction(x, D) for x in p)


def _affine_basis(pts):
    """Indices i with the pts[i] - pts[0] a basis of the affine span's directions."""
    ids = []
    for i in range(1, len(pts)):
        if rank([vsub(pts[j], pts[0]) for j in ids + [i]]) > len(ids):
            ids.append(i)
            if len(ids) == len(pts[0]):
                break
    return ids


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


def _incremental_hull(pts, n):
    """Simplicial facets [(ids frozenset, a, b)] of the hull of integer pts."""
    simplex = [0] + _affine_basis(pts)
    total = tuple(map(sum, zip(*(pts[i] for i in simplex))))
    facets = [_facet(pts, simplex[:drop] + simplex[drop + 1:], total)
              for drop in range(n + 1)]

    in_simplex = set(simplex)
    for idx in range(len(pts)):
        if idx in in_simplex:
            continue
        p = pts[idx]
        visible = [f for f in facets if dot(f[1], p) > f[2]]
        if not visible:
            continue
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
    """Check the simplicial facets of integer points pts; map vertex indices to facets.

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
    """
    ridge_sum = {}
    for ids, a, b in facets:
        simplex = sorted(ids)
        p0 = pts[simplex[0]]
        if any(dot(a, pts[i]) != b for i in simplex):
            raise GrowthLabError("hull facet point off its plane")
        orient = det([vsub(pts[i], p0) for i in simplex[1:]] + [a])
        if orient == 0:
            raise GrowthLabError("degenerate hull facet")
        s = 1 if orient > 0 else -1
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
    planes = [g[0][1:] for g in halfspaces.values()]
    verts = {}
    for idx, p in enumerate(pts):
        active = []
        for i, (a, b) in enumerate(planes):
            v = dot(a, p)
            if v > b:
                raise GrowthLabError("input point outside a hull facet")
            if v == b:
                active.append(i)
        if len(active) >= n and rank([planes[i][0] for i in active]) == n:
            verts[idx] = frozenset(active)
    return verts


def _dedupe_halfspaces(facets, D):
    """Simplicial facets grouped by plane, keyed and sorted by its HalfSpace in
    x = p / D: a.p <= b is (D a).x <= b, and gcd(D a, b) = gcd(D, b)."""
    groups = {}
    for f in facets:
        groups.setdefault(f[1:], []).append(f)
    canonical = {HalfSpace(tuple(D // gcd(D, b) * x for x in a), Fraction(b // gcd(D, b))): g
                 for (a, b), g in groups.items()}
    return dict(sorted(canonical.items(), key=lambda g: (g[0].normal, g[0].offset)))


def _hull_full_dim(pts, n, D):
    """(vertex -> facet indices, sorted facets, simplices per facet) of conv(pts) / D."""
    pts = _axis_endpoints(pts)
    if n == 1:
        lo, hi = _unscaled(min(pts), D), _unscaled(max(pts), D)
        facets = (HalfSpace((-1,), -lo[0]), HalfSpace((1,), hi[0]))
        return {lo: frozenset({0}), hi: frozenset({1})}, facets, (((lo,),), ((hi,),))
    facets = _incremental_hull(pts, n)
    halfspaces = _dedupe_halfspaces(facets, D)
    incidence = _certify(pts, facets, halfspaces, n)
    frac = {i: _unscaled(pts[i], D) for i in set(incidence).union(*(f[0] for f in facets))}
    boundary = tuple(tuple(tuple(frac[i] for i in sorted(ids)) for ids, _, _ in group)
                     for group in halfspaces.values())
    return {frac[i]: fs for i, fs in incidence.items()}, tuple(halfspaces), boundary


# -- public operations ------------------------------------------------------


def hull(points):
    """Exact convex hull; requires a full-dimensional affine span."""
    pts = [vec(p) for p in points]
    if not pts:
        raise DegenerateInput("hull of no points")
    n = len(pts[0])
    P = Polytope.from_points(pts, n)
    if not P.is_full_dim:
        raise DegenerateInput(f"affine span has dimension {P.dim} < {n}")
    return P


@dataclass(frozen=True)
class DelzantVertexReport:
    vertex: tuple
    ok: bool
    generators: tuple
    determinant: Fraction | None


@dataclass(frozen=True)
class DelzantReport:
    entries: tuple
    ok: bool

    def failing_vertices(self):
        return [e.vertex for e in self.entries if not e.ok]

    def to_json_dict(self):
        return {"ok": self.ok,
                "vertices": [{"vertex": [rat_str(x) for x in e.vertex],
                              "ok": e.ok,
                              "generators": [[rat_str(x) for x in g] for g in e.generators],
                              "det": None if e.determinant is None else rat_str(e.determinant)}
                             for e in self.entries]}


def _edge_generators(P, v):
    return sorted(primitive_integer(vsub(w, v)) for w in P.neighbors(v))


def is_delzant(P):
    """Per-vertex unimodularity check for a full-dimensional lattice polytope."""
    if not P.is_full_dim:
        raise DegenerateInput("Delzant check requires a full-dimensional polytope")
    if not all(is_integral(v) for v in P.vertices):
        raise NotLatticePolytope("vertices must be integral")
    entries = []
    for v in P.vertices:
        gens = _edge_generators(P, v)
        d = det(gens) if len(gens) == P.ambient_dim else None
        entries.append(DelzantVertexReport(v, d in (1, -1), tuple(gens), d))
    return DelzantReport(tuple(entries), all(e.ok for e in entries))


def normalize_at_vertex(P, v):
    """Translate v to the origin and map its edge cone to the positive orthant.

    The unimodular map sends the primitive edge generators, sorted in
    descending lexicographic order, to e_1, ..., e_n; the descending order
    makes the map the identity on an already normalized vertex.  Returns
    (normalized polytope, map).
    """
    v = vec(v)
    if v not in P.vertices:
        raise NotDelzantVertex(f"{v} is not a vertex")
    n = P.ambient_dim
    gens = sorted(_edge_generators(P, v), reverse=True)
    if len(gens) != n:
        raise NotDelzantVertex(f"vertex {v} has {len(gens)} edges, expected {n}")
    G = tuple(tuple(gens[c][r] for c in range(n)) for r in range(n))
    if abs(det(G)) != 1:
        raise NotDelzantVertex(f"edge generators at {v} are not unimodular")
    umap = UnimodularMap(tuple(tuple(int(x) for x in row) for row in inverse(G)), v)
    Q = umap.image(P, G)
    if any(any(x < 0 for x in q) for q in Q.vertices):
        raise GrowthLabError("normalized polytope left the positive orthant")
    return Q, umap


def lattice_points(P, k=1):
    """Integer points of the dilate kP, sorted, by an integer row scan.

    For integer x and an integer normal a, a.x <= k b iff a.x <= floor(k b),
    so every facet becomes an integer row (a', a_n, floor(k b)).  Each row
    of the first n - 1 coordinates of the bounding box then meets kP in one
    interval of the last coordinate, cut out by r = floor(k b) - a'.x' as
    x_n <= r // a_n (a_n > 0), x_n >= -(r // -a_n) (a_n < 0) or nothing at
    all (a_n = 0, r < 0).  A lower-dimensional P tests each box point for
    membership instead.  The box is first checked by dilate_boxes.
    """
    if P.is_empty:
        return []
    k = int(k)
    [(los, his)] = dilate_boxes(P, (k,))
    ranges = [range(lo, hi + 1) for lo, hi in zip(los, his)]
    if not P.is_full_dim:
        return [x for x in product(*ranges)
                if P.contains(tuple(Fraction(c, k) for c in x))]
    rows = [(f.normal[:-1], f.normal[-1], floor(k * f.offset)) for f in P.facets]
    out = []
    for head in product(*ranges[:-1]):
        lo, hi = los[-1], his[-1]
        for a, a_n, b in rows:
            r = b - sum(x * y for x, y in zip(a, head))
            if a_n > 0:
                hi = min(hi, r // a_n)
            elif a_n < 0:
                lo = max(lo, -(r // -a_n))
            elif r < 0:
                hi = lo - 1
            if lo > hi:
                break
        out.extend(head + (x,) for x in range(lo, hi + 1))
    return out


def dilate_boxes(P, ks):
    """Integer bounding boxes (lows, highs) of kP for the ascending ks, checked
    before any enumeration: ValueError if they hold more than MAX_BOX_POINTS
    lattice points, one box alone or all together."""
    if P.is_empty:
        return []
    cols = list(zip(*P.vertices))
    mins, maxs = [min(c) for c in cols], [max(c) for c in cols]
    boxes, total = [], 0
    for k in ks:
        if k < 1:
            raise ValueError("dilation factor must be a positive integer")
        los, his = [ceil(k * x) for x in mins], [floor(k * x) for x in maxs]
        box = prod(hi - lo + 1 for lo, hi in zip(los, his))
        total += box
        if total > MAX_BOX_POINTS:
            what = (f"the bounding box of {k}P has {box} lattice points" if box > MAX_BOX_POINTS
                    else f"the bounding boxes of kP for k up to {k} have {total} "
                         "lattice points together")
            raise ValueError(f"{what}, above the limit of {MAX_BOX_POINTS}")
        boxes.append((los, his))
    return boxes


def triangulate(P):
    """Simplices (tuples of dim+1 points of P) partitioning P: the cones from
    the first vertex v0 over the certified boundary simplices on the facets
    missing v0, or the span polytope's simplices for a lower-dimensional P."""
    if not P.is_full_dim:
        if P.dim <= 0:
            return []
        inner = triangulate(P._span_poly)
        return [tuple(_from_span(P._span_point, P._span_basis, s) for s in simplex)
                for simplex in inner]
    v0 = P.vertices[0]
    through = P._incidence[v0]
    return [(v0,) + s for i, group in enumerate(P._boundary) if i not in through
            for s in group]


def volume(P):
    """Exact Lebesgue volume, computed once per polytope: the sum of
    |det(s - v0)| / n! over the cones of triangulate(P).  Each cone's
    determinant is taken in ints on its points times the lcm d of their
    denominators, and counts |det| / d^n, or 0 at rank below n.  0 for empty
    or lower-dimensional input."""
    if not P.is_full_dim:
        return Fraction(0)
    if P._volume is None:
        n, total = P.ambient_dim, Fraction(0)
        for s in triangulate(P):
            d = lcm(*(x.denominator for p in s for x in p))
            q = [[x.numerator * (d // x.denominator) for x in p] for p in s]
            r, D = _bareiss([[x - y for x, y in zip(p, q[0])] for p in q[1:]])
            if r == n:
                total += Fraction(abs(D), d ** n)
        P._volume = total / factorial(n)
    return P._volume


def relative_volume(P):
    """Volume in the affine span, normalized so a lattice cell has volume 1.

    With the span basis rows b_i scaled to integer rows c_i = d_i b_i, the
    span coordinates s of x = p0 + sum s_i b_i are t_i = s_i / d_i in the
    basis C.  The lattice points of the span's directions contain Z C with
    index the gcd g of C's maximal minors (the product of its Smith
    invariant factors), so the value is volume(span polytope) g / prod d_i."""
    if P.is_empty:
        return Fraction(0)
    if P.is_point:
        return Fraction(1)
    if P.is_full_dim:
        return volume(P)
    rows, scale = _integer_rows(P._span_basis)
    g = gcd(*(det([[r[j] for j in cols] for r in rows])
              for cols in combinations(range(P.ambient_dim), P.dim)))
    return volume(P._span_poly) * g / scale


def simplex_inclusion(P):
    """sup of lam >= 0 with lam * (standard simplex) inside P, exact.

    Requires P normalized: the origin is a vertex and P sits in the positive
    orthant.  The value is the facet minimum of offset / max(normal coord),
    over facets whose normal has a positive coordinate.
    """
    _require_normalized(P)
    best = min((Fraction(f.offset, max(f.normal)) for f in P.facets if max(f.normal) > 0),
               default=None)
    if best is None:
        raise GrowthLabError("bounded polytope must bound the simplex scale")
    return best


def _require_normalized(P):
    if not P.is_full_dim:
        raise NotNormalized("polytope must be full-dimensional")
    zero = tuple(Fraction(0) for _ in range(P.ambient_dim))
    if zero not in P.vertices:
        raise NotNormalized("origin must be a vertex")
    if any(any(x < 0 for x in v) for v in P.vertices):
        raise NotNormalized("polytope must lie in the positive orthant")


def cut(P, normal, value):
    """P intersect {x : <normal, x> = value}; empty result is a value."""
    u = vec(normal)
    value = rat(value)
    if P.is_empty:
        return Polytope.empty(P.ambient_dim)
    if P.is_point:
        v = P.vertices[0]
        return P if dot(u, v) == value else Polytope.empty(P.ambient_dim)
    if not P.is_full_dim:
        # restriction of <u, .> to span coordinates
        w = tuple(dot(u, b) for b in P._span_basis)
        c0 = dot(u, P._span_point)
        if all(x == 0 for x in w):
            return P if c0 == value else Polytope.empty(P.ambient_dim)
        inner = cut(P._span_poly, w, value - c0)
        pts = [_from_span(P._span_point, P._span_basis, s) for s in inner.vertices]
        return Polytope.from_points(pts, P.ambient_dim) if pts else Polytope.empty(P.ambient_dim)
    vals = [dot(u, v) for v in P.vertices]
    pts = [v for v, t in zip(P.vertices, vals) if t == value]
    for i, j in P.edges():
        ti, tj = vals[i], vals[j]
        if (ti < value < tj) or (tj < value < ti):
            t = (value - ti) / (tj - ti)
            vi, vj = P.vertices[i], P.vertices[j]
            pts.append(tuple(x + t * (y - x) for x, y in zip(vi, vj)))
    if not pts:
        return Polytope.empty(P.ambient_dim)
    return Polytope.from_points(pts, P.ambient_dim)


def sum_slice(P, lam):
    """Slice by the total-coordinate hyperplane sum(x) = lam."""
    if P.is_empty:
        return Polytope.empty(P.ambient_dim)
    ones = tuple(Fraction(1) for _ in range(P.ambient_dim))
    return cut(P, ones, lam)


def standard_simplex(n):
    """conv{0, e_1, ..., e_n}."""
    return hull([tuple(Fraction(int(j == i)) for j in range(n)) for i in range(-1, n)])


def box(sides):
    """Axis box prod [0, a_i]."""
    sides = [rat(a) for a in sides]
    n = len(sides)
    pts = [tuple(sides[i] if bit else Fraction(0) for i, bit in enumerate(bits))
           for bits in product((0, 1), repeat=n)]
    return hull(pts)
