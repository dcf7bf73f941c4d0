"""Seeded input polytopes and their closed-form reference answers.

Nothing here imports growthlab.  Every input is a base shape (a box, a
simplex, a Hirzebruch trapezoid or a trapezoid prism, all normalized at the
origin) carried by a random unimodular map and an integer translation, and
every reference answer is computed from the base shape, so the checks do not
depend on the code under test.  Unimodular maps preserve volume, lattice
points, edges and lattice lengths, which is what makes that possible.
"""

import itertools
import json
import math
from fractions import Fraction


class Shape:
    """A simple lattice polytope in its own coordinates.

    `facets` is a list of (a, beta) meaning a.x <= beta with integer data;
    `vertices` are integer tuples; `volume` is exact.
    """

    def __init__(self, vertices, facets, volume):
        self.vertices = tuple(sorted(vertices))
        self.facets = facets
        self.volume = Fraction(volume)
        self.dim = len(self.vertices[0])

    def tight(self, v):
        return frozenset(i for i, (a, beta) in enumerate(self.facets)
                         if _dot(a, v) == beta)

    def neighbors(self, v):
        """Vertices joined to v by an edge: in a simple polytope they share
        exactly dim - 1 tight facets with v."""
        tv = self.tight(v)
        return [w for w in self.vertices
                if w != v and len(tv & self.tight(w)) == self.dim - 1]

    def lattice_count(self, k):
        """Integer points of k times the shape, counted row by row along the
        last coordinate."""
        n = self.dim
        his = [k * max(v[c] for v in self.vertices) for c in range(n - 1)]
        count = 0
        for head in itertools.product(*(range(h + 1) for h in his)):
            lo, hi = 0, k * max(v[-1] for v in self.vertices)
            for a, beta in self.facets:
                rest = k * beta - _dot(a[:-1], head)
                if a[-1] > 0:
                    hi = min(hi, rest // a[-1])
                elif a[-1] < 0:
                    lo = max(lo, -(rest // -a[-1]))
                elif rest < 0:
                    hi = lo - 1
            count += max(0, hi - lo + 1)
        return count

    def seshadri(self, v):
        """Smallest lattice length of the edges at vertex v."""
        return min(_lattice_length(_sub(w, v)) for w in self.neighbors(v))

    def normalized_sums(self, v):
        """Coordinate sums of the vertices after normalizing at v: y solves
        G y = w - v, where the columns of G are the primitive edge
        generators at v; the sums do not depend on the column order."""
        gens = [_primitive(_sub(w, v)) for w in self.neighbors(v)]
        G = [[g[r] for g in gens] for r in range(self.dim)]
        return sorted({sum(_solve(G, _sub(w, v))) for w in self.vertices})


def box(sides):
    n = len(sides)
    verts = list(itertools.product(*((0, s) for s in sides)))
    facets = ([(_unit(n, i, -1), 0) for i in range(n)]
              + [(_unit(n, i, 1), s) for i, s in enumerate(sides)])
    return Shape(verts, facets, math.prod(sides))


def simplex(n, s):
    verts = [(0,) * n] + [_unit(n, i, s) for i in range(n)]
    facets = [(_unit(n, i, -1), 0) for i in range(n)] + [((1,) * n, s)]
    return Shape(verts, facets, Fraction(s ** n, math.factorial(n)))


def trapezoid(a, b, c):
    """conv{(0,0), (a+cb,0), (a,b), (0,b)}: Delzant at every vertex."""
    verts = [(0, 0), (a + c * b, 0), (a, b), (0, b)]
    facets = [((-1, 0), 0), ((0, -1), 0), ((0, 1), b), ((1, c), a + c * b)]
    return Shape(verts, facets, Fraction((2 * a + c * b) * b, 2))


def prism(a, b, c, h):
    base = trapezoid(a, b, c)
    verts = [p + (z,) for p in base.vertices for z in (0, h)]
    facets = ([(na + (0,), beta) for na, beta in base.facets]
              + [((0, 0, -1), 0), ((0, 0, 1), h)])
    return Shape(verts, facets, base.volume * h)


def permuted(shape, perm):
    """The shape with its coordinates reordered; still normalized at 0."""
    def p(x):
        return tuple(x[i] for i in perm)
    return Shape([p(v) for v in shape.vertices],
                 [(p(a), beta) for a, beta in shape.facets], shape.volume)


class Embedded:
    """A base shape under x -> M x + t, with M unimodular, at one vertex."""

    def __init__(self, shape, M, t, base_vertex):
        self.shape = shape
        self.M = M
        self.t = t
        self.base_vertex = base_vertex

    def apply(self, x):
        return tuple(_dot(row, x) + ti for row, ti in zip(self.M, self.t))

    @property
    def vertices(self):
        return sorted(self.apply(v) for v in self.shape.vertices)

    @property
    def vertex(self):
        return self.apply(self.base_vertex)


def random_unimodular(rng, n, shears=3):
    """Integer shears with coefficients +-1, a coordinate permutation and
    sign flips: determinant +-1 by construction."""
    M = [list(_unit(n, i, 1)) for i in range(n)]
    for _ in range(shears):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        M[i] = [x + c * y for x, y in zip(M[i], M[j])]
    rng.shuffle(M)
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    return tuple(tuple(s * x for x in row) for s, row in zip(signs, M))


def embed(rng, shape):
    n = shape.dim
    M = random_unimodular(rng, n)
    t = tuple(rng.randint(-3, 3) for _ in range(n))
    return Embedded(shape, M, t, rng.choice(shape.vertices))


def polytope_json(vertices):
    return json.dumps({"dim": len(vertices[0]),
                       "vertices": [[str(c) for c in v] for v in vertices]})


def vertex_arg(v):
    """--vertex=... form: argparse would read '--vertex -1,2' as a missing
    value followed by an option."""
    return "--vertex=" + ",".join(str(c) for c in v)


def _unit(n, i, s):
    return tuple(s if j == i else 0 for j in range(n))


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _lattice_length(d):
    return math.gcd(*d)


def _primitive(d):
    g = _lattice_length(d)
    return tuple(x // g for x in d)


def _det(M):
    if len(M) == 1:
        return M[0][0]
    return sum((-1) ** j * M[0][j] * _det([row[:j] + row[j + 1:] for row in M[1:]])
               for j in range(len(M)))


def _solve(G, b):
    """Cramer's rule; G is square with nonzero determinant."""
    d = _det(G)
    cols = range(len(G))
    return [Fraction(_det([[b[r] if c == j else G[r][c] for c in cols]
                           for r in cols]), d) for j in cols]
