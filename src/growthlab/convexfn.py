"""Convex functions on R^n: max-affine forms, smooth toric potentials,
Legendre transforms, radial decomposition and the regularized max.

Max-affine data is exact (Fraction slopes and offsets; float offsets are
converted exactly).  Smooth families evaluate in floating point with
numerically stable formulas.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from . import polytope as pt
from .errors import (
    DegenerateInput,
    DimensionMismatch,
    EmptyInput,
    IncomparableFamilies,
    NonpositiveEpsilon,
)
from .lp import envelope_min
from .rationals import dot, rat, rat_str, vec

INF = math.inf
# Fubini-Study dim bound: the exact hull of the 48-simplex takes about 2 s.
MAX_FS_DIM = 48


@dataclass(frozen=True)
class AffinePiece:
    slope: tuple
    offset: Fraction

    def value(self, x):
        return dot(self.slope, x) + self.offset


def _is_exact_point(x):
    return all(isinstance(c, (int, Fraction)) for c in x)


class MaxAffineFunction:
    """Finite maximum of affine forms; immutable."""

    def __init__(self, pieces):
        if not pieces:
            raise EmptyInput("a max-affine function needs at least one piece")
        by_slope = {}
        for p in pieces:
            if isinstance(p, AffinePiece):
                s, c = p.slope, p.offset
            else:
                s, c = p
            s = vec(s)
            c = rat(c)
            if s not in by_slope or c > by_slope[s]:
                by_slope[s] = c
        self.pieces = tuple(AffinePiece(s, by_slope[s]) for s in sorted(by_slope))
        self.dim = len(self.pieces[0].slope)
        if any(len(p.slope) != self.dim for p in self.pieces):
            raise DimensionMismatch("pieces of mixed dimension")

    @classmethod
    def support_function(cls, P):
        """h_P = max over vertices of <v, .>, the polyhedral representative."""
        if P.is_empty:
            raise EmptyInput("support function of an empty polytope")
        h = cls([(v, 0) for v in P.vertices])
        # P is already the certified hull of exactly these slopes
        h.slope_polytope = P
        return h

    def __call__(self, x):
        if len(x) != self.dim:
            raise DimensionMismatch("point has wrong dimension")
        if _is_exact_point(x):
            return max(p.value(vec(x)) for p in self.pieces)
        xs = [float(c) for c in x]
        return max(sum(float(s) * c for s, c in zip(p.slope, xs)) + float(p.offset)
                   for p in self.pieces)

    @cached_property
    def _float_data(self):
        import numpy as np
        A = np.array([[float(s) for s in p.slope] for p in self.pieces])
        c = np.array([float(p.offset) for p in self.pieces])
        return A, c

    def eval_many(self, X, dtype=float):
        import numpy as np
        A, c = self._float_data
        X = np.asarray(X, dtype=dtype)
        return (X @ A.T.astype(dtype) + c.astype(dtype)).max(axis=1)

    @cached_property
    def _lifted_hull(self):
        """(Q, cap): Q = conv{(a_i, -b_i)} u {(a_i, cap)}, cap = max(-b_i) + 1."""
        cap = max(-p.offset for p in self.pieces) + 1
        pts = [p.slope + (-p.offset,) for p in self.pieces]
        pts += [p.slope + (cap,) for p in self.pieces]
        return pt.Polytope.from_points(pts, self.dim + 1), cap

    @cached_property
    def _pruned_pieces(self):
        """The pieces (a, b) that strictly attain the maximum somewhere.

        Piece i is dominated iff the lower convex envelope of the other
        lifted points (a_j, -b_j) is <= -b_i at a_i.  By the lifting map
        (Edelsbrunner & Seidel 1986) these are read off the lifted hull:
        Q = {(y, t) : y in conv{a_j}, g(y) <= t <= cap}, g the envelope of
        all lifted points (the conjugate of f).  A vertex of Q strictly below
        cap is no inner point of the vertical segment over its y, so it is on
        the graph of g, and as a vertex it is no convex combination of other
        lifted points.  A dominated lifted point is such a combination or
        lies above g, so it is no vertex.  Every lifted point lies below cap,
        so piece i is kept iff (a_i, -b_i) is a vertex of Q.  With one offset
        Q is a prism, and the kept slopes are the slope polytope's vertices.
        """
        if len({p.offset for p in self.pieces}) == 1:
            keep = set(self.slope_polytope.vertices)
            return tuple(p for p in self.pieces if p.slope in keep)
        keep = set(self._lifted_hull[0].vertices)
        return tuple(p for p in self.pieces if p.slope + (-p.offset,) in keep)

    @cached_property
    def slope_polytope(self):
        """Hull of all slopes; a dominated piece's slope lies in the hull of
        the others, so pruning does not change it."""
        return pt.Polytope.from_points([p.slope for p in self.pieces], self.dim)

    def to_json_dict(self):
        return {"pieces": [{"slope": [rat_str(s) for s in p.slope],
                            "offset": rat_str(p.offset)} for p in self.pieces]}

    def __repr__(self):
        return f"MaxAffineFunction({len(self.pieces)} pieces, dim={self.dim})"


class ConvexConjugate:
    """Legendre transform of a max-affine function.

    Finite exactly on the slope polytope; the value at y is the lower convex
    envelope of the points (slope, -offset) evaluated at y, computed by an
    exact LP.
    """

    def __init__(self, breakpoints, dim):
        self.breakpoints = tuple(breakpoints)  # (slope, value = -offset)
        self.dim = dim

    @cached_property
    def domain(self):
        return pt.Polytope.from_points([s for s, _ in self.breakpoints], self.dim)

    def __call__(self, y):
        y = vec(y)
        if len(y) != self.dim:
            raise DimensionMismatch("point has wrong dimension")
        slopes = [s for s, _ in self.breakpoints]
        values = [v for _, v in self.breakpoints]
        best = envelope_min(slopes, values, y)
        return INF if best is None else best


def legendre(f):
    """Conjugate description of a max-affine function: domain + roof values."""
    return ConvexConjugate([(p.slope, -p.offset) for p in f._pruned_pieces], f.dim)


class SmoothToricPotential:
    """Smooth convex function from a named family.

    lse:    (1/k) ln sum over the exponents a of exp(<a, x>), the N(k)
            lattice points of kP; they are listed from P's scan of kP only
            when u_k is evaluated (logsumexp_from_polytope)
    fs:     lam * ln(1 + sum_i exp(x_i))      (scaled Fubini-Study potential)
    """

    def __init__(self, family, *, k=None, count=None, lam=None, dim=None,
                 polytope=None):
        """lse takes its slope polytope P and the number N(k) of lattice
        points of kP (polytope.lattice_count)."""
        self.family = family
        if family == "lse":
            self.k = int(k)
            if polytope is None:
                raise ValueError("log-sum-exp needs its slope polytope")
            self.dim = polytope.ambient_dim
            self._polytope, self._count = polytope, count
        elif family == "fs":
            self.lam = rat(lam)
            if self.lam <= 0:
                raise ValueError("scaled Fubini-Study needs lam > 0")
            self.dim = int(dim)
            if self.dim < 1:
                raise ValueError("scaled Fubini-Study needs dim >= 1")
            if self.dim > MAX_FS_DIM:
                raise ValueError(f"scaled Fubini-Study needs dim <= {MAX_FS_DIM}")
        else:
            raise ValueError(f"unknown family {family!r}")

    @classmethod
    def fubini_study(cls, lam, dim):
        return cls("fs", lam=lam, dim=dim)

    @property
    def lattice_count(self):
        if self.family != "lse":
            raise IncomparableFamilies("lattice count only defined for lse")
        return self._count

    @cached_property
    def exponents(self):
        """The lattice points of kP as sorted int tuples, listed once from
        the polytope's scan of kP."""
        return tuple(pt.row_points(pt._rows(self._polytope, self.k)))

    @cached_property
    def _exp_arr(self):
        import numpy as np
        return np.array(self.exponents, dtype=float)

    def __call__(self, x):
        if len(x) != self.dim:
            raise DimensionMismatch("point has wrong dimension")
        return float(self.value_many([[float(c) for c in x]])[0])

    def value_many(self, X, dtype=float):
        import numpy as np
        X = np.asarray(X, dtype=dtype)
        if self.family == "lse":
            XA = X @ self._exp_arr.T.astype(dtype)
            m = XA.max(axis=1)
            return (m + np.log(np.exp(XA - m[:, None]).sum(axis=1))) / self.k
        m = np.maximum(0, X.max(axis=1))
        s = np.exp(-m) + np.exp(X - m[:, None]).sum(axis=1)
        return float(self.lam) * (m + np.log(s))

    def grad_many(self, X):
        """Exact-formula gradients; for lse this is the softmax average of
        exponents over k, which lies in the slope polytope."""
        import numpy as np
        X = np.asarray(X, dtype=float)
        if self.family == "lse":
            XA = X @ self._exp_arr.T
            XA -= XA.max(axis=1, keepdims=True)
            W = np.exp(XA)
            W /= W.sum(axis=1, keepdims=True)
            return (W @ self._exp_arr) / self.k
        m = np.maximum(0, X.max(axis=1, keepdims=True))
        E = np.exp(X - m)
        denom = np.exp(-m[:, 0]) + E.sum(axis=1)
        return float(self.lam) * E / denom[:, None]

    @cached_property
    def slope_polytope(self):
        if self.family == "lse":
            return self._polytope
        return pt.standard_simplex(self.dim).scaled(self.lam)

    def __repr__(self):
        if self.family == "lse":
            return f"SmoothToricPotential(lse, k={self.k}, N={self.lattice_count})"
        return f"SmoothToricPotential(fs, lam={self.lam}, dim={self.dim})"


def logsumexp_from_polytope(P, k):
    """Toric potential u_k over the lattice points of kP, built with their
    count N(k) (polytope.lattice_count: a scan of kP for k <= n, else the
    Ehrhart polynomial of P); the points themselves are listed from P's
    scan of kP only when u_k is evaluated.

    Requires P normalized (origin vertex, positive orthant) with integral
    vertices, so that h_P <= u_k <= h_P + ln(N(k))/k holds for every k >= 1.
    """
    pt._require_normalized(P)
    if not pt._is_lattice(P):
        from .errors import NotNormalized
        raise NotNormalized("polytope must be a lattice polytope")
    return SmoothToricPotential("lse", k=k, count=pt.lattice_count(P, k), polytope=P)


@dataclass(frozen=True)
class BoundedDifferenceCertificate:
    """Certified global bounds lower <= f - g <= upper (infinite ends carry a
    recession witness direction)."""

    lower: object
    upper: object
    method: str
    witnesses: dict = field(default_factory=dict)

    def to_json_dict(self):
        def fmt(v):
            if v == INF:
                return "inf"
            if v == -INF:
                return "-inf"
            if isinstance(v, Fraction):
                return rat_str(v)
            return float(v)
        wit = {}
        for key, val in self.witnesses.items():
            if isinstance(val, tuple):
                wit[key] = [rat_str(x) if isinstance(x, Fraction) else x for x in val]
            else:
                wit[key] = val if not isinstance(val, Fraction) else rat_str(val)
        return {"lower": fmt(self.lower), "upper": fmt(self.upper),
                "method": self.method, "witnesses": wit}


def _separating_direction(point, P):
    """A direction d with <d, point> strictly above max over P; exact.  Below
    full dimension, +-U^T e_j for a tail entry j of U point off T / D, else
    U^T (a, 0) for a facet normal a of P' separating its head."""
    from .rationals import vsub
    if P.is_point:
        return vsub(point, P.vertices[0])
    if P.is_full_dim:
        for f in P.facets:
            if f.value(point) > f.offset:
                return f.normal
        raise ValueError("point is inside the polytope")
    U, T, Q = P._chart
    y = [dot(row, point) for row in U]
    for row, z, t in zip(U[P.dim:], y[P.dim:], T):
        t = Fraction(t, P.denom)
        if z != t:
            return row if z > t else tuple(-x for x in row)
    a = _separating_direction(tuple(y[:P.dim]), Q)
    return tuple(dot(a, col) for col in zip(*U[:P.dim]))


def _sup_max_affine(f, g):
    """Exact sup of f - g for two max-affine functions, or (inf, witness)."""
    conj = legendre(g)
    best = None
    best_piece = None
    for p in f._pruned_pieces:
        val = conj(p.slope)
        if val == INF:
            d = _separating_direction(p.slope, g.slope_polytope)
            return INF, {"recession_direction": d, "escaping_slope": p.slope}
        cand = p.offset + val
        if best is None or cand > best:
            best, best_piece = cand, p.slope
    return best, {"sup_witness_slope": best_piece}


def sup_difference(f, g):
    """Certificate for inf/sup of f - g.

    Both max-affine: exact LP values, finite iff the slope polytopes agree.
    A log-sum-exp potential u_k over P against the support function h_P:
    the analytic bound 0 <= u_k - h_P <= ln N(k)/k.  g is h_P exactly when
    the hull of its slopes is P, no offset is positive and every vertex of P
    carries a piece with offset 0: then h_P <= g <= h_P.
    """
    if isinstance(f, MaxAffineFunction) and isinstance(g, MaxAffineFunction):
        up, wit_up = _sup_max_affine(f, g)
        down, wit_dn = _sup_max_affine(g, f)
        lower = -INF if down == INF else -down
        wit = {("sup_" + k if not k.startswith("sup") else k): v for k, v in wit_up.items()}
        for k, v in wit_dn.items():
            wit["inf_" + k.removeprefix("sup_")] = v
        return BoundedDifferenceCertificate(lower, up, "exact-lp", wit)
    if isinstance(f, SmoothToricPotential) and f.family == "lse" \
            and isinstance(g, MaxAffineFunction):
        # pieces and vertices are both sorted, so each vertex is found in order
        P, zero = f.slope_polytope, iter([p.slope for p in g.pieces if p.offset == 0])
        if not (g.slope_polytope == P and max(p.offset for p in g.pieces) <= 0
                and all(v in zero for v in P.vertices)):
            raise IncomparableFamilies(
                "log-sum-exp is bounded only against its polytope's support function")
        n_count = f.lattice_count
        return BoundedDifferenceCertificate(
            Fraction(0), math.log(n_count) / f.k, "lattice-count",
            {"lattice_count": n_count, "k": f.k, "tight_at": "origin"})
    raise IncomparableFamilies(
        f"cannot bound difference of {type(f).__name__} and {type(g).__name__}")


def radial_component(f, lam):
    """Component of f at logarithmic homogeneity lam.

    Computes inf over t of f(x + t*ones) - lam*t as an exact max-affine
    function whose slopes all have coordinate sum lam, or None when the
    infimum is identically -infinity (lam outside the slope sums of f).
    For a support function h_P the result is the support function of the
    slice of P at total coordinate lam.  f's slope polytope must be
    full-dimensional: each slice is read off the edges of a certified hull.

    With mixed offsets the component's conjugate is f's conjugate g
    restricted to the slice, so its lifted hull is W = f's lifted hull Q cut
    by sum(y) = lam.  The cut only constrains y, so W is {(y, t) : y in the
    slice, g(y) <= t <= cap}; a vertex of W strictly below cap cannot lie
    inside a vertical segment of W, so it is on the graph of g, and the
    pieces read off these vertices are already pruned.
    """
    lam = rat(lam)
    if not f.slope_polytope.is_full_dim:
        raise DegenerateInput("radial components need a full-dimensional slope polytope")
    offsets = {p.offset for p in f._pruned_pieces}
    n = f.dim
    if len(offsets) == 1:
        c0, = offsets
        vertices = pt.slice_vertices(f.slope_polytope, (1,) * n, lam)
        return MaxAffineFunction([(v, c0) for v in vertices]) if vertices else None
    Q, cap = f._lifted_hull
    W = pt.slice_vertices(Q, (1,) * n + (0,), lam)
    if not W:
        return None
    return MaxAffineFunction([(w[:n], -w[n]) for w in W if w[n] < cap])


def reassemble(components):
    """Pointwise max of radial components: the union of their pieces."""
    parts = [c for c in components.values() if c is not None] \
        if isinstance(components, dict) else [c for c in components if c is not None]
    if not parts:
        raise EmptyInput("no nonempty components to reassemble")
    pieces = []
    for c in parts:
        pieces.extend(c.pieces)
    return MaxAffineFunction(pieces)


def slope_inclusion_witness(A, B):
    """Shared core of the growth comparison: strict inclusion of slope
    polytopes (strict only on positive-offset facets), with a violation
    witness (vertex, facet) when it fails."""
    if A.ambient_dim != B.ambient_dim:
        raise DimensionMismatch("ambient dimensions differ")
    if not B.is_full_dim:
        raise DegenerateInput("target slope polytope must be full-dimensional")
    for facet in B.facets:
        vals = [(dot(facet.normal, v), v) for v in A.vertices]
        m, vtx = max(vals)
        bad = m >= facet.offset if facet.offset > 0 else m > facet.offset
        if bad:
            return False, {"vertex": vtx, "facet": facet}
    return True, None


def regularized_max_many(a, b, eps):
    """Vectorized regularized max; branch values match max(a, b) bitwise."""
    if eps <= 0:
        raise NonpositiveEpsilon("regularization width must be positive")
    import numpy as np
    a = np.asarray(a)
    b = np.asarray(b)
    s = a - b
    smooth = (a + b) / 2 + (s * s + eps * eps) / (4 * eps)
    return np.where(np.abs(s) >= eps, np.maximum(a, b), smooth)
