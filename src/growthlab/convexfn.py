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

import numpy as np

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
        A = np.array([[float(s) for s in p.slope] for p in self.pieces])
        c = np.array([float(p.offset) for p in self.pieces])
        return A, c

    def eval_many(self, X, dtype=np.float64):
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

    def pruned(self):
        """Drop pieces that never strictly attain the maximum."""
        return MaxAffineFunction(self._pruned_pieces)

    def piece_set(self):
        return frozenset((p.slope, p.offset) for p in self._pruned_pieces)

    def same_function(self, other):
        """Exact equality as functions (canonical pruned piece sets agree)."""
        return self.piece_set() == other.piece_set()

    @cached_property
    def slope_polytope(self):
        """Hull of all slopes; a dominated piece's slope lies in the hull of
        the others, so pruning does not change it."""
        return pt.Polytope.from_points([p.slope for p in self.pieces], self.dim)

    def shifted(self, c):
        return MaxAffineFunction([(p.slope, p.offset + rat(c)) for p in self.pieces])

    def to_json_dict(self):
        return {"pieces": [{"slope": [rat_str(s) for s in p.slope],
                            "offset": rat_str(p.offset)} for p in self.pieces]}

    @classmethod
    def from_json_dict(cls, d):
        return cls([([rat(s) for s in p["slope"]], rat(p["offset"]))
                    for p in d["pieces"]])

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

    def conjugate(self):
        """Conjugate back: recovers the pruned original (Legendre involution)."""
        return MaxAffineFunction([(s, -v) for s, v in self.breakpoints])


def legendre(f):
    """Conjugate description of a max-affine function: domain + roof values."""
    return ConvexConjugate([(p.slope, -p.offset) for p in f._pruned_pieces], f.dim)


class SmoothToricPotential:
    """Smooth convex function from a named family.

    lse:    (1/k) ln sum over stored exponents of exp(<a, x>)
    fs:     lam * ln(1 + sum_i exp(x_i))      (scaled Fubini-Study potential)
    """

    def __init__(self, family, *, k=None, exponents=None, lam=None, dim=None,
                 polytope=None):
        """lse exponents are stored as given: sorted int tuples, which
        lattice_points returns and log_sum_exp makes of any other input."""
        self.family = family
        if family == "lse":
            self.k = int(k)
            self.exponents = tuple(exponents)
            if not self.exponents:
                raise EmptyInput("log-sum-exp needs at least one exponent")
            self.dim = len(self.exponents[0])
            self._polytope = polytope
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
    def log_sum_exp(cls, exponents, k):
        exponents = sorted(tuple(int(a) for a in e) for e in exponents)
        return cls("lse", k=k, exponents=exponents)

    @classmethod
    def fubini_study(cls, lam, dim):
        return cls("fs", lam=lam, dim=dim)

    @property
    def lattice_count(self):
        if self.family != "lse":
            raise IncomparableFamilies("lattice count only defined for lse")
        return len(self.exponents)

    @cached_property
    def _exp_arr(self):
        return np.array(self.exponents, dtype=float)

    def __call__(self, x):
        if len(x) != self.dim:
            raise DimensionMismatch("point has wrong dimension")
        xs = np.array([float(c) for c in x])
        return float(self.value_many(xs[None, :])[0])

    def value_many(self, X, dtype=np.float64):
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
            if self._polytope is not None:
                return self._polytope
            pts = [tuple(Fraction(a, self.k) for a in e) for e in self.exponents]
            return pt.Polytope.from_points(pts, self.dim)
        return pt.standard_simplex(self.dim).scaled(self.lam)

    def to_json_dict(self):
        if self.family == "lse":
            return {"family": "lse", "k": self.k,
                    "polytope": self.slope_polytope.to_json_dict(with_facets=False)}
        return {"family": "fs", "lambda": rat_str(self.lam), "dim": self.dim}

    @classmethod
    def from_json_dict(cls, d):
        if d["family"] == "lse":
            P = pt.Polytope.from_json_dict(d["polytope"])
            return logsumexp_from_polytope(P, int(d["k"]))
        if d["family"] == "fs":
            return cls.fubini_study(rat(d["lambda"]), d["dim"])
        raise ValueError(f"unknown family {d['family']!r}")

    def __repr__(self):
        if self.family == "lse":
            return f"SmoothToricPotential(lse, k={self.k}, N={len(self.exponents)})"
        return f"SmoothToricPotential(fs, lam={self.lam}, dim={self.dim})"


def logsumexp_from_polytope(P, k):
    """Toric potential u_k from the lattice points of kP.

    Requires P normalized (origin vertex, positive orthant) with integral
    vertices, so that h_P <= u_k <= h_P + ln(N(k))/k holds for every k >= 1.
    """
    pt._require_normalized(P)
    from .errors import NotNormalized
    from .rationals import is_integral
    if not all(is_integral(v) for v in P.vertices):
        raise NotNormalized("polytope must be a lattice polytope")
    return SmoothToricPotential("lse", k=k, exponents=pt.lattice_points(P, k), polytope=P)


@dataclass(frozen=True)
class BoundedDifferenceCertificate:
    """Certified global bounds lower <= f - g <= upper (infinite ends carry a
    recession witness direction)."""

    lower: object
    upper: object
    method: str
    witnesses: dict = field(default_factory=dict)

    @property
    def finite(self):
        return self.lower != -INF and self.upper != INF

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
    """A direction d with <d, point> strictly above max over P; exact."""
    from .rationals import solve, vsub
    if P.is_point:
        return vsub(point, P.vertices[0])
    if P.is_full_dim:
        for f in P.facets:
            if f.value(point) > f.offset:
                return f.normal
        raise ValueError("point is inside the polytope")
    # residual of the exact orthogonal projection onto the span, else recurse
    B = P._span_basis
    gram = [[dot(a, b) for b in B] for a in B]
    rhs = [dot(a, vsub(point, P._span_point)) for a in B]
    s = solve(gram, rhs)
    proj = pt._from_span(P._span_point, B, s)
    r = vsub(point, proj)
    if any(x != 0 for x in r):
        return r
    inner = _separating_direction(s, P._span_poly)
    coef = solve(gram, inner)  # dual basis lift of the in-span normal
    return tuple(sum(c * b[i] for c, b in zip(coef, B)) for i in range(len(point)))


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
    A log-sum-exp potential against a max-affine over the same polytope:
    the analytic bound [0, ln N(k)/k] shifted by the exact polyhedral part.
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
        P = f.slope_polytope
        if g.slope_polytope != P:
            raise IncomparableFamilies(
                "log-sum-exp and max-affine must share the slope polytope")
        h = MaxAffineFunction.support_function(P)
        gap = Fraction(0) if g.same_function(h) else None
        n_count = f.lattice_count
        width = math.log(n_count) / f.k
        if gap == 0:
            return BoundedDifferenceCertificate(
                Fraction(0), width, "lattice-count",
                {"lattice_count": n_count, "k": f.k, "tight_at": "origin"})
        inner = sup_difference(h, g)
        return BoundedDifferenceCertificate(
            _add_bound(inner.lower, 0), _add_bound(inner.upper, width),
            "lattice-count", {"lattice_count": n_count, "k": f.k})
    if isinstance(g, SmoothToricPotential) and g.family == "lse" \
            and isinstance(f, MaxAffineFunction):
        c = sup_difference(g, f)
        return BoundedDifferenceCertificate(
            _neg_bound(c.upper), _neg_bound(c.lower), c.method, c.witnesses)
    raise IncomparableFamilies(
        f"cannot bound difference of {type(f).__name__} and {type(g).__name__}")


def _add_bound(a, b):
    if a in (INF, -INF):
        return a
    return a + b


def _neg_bound(a):
    if a == INF:
        return -INF
    if a == -INF:
        return INF
    return -a


def radial_component(f, lam):
    """Component of f at logarithmic homogeneity lam.

    Computes inf over t of f(x + t*ones) - lam*t as an exact max-affine
    function whose slopes all have coordinate sum lam, or None when the
    infimum is identically -infinity (lam outside the slope sums of f).
    For a support function h_P the result is the support function of the
    slice of P at total coordinate lam.

    With mixed offsets the component's conjugate is f's conjugate g
    restricted to the slice, so its lifted hull is W = f's lifted hull Q cut
    by sum(y) = lam.  The cut only constrains y, so W is {(y, t) : y in the
    slice, g(y) <= t <= cap}; a vertex of W strictly below cap cannot lie
    inside a vertical segment of W, so it is on the graph of g, and the
    pieces read off these vertices are already pruned.
    """
    lam = rat(lam)
    offsets = {p.offset for p in f._pruned_pieces}
    S = f.slope_polytope
    if len(offsets) == 1:
        sl = pt.sum_slice(S, lam)
        if sl.is_empty:
            return None
        c0 = next(iter(offsets))
        return MaxAffineFunction([(v, c0) for v in sl.vertices])
    if not S.is_full_dim:
        raise DegenerateInput(
            "mixed offsets with a lower-dimensional slope polytope")
    n = f.dim
    Q, cap = f._lifted_hull
    W = pt.cut(Q, tuple([Fraction(1)] * n + [Fraction(0)]), lam)
    if W.is_empty:
        return None
    return MaxAffineFunction([(w[:n], -w[n]) for w in W.vertices if w[n] < cap])


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


def grows_slower(f, g):
    """Decide whether g - f is bounded below and proper toward |z| -> infinity.

    Decision rule: strict inclusion of slope polytopes (strict on facets with
    positive offset).  Returns (bool, witness); the witness of a failure is
    the escaping vertex and the violated facet.
    """
    A = _growth_slope_polytope(f, role="source")
    B = _growth_slope_polytope(g, role="target")
    return slope_inclusion_witness(A, B)


def _growth_slope_polytope(u, role):
    if isinstance(u, MaxAffineFunction):
        return u.slope_polytope
    if isinstance(u, SmoothToricPotential):
        if role == "source" and u.family == "fs":
            return u.slope_polytope
        if role == "target" and u.family == "lse":
            return u.slope_polytope
    raise IncomparableFamilies(f"unsupported {role} family for growth comparison")


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


def regularized_max(a, b, eps):
    """C^1 convex regularization of max(a, b).

    Equals max(a, b) exactly when |a - b| >= eps, and lies in
    [max, max + eps/4] inside the band.  Exact on Fraction inputs.
    """
    if eps <= 0:
        raise NonpositiveEpsilon("regularization width must be positive")
    s = a - b
    if abs(s) >= eps:
        return a if s > 0 else b
    if isinstance(s, Fraction) and isinstance(eps, Fraction):
        half = Fraction(1, 2)
        return (a + b) * half + (s * s + eps * eps) / (4 * eps)
    return (a + b) / 2 + (s * s + eps * eps) / (4 * eps)


def regularized_max_many(a, b, eps):
    """Vectorized regularized max; branch values match max(a, b) bitwise."""
    if eps <= 0:
        raise NonpositiveEpsilon("regularization width must be positive")
    a = np.asarray(a)
    b = np.asarray(b)
    s = a - b
    smooth = (a + b) / 2 + (s * s + eps * eps) / (4 * eps)
    return np.where(np.abs(s) >= eps, np.maximum(a, b), smooth)
