"""Convex functions on R^n: the support function of a polytope, smooth
toric potentials, the Legendre transform, radial decomposition and the
regularized max.

In the toric case the growth condition is its moment polytope, so the
polyhedral representative is the support function h_P of an exact vertex
set, with every offset 0.  Its conjugate is the indicator of P (Rockafellar,
Convex Analysis, section 13), and its radial components are the support
functions of P's slices.  Smooth families evaluate in floating point with
numerically stable formulas.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import polytope as pt
from .errors import (
    DegenerateInput,
    DimensionMismatch,
    EmptyInput,
    IncomparableFamilies,
    NonpositiveEpsilon,
    NotNormalized,
)
from .lp import envelope_min
from .rationals import dot, rat, rat_str, vec

INF = math.inf
# Fubini-Study dim bound: the exact hull of the 48-simplex takes about 2 s.
MAX_FS_DIM = 48
GRADIENT_CHUNK = 20000  # rows of X per softmax block in grad_many


class MaxAffineFunction:
    """The support function max over the slopes v of <v, .>: the sorted
    exact vertices of a polytope, each with offset 0; immutable."""

    def __init__(self, slopes):
        if not slopes:
            raise EmptyInput("a support function needs at least one vertex")
        self.slopes = tuple(sorted(vec(s) for s in slopes))
        self.dim = len(self.slopes[0])
        if any(len(s) != self.dim for s in self.slopes):
            raise DimensionMismatch("slopes of mixed dimension")

    @classmethod
    def support_function(cls, P):
        """h_P = max over vertices of <v, .>, the polyhedral representative;
        the only constructor that keeps its polytope."""
        if P.is_empty:
            raise EmptyInput("support function of an empty polytope")
        h = cls(P.vertices)
        h.slope_polytope = P
        return h

    @cached_property
    def _float_slopes(self):
        import numpy as np
        return np.array([[float(s) for s in v] for v in self.slopes])

    def eval_many(self, X, dtype=float):
        import numpy as np
        X = np.asarray(X, dtype=dtype)
        return (X @ self._float_slopes.T.astype(dtype)).max(axis=1)

    def to_json_dict(self):
        return {"pieces": [{"slope": [rat_str(s) for s in v], "offset": "0"}
                           for v in self.slopes]}

    def __repr__(self):
        return f"MaxAffineFunction({len(self.slopes)} pieces, dim={self.dim})"


class ConvexConjugate:
    """Legendre transform of the support function h_P: the lower convex
    envelope of P's vertices at height 0, computed by an exact LP.  It is the
    indicator of P: 0 on P and infinite off it."""

    def __init__(self, h):
        self.slopes, self.dim = h.slopes, h.dim

    def __call__(self, y):
        y = vec(y)
        if len(y) != self.dim:
            raise DimensionMismatch("point has wrong dimension")
        best = envelope_min(self.slopes, [0] * len(self.slopes), y)
        return INF if best is None else best


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
        return tuple(pt.lattice_points(self._polytope, self.k))

    @cached_property
    def _exp_arr(self):
        import numpy as np
        return np.array(self.exponents, dtype=float)

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
        """Gradients of an lse potential: the softmax averages of the
        exponents over k, which lie in the slope polytope.  The rows run in
        chunks of GRADIENT_CHUNK through one scratch block of
        min(rows, GRADIENT_CHUNK) x N(k) floats, each step in place, into
        one rows x n output divided by k at the end."""
        import numpy as np
        X = np.asarray(X, dtype=float)
        E = self._exp_arr
        rows = len(X)
        out = np.empty((rows, self.dim))
        block = np.empty((min(rows, GRADIENT_CHUNK), len(E)))
        for i in range(0, rows, GRADIENT_CHUNK):
            Xc = X[i:i + GRADIENT_CHUNK]
            B = block[:len(Xc)]
            np.matmul(Xc, E.T, out=B)
            B -= B.max(axis=1, keepdims=True)
            np.exp(B, out=B)
            B /= B.sum(axis=1, keepdims=True)
            np.matmul(B, E, out=out[i:i + len(Xc)])
        out /= self.k
        return out

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
    if P.denom != 1:
        raise NotNormalized("polytope must be a lattice polytope")
    return SmoothToricPotential("lse", k=k, count=pt.lattice_count(P, k), polytope=P)


@dataclass(frozen=True)
class BoundedDifferenceCertificate:
    """Certified global bounds lower <= f - g <= upper: an exact lower end
    and a float upper end."""

    lower: Fraction
    upper: float
    method: str
    witnesses: dict

    def to_json_dict(self):
        return {"lower": rat_str(self.lower), "upper": self.upper,
                "method": self.method, "witnesses": dict(self.witnesses)}


def sup_difference(f, g):
    """Certificate for inf/sup of f - g, for a log-sum-exp potential u_k over
    P against the support function h_P: the analytic bound
    0 <= u_k - h_P <= ln N(k)/k.  g is h_P exactly when its slopes are the
    vertices of P."""
    if isinstance(f, SmoothToricPotential) and f.family == "lse" \
            and isinstance(g, MaxAffineFunction):
        if g.slopes != f.slope_polytope.vertices:
            raise IncomparableFamilies(
                "log-sum-exp is bounded only against its polytope's support function")
        n_count = f.lattice_count
        return BoundedDifferenceCertificate(
            Fraction(0), math.log(n_count) / f.k, "lattice-count",
            {"lattice_count": n_count, "k": f.k, "tight_at": "origin"})
    raise IncomparableFamilies(
        f"cannot bound difference of {type(f).__name__} and {type(g).__name__}")


def radial_component(h, lam):
    """Component of the support function h = h_P at logarithmic homogeneity
    lam: inf over t of h(x + t*ones) - lam*t.  It is the support function of
    the slice of P at total coordinate lam, or None when the slice is empty
    and the infimum is identically -infinity.  P must be full-dimensional:
    the slice is read off the edges of its certified hull."""
    vertices = pt.slice_vertices(h.slope_polytope, (1,) * h.dim, lam)
    return MaxAffineFunction(vertices) if vertices else None


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
