"""Okounkov bodies of graded monomial series, the flag blowup map, and
Chebyshev transforms.

A section of a graded monomial series is a monomial, and its valuation under
any monomial order is its own exponent, so a body is the hull of W_k / k and
no order is needed to compute it.  A level is certified as the candidate
body B, the toric polytope or else the first full-dimensional level, by two
integer checks: (a) kB's vertices lie in W_k, so kB is inside conv(W_k);
(b) W_k's axis endpoints, which keep conv(W_k), satisfy kB's facet
inequalities, so conv(W_k) is inside kB."""

import math
from dataclasses import dataclass
from fractions import Fraction

from . import convexfn as cf
from . import polytope as pt
from .errors import DimensionMismatch, EmptySupport, IncomparableFamilies
from .rationals import dot, inverse, rat_str


class GradedMonomialSeries:
    """Per-degree finite sets of exponent vectors in N^n, and `polytope`,
    the full-dimensional P of a toric series (None otherwise)."""

    def __init__(self, degrees, polytope=None):
        """Exponent vectors are int tuples of one common dimension."""
        self.degrees = {int(k): frozenset(v) for k, v in degrees.items() if v}
        if not self.degrees:
            raise EmptySupport("series has no nonempty degree")
        dims = {len(a) for v in self.degrees.values() for a in v}
        if len(dims) != 1:
            raise DimensionMismatch("exponents of mixed dimension")
        self.dim = dims.pop()
        self.polytope = polytope

    @classmethod
    def toric(cls, P, k_max):
        """W_k = lattice points of kP, the full toric series, after one
        lattice-point budget check for all levels."""
        levels = range(1, k_max + 1)
        pt.dilate_boxes(P, levels)
        return cls({k: pt.lattice_points(P, k) for k in levels},
                   P if P.is_full_dim else None)


@dataclass(frozen=True)
class OkounkovBody:
    """Per-degree normalized hulls of a monomial series and their limit."""

    hull_at: dict
    limit: pt.Polytope | None

    def to_json_dict(self):
        d = {"hull_at": {str(k): P.to_json_dict(with_facets=False)
                         for k, P in sorted(self.hull_at.items())},
             "volumes": {str(k): rat_str(pt.relative_volume(P))
                         for k, P in sorted(self.hull_at.items())}}
        if self.limit is not None:
            d["limit"] = self.limit.to_json_dict(with_facets=False)
        return d


def okounkov_body(series):
    """Body of a graded monomial series.

    Every monomial of W_k is a section whose valuation vector is its own
    exponent under every monomial order, so the degree-k hull is the hull of
    W_k / k whatever the order.  Let B, with vertex numerators X over
    B.denom = D and facets a.x <= c / D, be the series' polytope, or else
    the first full-dimensional level.  A level k is B when (a) each k X / D
    is an integer point of W_k, so kB lies in conv(W_k), and (b) each point
    w of W_k that `_axis_endpoints` keeps, and so conv(W_k), has (a.w) D <=
    k c, so conv(W_k) lies in kB.  Any other level is hulled: for a toric
    series, only the k with kP not integral, as conv(kP cap Z^n) = kP
    otherwise.  The limit is recorded when all computed levels agree.
    """
    hull_at, B = {}, series.polytope
    for k, W in sorted(series.degrees.items()):
        hull_at[k] = B if B is not None and _is_dilate(W, k, B) else \
            pt.Polytope.from_points(W, series.dim).scaled(Fraction(1, k))
        if B is None and hull_at[k].is_full_dim:
            B = hull_at[k]
    bodies = list(hull_at.values())
    limit = bodies[0] if all(b == bodies[0] for b in bodies) else None
    return OkounkovBody(hull_at, limit)


def _is_dilate(W, k, B):
    """conv(W) = kB for a full-dimensional B, by checks (a) and (b)."""
    D = B.denom
    if any(k * x % D for X in B.int_vertices for x in X) or any(
            tuple(k * x // D for x in X) not in W for X in B.int_vertices):
        return False
    return all(dot(a, w) * D <= k * c
               for w in pt._axis_endpoints(list(W)) for a, c in B.int_facets)


def infinitesimal_map(B):
    """Image under alpha -> (sum(alpha), alpha_1, ..., alpha_{n-1}).

    The map is linear and unimodular, so a full-dimensional body maps its
    certified hull (UnimodularMap.image).  It converts the deglex body at a
    point into the lex body on the blowup.
    """
    if B.is_empty:
        return B
    n = B.ambient_dim
    matrix = ((1,) * n,) + tuple(tuple(int(j == i) for j in range(n)) for i in range(n - 1))
    return pt.UnimodularMap(matrix, (0,) * n).image(B, inverse(matrix))


@dataclass(frozen=True)
class VolumeIdentityVerdict:
    exact_equal: bool | None
    reference: Fraction
    per_k_gap: dict
    trend_nonincreasing: bool


def volume_identity_check(body, vol_L):
    """Compare n! times body volumes against a reference volume.

    Exact equality verdict when the body has stabilized; otherwise the
    per-degree gaps and whether they are non-increasing in k.
    """
    vol_L = Fraction(vol_L)
    gaps = {}
    n = next(iter(body.hull_at.values())).ambient_dim
    fact = math.factorial(n)
    for k, P in sorted(body.hull_at.items()):
        gaps[k] = abs(fact * pt.volume(P) - vol_L)
    exact = None
    if body.limit is not None:
        exact = fact * pt.volume(body.limit) == vol_L
    vals = [gaps[k] for k in sorted(gaps)]
    trend = all(b <= a for a, b in zip(vals, vals[1:]))
    return VolumeIdentityVerdict(exact, vol_L, gaps, trend)


class ChebyshevTransform:
    """Convex conjugate restricted to the interior of the slope polytope.

    Exact (LP) for max-affine inputs, closed-form entropy for the scaled
    Fubini-Study family, certified numeric maximization for log-sum-exp.
    """

    def __init__(self, kind, domain, fn, certificate=None):
        self.kind = kind
        self.domain = domain
        self._fn = fn
        self.certificate = certificate  # (lower, upper) enclosure for all y

    def __call__(self, y):
        return self._fn(tuple(y))


def chebyshev_transform(u):
    if isinstance(u, cf.MaxAffineFunction):
        conj = cf.legendre(u)
        return ChebyshevTransform("exact-lp", conj.domain, conj)
    if isinstance(u, cf.SmoothToricPotential) and u.family == "fs":
        try:
            lam = float(u.lam)
        except OverflowError:
            raise ValueError("Fubini-Study lambda is too large for a float") from None
        dom = u.slope_polytope

        def entropy(y):
            q = [float(c) / lam for c in y]
            q.append(1.0 - sum(q))
            if any(c < 0 for c in q):
                return math.inf
            return lam * sum(c * math.log(c) for c in q if c > 0)

        return ChebyshevTransform("closed-form", dom, entropy)
    if isinstance(u, cf.SmoothToricPotential) and u.family == "lse":
        dom = u.slope_polytope
        width = math.log(u.lattice_count) / u.k

        def numeric(y):
            import numpy as np
            from scipy.optimize import minimize
            yf = np.array([float(c) for c in y])

            def obj(x):
                return float(u.value_many(x[None, :])[0]) - float(yf @ x)

            def grad(x):
                return u.grad_many(x[None, :])[0] - yf

            res = minimize(obj, np.zeros(len(yf)), jac=grad, method="BFGS",
                           options={"gtol": 1e-12, "maxiter": 500})
            return -float(res.fun)

        return ChebyshevTransform("numeric", dom, numeric, certificate=(-width, 0.0))
    raise IncomparableFamilies("no Chebyshev transform for this input")
