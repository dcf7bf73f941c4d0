"""Okounkov bodies of graded monomial series, the flag blowup map, and
Chebyshev transforms.

A section of a graded monomial series is a monomial, and its valuation under
any monomial order is its own exponent, so a body is the hull of W_k / k and
no order is needed to compute it.  Each W_k is kept as rows along the last
coordinate, which a toric series reads straight off the polytope's scan of
kP, so no level lists its points.  A level is certified as the candidate
body B, the series' polytope, by two integer checks: (a) kB's vertices lie
in W_k, so kB is inside conv(W_k); (b) the ends of each row of W_k, which
keep conv(W_k), satisfy kB's facet inequalities, so conv(W_k) is inside
kB; a facet needs only the row end its normal points to.  Any other level
is the hull of its row ends."""

import math
from dataclasses import dataclass
from fractions import Fraction

from . import convexfn as cf
from . import polytope as pt
from .errors import DimensionMismatch, EmptySupport, IncomparableFamilies
from .rationals import dot, inverse, rat_str


class GradedMonomialSeries:
    """Per-degree finite sets W_k of exponent vectors in N^n, and `polytope`,
    the full-dimensional P of a toric series (None otherwise).  `rows[k]`
    keeps W_k as rows: each head a[:-1] maps to the sorted last coordinates
    of the a in W_k."""

    def __init__(self, rows, polytope=None):
        """rows maps each degree to the rows of its W_k (point_rows): int
        tuple heads of one common length, each to a sorted sequence of ints."""
        self.rows = {int(k): W for k, W in rows.items() if W}
        if not self.rows:
            raise EmptySupport("series has no nonempty degree")
        dims = {len(head) + 1 for W in self.rows.values() for head in W}
        if len(dims) != 1:
            raise DimensionMismatch("exponents of mixed dimension")
        self.dim = dims.pop()
        self.polytope = polytope

    @classmethod
    def toric(cls, P, k_max):
        """W_k = lattice points of kP, the full toric series, after one
        lattice-point budget check for all levels.  A full-dimensional P
        gives each row as the range of its scan of kP."""
        levels = range(1, k_max + 1)
        pt.dilate_boxes(P, levels)
        if not P.is_full_dim:
            return cls({k: point_rows(pt.lattice_points(P, k)) for k in levels})
        return cls({k: {head: range(lo, hi + 1) for head, lo, hi in pt._rows(P, k)}
                    for k in levels}, P)


def point_rows(points):
    """The rows of a finite set of exponent vectors: each head a[:-1] mapped
    to the sorted distinct last coordinates a[-1]."""
    rows = {}
    for a in points:
        rows.setdefault(a[:-1], set()).add(a[-1])
    return {head: tuple(sorted(xs)) for head, xs in rows.items()}


def _row_ends(W):
    """The points at the two ends of the rows W.  Every point of a row lies
    between its ends, so they keep the hull."""
    return [head + (x,) for head, xs in W.items() for x in {xs[0], xs[-1]}]


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
    B.denom = D and facets a.x <= c / D, be the series' polytope, if it has
    one.  A level k is B when (a) each k X / D is an integer point of W_k,
    so kB lies in conv(W_k), and (b) each end w of a row of W_k, and so
    conv(W_k), has (a.w) D <= k c, so conv(W_k) lies in kB.  Any other
    level is the hull of its row ends: for a toric series, only the k with
    kP not integral, as conv(kP cap Z^n) = kP otherwise.
    The limit is recorded when all computed levels agree.
    """
    B = series.polytope
    hull_at = {k: B if B is not None and _is_dilate(W, k, B) else
               pt.Polytope.from_points(_row_ends(W), series.dim).scaled(Fraction(1, k))
               for k, W in sorted(series.rows.items())}
    bodies = list(hull_at.values())
    limit = bodies[0] if all(b == bodies[0] for b in bodies) else None
    return OkounkovBody(hull_at, limit)


def _is_dilate(W, k, B):
    """conv(W) = kB for the rows W and a full-dimensional B, by checks (a)
    and (b).  In (b), a.(head, x) is linear in x along a row, so its larger
    end value is at the top end xs[-1] when a_n > 0, at the bottom end xs[0]
    when a_n < 0, and at either when a_n = 0: one end per row and facet,
    with a'.head taken once, has the truth value of both ends."""
    D = B.denom
    if any(k * x % D for X in B.int_vertices for x in X):
        return False
    for X in B.int_vertices:
        Y = tuple(k * x // D for x in X)
        if Y[-1] not in W.get(Y[:-1], ()):
            return False
    facets = [(a[:-1], a[-1], k * c) for a, c in B.int_facets]
    return all((dot(a, head) + an * (xs[-1] if an > 0 else xs[0])) * D <= kc
               for head, xs in W.items() for a, an, kc in facets)


def infinitesimal_map(B):
    """Image of a full-dimensional body under alpha -> (sum(alpha), alpha_1,
    ..., alpha_{n-1}).

    The map is linear and unimodular, so the body maps its certified hull
    (UnimodularMap.image).  It converts the deglex body at a point into the
    lex body on the blowup.
    """
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

    Exact (LP) for a support function, closed-form entropy for the scaled
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
        return ChebyshevTransform("exact-lp", u.slope_polytope, cf.ConvexConjugate(u))
    if isinstance(u, cf.SmoothToricPotential) and u.family == "fs":
        try:
            lam = float(u.lam)
        except OverflowError:
            raise ValueError("Fubini-Study lambda is too large for a float") from None
        dom = u.slope_polytope

        def entropy(y):  # y in the domain, so every q >= 0
            q = [float(c) / lam for c in y]
            q.append(1.0 - sum(q))
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
