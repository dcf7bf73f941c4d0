"""Canonical growth conditions of Delzant moment polytopes.

A growth condition is the O(1)-class of the toric potential at a fixed
vertex.  It is carried exactly by its polyhedral representative, the support
function h of the normalized polytope Q.  The smooth log-sum-exp potentials
u_k over the lattice points of kQ are representatives of the same class; the
growth report builds them from the counts N(k) of those points, with their
certified bounds 0 <= u_k - h <= ln N(k)/k.  A count at k <= n is a row scan
of kQ, and above n it is read off Q's Ehrhart polynomial through the scans
at 1..n (polytope.lattice_count).  Only the Monte-Carlo volume, which
samples the gradients of one of them, enumerates the points of kQ.
"""

import math
from fractions import Fraction
from functools import cached_property

from . import convexfn as cf
from . import polytope as pt
from .errors import NotDelzantVertex
from .rationals import rat, rat_str, vec

SAMPLE_RADIUS = 50.0  # x-space ball the gradient samples are drawn from
MAX_SAMPLE_FLOATS = 10 ** 7  # floats a sample array may hold (80 MB)
MAX_GRADIENT_FLOATS = 10 ** 8  # floats grad_many's scratch block may hold (800 MB)


class GrowthCondition:
    """Growth class of a normalized Delzant polytope at the origin vertex.
    Its representative, the support function of the polytope, is built on
    first read: the corpus rows never read it."""

    def __init__(self, polytope, k_levels, c_max, vertex, normalization):
        self.polytope, self.k_levels, self.c_max = polytope, k_levels, c_max
        self.vertex, self.normalization = vertex, normalization

    @property
    def dim(self):
        return self.polytope.ambient_dim

    @cached_property
    def representative(self):
        return cf.MaxAffineFunction.support_function(self.polytope)


def require_delzant(P):
    """NotDelzantVertex unless every vertex of the lattice polytope P is
    Delzant; DegenerateInput or NotLatticePolytope for other input."""
    report = pt.is_delzant(P)
    if not report.ok:
        raise NotDelzantVertex(f"polytope is not Delzant at {report.failing_vertices()}")


def build_growth_condition(P, vertex, k_levels=(1, 2, 4)):
    """Normalize the Delzant P at the vertex and take its exact growth class;
    all levels share one lattice-point budget."""
    require_delzant(P)
    Q, umap = pt.normalize_at_vertex(P, vertex)
    return normalized_growth_condition(vertex, Q, umap, k_levels)


def normalized_growth_condition(vertex, Q, umap, k_levels=(1, 2, 4)):
    """The exact growth class at the vertex from the normalization (Q, umap)
    there: Q and the sorted distinct levels of the smooth potentials u_k.
    No u_k is built here, but the dilates kQ are checked against the
    lattice-point budget, so a level that the growth report could not
    enumerate fails every command alike."""
    levels = tuple(sorted(set(int(k) for k in k_levels)))
    pt.dilate_boxes(Q, levels)
    c_max = Fraction(max(sum(X) for X in Q.int_vertices), Q.denom)
    return GrowthCondition(Q, levels, c_max, vec(vertex), umap)


def _sampled_gradients(u, samples, seed):
    """Gradients of the smooth potential u = u_k at `samples` seeded uniform
    points of the SAMPLE_RADIUS ball in x-space, drawn, scaled in place and
    passed to one grad_many call.  ValueError, before numpy is imported, for
    fewer than 1 sample, fewer than the n + 1 that qhull needs for a hull in
    dimension n >= 2, more than MAX_SAMPLE_FLOATS / n, or a scratch block of
    min(samples, GRADIENT_CHUNK) x N(k) floats above MAX_GRADIENT_FLOATS."""
    n = u.dim
    least = n + 1 if n >= 2 else 1
    if samples < least:
        raise ValueError(f"samples must be at least {least} in dimension {n}")
    if samples * n > MAX_SAMPLE_FLOATS:
        raise ValueError(f"samples must be at most {MAX_SAMPLE_FLOATS // n} in dimension {n}")
    rows, count = min(samples, cf.GRADIENT_CHUNK), u.lattice_count
    if rows * count > MAX_GRADIENT_FLOATS:
        raise ValueError(f"the gradient block of {rows} samples over the {count} lattice "
                         f"points of {u.k}P has {rows * count} floats, above the limit "
                         f"of {MAX_GRADIENT_FLOATS}")
    import numpy as np
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((samples, n))
    norms = np.linalg.norm(X, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    r = SAMPLE_RADIUS * rng.random(samples) ** (1.0 / n)
    X /= norms
    X *= r[:, None]
    return u.grad_many(X)


def monge_ampere_volume(gc):
    """Total Monge-Ampere mass of the growth class, exact.

    Normalization: the mass of a toric potential is n! times the Lebesgue
    volume of the gradient image (the dd^c constant is absorbed here), so
    the value matches the top self-intersection of the polarization.
    """
    return math.factorial(gc.dim) * pt.volume(gc.polytope)


def monge_ampere_volume_numeric(u, samples=10 ** 5, seed=0):
    """Monte-Carlo route: n! times the volume of the hull of sampled
    softmax gradients of the log-sum-exp potential u = u_k, as its report."""
    G = _sampled_gradients(u, samples, seed)
    if u.dim == 1:
        vol = float(G.max() - G.min())
    else:
        from scipy.spatial import ConvexHull
        vol = float(ConvexHull(G, qhull_options="QJ").volume)
    return {"value": math.factorial(u.dim) * vol, "k": u.k, "samples": samples,
            "radius": SAMPLE_RADIUS, "seed": seed}


class SeshadriResult:
    def __init__(self, lp_value, domination_value, upper_bound, bisection_interval):
        self.lp_value, self.domination_value = lp_value, domination_value
        self.upper_bound, self.bisection_interval = upper_bound, bisection_interval

    @property
    def slack(self):
        return self.upper_bound - float(self.lp_value)

    def to_json_dict(self):
        return {"lp": rat_str(self.lp_value),
                "domination": rat_str(self.domination_value),
                "upper_bound": self.upper_bound,
                "slack": self.slack}


def _simplex_bounds(P):
    """(D max(a), c) for each facet a.x <= c / D of the normalized P with
    max(a) > 0, the facets simplex_inclusion minimizes over.  As 0 is in P,
    every c >= 0, so a facet with max(a) <= 0 holds at every lam >= 0."""
    return [(P.denom * max(a), c) for a, c in P.int_facets if max(a) > 0]


def _simplex_fits(bounds, p, q):
    """lam e_i in P for every i, lam = p/q >= 0, given _simplex_bounds(P):
    a_i p D <= c q for every i iff D max(a) p <= c q, in ints."""
    return all(m * p <= c * q for m, c in bounds)


def seshadri_constant(gc, tol=Fraction(1, 2 ** 48)):
    """Seshadri constant by two independent routes.

    Route 1 is the exact facet minimum (simplex inclusion LP).  Route 2
    bisects the growth-domination predicate "the scaled Fubini-Study
    potential is bounded above by the representative", i.e. membership of
    the scaled simplex vertices, then snaps the interval to the least
    integer it contains.  The bisection runs in ints on [L/S, H/S] from [0,
    c_max + 1]: each step doubles L, H and S and tests the midpoint (L + H)
    / 2 over S, one comparison per facet that binds (_simplex_bounds).  On
    the normalized Delzant lattice polytope of a growth condition, lam e_i
    lies in Q iff lam is at most the lattice length of the edge along e_i,
    so the constant m is the least of those lengths (Di Rocco, Math. Z. 231,
    1999), an integer with lo <= m < hi: the snap ceil(lo) is m, and both
    routes agree exactly.
    """
    if tol <= 0:
        raise ValueError("bisection tolerance must be positive")
    lp_value = pt.simplex_inclusion(gc.polytope)
    bounds = _simplex_bounds(gc.polytope)
    top = gc.c_max + 1
    L, H, S = 0, top.numerator, top.denominator
    while (H - L) * tol.denominator > tol.numerator * S:
        L, H, S = 2 * L, 2 * H, 2 * S
        M = (L + H) // 2
        if _simplex_fits(bounds, M, S):
            L = M
        else:
            H = M
    lo, hi = Fraction(L, S), Fraction(H, S)
    m = -(-L // S)  # ceil(lo)
    snapped = Fraction(m) if _simplex_fits(bounds, m, 1) else lo
    n = gc.dim
    upper = (math.factorial(n) * float(pt.volume(gc.polytope))) ** (1.0 / n)
    return SeshadriResult(lp_value, snapped, upper, (lo, hi))


def decompose(gc, lams=None):
    """Radial components of the representative at the requested levels.

    Defaults to the vertex-relevant levels: the distinct coordinate sums of
    the polytope's vertices.  Levels above c_max decompose to None (the
    component is identically -infinity).
    """
    if lams is None:
        lams = sorted({sum(v) for v in gc.polytope.vertices})
    return {rat(lam): cf.radial_component(gc.representative, lam)
            for lam in lams}


def growth_report(gc, name="polytope", numeric=False, samples=10 ** 5, seed=0):
    """The full report of a growth condition, as its JSON dict: u_k at each
    of its levels, once, with its certificate 0 <= u_k - h_Q <= ln N(k)/k
    against the representative h_Q, read off N(k) with no h_Q built."""
    potentials = {k: cf.logsumexp_from_polytope(gc.polytope, k) for k in gc.k_levels}
    ses = seshadri_constant(gc)
    d = {"name": name,
         "dim": gc.dim,
         "vertex": [rat_str(x) for x in gc.vertex],
         "volume_MA": rat_str(monge_ampere_volume(gc)),
         "volume_polytope": rat_str(pt.volume(gc.polytope)),
         "seshadri": ses.to_json_dict(),
         "gap_inequality": {"seshadri": rat_str(ses.lp_value),
                            "nth_root_volume": ses.upper_bound},
         "c_max": rat_str(gc.c_max),
         "k_levels": list(gc.k_levels),
         "certificates": {str(k): cf.sup_difference(u).to_json_dict()
                          for k, u in potentials.items()},
         "normalization": gc.normalization.to_json_dict()}
    if numeric:
        d["volume_MA_numeric"] = monge_ampere_volume_numeric(
            potentials[gc.k_levels[-1]], samples=samples, seed=seed)
    return d
