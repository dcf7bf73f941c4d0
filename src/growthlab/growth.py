"""Canonical growth conditions of Delzant moment polytopes.

A growth condition is the O(1)-class of the toric potential at a fixed
vertex.  It is carried by the exact polyhedral representative (the support
function of the normalized polytope) together with smooth log-sum-exp
approximants and certified two-sided bounds between the two.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import convexfn as cf
from . import polytope as pt
from .errors import NotDelzantVertex, UnknownLevel
from .rationals import rat, rat_str, simplest_fraction_in, vec

SAMPLE_RADIUS = 50.0  # x-space ball the gradient samples are drawn from
GRADIENT_CHUNK = 20000  # rows per grad_many call
MAX_SAMPLE_FLOATS = 10 ** 7  # floats a sample array may hold (80 MB)


@dataclass(frozen=True)
class Approximant:
    k: int
    potential: cf.SmoothToricPotential
    lattice_count: int
    certificate: cf.BoundedDifferenceCertificate


@dataclass(frozen=True)
class GrowthCondition:
    """Growth class of a normalized Delzant polytope at the origin vertex."""

    polytope: pt.Polytope
    representative: cf.MaxAffineFunction
    approximants: dict
    c_max: Fraction
    source_polytope: pt.Polytope
    vertex: tuple
    normalization: pt.UnimodularMap

    @property
    def dim(self):
        return self.polytope.ambient_dim

    def approximant(self, k):
        if k not in self.approximants:
            raise UnknownLevel(f"no approximant built at level k={k}")
        return self.approximants[k]


def require_delzant(P):
    """NotDelzantVertex unless every vertex of the lattice polytope P is
    Delzant; DegenerateInput or NotLatticePolytope for other input."""
    report = pt.is_delzant(P)
    if not report.ok:
        raise NotDelzantVertex(f"polytope is not Delzant at {report.failing_vertices()}")


def build_growth_condition(P, vertex, k_levels=(1, 2, 4)):
    """Normalize P at the vertex and assemble representative, approximants
    and their bounded-difference certificates; all levels share one
    lattice-point budget."""
    require_delzant(P)
    Q, umap = pt.normalize_at_vertex(P, vertex)
    return normalized_growth_condition(P, vertex, Q, umap, k_levels)


def normalized_growth_condition(P, vertex, Q, umap, k_levels=(1, 2, 4)):
    """The growth condition of the Delzant polytope P at the vertex from its
    normalization (Q, umap) there; everything but the provenance fields
    depends on Q alone."""
    h = cf.MaxAffineFunction.support_function(Q)
    levels = sorted(set(int(k) for k in k_levels))
    pt.dilate_boxes(Q, levels)
    approx = {}
    for k in levels:
        u = cf.logsumexp_from_polytope(Q, k)
        cert = cf.sup_difference(u, h)
        approx[k] = Approximant(k, u, u.lattice_count, cert)
    c_max = max(sum(v) for v in Q.vertices)
    return GrowthCondition(Q, h, approx, c_max, P, vec(vertex), umap)


def recover_polytope(gc):
    """Exact route: the hull of the representative's slopes; must equal the
    stored polytope."""
    hull = gc.representative.slope_polytope
    if hull != gc.polytope:
        from .errors import GrowthLabError
        raise GrowthLabError("slope hull disagrees with stored polytope")
    return hull


def _sampled_gradients(gc, k, samples, seed):
    """Gradients of u_k at `samples` seeded uniform points of the
    SAMPLE_RADIUS ball in x-space.  ValueError for fewer than 1 sample, fewer
    than the n + 1 that qhull needs for a hull in dimension n >= 2, or more
    than MAX_SAMPLE_FLOATS / n."""
    n = gc.dim
    least = n + 1 if n >= 2 else 1
    if samples < least:
        raise ValueError(f"samples must be at least {least} in dimension {n}")
    if samples * n > MAX_SAMPLE_FLOATS:
        raise ValueError(f"samples must be at most {MAX_SAMPLE_FLOATS // n} in dimension {n}")
    import numpy as np
    u = gc.approximant(k).potential
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((samples, n))
    norms = np.linalg.norm(X, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    r = SAMPLE_RADIUS * rng.random(samples) ** (1.0 / n)
    X = X / norms * r[:, None]
    return np.concatenate([u.grad_many(X[i:i + GRADIENT_CHUNK])
                           for i in range(0, samples, GRADIENT_CHUNK)])


def recover_polytope_numeric(gc, k, samples=10 ** 4, seed=0):
    """Float route: hull of sampled gradients of u_k on an x-space ball.

    Returns (hull vertex array, certified upper bound on the Hausdorff
    distance to the exact polytope).  The bound is the covering radius of
    the samples over the exact vertices, valid because every gradient lies
    inside the polytope.
    """
    import numpy as np
    G = _sampled_gradients(gc, k, samples, seed)
    V = np.array([[float(c) for c in v] for v in gc.polytope.vertices])
    dists = np.sqrt(((V[:, None, :] - G[None, :, :]) ** 2).sum(axis=2)).min(axis=1)
    bound = float(dists.max())
    if gc.dim == 1:
        verts = np.array([[G.min()], [G.max()]])
    else:
        from scipy.spatial import ConvexHull
        hull = ConvexHull(G, qhull_options="QJ")
        verts = G[hull.vertices]
    return verts, bound


def monge_ampere_volume(gc):
    """Total Monge-Ampere mass of the growth class, exact.

    Normalization: the mass of a toric potential is n! times the Lebesgue
    volume of the gradient image (the dd^c constant is absorbed here), so
    the value matches the top self-intersection of the polarization.
    """
    return math.factorial(gc.dim) * pt.volume(gc.polytope)


@dataclass(frozen=True)
class MonteCarloVolume:
    value: float
    k: int
    samples: int
    radius: float
    seed: int

    def to_json_dict(self):
        return {"value": self.value, "k": self.k, "samples": self.samples,
                "radius": self.radius, "seed": self.seed}


def monge_ampere_volume_numeric(gc, k=4, samples=10 ** 5, seed=0):
    """Monte-Carlo route: n! times the volume of the hull of sampled
    softmax gradients of u_k."""
    G = _sampled_gradients(gc, k, samples, seed)
    if gc.dim == 1:
        vol = float(G.max() - G.min())
    else:
        from scipy.spatial import ConvexHull
        vol = float(ConvexHull(G, qhull_options="QJ").volume)
    return MonteCarloVolume(math.factorial(gc.dim) * vol, k, samples, SAMPLE_RADIUS, seed)


@dataclass(frozen=True)
class SeshadriResult:
    lp_value: Fraction
    domination_value: Fraction
    upper_bound: float
    bisection_interval: tuple

    @property
    def slack(self):
        return self.upper_bound - float(self.lp_value)

    def to_json_dict(self):
        return {"lp": rat_str(self.lp_value),
                "domination": rat_str(self.domination_value),
                "upper_bound": self.upper_bound,
                "slack": self.slack}


def _simplex_fits(P, p, q):
    """lam e_i in P for every i, lam = p/q >= 0: a_i p <= b q for every facet
    (a, b) of the full-dimensional P, in ints."""
    return all(a * p * f.offset.denominator <= f.offset.numerator * q
               for f in P.facets for a in f.normal)


def seshadri_constant(gc, tol=Fraction(1, 2 ** 48)):
    """Seshadri constant by two independent routes.

    Route 1 is the exact facet minimum (simplex inclusion LP).  Route 2
    bisects the growth-domination predicate "the scaled Fubini-Study
    potential is bounded above by the representative", i.e. membership of
    the scaled simplex vertices, then snaps the interval to the simplest
    rational it contains.  Both routes agree exactly on rational data.  The
    bisection runs in ints on [L/S, H/S] from [0, c_max + 1]: each step
    doubles L, H and S and tests the midpoint (L + H) / 2 over S.
    """
    if tol <= 0:
        raise ValueError("bisection tolerance must be positive")
    lp_value = pt.simplex_inclusion(gc.polytope)
    top = gc.c_max + 1
    L, H, S = 0, top.numerator, top.denominator
    while (H - L) * tol.denominator > tol.numerator * S:
        L, H, S = 2 * L, 2 * H, 2 * S
        M = (L + H) // 2
        if _simplex_fits(gc.polytope, M, S):
            L = M
        else:
            H = M
    lo, hi = Fraction(L, S), Fraction(H, S)
    snapped = simplest_fraction_in(lo, hi)
    if not _simplex_fits(gc.polytope, snapped.numerator, snapped.denominator):
        snapped = lo
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


def level_equivalence_certificate(gc, k, m=None):
    """Global bound between approximation levels through the shared
    polyhedral representative.

    With m omitted: the stored certificate 0 <= u_k - h <= ln N(k)/k.
    With m given: |u_k - u_m| bounded by ln N(k)/k + ln N(m)/m.
    """
    ak = gc.approximant(k)
    if m is None:
        return ak.certificate
    am = gc.approximant(m)
    if m == k:
        return cf.BoundedDifferenceCertificate(
            Fraction(0), Fraction(0), "lattice-count", {"k": k, "m": m})
    upper = math.log(ak.lattice_count) / ak.k
    lower = -math.log(am.lattice_count) / am.k
    return cf.BoundedDifferenceCertificate(
        lower, upper, "lattice-count",
        {"k": k, "m": m, "lattice_counts": (ak.lattice_count, am.lattice_count)})


@dataclass(frozen=True)
class GrowthReport:
    """Everything the report emits for one (polytope, vertex) pair."""

    name: str
    dim: int
    vertex: tuple
    volume_MA: Fraction
    volume_polytope: Fraction
    volume_MA_numeric: MonteCarloVolume | None
    seshadri: SeshadriResult
    gap_inequality: tuple
    c_max: Fraction
    k_levels: tuple
    certificates: dict = field(default_factory=dict)
    normalization: pt.UnimodularMap | None = None

    def to_json_dict(self):
        d = {"name": self.name,
             "dim": self.dim,
             "vertex": [rat_str(x) for x in self.vertex],
             "volume_MA": rat_str(self.volume_MA),
             "volume_polytope": rat_str(self.volume_polytope),
             "seshadri": self.seshadri.to_json_dict(),
             "gap_inequality": {"seshadri": rat_str(self.gap_inequality[0]),
                                "nth_root_volume": self.gap_inequality[1]},
             "c_max": rat_str(self.c_max),
             "k_levels": list(self.k_levels),
             "certificates": {str(k): c.to_json_dict()
                              for k, c in self.certificates.items()}}
        if self.volume_MA_numeric is not None:
            d["volume_MA_numeric"] = self.volume_MA_numeric.to_json_dict()
        if self.normalization is not None:
            d["normalization"] = self.normalization.to_json_dict()
        return d


def growth_report(gc, name="polytope", numeric=False, samples=10 ** 5, seed=0):
    """Assemble the full report for a growth condition."""
    vol = monge_ampere_volume(gc)
    mc = None
    if numeric:
        mc = monge_ampere_volume_numeric(gc, k=max(gc.approximants), samples=samples,
                                         seed=seed)
    ses = seshadri_constant(gc)
    return GrowthReport(
        name=name,
        dim=gc.dim,
        vertex=gc.vertex,
        volume_MA=vol,
        volume_polytope=pt.volume(gc.polytope),
        volume_MA_numeric=mc,
        seshadri=ses,
        gap_inequality=(ses.lp_value, ses.upper_bound),
        c_max=gc.c_max,
        k_levels=tuple(sorted(gc.approximants)),
        certificates={a.k: a.certificate for a in gc.approximants.values()},
        normalization=gc.normalization,
    )
