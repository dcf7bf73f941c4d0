"""Ball gluing with the regularized max, Gromov-width reporting, and the
volume obstruction.

All gluing happens in logarithmic x-space, where the radius-R ball of
z-space is X_R = {sum_i exp(x_i) <= R^2}.  The glued potential equals
source + C where its lead over the target is at least epsilon, equals the
target where it trails by at least epsilon, and interpolates with the C^1
regularized max on the band in between.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import convexfn as cf
from . import growth as gr
from . import polytope as pt
from .errors import (DimensionMismatch, GrowthViolation, IncomparableFamilies,
                     NonConvergence)
from .rationals import rat_str

LOG_FLOOR = 1e-280  # |z_i|^2 clamp so x-space stays finite


@dataclass(frozen=True)
class CheckSummary:
    min_margin: float
    points: int

    def to_json_dict(self):
        return {"min_margin": self.min_margin, "points": self.points}


@dataclass(frozen=True)
class ConvexitySummary:
    min_slack: float
    pairs: int

    def to_json_dict(self):
        return {"min_slack": self.min_slack, "pairs": self.pairs}


@dataclass(frozen=True)
class GluingCertificate:
    R: float
    C: float
    R_prime: float
    epsilon: float
    inner_check: CheckSummary
    band_check: CheckSummary
    outer_check: CheckSummary
    convexity_check: ConvexitySummary
    seed: int
    clamp_floor: float
    method: str

    @property
    def passing(self):
        return (self.inner_check.min_margin > self.epsilon
                and self.outer_check.min_margin > self.epsilon
                and self.band_check.min_margin >= -1e-12
                and self.convexity_check.min_slack >= -1e-12)

    def to_json_dict(self):
        return {"R": self.R, "C": self.C, "R_prime": self.R_prime,
                "epsilon": self.epsilon,
                "inner_check": self.inner_check.to_json_dict(),
                "band_check": self.band_check.to_json_dict(),
                "outer_check": self.outer_check.to_json_dict(),
                "convexity_check": self.convexity_check.to_json_dict(),
                "seed": self.seed, "clamp_floor": self.clamp_floor,
                "method": self.method, "passing": self.passing}


@dataclass(frozen=True)
class GluedPotential:
    source: cf.SmoothToricPotential
    target: cf.MaxAffineFunction
    constant: float
    epsilon: float
    certificate: GluingCertificate

    def components(self, X, dtype=np.float64):
        a = self.source.value_many(X, dtype=dtype) + dtype(self.constant)
        b = self.target.eval_many(X, dtype=dtype)
        return a, b

    def value_many(self, X, dtype=np.float64):
        a, b = self.components(X, dtype=dtype)
        return cf.regularized_max_many(a, b, dtype(self.epsilon))

    def __call__(self, x):
        X = np.array([[float(c) for c in x]])
        return float(self.value_many(X)[0])


def _axis_reach(P, i):
    """max t with t*e_i in P, from the facet description; exact."""
    best = None
    for f in P.facets:
        if f.normal[i] > 0:
            t = Fraction(f.offset, f.normal[i])
            if best is None or t < best:
                best = t
    return best


def _sample_inner_x(rng, n, R, count):
    Z = rng.standard_normal((count, 2 * n))
    nrm = np.linalg.norm(Z, axis=1, keepdims=True)
    nrm[nrm == 0] = 1.0
    r = R * rng.random(count) ** (1.0 / (2 * n))
    Z = Z / nrm * r[:, None]
    sq = Z[:, :n] ** 2 + Z[:, n:] ** 2
    return np.log(np.maximum(sq, LOG_FLOOR))


def _sample_peak_x(rng, n, m_lo, m_hi, count):
    """Points whose largest coordinate m is uniform in [m_lo, m_hi] and whose
    remaining coordinates stay below m; then sum(exp x) is within [e^m, n e^m]."""
    m = rng.uniform(m_lo, m_hi, count)
    X = rng.uniform(0.0, 1.0, (count, n)) * (m[:, None] + 60.0) - 60.0
    j = rng.integers(0, n, count)
    X[np.arange(count), j] = m
    return X


def volume_obstruction(source, gc):
    """Necessary condition: total mass of the source cannot exceed the mass
    of the growth class.  Exact on rational slope data; lower-dimensional
    slope polytopes carry zero mass."""
    if source.dim != gc.dim:
        raise DimensionMismatch("source dimension differs from the polytope")
    S = source.slope_polytope
    src_mass = math.factorial(gc.dim) * pt.volume(S)
    tgt_mass = gr.monge_ampere_volume(gc)
    return ObstructionVerdict(src_mass, tgt_mass, src_mass <= tgt_mass)


@dataclass(frozen=True)
class ObstructionVerdict:
    source_mass: Fraction
    target_mass: Fraction
    ok: bool


def fit_ball(gc, source, R, epsilon=0.25, samples=1000, pairs=10 ** 4, seed=0,
             horizon=1e280):
    """Glue the source potential into the growth representative over the
    radius-R ball, with a sampled certificate.

    The additive constant C uses the exact bound
    sup over X_R of (target - source) <= (c_max - s_min) * 2 ln R, where
    s_min is 0 in general and the Fubini-Study weight for that family; the
    outer radius comes from the exact axis-margin rate of properness for
    Fubini-Study sources and from a doubling search otherwise.
    """
    if not isinstance(source, cf.SmoothToricPotential):
        raise IncomparableFamilies(
            "ball gluing needs a strictly convex source family (fs or lse)")
    if not (math.isfinite(R) and math.isfinite(epsilon)):
        raise ValueError("ball radius and epsilon must be finite")
    if R <= 0:
        raise ValueError("ball radius must be positive")
    if samples < 1:
        raise ValueError("samples must be at least 1")
    ok, witness = cf.slope_inclusion_witness(
        source.slope_polytope, gc.representative.slope_polytope)
    if not ok:
        raise GrowthViolation(
            f"source escapes the growth condition at slope {witness['vertex']}",
            vertex=witness["vertex"], facet=witness["facet"])
    obstruction = volume_obstruction(source, gc)
    if not obstruction.ok:
        raise GrowthViolation(
            "source mass exceeds the growth condition mass "
            f"({obstruction.source_mass} > {obstruction.target_mass})")

    n = gc.dim
    target = gc.representative
    eps = float(epsilon)
    c_max = float(gc.c_max)
    R = float(R)

    s_min = float(source.lam) if source.family == "fs" else 0.0
    U0 = max(0.0, (c_max - s_min) * 2.0 * math.log(R))
    C = eps + 1.0 + U0

    method = "axis-margin"
    if source.family == "fs":
        lam = source.lam
        reach = min(_axis_reach(gc.polytope, i) for i in range(n))
        delta = reach - lam
        if delta <= 0:
            raise GrowthViolation("no axis margin left for the source weight")
        M = C + eps + 1.0 + float(lam) * math.log(n + 1)
        two_log_rp = M / float(delta) + math.log(n)
        if two_log_rp / 2.0 > math.log(horizon):
            # R' follows from R in closed form: a user-chosen R is too large
            raise ValueError("outer radius exceeds the horizon; choose a smaller R")
        R_prime = math.exp(two_log_rp / 2.0)
        R_prime = max(R_prime, 4.0 * R, 10.0)
    else:
        method = "grid+recession"
        rng0 = np.random.default_rng(seed + 7)
        R_prime = max(4.0 * R, 10.0)
        while True:
            m_lo = 2.0 * math.log(R_prime) + 0.5
            X = _sample_peak_x(rng0, n, m_lo, m_lo + 6.0, 512)
            margin = (target.eval_many(X) - source.value_many(X) - C).min()
            if margin >= eps + 1.0:
                break
            R_prime *= 4.0
            if R_prime > horizon:
                raise NonConvergence("outer radius search exceeded the horizon")

    rng = np.random.default_rng(seed)
    X_in = _sample_inner_x(rng, n, R, samples)
    m_out_lo = 2.0 * math.log(R_prime) + 0.5
    X_out = _sample_peak_x(rng, n, m_out_lo, m_out_lo + 6.0, samples)
    band_lo = 2.0 * math.log(R) + 0.25
    band_hi = 2.0 * math.log(R_prime) - math.log(n) - 0.25
    if band_hi > band_lo:
        X_band = _sample_peak_x(rng, n, band_lo, band_hi, samples)
    else:
        X_band = np.zeros((0, n))

    glued = GluedPotential(source, target, C, eps, None)
    a_in, b_in = glued.components(X_in)
    inner = CheckSummary(float((a_in - b_in).min()), len(X_in))
    a_out, b_out = glued.components(X_out)
    outer = CheckSummary(float((b_out - a_out).min()), len(X_out))
    if len(X_band):
        a_bd, b_bd = glued.components(X_band)
        g_bd = cf.regularized_max_many(a_bd, b_bd, eps)
        over = g_bd - np.maximum(a_bd, b_bd)
        band = CheckSummary(float(np.minimum(over, eps / 4.0 - over).min()),
                            len(X_band))
    else:
        band = CheckSummary(0.0, 0)

    pool = np.concatenate([X_in, X_band, X_out], axis=0) if len(X_band) \
        else np.concatenate([X_in, X_out], axis=0)
    ii = rng.integers(0, len(pool), pairs)
    jj = rng.integers(0, len(pool), pairs)
    ld = np.longdouble
    P1, P2 = pool[ii].astype(ld), pool[jj].astype(ld)
    mid = (P1 + P2) / 2
    g1 = glued.value_many(P1, dtype=ld)
    g2 = glued.value_many(P2, dtype=ld)
    gm = glued.value_many(mid, dtype=ld)
    slack = float(((g1 + g2) / 2 - gm).min())
    convexity = ConvexitySummary(slack, pairs)

    cert = GluingCertificate(R, C, R_prime, eps, inner, band, outer, convexity,
                             seed, LOG_FLOOR, method)
    glued = GluedPotential(source, target, C, eps, cert)
    if not cert.passing:
        raise NonConvergence(
            "gluing certificate failed its own checks; this is a bug: "
            f"{cert.to_json_dict()}")
    return glued


@dataclass(frozen=True)
class GromovBound:
    """Certified lower bound for the Gromov width: the Seshadri constant,
    with the ball-radius translation pi r^2 = lambda."""

    value: Fraction
    ball_radius: float

    def to_json_dict(self):
        return {"value": rat_str(self.value),
                "pi_r_squared": float(self.value),
                "ball_radius": self.ball_radius}


def gromov_lower_bound(gc):
    ses = gr.seshadri_constant(gc)
    lam = ses.lp_value
    return GromovBound(lam, math.sqrt(float(lam) / math.pi))


def radial_profile(glued, t_lo=-30.0, t_hi=None, count=241):
    """Values of source + C, target and the glued potential along x = t*ones."""
    if t_hi is None:
        t_hi = 2.0 * math.log(glued.certificate.R_prime) + 5.0
    ts = np.linspace(t_lo, t_hi, count)
    n = glued.target.dim
    X = np.repeat(ts[:, None], n, axis=1)
    a, b = glued.components(X)
    g = glued.value_many(X)
    return [{"t": float(t), "source_plus_C": float(av), "target": float(bv),
             "glued": float(gv)} for t, av, bv, gv in zip(ts, a, b, g)]
