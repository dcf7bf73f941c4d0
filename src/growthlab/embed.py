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

from . import convexfn as cf
from . import growth as gr
from . import polytope as pt
from .errors import (DimensionMismatch, GrowthViolation, IncomparableFamilies,
                     NonConvergence, NonpositiveEpsilon)
from .rationals import rat_str

LOG_FLOOR = 1e-280  # |z_i|^2 clamp so x-space stays finite
HORIZON = 1e280     # largest outer radius R' the gluing accepts
PROFILE_T_LO = -30.0  # radial_profile's t runs from here to 2 ln R' + 5
PROFILE_POINTS = 241  # at this many evenly spaced values


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
                "method": "axis-margin", "passing": self.passing}


@dataclass(frozen=True)
class GluedPotential:
    source: cf.SmoothToricPotential
    target: cf.MaxAffineFunction
    constant: float
    epsilon: float
    certificate: GluingCertificate

    def components(self, X, dtype=float):
        a = self.source.value_many(X, dtype=dtype) + dtype(self.constant)
        b = self.target.eval_many(X, dtype=dtype)
        return a, b

    def value_many(self, X, dtype=float):
        a, b = self.components(X, dtype=dtype)
        return cf.regularized_max_many(a, b, dtype(self.epsilon))


def _sample_inner_x(rng, n, R, count):
    import numpy as np
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
    import numpy as np
    m = rng.uniform(m_lo, m_hi, count)
    X = rng.uniform(0.0, 1.0, (count, n)) * (m[:, None] + 60.0) - 60.0
    j = rng.integers(0, n, count)
    X[np.arange(count), j] = m
    return X


def volume_obstruction(source, gc):
    """Necessary condition: total mass of the source cannot exceed the mass
    of the growth class.  Exact on rational slope data."""
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


def fit_ball(gc, source, R, epsilon=0.25, samples=1000, pairs=10 ** 4, seed=0):
    """Glue the source potential into the growth representative over the
    radius-R ball, with a sampled certificate.

    The source is a scaled Fubini-Study potential of weight lam.  The
    additive constant C uses the exact bound sup over X_R of (target -
    source) <= (c_max - lam) * 2 ln R, and the outer radius comes from the
    exact axis-margin rate of properness.
    """
    import numpy as np
    if not isinstance(source, cf.SmoothToricPotential) or source.family != "fs":
        raise IncomparableFamilies("ball gluing needs a scaled Fubini-Study source")
    if not (math.isfinite(R) and math.isfinite(epsilon)):
        raise ValueError("ball radius and epsilon must be finite")
    if R <= 0:
        raise ValueError("ball radius must be positive")
    if samples < 1:
        raise ValueError("samples must be at least 1")
    if samples * 2 * gc.dim > gr.MAX_SAMPLE_FLOATS:  # the z-space draw of the inner ball
        raise ValueError(f"samples must be at most {gr.MAX_SAMPLE_FLOATS // (2 * gc.dim)} "
                         f"in dimension {gc.dim}")
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

    lam = source.lam
    U0 = max(0.0, (c_max - float(lam)) * 2.0 * math.log(R))
    C = eps + 1.0 + U0

    delta = pt.simplex_inclusion(gc.polytope) - lam
    if delta <= 0:
        raise GrowthViolation("no axis margin left for the source weight")
    M = C + eps + 1.0 + float(lam) * math.log(n + 1)
    two_log_rp = M / float(delta) + math.log(n)
    if two_log_rp / 2.0 > math.log(HORIZON):
        # R' follows from R in closed form: a user-chosen R is too large
        raise ValueError("outer radius exceeds the horizon; choose a smaller R")
    R_prime = math.exp(two_log_rp / 2.0)
    R_prime = max(R_prime, 4.0 * R, 10.0)
    if eps <= 0:  # before any sample; the growth checks above report first
        raise NonpositiveEpsilon("regularization width must be positive")

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
                             seed, LOG_FLOOR)
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
    lam = pt.simplex_inclusion(gc.polytope)
    return GromovBound(lam, math.sqrt(float(lam) / math.pi))


def radial_profile(glued):
    """Values of source + C, target and the glued potential along x = t*ones."""
    import numpy as np
    t_hi = 2.0 * math.log(glued.certificate.R_prime) + 5.0
    ts = np.linspace(PROFILE_T_LO, t_hi, PROFILE_POINTS)
    n = glued.target.dim
    X = np.repeat(ts[:, None], n, axis=1)
    a, b = glued.components(X)
    g = glued.value_many(X)
    return [{"t": float(t), "source_plus_C": float(av), "target": float(bv),
             "glued": float(gv)} for t, av, bv, gv in zip(ts, a, b, g)]
