import math
from fractions import Fraction as F

import numpy as np
import pytest

from growthlab import convexfn as cf
from growthlab import embed as em
from growthlab import growth as gr
from growthlab import polytope as pt
from growthlab.errors import GrowthViolation, IncomparableFamilies, NonpositiveEpsilon

SIGMA = pt.standard_simplex(2)
SQUARE = pt.box([2, 2])
TRAP = pt.hull([(0, 0), (3, 0), (1, 1), (0, 1)])


@pytest.fixture(scope="module")
def gc_square():
    return gr.build_growth_condition(SQUARE, (0, 0), [1, 2])


@pytest.fixture(scope="module")
def gc_sigma():
    return gr.build_growth_condition(SIGMA, (0, 0), [1, 2])


def fs(lam, dim=2):
    return cf.SmoothToricPotential.fubini_study(lam, dim=dim)


class TestFitBall:
    def test_square_certificate_passes(self, gc_square):
        glued = em.fit_ball(gc_square, fs(F(3, 2)), 10, seed=3)
        cert = glued.certificate
        assert cert.passing and cert.to_json_dict()["method"] == "axis-margin"
        assert cert.inner_check.min_margin > 1.0 + cert.epsilon
        assert cert.outer_check.min_margin > 1.0 + cert.epsilon
        assert cert.convexity_check.min_slack >= -1e-12
        assert math.isfinite(cert.R_prime) and cert.R_prime > cert.R

    def test_simplex_small_weight(self, gc_sigma):
        glued = em.fit_ball(gc_sigma, fs(F(1, 2)), 5, seed=4)
        assert glued.certificate.passing

    def test_violation_with_witness(self, gc_square):
        with pytest.raises(GrowthViolation) as exc:
            em.fit_ball(gc_square, fs(F(5, 2)), 1)
        assert exc.value.vertex is not None
        assert sum(exc.value.vertex) == F(5, 2)
        assert exc.value.facet is not None

    def test_nonpositive_epsilon_refused_before_sampling(self, gc_square, monkeypatch):
        def refuse(*args):
            raise AssertionError("sampled")

        monkeypatch.setattr(em, "_sample_inner_x", refuse)
        for eps in (0.0, -10.0):
            with pytest.raises(NonpositiveEpsilon):
                em.fit_ball(gc_square, fs(F(3, 2)), 10, epsilon=eps)
        # a growth violation still reports first
        with pytest.raises(GrowthViolation):
            em.fit_ball(gc_square, fs(F(5, 2)), 10, epsilon=-10.0)

    def test_affine_source_rejected(self, gc_square):
        aff = cf.MaxAffineFunction([(F(1, 2), F(1, 2))])
        with pytest.raises(IncomparableFamilies):
            em.fit_ball(gc_square, aff, 5)

    def test_lse_source_glues(self, gc_square):
        # the ball is glued from a Fubini-Study source only: an lse source
        # whose slope polytope fits inside the target is refused for its family
        inner = cf.logsumexp_from_polytope(SIGMA, 2)
        with pytest.raises(IncomparableFamilies):
            em.fit_ball(gc_square, inner, 5, seed=5)

    def test_lse_source_violation(self, gc_sigma):
        # the family check comes before the slope-inclusion check
        outer = cf.logsumexp_from_polytope(SIGMA, 1)  # slope polytope = target
        with pytest.raises(IncomparableFamilies):
            em.fit_ball(gc_sigma, outer, 2)


class TestGluingIdentity:
    def test_branches_exact(self, gc_square):
        glued = em.fit_ball(gc_square, fs(F(3, 2)), 10, seed=3)
        rng = np.random.default_rng(9)
        n = 2
        X_in = em._sample_inner_x(rng, n, 10.0, 1000)
        a, b = glued.components(X_in)
        g = glued.value_many(X_in)
        assert (g == a).all()          # equals source + C exactly inside
        assert ((a - b) > glued.epsilon).all()
        m_lo = 2.0 * math.log(glued.certificate.R_prime) + 0.5
        X_out = em._sample_peak_x(rng, n, m_lo, m_lo + 5.0, 1000)
        a2, b2 = glued.components(X_out)
        g2 = glued.value_many(X_out)
        assert (g2 == b2).all()        # equals the representative outside
        assert ((b2 - a2) > glued.epsilon).all()

    def test_monotone_in_radius_across_corpus(self):
        from growthlab.corpus import builtin_corpus
        for name, P in builtin_corpus():
            gc = gr.build_growth_condition(P, tuple([0] * P.ambient_dim), [1])
            lam = gr.seshadri_constant(gc).lp_value - F(1, 8)
            Cs, Rps = [], []
            for R in (1, 10, 100):
                glued = em.fit_ball(gc, fs(lam, gc.dim), R,
                                    samples=200, pairs=500, seed=6)
                assert glued.certificate.passing, (name, R)
                Cs.append(glued.certificate.C)
                Rps.append(glued.certificate.R_prime)
            assert Cs[0] <= Cs[1] <= Cs[2], name
            assert Rps[0] <= Rps[1] <= Rps[2], name


class TestBoundary:
    def test_seshadri_boundary_both_sides(self):
        for P in (SIGMA, SQUARE, TRAP):
            gc = gr.build_growth_condition(P, tuple([0] * P.ambient_dim), [1])
            eps_val = gr.seshadri_constant(gc).lp_value
            ok_glued = em.fit_ball(gc, fs(eps_val - F(1, 8), gc.dim), 5, seed=7)
            assert ok_glued.certificate.passing
            with pytest.raises(GrowthViolation):
                em.fit_ball(gc, fs(eps_val + F(1, 8), gc.dim), 5, seed=7)


class TestGromov:
    def test_values(self, gc_square, gc_sigma):
        assert em.gromov_lower_bound(gc_square).value == 2
        assert em.gromov_lower_bound(gc_sigma).value == 1

    def test_ball_radius_translation(self, gc_square):
        b = em.gromov_lower_bound(gc_square)
        assert math.pi * b.ball_radius ** 2 == pytest.approx(float(b.value))


class TestVolumeObstruction:
    def test_pass_strict(self, gc_square):
        verdict = em.volume_obstruction(fs(F(3, 2)), gc_square)
        assert verdict.ok
        assert verdict.source_mass == F(9, 4)
        assert verdict.target_mass == 8

    def test_boundary_pass(self, gc_sigma):
        verdict = em.volume_obstruction(fs(1), gc_sigma)
        assert verdict.ok and verdict.source_mass == verdict.target_mass == 1

    def test_fail(self, gc_sigma):
        verdict = em.volume_obstruction(fs(3), gc_sigma)
        assert not verdict.ok and verdict.source_mass == 9

    def test_growth_implies_obstruction(self, rng):
        from conftest import random_normalized_delzant
        checked = 0
        while checked < 12:
            P = random_normalized_delzant(rng, rng.choice((2, 3)))
            gc = gr.build_growth_condition(P, tuple([0] * P.ambient_dim), [1])
            lam = pt.simplex_inclusion(P) - F(1, 8)
            if lam <= 0:
                continue
            src = fs(lam, gc.dim)
            grows, _ = cf.slope_inclusion_witness(
                src.slope_polytope, gc.representative.slope_polytope)
            assert grows
            assert em.volume_obstruction(src, gc).ok
            checked += 1


class TestProfile:
    def test_radial_profile_branches(self, gc_square):
        glued = em.fit_ball(gc_square, fs(F(3, 2)), 10, seed=3)
        rows = em.radial_profile(glued)
        first, last = rows[0], rows[-1]
        assert first["glued"] == first["source_plus_C"]
        assert last["glued"] == last["target"]
