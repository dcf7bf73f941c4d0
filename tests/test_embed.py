import math
from fractions import Fraction as F

import numpy as np
import pytest

from growthlab import convexfn as cf
from growthlab import embed as em
from growthlab import growth as gr
from growthlab import polytope as pt
from growthlab.errors import GrowthViolation, NonpositiveEpsilon
from growthlab.rationals import dot

from _oracles import brute_force_facets, brute_force_lattice_points, ehrhart_volume_3d, pick_area

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


def oracle_mass(P):
    """n! vol(P) for a lattice polygon, by Pick's theorem on the points
    inside the oracle's facets, or a lattice 3-polytope, by Ehrhart
    differences of the oracle's lattice-point counts."""
    V = P.vertices
    if len(V[0]) == 3:
        counts = [len(brute_force_lattice_points(V, k)) for k in (1, 2, 3, 4)]
        return 6 * ehrhart_volume_3d(*counts)
    facets, points = brute_force_facets(V), brute_force_lattice_points(V, 1)
    interior = sum(all(dot(a, p) < b for a, b in facets) for p in points)
    return 2 * pick_area(interior, len(points) - interior)


class TestFitBall:
    def test_square_certificate_passes(self, gc_square):
        glued = em.fit_ball(gc_square, fs(F(3, 2)), 10, seed=3)
        cert = glued.certificate
        assert cert.passing and cert.to_json_dict()["method"] == "axis-margin"
        assert cert.inner_check["min_margin"] > 1.0 + cert.epsilon
        assert cert.outer_check["min_margin"] > 1.0 + cert.epsilon
        assert cert.convexity_check["min_slack"] >= -1e-12
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

    @pytest.mark.parametrize("gc, vertex, normal", [
        ("gc_sigma", (1, 0), (1, 1)), ("gc_square", (0, 2), (0, 1))])
    def test_seshadri_weight_refused_by_inclusion(self, gc, vertex, normal, request):
        # lam = s puts a vertex of lam Sigma on a facet of positive offset s,
        # where the inclusion is strict: the witness is the first such facet,
        # with the largest vertex of lam Sigma on it
        gc = request.getfixturevalue(gc)
        s = gr.seshadri_constant(gc).lp_value
        with pytest.raises(GrowthViolation, match="escapes the growth condition") as exc:
            em.fit_ball(gc, fs(s), 10)
        assert exc.value.vertex == vertex
        assert (exc.value.facet.normal, exc.value.facet.offset) == (normal, s)

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
        assert em.gromov_lower_bound(gc_square)["value"] == "2"
        assert em.gromov_lower_bound(gc_sigma)["value"] == "1"

    def test_ball_radius_translation(self, gc_square):
        b = em.gromov_lower_bound(gc_square)
        assert math.pi * b["ball_radius"] ** 2 == pytest.approx(b["pi_r_squared"]) == 2


class TestVolumeObstruction:
    """fit_ball checks no masses: its strict slope inclusion holds exactly
    when lam < s, the Seshadri constant, and lam Sigma inside Q already puts
    the source's mass lam^n = n! vol(lam Sigma) below the growth class's.
    The class's mass comes from the oracles."""

    def test_pass_strict(self, gc_square):
        assert em.fit_ball(gc_square, fs(F(3, 2)), 10, seed=3).certificate.passing
        assert F(3, 2) ** 2 == F(9, 4) < oracle_mass(gc_square.polytope) == 8

    def test_boundary_pass(self, gc_sigma):
        # at lam = s = 1 the masses are equal, so a mass check would pass:
        # the inclusion refuses
        assert oracle_mass(gc_sigma.polytope) == 1
        with pytest.raises(GrowthViolation, match="escapes the growth condition"):
            em.fit_ball(gc_sigma, fs(1), 10)

    def test_fail(self, gc_sigma):
        assert F(3) ** 2 > oracle_mass(gc_sigma.polytope)
        with pytest.raises(GrowthViolation, match="escapes the growth condition") as exc:
            em.fit_ball(gc_sigma, fs(3), 10)
        assert sum(exc.value.vertex) == 3

    def test_growth_implies_obstruction(self, rng):
        from conftest import random_normalized_delzant
        checked = 0
        while checked < 12:
            P = random_normalized_delzant(rng, rng.choice((2, 3)))
            gc = gr.build_growth_condition(P, tuple([0] * P.ambient_dim), [1])
            s = pt.simplex_inclusion(P)
            if s <= F(1, 8):
                continue
            target = gc.representative.slope_polytope
            for lam in (s - F(1, 8), s):
                grows, _ = cf.slope_inclusion_witness(fs(lam, gc.dim).slope_polytope, target)
                assert grows == (lam < s)
            assert (s - F(1, 8)) ** gc.dim <= oracle_mass(P)
            checked += 1


class TestProfile:
    def test_radial_profile_branches(self, gc_square):
        glued = em.fit_ball(gc_square, fs(F(3, 2)), 10, seed=3)
        rows = em.radial_profile(glued)
        first, last = rows[0], rows[-1]
        assert first["glued"] == first["source_plus_C"]
        assert last["glued"] == last["target"]
