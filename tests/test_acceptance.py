"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured numbers (run with -s or -v to see them).

All tolerances are fixed here:
  - exact identities compare Fractions for equality
  - Monte-Carlo volume: relative error <= 2% (k = 4, 10^5 samples, n <= 3)
  - route agreement: exact on rationals, bisection interval 2^-40
  - sampled potential bounds: float tolerance 1e-10 at 10^3 points
  - gluing convexity slack >= -1e-12
"""

import math
import random
import time
from fractions import Fraction as F

import numpy as np
import pytest

from growthlab import convexfn as cf
from growthlab import embed as em
from growthlab import growth as gr
from growthlab import okounkov as ok
from growthlab import polytope as pt
from growthlab.corpus import builtin_corpus
from growthlab.errors import DegenerateInput, GrowthViolation
from growthlab.rationals import dot

from _oracles import brute_force_facets, brute_force_slice, ehrhart_volume_3d, pick_area
from conftest import same_function

CORPUS = builtin_corpus()
MC_TOL = 0.02
SAMPLED_TOL = 1e-10
CONVEXITY_SLACK = -1e-12
BISECTION_TOL = F(1, 2 ** 40)


def _origin(P):
    return tuple([0] * P.ambient_dim)


def _gc(P, k_levels=(1, 2, 4)):
    return gr.build_growth_condition(P, _origin(P), k_levels)


def test_criterion_1_volume_identity_exact():
    expected = {"simplex2": F(1), "square2": F(8), "trapezoid": F(4),
                "interval2": F(2)}
    worst = 0.0
    for name, P in CORPUS:
        t0 = time.monotonic()
        gc = _gc(P, (1,))
        vol = gr.monge_ampere_volume(gc)
        n = gc.dim
        assert vol == math.factorial(n) * pt.volume(gc.polytope)
        if name in expected:
            assert vol == expected[name]
        worst = max(worst, time.monotonic() - t0)
        assert worst < 1.0
    print(f"\nPASS criterion-1: volume_MA = n! vol exactly on "
          f"{len(CORPUS)} entries (max {worst:.3f}s/entry)")


def test_criterion_2_volume_monte_carlo():
    worst_err, worst_t = 0.0, 0.0
    for name, P in CORPUS:
        if P.ambient_dim > 3:
            continue
        t0 = time.monotonic()
        gc = _gc(P, (4,))
        exact = float(gr.monge_ampere_volume(gc))
        u4 = cf.logsumexp_from_polytope(gc.polytope, 4)
        mc = gr.monge_ampere_volume_numeric(u4, samples=10 ** 5, seed=17)
        dt = time.monotonic() - t0
        rel = abs(mc["value"] - exact) / exact
        assert rel <= MC_TOL, (name, mc["value"], exact)
        assert dt < 10.0, (name, dt)
        worst_err, worst_t = max(worst_err, rel), max(worst_t, dt)
    print(f"\nPASS criterion-2: Monte-Carlo gradient-image volume within 2% "
          f"(worst rel err {worst_err:.2e}, max {worst_t:.1f}s/entry)")


def test_criterion_3_seshadri_two_routes():
    expected = {"simplex2": F(1), "square2": F(2), "trapezoid": F(1)}
    for name, P in CORPUS:
        ses = gr.seshadri_constant(_gc(P, (1,)))
        assert ses.domination_value == ses.lp_value
        lo, hi = ses.bisection_interval
        assert hi - lo <= BISECTION_TOL
        if name in expected:
            assert ses.lp_value == expected[name]
    print("\nPASS criterion-3: simplex-inclusion LP and domination bisection "
          "agree exactly on all corpus entries")


def test_criterion_4_seshadri_volume_bound():
    slacks = {}
    for name, P in CORPUS:
        ses = gr.seshadri_constant(_gc(P, (1,)))
        assert float(ses.lp_value) <= ses.upper_bound + 2 ** -20
        slacks[name] = ses.slack
    assert slacks["simplex2"] == pytest.approx(0.0, abs=1e-12)
    assert slacks["square2"] == pytest.approx(math.sqrt(8) - 2)
    assert slacks["trapezoid"] == pytest.approx(1.0)
    printable = ", ".join(f"{k}={v:.3f}" for k, v in sorted(slacks.items()))
    print(f"\nPASS criterion-4: Seshadri <= nth root of volume on all "
          f"entries (slack: {printable})")


def test_criterion_5_equivalence_bound_sampled():
    rng = np.random.default_rng(23)
    worst = -1.0
    for name, P in CORPUS:
        gc = _gc(P, (1, 2, 4, 8))
        h = gc.representative
        n = gc.dim
        X = rng.uniform(-25.0, 25.0, (1000, n))
        hx = h.eval_many(X)
        for k in gc.k_levels:
            u = cf.logsumexp_from_polytope(gc.polytope, k)
            width = cf.sup_difference(u).upper
            gap = u.value_many(X) - hx
            assert gap.min() >= -SAMPLED_TOL, (name, k)
            assert gap.max() <= width + SAMPLED_TOL, (name, k)
            worst = max(worst, float(gap.max() - width), float(-gap.min()))
    print(f"\nPASS criterion-5: 0 <= u_k - h <= ln N(k)/k at 10^3 points, "
          f"k in {{1,2,4,8}} (worst excess {worst:.2e} <= 1e-10)")


def test_criterion_6_radial_decomposition_random():
    from conftest import random_delzant
    rng = random.Random(20260809)
    count = 0
    while count < 20:
        n = 2 if count % 2 == 0 else 3
        P = random_delzant(rng, n)
        h = cf.MaxAffineFunction.support_function(P)
        lams = sorted({sum(v) for v in P.vertices})
        slopes = []
        for lam in lams:
            comp = cf.radial_component(h, lam)
            sl = brute_force_slice(P.vertices, (1,) * n, lam)
            assert same_function(comp, cf.MaxAffineFunction(sl))
            slopes.extend(comp.slopes)
        assert pt.Polytope.from_points(slopes, n) == P
        count += 1
    print("\nPASS criterion-6: radial components equal slice support "
          "functions and their vertices span P on 20 random Delzant polytopes")


def test_criterion_7_okounkov_toric():
    from itertools import permutations
    for name, P in CORPUS:
        gc = _gc(P, (1,))
        vol = gr.monge_ampere_volume(gc)
        ses = gr.seshadri_constant(gc).lp_value
        body = ok.okounkov_body(ok.GradedMonomialSeries.toric(gc.polytope, 3))
        assert all(B == gc.polytope for B in body.hull_at.values())
        assert body.limit == gc.polytope
        assert ok.volume_identity_check(body, vol) is True
        n = gc.dim
        for perm in permutations(range(n)):
            permuted = pt.Polytope.from_points(
                [tuple(v[i] for i in perm) for v in gc.polytope.vertices], n)
            pbody = ok.okounkov_body(ok.GradedMonomialSeries.toric(permuted, 2))
            assert pt.simplex_inclusion(pbody.limit) == ses
    print("\nPASS criterion-7: toric Okounkov bodies equal the polytope at "
          "k <= 3, n! vol(body) = volume_MA, flag-permutation invariant")


def test_criterion_8_gluing_boundary():
    worst_t = 0.0
    for name, P in CORPUS:
        t0 = time.monotonic()
        gc = _gc(P, (1,))
        eps_val = gr.seshadri_constant(gc).lp_value
        lam_ok = eps_val - F(1, 8)
        lam_bad = eps_val + F(1, 8)
        glued = em.fit_ball(
            gc, cf.SmoothToricPotential.fubini_study(lam_ok, dim=gc.dim),
            R=10, samples=1000, pairs=10 ** 4, seed=31)
        cert = glued.certificate
        assert cert.passing, name
        assert cert.inner_check["min_margin"] > cert.epsilon
        assert cert.outer_check["min_margin"] > cert.epsilon
        assert cert.convexity_check["min_slack"] >= CONVEXITY_SLACK
        with pytest.raises(GrowthViolation):
            em.fit_ball(gc, cf.SmoothToricPotential.fubini_study(
                lam_bad, dim=gc.dim), R=10, seed=31)
        dt = time.monotonic() - t0
        assert dt < 30.0, (name, dt)
        worst_t = max(worst_t, dt)
    print(f"\nPASS criterion-8: gluing succeeds at eps-1/8 and raises at "
          f"eps+1/8 on every entry (max {worst_t:.1f}s/entry)")


def test_criterion_9_polytope_kernel_oracles():
    rng = random.Random(424242)
    done_2d = 0
    while done_2d < 50:
        pts = [(rng.randint(-6, 6), rng.randint(-6, 6))
               for _ in range(rng.randint(4, 10))]
        try:
            P = pt.hull(pts)
        except DegenerateInput:
            continue
        assert {(f.normal, f.offset) for f in P.facets} == brute_force_facets(pts)
        lat = pt.lattice_points(P, 1)
        interior = sum(1 for p in lat
                       if all(dot(f.normal, p) < f.offset for f in P.facets))
        assert pick_area(interior, len(lat) - interior) == pt.volume(P)
        done_2d += 1
    done_3d = 0
    while done_3d < 20:
        pts = [(rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(-4, 4))
               for _ in range(rng.randint(5, 10))]
        try:
            P = pt.hull(pts)
        except DegenerateInput:
            continue
        assert {(f.normal, f.offset) for f in P.facets} == brute_force_facets(pts)
        counts = [len(pt.lattice_points(P, k)) for k in (1, 2, 3, 4)]
        assert ehrhart_volume_3d(*counts) == pt.volume(P)
        done_3d += 1
    print("\nPASS criterion-9: hull facets, Pick areas and Ehrhart volumes "
          "agree exactly on 50 random 2-d and 20 random 3-d instances")
