import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from growthlab import convexfn as cf
from growthlab import lp
from growthlab import polytope as pt
from growthlab.errors import (
    DimensionMismatch,
    EmptyInput,
    IncomparableFamilies,
    NonpositiveEpsilon,
    NotNormalized,
)

from _oracles import (brute_force_lattice_points, brute_force_slice, grid_conjugate_1d,
                      grid_inf_radial)
from conftest import piece_set, same_function

SIGMA = pt.standard_simplex(2)
SQUARE = pt.box([2, 2])
TRAP = pt.hull([(0, 0), (3, 0), (1, 1), (0, 1)])

h_sigma = cf.MaxAffineFunction.support_function(SIGMA)
h_square = cf.MaxAffineFunction.support_function(SQUARE)
h_trap = cf.MaxAffineFunction.support_function(TRAP)


def random_max_affine(rng, n, pieces=5, denom=3):
    ps = []
    for _ in range(pieces):
        slope = tuple(F(rng.randint(-4, 4), rng.randint(1, denom))
                      for _ in range(n))
        ps.append((slope, F(rng.randint(-6, 6), rng.randint(1, denom))))
    return cf.MaxAffineFunction(ps)


class TestEval:
    def test_support_function_example(self):
        assert h_sigma((3, -1)) == 3

    def test_logsumexp_at_origin(self):
        u2 = cf.logsumexp_from_polytope(SIGMA, 2)
        assert u2((0.0, 0.0)) == pytest.approx(math.log(6) / 2, abs=1e-12)

    def test_fubini_study_at_origin(self):
        fs = cf.SmoothToricPotential.fubini_study(2, dim=2)
        assert fs((0.0, 0.0)) == pytest.approx(2 * math.log(3), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            h_sigma((1, 2, 3))


class TestLegendre:
    def test_support_function_conjugate_is_indicator(self):
        conj = cf.legendre(h_sigma)
        assert conj((F(1, 3), F(1, 3))) == 0
        assert conj((0, 0)) == 0
        assert conj((2, 2)) == math.inf
        assert conj.domain == SIGMA

    def test_one_dimensional_ramp(self):
        f = cf.MaxAffineFunction([((0,), 0), ((1,), 0)])
        conj = cf.legendre(f)
        assert conj((F(1, 2),)) == 0 and conj((0,)) == 0 and conj((1,)) == 0
        assert conj((F(3, 2),)) == math.inf

    def test_roof_values_match_grid_oracle(self):
        f = cf.MaxAffineFunction([((0,), 0), ((1,), -1), ((2,), -3)])
        conj = cf.legendre(f)
        assert conj((1,)) == 1
        assert grid_conjugate_1d(f, 1) == pytest.approx(1, abs=1e-3)
        assert conj((2,)) == 3
        assert grid_conjugate_1d(f, 2) == pytest.approx(3, abs=1e-3)

    def test_involution_on_random_functions(self):
        rng = random.Random(11)
        for n in (1, 2, 3):
            for _ in range(4):
                f = random_max_affine(rng, n)
                # conjugate back: the roof (slope, value) is the piece (slope, -value)
                g = cf.MaxAffineFunction([(s, -v) for s, v in cf.legendre(f).breakpoints])
                assert same_function(g, f)
                for _ in range(85):
                    x = tuple(F(rng.randint(-40, 40), rng.randint(1, 5))
                              for _ in range(n))
                    assert f(x) == g(x)

    def test_fenchel_young_with_equality_witnesses(self):
        rng = random.Random(13)
        for _ in range(10):
            f = random_max_affine(rng, 2)
            conj = cf.legendre(f)
            for slope, offset in piece_set(f):
                # active slopes achieve equality: f*(slope) = -offset
                assert conj(slope) == -offset
            for _ in range(30):
                x = tuple(F(rng.randint(-15, 15), rng.randint(1, 3))
                          for _ in range(2))
                y = rng.choice(f.pieces).slope
                assert f(x) + conj(y) >= sum(a * b for a, b in zip(x, y))


class TestLogSumExp:
    def test_two_sided_bound_at_levels(self):
        rng = np.random.default_rng(3)
        for P, h in ((SIGMA, h_sigma), (SQUARE, h_square), (TRAP, h_trap)):
            for k in (1, 2, 4, 8):
                u = cf.logsumexp_from_polytope(P, k)
                width = math.log(u.lattice_count) / k
                X = rng.uniform(-30, 30, (200, 2))
                gap = u.value_many(X) - h.eval_many(X)
                assert gap.min() >= -1e-10
                assert gap.max() <= width + 1e-10

    def test_limit_along_rays(self):
        for k in (1, 2, 4, 8):
            u = cf.logsumexp_from_polytope(SIGMA, k)
            val = u((10.0, 0.0))
            assert 10 <= val <= 10 + math.log(u.lattice_count) / k

    def test_one_dimensional_geometric_sum(self):
        P = pt.box([3])
        u = cf.logsumexp_from_polytope(P, 2)   # exponents 0..6 at k=2
        x = 0.7
        expected = math.log(sum(math.exp(j * x) for j in range(7))) / 2
        assert u((x,)) == pytest.approx(expected, abs=1e-12)
        assert u((0.0,)) == pytest.approx(math.log(7) / 2, abs=1e-12)

    def test_requires_normalized_lattice_polytope(self):
        with pytest.raises(NotNormalized):
            cf.logsumexp_from_polytope(pt.hull([(1, 1), (2, 1), (1, 2)]), 1)
        with pytest.raises(NotNormalized):
            cf.logsumexp_from_polytope(pt.hull([(0, 0), (F(1, 2), 0), (0, 1)]), 2)


class TestSupDifference:
    def test_constant_shift(self):
        shifted = cf.MaxAffineFunction([(p.slope, p.offset + 1) for p in h_sigma.pieces])
        cert = cf.sup_difference(h_sigma, shifted)
        assert cert.lower == -1 and cert.upper == -1

    def test_different_polytopes_unbounded_with_witness(self):
        cert = cf.sup_difference(h_sigma, h_square)
        assert cert.lower == -math.inf and cert.upper == 0
        # f - g must diverge along the witness; g's slope polytope is a
        # square, a point, a segment off f's slope and a segment whose span
        # holds f's slope
        cases = [(h_square, h_sigma, cert.witnesses["inf_recession_direction"])]
        ray = cf.MaxAffineFunction([((0, 0), 0), ((3, 0), 0)])
        for f, g_slopes in ((h_sigma, [(1, 1)]), (h_sigma, [(0, 0), (1, 1)]),
                            (ray, [(0, 0), (2, 0)])):
            g = cf.MaxAffineFunction([(s, 0) for s in g_slopes])
            cert = cf.sup_difference(f, g)
            assert cert.upper == math.inf
            cases.append((f, g, cert.witnesses["sup_recession_direction"]))
        for f, g, d in cases:
            vals = [f(tuple(t * c for c in d)) - g(tuple(t * c for c in d))
                    for t in (1, 10, 100)]
            assert vals[0] > 0 and vals[1] == 10 * vals[0] and vals[2] == 100 * vals[0]

    def test_lse_certificate(self):
        u3 = cf.logsumexp_from_polytope(SIGMA, 3)
        cert = cf.sup_difference(u3, h_sigma)
        assert cert.lower == 0
        assert cert.upper == pytest.approx(math.log(10) / 3, abs=1e-12)
        assert cert.witnesses["lattice_count"] == 10

    def test_lse_certificate_only_against_h_P(self):
        u = cf.logsumexp_from_polytope(SQUARE, 2)
        corners = [(v, 0) for v in SQUARE.vertices]
        for g in (cf.MaxAffineFunction.support_function(pt.box([2, 2])),
                  cf.MaxAffineFunction(corners + [((1, 1), -3)])):
            cert = cf.sup_difference(u, g)
            assert (cert.lower, cert.witnesses["lattice_count"]) == (0, 25)
        low_corner = [(v, -1 if v == (2, 2) else 0) for v in SQUARE.vertices]
        for g in (cf.MaxAffineFunction.support_function(pt.box([2, 3])),
                  cf.MaxAffineFunction([(v, 1) for v in SQUARE.vertices]),
                  cf.MaxAffineFunction(low_corner),
                  cf.MaxAffineFunction(corners + [((1, 1), 1)]),
                  cf.MaxAffineFunction(corners + [((0, 3), -1)])):
            with pytest.raises(IncomparableFamilies):
                cf.sup_difference(u, g)

    def test_incomparable(self):
        fs = cf.SmoothToricPotential.fubini_study(1, dim=2)
        with pytest.raises(IncomparableFamilies):
            cf.sup_difference(fs, h_sigma)
        u = cf.logsumexp_from_polytope(SIGMA, 2)
        with pytest.raises(IncomparableFamilies):
            cf.sup_difference(u, h_square)


class TestRadialComponent:
    def test_simplex_levels(self):
        v1 = cf.radial_component(h_sigma, 1)
        assert same_function(v1, cf.MaxAffineFunction([((1, 0), 0), ((0, 1), 0)]))
        v0 = cf.radial_component(h_sigma, 0)
        assert same_function(v0, cf.MaxAffineFunction([((0, 0), 0)]))
        assert cf.radial_component(h_sigma, 2) is None

    def test_square_off_vertex_level(self):
        v3 = cf.radial_component(h_square, 3)
        assert same_function(
            v3, cf.MaxAffineFunction([((1, 2), 0), ((2, 1), 0)]))

    def test_grid_infimum_oracle(self):
        rng = random.Random(5)
        for lam in (0, 1):
            v = cf.radial_component(h_sigma, lam)
            for _ in range(10):
                x = (rng.uniform(-5, 5), rng.uniform(-5, 5))
                grid = grid_inf_radial(h_sigma, lam, x, -50, 50, 2001)
                exact = v(x)
                assert exact <= grid + 1e-9
                assert grid - exact <= 0.08  # grid resolution * Lipschitz

    def test_mixed_offsets_against_grid(self):
        f = cf.MaxAffineFunction([((0, 0), 0), ((1, 0), F(1, 2)),
                                  ((0, 1), -1), ((1, 1), 0)])
        rng = random.Random(6)
        for lam in (0, F(1, 2), 1, 2):
            v = cf.radial_component(f, lam)
            assert v is not None
            assert all(sum(p.slope) == lam for p in v.pieces)
            for _ in range(10):
                x = (rng.uniform(-4, 4), rng.uniform(-4, 4))
                grid = grid_inf_radial(f, lam, x, -60, 60, 4001)
                exact = v(x)
                assert exact <= grid + 1e-9
                assert grid - exact <= 0.15

    def test_mixed_offset_components_are_pruned(self):
        rng = random.Random(19)
        checked = 0
        for _ in range(30):
            f = random_max_affine(rng, 2)
            if not f.slope_polytope.is_full_dim:
                continue
            for lam in (-2, 0, F(1, 2), 3):
                v = cf.radial_component(f, lam)
                if v is not None:
                    assert piece_set(v) == {(p.slope, p.offset) for p in v.pieces}
                    checked += 1
        assert checked >= 20

    def test_slice_identity_on_random_delzant(self, rng):
        from conftest import random_delzant
        for n in (2, 3):
            for _ in range(10):
                P = random_delzant(rng, n)
                h = cf.MaxAffineFunction.support_function(P)
                for lam in sorted({sum(v) for v in P.vertices}):
                    comp = cf.radial_component(h, lam)
                    href = cf.MaxAffineFunction(
                        [(v, 0) for v in brute_force_slice(P.vertices, (1,) * n, lam)])
                    assert same_function(comp, href)
                    for _ in range(5):
                        x = tuple(F(rng.randint(-30, 30), rng.randint(1, 4))
                                  for _ in range(n))
                        assert comp(x) == href(x)


class TestReassemble:
    def test_single_component_identity(self):
        assert same_function(cf.reassemble({F(1): h_sigma}), h_sigma)

    def test_simplex_from_slices(self):
        comps = {lam: cf.radial_component(h_sigma, lam) for lam in (0, 1)}
        assert same_function(cf.reassemble(comps), h_sigma)

    def test_trapezoid_from_slices(self):
        comps = {lam: cf.radial_component(h_trap, lam) for lam in (0, 1, 2, 3)}
        assert same_function(cf.reassemble(comps), h_trap)

    def test_partial_reassembly_below_full(self, rng):
        from conftest import random_delzant
        for _ in range(5):
            P = random_delzant(rng, 2)
            h = cf.MaxAffineFunction.support_function(P)
            lams = sorted({sum(v) for v in P.vertices})
            partial = cf.reassemble(
                {lam: cf.radial_component(h, lam) for lam in lams[:-1]})
            full = cf.reassemble(
                {lam: cf.radial_component(h, lam) for lam in lams})
            assert same_function(full, h)
            for _ in range(20):
                x = tuple(F(rng.randint(-20, 20)) for _ in range(2))
                assert partial(x) <= h(x)

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            cf.reassemble({})


def grows_slower(f, g):
    return cf.slope_inclusion_witness(f.slope_polytope, g.slope_polytope)


class TestGrowsSlower:
    def test_fubini_study_inside_square(self):
        ok, _ = grows_slower(
            cf.SmoothToricPotential.fubini_study(F(3, 2), dim=2), h_square)
        assert ok

    def test_equal_support_functions_fail(self):
        ok, _ = grows_slower(h_sigma, h_sigma)
        assert not ok

    def test_escaping_vertex_witness(self):
        ok, wit = grows_slower(
            cf.SmoothToricPotential.fubini_study(F(5, 2), dim=2), h_square)
        assert not ok
        v = wit["vertex"]
        facet = wit["facet"]
        assert sum(v) == F(5, 2)
        assert facet.value(v) > facet.offset  # vertex really violates it

    def test_divergence_along_radial_rays(self, rng):
        # properness acts toward |z| -> infinity: x moves along +ones
        from conftest import random_normalized_delzant
        for _ in range(5):
            P = random_normalized_delzant(rng, 2)
            lam_star = pt.simplex_inclusion(P)
            lam = lam_star - F(1, 8)
            if lam <= 0:
                continue
            fs = cf.SmoothToricPotential.fubini_study(lam, dim=2)
            h = cf.MaxAffineFunction.support_function(P)
            ok, _ = grows_slower(fs, h)
            assert ok
            for _ in range(20):
                x0 = (rng.uniform(-10, 10), rng.uniform(-10, 10))
                ts = [40.0, 80.0, 160.0, 320.0]
                vals = [h((x0[0] + t, x0[1] + t)) - fs((x0[0] + t, x0[1] + t))
                        for t in ts]
                assert all(b > a for a, b in zip(vals, vals[1:]))
                assert vals[-1] > float(lam_star - lam) * 320 / 2


class TestRegularizedMax:
    def test_outside_band_exact(self):
        assert cf.regularized_max_many(0, 1, 0.25) == 1

    def test_tent_values(self):
        eps = 0.5
        assert cf.regularized_max_many(0.25, 0.0, eps) == pytest.approx(
            0.125 + (0.0625 + 0.25) / 2.0, abs=1e-15)

    def test_grid_dominates_max_and_matches_off_band(self):
        eps = 0.3
        xs = np.linspace(-2, 2, 100)
        A, B = np.meshgrid(xs, xs)
        M = cf.regularized_max_many(A.ravel(), B.ravel(), eps)
        mx = np.maximum(A.ravel(), B.ravel())
        assert (M >= mx - 1e-15).all()
        assert (M <= mx + eps / 4 + 1e-15).all()
        off = np.abs(A.ravel() - B.ravel()) >= eps
        assert (M[off] == mx[off]).all()

    def test_midpoint_convexity_randomized(self):
        rng = np.random.default_rng(12)
        eps = 0.25
        a, b = rng.uniform(-5, 5, (2, 10 ** 4))
        a2, b2 = rng.uniform(-5, 5, (2, 10 ** 4))
        t = rng.uniform(0, 1, 10 ** 4)
        lhs = cf.regularized_max_many(t * a + (1 - t) * a2, t * b + (1 - t) * b2, eps)
        rhs = t * cf.regularized_max_many(a, b, eps) \
            + (1 - t) * cf.regularized_max_many(a2, b2, eps)
        assert (lhs <= rhs + 1e-12).all()

    def test_nonpositive_epsilon(self):
        with pytest.raises(NonpositiveEpsilon):
            cf.regularized_max_many(0, 0, 0)


class TestSerialization:
    def test_lse_exponents_stored_as_sorted_int_tuples(self):
        # u_k keeps its polytope and its count; the points are listed on first use
        u = cf.logsumexp_from_polytope(SQUARE, 2)
        assert u.lattice_count == 25
        assert u.exponents == tuple(pt.lattice_points(SQUARE, 2))
        assert list(u.exponents) == sorted(u.exponents)
        assert all(type(x) is int for e in u.exponents for x in e)
        assert u.slope_polytope is SQUARE
        with pytest.raises(ValueError, match="slope polytope"):
            cf.SmoothToricPotential("lse", k=2, count=25)

    def test_lse_scans_each_level_once(self, monkeypatch):
        # the counts, the Ehrhart nodes and u_k's exponents share one scan per
        # level of a polytope; a fresh one, as module-level ones keep theirs
        from growthlab import growth as gr
        calls = []
        real = pt._scan_rows

        def counted(P, k):
            calls.append(k)
            return real(P, k)

        monkeypatch.setattr(pt, "_scan_rows", counted)
        gc = gr.build_growth_condition(pt.box([1, 2, 3]), (0, 0, 0), (1, 2, 4, 8))
        report = gr.growth_report(gc)
        # 1 and 2 count their own scans; 4 and 8 read the nodes 1, 2, 3
        assert calls == [1, 2, 3]
        assert report.certificates[8].witnesses["lattice_count"] == 9 * 17 * 25
        u = cf.logsumexp_from_polytope(gc.polytope, 8)
        assert calls == [1, 2, 3]
        u((0.5, -0.5, 0.25))
        u.grad_many([[0.0, 1.0, 0.0]])
        assert list(u.exponents) == brute_force_lattice_points(gc.polytope.vertices, 8)
        assert calls == [1, 2, 3, 8]

    def test_fs_dimension_fixed_at_construction(self):
        u = cf.SmoothToricPotential.fubini_study(F(3, 2), dim=2)
        u((0.0, 0.0))
        assert u.dim == 2
        with pytest.raises(DimensionMismatch):
            u((0.0, 0.0, 0.0))
        assert u.dim == 2


class TestPruning:
    def test_collinear_piece_dropped(self):
        f = cf.MaxAffineFunction([((0,), 0), ((1,), 0), ((2,), 0)])
        assert piece_set(f) == {((F(0),), F(0)), ((F(2),), F(0))}

    def test_low_offset_piece_dropped(self):
        f = cf.MaxAffineFunction([((0, 0), 0), ((1, 0), 0), ((0, 1), 0),
                                  ((F(1, 2), F(1, 4)), F(-10))])
        g = cf.MaxAffineFunction([((0, 0), 0), ((1, 0), 0), ((0, 1), 0)])
        assert same_function(f, g)

    def test_high_offset_interior_piece_kept(self):
        f = cf.MaxAffineFunction([((0, 0), 0), ((1, 0), 0), ((0, 1), 0),
                                  ((F(1, 2), F(1, 4)), 5)])
        assert (((F(1, 2), F(1, 4)), F(5))) in piece_set(f)

    def test_single_piece_kept(self):
        f = cf.MaxAffineFunction([((1, 2), 3)])
        assert piece_set(f) == {((F(1), F(2)), F(3))}

    def test_collinear_slopes_with_mixed_offsets(self):
        # the lifted points span a plane in R^3: a lower-dimensional hull
        low = cf.MaxAffineFunction([((0, 0), 0), ((1, 1), -1), ((2, 2), 0)])
        assert low._lifted_hull[0].dim == 2
        assert piece_set(low) == {((F(0), F(0)), F(0)), ((F(2), F(2)), F(0))}
        high = cf.MaxAffineFunction([((0, 0), 0), ((1, 1), 5), ((2, 2), 0)])
        assert len(piece_set(high)) == 3

    def test_matches_lp_definition(self):
        # piece i is kept iff the other pieces' envelope at slope_i is
        # undefined or lies strictly above -offset_i
        rng = random.Random(17)
        dropped = 0
        for trial in range(100):
            f = random_max_affine(rng, 1 + trial % 3, pieces=rng.randint(1, 7))
            if trial % 4 == 0:
                f = cf.MaxAffineFunction([(p.slope, 1) for p in f.pieces])
            expect = set()
            for i, p in enumerate(f.pieces):
                others = f.pieces[:i] + f.pieces[i + 1:]
                best = lp.envelope_min([q.slope for q in others],
                                       [-q.offset for q in others], p.slope)
                if best is None or best > -p.offset:
                    expect.add((p.slope, p.offset))
            assert piece_set(f) == expect
            dropped += len(expect) < len(f.pieces)
        assert dropped >= 20
