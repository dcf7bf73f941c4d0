import math
import random
from fractions import Fraction as F
from functools import partial

import numpy as np
import pytest

from growthlab import convexfn as cf
from growthlab import lp
from growthlab import polytope as pt
from growthlab.errors import NotNormalized

from _oracles import (brute_force_lattice_points, brute_force_slice, brute_force_vertices,
                      grid_conjugate_1d, grid_inf_radial, support_value)
from conftest import piece_set, same_function, value_at

SIGMA = pt.standard_simplex(2)
SQUARE = pt.box([2, 2])
TRAP = pt.hull([(0, 0), (3, 0), (1, 1), (0, 1)])

h_sigma = cf.MaxAffineFunction.support_function(SIGMA)
h_square = cf.MaxAffineFunction.support_function(SQUARE)
h_trap = cf.MaxAffineFunction.support_function(TRAP)


def random_point(rng, n, lo=-4, hi=4, denom=3):
    return tuple(F(rng.randint(lo, hi), rng.randint(1, denom)) for _ in range(n))


def random_support_function(rng, n, points=5):
    """h_P for the hull P of a few random rational points."""
    return cf.MaxAffineFunction.support_function(
        pt.Polytope.from_points([random_point(rng, n) for _ in range(points)], n))


def dot(x, y):
    return sum(a * b for a, b in zip(x, y))


class TestEval:
    def test_support_function_example(self):
        assert support_value(h_sigma.slopes, (3, -1)) == 3
        assert h_sigma.eval_many([[3.0, -1.0]])[0] == 3.0

    def test_eval_many_matches_oracle(self):
        X = np.random.default_rng(4).uniform(-20, 20, (100, 2))
        for h in (h_sigma, h_square, h_trap):
            expect = [float(support_value(h.slopes, x)) for x in X.tolist()]
            assert h.eval_many(X).tolist() == pytest.approx(expect, abs=1e-12)
            assert h.eval_many(X, dtype=np.longdouble).dtype == np.longdouble
        # the origin vertex gives +0.0, never -0.0, on the negative orthant:
        # the radial profile prints it
        for dtype in (float, np.longdouble):
            assert math.copysign(1.0, h_sigma.eval_many([[-1.0, -2.0]], dtype=dtype)[0]) == 1.0

    def test_slopes_are_the_sorted_vertices(self):
        assert h_trap.slopes == TRAP.vertices and h_trap.slope_polytope is TRAP
        f = cf.MaxAffineFunction([(1, 1), (0, F(1, 2))])
        assert f.slopes == ((0, F(1, 2)), (1, 1))
        assert all(type(x) is F for v in f.slopes for x in v)
        assert h_sigma.to_json_dict() == {"pieces": [
            {"slope": ["0", "0"], "offset": "0"}, {"slope": ["0", "1"], "offset": "0"},
            {"slope": ["1", "0"], "offset": "0"}]}

    def test_logsumexp_at_origin(self):
        u2 = cf.logsumexp_from_polytope(SIGMA, 2)
        assert value_at(u2, (0.0, 0.0)) == pytest.approx(math.log(6) / 2, abs=1e-12)

    def test_fubini_study_at_origin(self):
        fs = cf.SmoothToricPotential.fubini_study(2, dim=2)
        assert value_at(fs, (0.0, 0.0)) == pytest.approx(2 * math.log(3), abs=1e-12)


class TestLegendre:
    def test_support_function_conjugate_is_indicator(self):
        conj = cf.ConvexConjugate(h_sigma)
        assert conj((F(1, 3), F(1, 3))) == 0
        assert conj((0, 0)) == 0
        assert conj((2, 2)) == math.inf

    def test_one_dimensional_ramp(self):
        conj = cf.ConvexConjugate(cf.MaxAffineFunction.support_function(pt.box([1])))
        assert conj((F(1, 2),)) == 0 and conj((0,)) == 0 and conj((1,)) == 0
        assert conj((F(3, 2),)) == math.inf

    def test_roof_values_match_grid_oracle(self):
        # h of [0, 2] is max(0, 2x); on [-60, 60] the grid supremum of
        # yx - h(x) is 0 for y in [0, 2] and grows with the grid off it
        h = cf.MaxAffineFunction.support_function(pt.box([2]))
        conj, oracle = cf.ConvexConjugate(h), partial(support_value, h.slopes)
        assert conj((1,)) == 0
        assert grid_conjugate_1d(oracle, 1, steps=12001) == pytest.approx(0, abs=1e-9)
        assert conj((3,)) == math.inf
        assert grid_conjugate_1d(oracle, 3, steps=12001) == pytest.approx(60, abs=1e-9)

    def test_involution_on_random_functions(self):
        # h(x) = max over y of <x, y> - h*(y), attained at a vertex
        rng = random.Random(11)
        for n in (1, 2, 3):
            for _ in range(4):
                h = random_support_function(rng, n)
                conj = cf.ConvexConjugate(h)
                ys = list(h.slopes) + [random_point(rng, n) for _ in range(6)]
                values = [conj(y) for y in ys]
                assert values[:len(h.slopes)] == [0] * len(h.slopes)
                for _ in range(20):
                    x = random_point(rng, n, -40, 40, 5)
                    assert max(dot(x, y) - v for y, v in zip(ys, values)) \
                        == support_value(h.slopes, x)

    def test_fenchel_young_with_equality_witnesses(self):
        rng = random.Random(13)
        for _ in range(10):
            h = random_support_function(rng, 2)
            conj = cf.ConvexConjugate(h)
            for _ in range(15):
                x = random_point(rng, 2, -15, 15)
                y = random_point(rng, 2)
                assert support_value(h.slopes, x) + conj(y) >= dot(x, y)
                # the vertex attaining h(x) achieves equality
                v = max(h.slopes, key=partial(dot, x))
                assert support_value(h.slopes, x) + conj(v) == dot(x, v)


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
            val = value_at(u, (10.0, 0.0))
            assert 10 <= val <= 10 + math.log(u.lattice_count) / k

    def test_one_dimensional_geometric_sum(self):
        P = pt.box([3])
        u = cf.logsumexp_from_polytope(P, 2)   # exponents 0..6 at k=2
        x = 0.7
        expected = math.log(sum(math.exp(j * x) for j in range(7))) / 2
        assert value_at(u, (x,)) == pytest.approx(expected, abs=1e-12)
        assert value_at(u, (0.0,)) == pytest.approx(math.log(7) / 2, abs=1e-12)

    def test_requires_normalized_lattice_polytope(self):
        with pytest.raises(NotNormalized):
            cf.logsumexp_from_polytope(pt.hull([(1, 1), (2, 1), (1, 2)]), 1)
        with pytest.raises(NotNormalized):
            cf.logsumexp_from_polytope(pt.hull([(0, 0), (F(1, 2), 0), (0, 1)]), 2)


class TestSupDifference:
    def test_lse_certificate(self):
        u3 = cf.logsumexp_from_polytope(SIGMA, 3)
        cert = cf.sup_difference(u3)
        assert cert.lower == 0
        assert cert.upper == pytest.approx(math.log(10) / 3, abs=1e-12)
        assert cert.witnesses["lattice_count"] == 10


class TestRadialComponent:
    def test_simplex_levels(self):
        v1 = cf.radial_component(h_sigma, 1)
        assert same_function(v1, cf.MaxAffineFunction([(1, 0), (0, 1)]))
        v0 = cf.radial_component(h_sigma, 0)
        assert same_function(v0, cf.MaxAffineFunction([(0, 0)]))
        assert cf.radial_component(h_sigma, 2) is None

    def test_square_off_vertex_level(self):
        v3 = cf.radial_component(h_square, 3)
        assert same_function(v3, cf.MaxAffineFunction([(1, 2), (2, 1)]))

    def test_grid_infimum_oracle(self):
        rng = random.Random(5)
        for lam in (0, 1):
            v = cf.radial_component(h_sigma, lam)
            for _ in range(10):
                x = (rng.uniform(-5, 5), rng.uniform(-5, 5))
                grid = grid_inf_radial(partial(support_value, h_sigma.slopes),
                                       lam, x, -50, 50, 2001)
                exact = support_value(v.slopes, x)
                assert exact <= grid + 1e-9
                assert grid - exact <= 0.08  # grid resolution * Lipschitz

    def test_slice_identity_on_random_delzant(self, rng):
        from conftest import random_delzant
        for n in (2, 3):
            for _ in range(10):
                P = random_delzant(rng, n)
                h = cf.MaxAffineFunction.support_function(P)
                for lam in sorted({sum(v) for v in P.vertices}):
                    comp = cf.radial_component(h, lam)
                    ref = brute_force_slice(P.vertices, (1,) * n, lam)
                    assert piece_set(comp) == set(ref)
                    for _ in range(5):
                        x = random_point(rng, n, -30, 30, 4)
                        assert support_value(comp.slopes, x) == support_value(ref, x)


class TestReassemble:
    """The slices of P at its vertex levels hold every vertex of P, so the
    hull of their vertices is P: h_P is the max of its radial components."""

    @staticmethod
    def slice_hull(h, lams):
        comps = [cf.radial_component(h, lam) for lam in lams]
        return pt.Polytope.from_points([v for c in comps if c is not None for v in c.slopes],
                                       h.dim)

    def test_single_component_identity(self):
        assert pt.Polytope.from_points(h_sigma.slopes, 2) == SIGMA

    def test_simplex_from_slices(self):
        assert self.slice_hull(h_sigma, (0, 1)) == SIGMA

    def test_trapezoid_from_slices(self):
        assert self.slice_hull(h_trap, (0, 1, 2, 3)) == TRAP

    def test_partial_reassembly_below_full(self, rng):
        from conftest import random_delzant
        for _ in range(5):
            P = random_delzant(rng, 2)
            h = cf.MaxAffineFunction.support_function(P)
            lams = sorted({sum(v) for v in P.vertices})
            assert self.slice_hull(h, lams) == P
            # without the top level the hull misses the top vertices
            partial_hull = self.slice_hull(h, lams[:-1])
            top = [v for v in P.vertices if sum(v) == lams[-1]]
            assert not set(top) & set(partial_hull.vertices)
            assert set(brute_force_vertices(list(partial_hull.vertices) + top)) \
                == set(P.vertices)


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
        assert dot(facet.normal, v) > facet.offset  # vertex really violates it

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
                vals = [support_value(h.slopes, (x0[0] + t, x0[1] + t))
                        - value_at(fs, (x0[0] + t, x0[1] + t))
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


class TestSerialization:
    def test_lse_exponents_stored_as_sorted_int_tuples(self):
        # u_k keeps its polytope and its count; the points are listed on first use
        u = cf.logsumexp_from_polytope(SQUARE, 2)
        assert u.lattice_count == 25
        assert u.exponents == tuple(pt.lattice_points(SQUARE, 2))
        assert list(u.exponents) == sorted(u.exponents)
        assert all(type(x) is int for e in u.exponents for x in e)
        assert u.slope_polytope is SQUARE

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
        assert report["certificates"]["8"]["witnesses"]["lattice_count"] == 9 * 17 * 25
        u = cf.logsumexp_from_polytope(gc.polytope, 8)
        assert calls == [1, 2, 3]
        value_at(u, (0.5, -0.5, 0.25))
        u.grad_many([[0.0, 1.0, 0.0]])
        assert list(u.exponents) == brute_force_lattice_points(gc.polytope.vertices, 8)
        assert calls == [1, 2, 3, 8]

    def test_fs_dimension_fixed_at_construction(self):
        u = cf.SmoothToricPotential.fubini_study(F(3, 2), dim=2)
        value_at(u, (0.0, 0.0))
        assert u.dim == u.slope_polytope.ambient_dim == 2
        with pytest.raises(ValueError, match="dim >= 1"):
            cf.SmoothToricPotential.fubini_study(F(3, 2), dim=0)


class TestPruning:
    """A support function keeps only its polytope's vertices: with every
    offset 0, a slope is dropped iff it lies in the hull of the others."""

    def test_collinear_piece_dropped(self):
        h = cf.MaxAffineFunction.support_function(pt.Polytope.from_points([(0,), (1,), (2,)], 1))
        assert piece_set(h) == {(F(0),), (F(2),)}

    def test_single_piece_kept(self):
        h = cf.MaxAffineFunction.support_function(pt.Polytope.from_points([(1, 2)], 2))
        assert piece_set(h) == {(F(1), F(2))}

    def test_matches_lp_definition(self):
        # slope i is kept iff the envelope of the others at it is undefined
        rng = random.Random(17)
        dropped = 0
        for trial in range(100):
            n = 1 + trial % 3
            cloud = sorted({random_point(rng, n) for _ in range(rng.randint(1, 7))})
            h = cf.MaxAffineFunction.support_function(pt.Polytope.from_points(cloud, n))
            expect = set()
            for i, p in enumerate(cloud):
                others = cloud[:i] + cloud[i + 1:]
                if not others or lp.envelope_min(others, [0] * len(others), p) is None:
                    expect.add(p)
            assert piece_set(h) == expect
            dropped += len(expect) < len(cloud)
        assert dropped >= 20
