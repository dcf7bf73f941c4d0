import math
from fractions import Fraction as F
from itertools import permutations

import pytest

from growthlab import convexfn as cf
from growthlab import growth as gr
from growthlab import okounkov as ok
from growthlab import polytope as pt
from growthlab.errors import DegenerateInput, EmptySupport

from _oracles import grid_conjugate_2d

SIGMA = pt.standard_simplex(2)
SQUARE = pt.box([2, 2])
TRAP = pt.hull([(0, 0), (3, 0), (1, 1), (0, 1)])

DEGLEX = ok.MonomialOrder("deglex")
LEX = ok.MonomialOrder("lex")


class TestOrders:
    def test_equal_degree_lex_break(self):
        assert ok.compare((0, 1), (1, 0), DEGLEX) == ok.LESS

    def test_degree_dominates(self):
        assert ok.compare((1, 0), (0, 5), DEGLEX) == ok.LESS

    def test_orders_disagree(self):
        assert ok.compare((0, 2), (1, 0), DEGLEX) == ok.GREATER
        assert ok.compare((0, 2), (1, 0), LEX) == ok.LESS

    @pytest.mark.parametrize("perm", [(0, 0), (1, 2), (0, 2, 1, 4)])
    def test_perm_must_be_a_permutation(self, perm):
        with pytest.raises(ValueError):
            ok.MonomialOrder("deglex", perm)

    def test_axioms_randomized(self, rng):
        orders = [DEGLEX, LEX,
                  ok.MonomialOrder("deglex", (1, 0, 2)),
                  ok.MonomialOrder("lex", (2, 1, 0))]
        for order in orders:
            for _ in range(250):
                a, b, c = (tuple(rng.randint(0, 6) for _ in range(3))
                           for _ in range(3))
                cab = order.compare(a, b)
                # antisymmetry and totality
                assert cab == -order.compare(b, a)
                assert (cab == ok.EQUAL) == (a == b)
                # additivity: translation by c preserves the comparison
                ac = tuple(x + y for x, y in zip(a, c))
                bc = tuple(x + y for x, y in zip(b, c))
                assert order.compare(ac, bc) == cab
                # transitivity spot check
                cbc = order.compare(b, c)
                if cab <= 0 and cbc <= 0:
                    assert order.compare(a, c) <= 0


class TestValuation:
    def test_min_degree_slice_then_lex(self):
        assert ok.valuation({(2, 0), (1, 1), (0, 3)}, DEGLEX) == (1, 1)

    def test_singleton(self):
        assert ok.valuation({(3, 3)}, DEGLEX) == (3, 3)

    def test_order_dependence(self):
        assert ok.valuation({(0, 2), (1, 0)}, DEGLEX) == (1, 0)
        assert ok.valuation({(0, 2), (1, 0)}, LEX) == (0, 2)

    def test_empty_support(self):
        with pytest.raises(EmptySupport):
            ok.valuation(set(), DEGLEX)


class TestSeries:
    def test_toric_multiplicative(self):
        for P in (SIGMA, TRAP):
            assert ok.GradedMonomialSeries.toric(P, 4).check_multiplicativity()

    def test_restricted_series_multiplicative(self):
        series = ok.GradedMonomialSeries.toric(SIGMA, 8).filtered(
            lambda k, a: a[0] >= math.ceil(k / 2))
        assert series.check_multiplicativity()

    def test_json_roundtrip(self):
        s = ok.GradedMonomialSeries.toric(SIGMA, 2)
        t = ok.GradedMonomialSeries.from_json_dict(s.to_json_dict())
        assert t.degrees == s.degrees

    @pytest.mark.parametrize("d", [
        [[0, 1]], {"degree": {}}, {"degrees": [[0, 1]]},
        {"degrees": {"x": [[0, 1]]}}, {"degrees": {"1": [[0, None]]}},
        {"degrees": {"1": [[0, 0.5]]}}, {"degrees": {"1": [[0, "1"]]}},
    ], ids=["not-a-dict", "no-degrees", "degrees-not-a-dict", "degree-key",
            "exponent-null", "exponent-fraction", "exponent-string"])
    def test_malformed_json_is_degenerate_input(self, d):
        with pytest.raises(DegenerateInput):
            ok.GradedMonomialSeries.from_json_dict(d)


class TestBody:
    def test_toric_series_equals_polytope_at_every_level(self):
        for P in (SIGMA, SQUARE, TRAP):
            body = ok.okounkov_body(ok.GradedMonomialSeries.toric(P, 3))
            assert all(B == P for B in body.hull_at.values())
            assert body.limit == P

    def test_restricted_series_levels(self):
        series = ok.GradedMonomialSeries.toric(SIGMA, 8).filtered(
            lambda k, a: a[0] >= math.ceil(k / 2))
        body = ok.okounkov_body(series, DEGLEX)
        target = pt.hull([(F(1, 2), 0), (1, 0), (F(1, 2), F(1, 2))])
        assert body.hull_at[8] == target
        # Hausdorff distance at k = 8 within 1/8: here the hull is exact,
        # and odd levels approach from inside
        assert body.limit is None
        v8 = pt.volume(body.hull_at[8])
        assert abs(2 * v8 - 2 * pt.volume(target)) <= F(1, 10)

    def test_lower_dimensional_levels_hull_once(self, monkeypatch):
        segment = pt.Polytope.from_points([(0, 0), (2, 1)])
        series = ok.GradedMonomialSeries.toric(segment, 3)
        hulls = []
        real = pt.Polytope.from_points.__func__

        def counted(cls, *args):
            hulls.append(args)
            return real(cls, *args)

        monkeypatch.setattr(pt.Polytope, "from_points", classmethod(counted))
        body = ok.okounkov_body(series)
        # one hull of W_k per level, which hulls its span coordinates once more
        assert len(hulls) == 6
        assert body.limit == segment
        assert all(pt.relative_volume(B) == 1 for B in body.hull_at.values())

    def test_superadditive_chain(self):
        series = ok.GradedMonomialSeries.toric(TRAP, 4)
        body = ok.okounkov_body(series)
        for j, k in ((1, 1), (1, 2), (2, 2)):
            inner = body.hull_at[j]
            outer = body.hull_at[j + k]
            assert all(outer.contains(v) for v in inner.vertices)


class TestInfinitesimalMap:
    def test_simplex(self):
        img = ok.infinitesimal_map(SIGMA)
        assert img == pt.hull([(0, 0), (1, 1), (1, 0)])

    def test_point(self):
        P = pt.Polytope.from_points([(0, 0)], 2)
        assert ok.infinitesimal_map(P).vertices == ((F(0), F(0)),)

    def test_square(self):
        img = ok.infinitesimal_map(SQUARE)
        assert img == pt.hull([(0, 0), (2, 2), (4, 2), (2, 0)])

    def test_matches_pointwise_image_of_lattice(self):
        pts = pt.lattice_points(TRAP, 2)
        imgs = [(sum(a), a[0]) for a in pts]
        direct = pt.Polytope.from_points(imgs, 2)
        assert ok.infinitesimal_map(TRAP.scaled(2)) == direct


class TestVolumeIdentity:
    def test_simplex(self):
        body = ok.okounkov_body(ok.GradedMonomialSeries.toric(SIGMA, 3))
        verdict = ok.volume_identity_check(body, 1)
        assert verdict.exact_equal

    def test_trapezoid_against_growth_route(self):
        gc = gr.build_growth_condition(TRAP, (0, 0), [1])
        vol = gr.monge_ampere_volume(gc)
        body = ok.okounkov_body(ok.GradedMonomialSeries.toric(TRAP, 3))
        assert ok.volume_identity_check(body, vol).exact_equal
        assert vol == 4

    def test_restricted_gap_reported(self):
        series = ok.GradedMonomialSeries.toric(SIGMA, 8).filtered(
            lambda k, a: a[0] >= math.ceil(k / 2))
        body = ok.okounkov_body(series, DEGLEX)
        target_vol = 2 * pt.volume(
            pt.hull([(F(1, 2), 0), (1, 0), (F(1, 2), F(1, 2))]))
        verdict = ok.volume_identity_check(body, target_vol)
        assert verdict.exact_equal is None
        assert float(verdict.per_k_gap[8]) <= 0.1


class TestSeshadriFromBody:
    def test_values(self):
        for P, expected in ((SIGMA, 1), (TRAP, 1), (SQUARE, 2)):
            body = ok.okounkov_body(ok.GradedMonomialSeries.toric(P, 3))
            assert ok.seshadri_from_body(body.limit) == expected

    def test_matches_growth_route_under_flag_permutations(self):
        for P in (SIGMA, SQUARE, TRAP):
            gc = gr.build_growth_condition(P, tuple([0] * P.ambient_dim), [1])
            expected = gr.seshadri_constant(gc).lp_value
            n = P.ambient_dim
            for perm in permutations(range(n)):
                permuted = pt.Polytope.from_points(
                    [tuple(v[i] for i in perm) for v in P.vertices], n)
                body = ok.okounkov_body(
                    ok.GradedMonomialSeries.toric(permuted, 2),
                    ok.MonomialOrder("deglex", perm))
                assert ok.seshadri_from_body(body.limit) == expected


class TestChebyshev:
    def test_support_function_transform_vanishes(self):
        tr = ok.chebyshev_transform(cf.MaxAffineFunction.support_function(SIGMA))
        assert tr(( F(1, 3), F(1, 3))) == 0
        assert tr((F(1, 4), F(1, 2))) == 0
        assert tr.domain == SIGMA

    def test_fubini_study_entropy_value(self):
        tr = ok.chebyshev_transform(cf.SmoothToricPotential.fubini_study(3, dim=2))
        assert tr((1, 1)) == pytest.approx(-3 * math.log(3), abs=1e-12)

    def test_fubini_study_matches_grid_maximization(self):
        lam = 2
        u = cf.SmoothToricPotential.fubini_study(lam, dim=2)
        tr = ok.chebyshev_transform(u)
        for y in ((0.5, 0.5), (1.0, 0.4), (0.2, 1.1)):
            grid = grid_conjugate_2d(lambda x: u(x), y)
            assert tr(y) == pytest.approx(grid, abs=1e-4)

    def test_logsumexp_value_within_certificate(self):
        u2 = cf.logsumexp_from_polytope(SIGMA, 2)
        tr = ok.chebyshev_transform(u2)
        val = tr((F(1, 3), F(1, 3)))
        lo, hi = tr.certificate
        assert lo - 1e-12 <= val <= hi + 1e-12
        assert lo == pytest.approx(-math.log(6) / 2)
