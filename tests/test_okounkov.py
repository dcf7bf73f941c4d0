import math
from fractions import Fraction as F
from functools import partial
from itertools import permutations

import pytest

from growthlab import convexfn as cf
from growthlab import growth as gr
from growthlab import okounkov as ok
from growthlab import polytope as pt

from _oracles import grid_conjugate_2d, in_hull
from conftest import value_at

SIGMA = pt.standard_simplex(2)
SQUARE = pt.box([2, 2])
TRAP = pt.hull([(0, 0), (3, 0), (1, 1), (0, 1)])


def restricted_series():
    """The toric series of SIGMA up to degree 8 cut to a_0 >= k/2."""
    return ok.GradedMonomialSeries({k: ok.point_rows([a for a in pt.lattice_points(SIGMA, k)
                                                      if a[0] >= math.ceil(k / 2)])
                                    for k in range(1, 9)})


def points(W):
    """Every point of the rows W of a level."""
    return [head + (x,) for head, xs in W.items() for x in xs]


def member(a, W):
    return a[-1] in W.get(a[:-1], ())


def multiplicative(series):
    """W_j + W_k inside W_{j+k} for every stored degree pair."""
    W = series.rows
    return all(member(tuple(x + y for x, y in zip(a, b)), W[j + k])
               for j in W for k in W if j + k in W for a in points(W[j]) for b in points(W[k]))


class TestSeries:
    def test_toric_rows_are_ranges_of_the_scan(self):
        series = ok.GradedMonomialSeries.toric(TRAP, 2)
        assert series.rows[1] == {(0,): range(0, 2), (1,): range(0, 2),
                                  (2,): range(0, 1), (3,): range(0, 1)}
        assert sorted(points(series.rows[2])) == pt.lattice_points(TRAP, 2)

    def test_point_rows_group_by_head(self):
        assert ok.point_rows([(1, 5), (0, 2), (1, 3), (1, 5)]) == {(0,): (2,), (1,): (3, 5)}

    def test_toric_multiplicative(self):
        for P in (SIGMA, TRAP):
            assert multiplicative(ok.GradedMonomialSeries.toric(P, 4))

    def test_restricted_series_multiplicative(self):
        assert multiplicative(restricted_series())


@pytest.fixture()
def hulls(monkeypatch):
    """The argument tuples of every Polytope.from_points call from now on."""
    calls = []
    real = pt.Polytope.from_points.__func__

    def counted(cls, *args):
        calls.append(args)
        return real(cls, *args)

    monkeypatch.setattr(pt.Polytope, "from_points", classmethod(counted))
    return calls


def fresh_hull(series, k):
    """The hull of every point of W_k / k, not only of the row ends."""
    return pt.Polytope.from_points(points(series.rows[k]), series.dim).scaled(F(1, k))


class TestBody:
    def test_toric_series_equals_polytope_at_every_level(self):
        for P in (SIGMA, SQUARE, TRAP):
            body = ok.okounkov_body(ok.GradedMonomialSeries.toric(P, 3))
            assert all(B == P for B in body.hull_at.values())
            assert body.limit == P

    def test_restricted_series_levels(self):
        body = ok.okounkov_body(restricted_series())
        target = pt.hull([(F(1, 2), 0), (1, 0), (F(1, 2), F(1, 2))])
        assert body.hull_at[8] == target
        # Hausdorff distance at k = 8 within 1/8: here the hull is exact,
        # and odd levels approach from inside
        assert body.limit is None
        v8 = pt.volume(body.hull_at[8])
        assert abs(2 * v8 - 2 * pt.volume(target)) <= F(1, 10)

    def test_lower_dimensional_levels_hull_once(self, hulls):
        segment = pt.Polytope.from_points([(0, 0), (2, 1)])
        series = ok.GradedMonomialSeries.toric(segment, 3)
        hulls.clear()
        body = ok.okounkov_body(series)
        # one hull of W_k per level; its chart's P' is hulled inside that call
        assert len(hulls) == 3
        assert body.limit == segment
        assert all(pt.relative_volume(B) == 1 for B in body.hull_at.values())

    def test_lattice_polytope_hulls_no_level(self, hulls):
        for P in (SIGMA, TRAP, pt.box([1, 2, 3])):
            series = ok.GradedMonomialSeries.toric(P, 3)
            assert series.polytope is P
            hulls.clear()
            body = ok.okounkov_body(series)
            # conv(kP cap Z^n) = kP, so every level is a certified dilate of P
            assert len(hulls) == 0
            assert body.limit == P
            assert all(B == fresh_hull(series, k) for k, B in body.hull_at.items())

    def test_hand_built_series_hulls_its_first_full_dimensional_level(self, hulls):
        toric = ok.GradedMonomialSeries.toric(TRAP, 3)
        hulls.clear()
        # the same W_k, with the hull of level 1 as the candidate B: the only hull
        B = fresh_hull(toric, 1)
        series = ok.GradedMonomialSeries(toric.rows, polytope=B)
        body = ok.okounkov_body(series)
        assert len(hulls) == 1
        assert body.limit == TRAP
        assert all(b is B and B == fresh_hull(series, k) for k, b in body.hull_at.items())

    def test_superadditive_chain(self):
        series = ok.GradedMonomialSeries.toric(TRAP, 4)
        body = ok.okounkov_body(series)
        for j, k in ((1, 1), (1, 2), (2, 2)):
            inner = body.hull_at[j]
            outer = body.hull_at[j + k]
            assert all(in_hull(outer.vertices, v) for v in inner.vertices)


class TestCertifiedLevels:
    """A level of a series with a polytope B is B when kB's vertices lie in
    W_k (a) and W_k lies in kB (b), and is hulled otherwise; either way it is
    the hull of W_k / k.  Hand-built series pass B = [0,1]^2."""

    def test_every_level_is_the_hull_of_its_cloud(self, rng):
        from conftest import random_delzant
        for i in range(10):
            P = random_delzant(rng, 2 + i % 2)
            for c in (1, F(1, 2), F(2, 3), F(3, 2)):
                series = ok.GradedMonomialSeries.toric(P.scaled(c), {2: 4, 3: 3}[P.ambient_dim])
                body = ok.okounkov_body(series)
                assert sorted(body.hull_at) == sorted(series.rows)
                assert all(B == fresh_hull(series, k) for k, B in body.hull_at.items())

    def test_outer_inclusion_fails(self):
        # [0,3/2]^2: B = [0,1]^2, and 2B's vertices lie in W_2 = [0,3]^2 cap Z^2,
        # but (3, 0) breaks 2B's facet x <= 2
        series = ok.GradedMonomialSeries.toric(pt.box([F(3, 2)] * 2), 2)
        body = ok.okounkov_body(series)
        assert body.hull_at[1] == pt.box([1, 1])
        assert all(member(tuple(2 * x for x in v), series.rows[2])
                   for v in body.hull_at[1].vertices)
        assert body.hull_at[2] == pt.box([F(3, 2)] * 2)
        assert body.limit is None

    def test_non_integral_dilate_then_certified(self, hulls):
        # [0,1/2]^2: W_1 is the origin, B = P = [0,1/2]^2, 2B = [0,1]^2 and
        # 4B = [0,2]^2 are certified, and 3B has the vertex (3/2, 0)
        series = ok.GradedMonomialSeries.toric(pt.box([F(1, 2)] * 2), 4)
        hulls.clear()
        body = ok.okounkov_body(series)
        # the point at k = 1 (and its scaling), then k = 3
        assert len(hulls) == 3
        assert body.hull_at[1].is_point
        assert body.hull_at[2] == pt.box([F(1, 2)] * 2)
        assert body.hull_at[3] == pt.box([F(1, 3)] * 2)
        assert body.hull_at[4] is body.hull_at[2]

    def test_missing_vertex_of_the_dilate(self):
        # W_2 lies in 2B = [0,2]^2 but lacks its vertex (2, 2)
        square = [(x, y) for x in (0, 1) for y in (0, 1)]
        level2 = [(x, y) for x in range(3) for y in range(3) if (x, y) != (2, 2)]
        series = ok.GradedMonomialSeries({1: ok.point_rows(square), 2: ok.point_rows(level2)},
                                          pt.box([1, 1]))
        body = ok.okounkov_body(series)
        assert body.hull_at[1] == pt.box([1, 1])
        assert body.hull_at[2] == pt.hull([(0, 0), (1, 0), (0, 1), (1, F(1, 2)), (F(1, 2), 1)])
        assert body.limit is None

    def test_top_end_of_a_row_outside_the_dilate(self, hulls):
        # W_2 holds 2B = [0,2]^2's vertices, and its only point outside 2B is
        # (1, 3), the top end of the row x = 1: a check of the low ends alone
        # would certify it
        square = [(x, y) for x in (0, 1) for y in (0, 1)]
        level2 = [(x, y) for x in range(3) for y in range(3)] + [(1, 3)]
        series = ok.GradedMonomialSeries({1: ok.point_rows(square), 2: ok.point_rows(level2)},
                                          pt.box([1, 1]))
        assert series.rows[2][(1,)] == (0, 1, 2, 3)
        hulls.clear()
        body = ok.okounkov_body(series)
        assert len(hulls) == 1  # level 2 alone
        assert body.hull_at[1] == pt.box([1, 1])
        assert body.hull_at[2] == fresh_hull(series, 2) \
            == pt.hull([(0, 0), (1, 0), (0, 1), (1, 1), (F(1, 2), F(3, 2))])
        assert body.limit is None

    def test_bottom_end_of_a_row_outside_the_dilate(self, hulls):
        # W_2 holds 2B = [0,2]^2's vertices, and its only point outside 2B is
        # (1, -1), the bottom end of the row x = 1, which breaks y >= 0, a
        # facet with a_n < 0: a check of the top ends alone would certify it
        square = [(x, y) for x in (0, 1) for y in (0, 1)]
        level2 = [(x, y) for x in range(3) for y in range(3)] + [(1, -1)]
        series = ok.GradedMonomialSeries({1: ok.point_rows(square), 2: ok.point_rows(level2)},
                                          pt.box([1, 1]))
        assert series.rows[2][(1,)] == (-1, 0, 1, 2)
        hulls.clear()
        body = ok.okounkov_body(series)
        assert len(hulls) == 1  # level 2 alone
        assert body.hull_at[1] == pt.box([1, 1])
        assert body.hull_at[2] == fresh_hull(series, 2) \
            == pt.hull([(0, 0), (1, 0), (0, 1), (1, 1), (F(1, 2), F(-1, 2))])
        assert body.limit is None

    def test_whole_row_outside_the_dilate(self, hulls):
        # W_2 holds 2B = [0,2]^2's vertices, and the row x = 3 lies beyond
        # x <= 2, a facet with a_n = 0, at both of its ends
        square = [(x, y) for x in (0, 1) for y in (0, 1)]
        level2 = [(x, y) for x in range(3) for y in range(3)] + [(3, 1), (3, 2)]
        series = ok.GradedMonomialSeries({1: ok.point_rows(square), 2: ok.point_rows(level2)},
                                          pt.box([1, 1]))
        hulls.clear()
        body = ok.okounkov_body(series)
        assert len(hulls) == 1  # level 2 alone
        assert body.hull_at[1] == pt.box([1, 1])
        assert body.hull_at[2] == fresh_hull(series, 2) \
            == pt.hull([(0, 0), (1, 0), (0, 1), (F(3, 2), F(1, 2)), (F(3, 2), 1)])
        assert body.limit is None


class TestInfinitesimalMap:
    def test_simplex(self):
        img = ok.infinitesimal_map(SIGMA)
        assert img == pt.hull([(0, 0), (1, 1), (1, 0)])

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
        assert ok.volume_identity_check(body, 1) is True

    def test_trapezoid_against_growth_route(self):
        gc = gr.build_growth_condition(TRAP, (0, 0), [1])
        vol = gr.monge_ampere_volume(gc)
        body = ok.okounkov_body(ok.GradedMonomialSeries.toric(TRAP, 3))
        assert ok.volume_identity_check(body, vol) is True
        assert vol == 4

    def test_restricted_gap_reported(self):
        body = ok.okounkov_body(restricted_series())
        target_vol = 2 * pt.volume(
            pt.hull([(F(1, 2), 0), (1, 0), (F(1, 2), F(1, 2))]))
        assert ok.volume_identity_check(body, target_vol) is None
        assert float(abs(2 * pt.volume(body.hull_at[8]) - target_vol)) <= 0.1


class TestSeshadriFromBody:
    def test_values(self):
        for P, expected in ((SIGMA, 1), (TRAP, 1), (SQUARE, 2)):
            body = ok.okounkov_body(ok.GradedMonomialSeries.toric(P, 3))
            assert pt.simplex_inclusion(body.limit) == expected

    def test_matches_growth_route_under_flag_permutations(self):
        for P in (SIGMA, SQUARE, TRAP):
            gc = gr.build_growth_condition(P, tuple([0] * P.ambient_dim), [1])
            expected = gr.seshadri_constant(gc).lp_value
            n = P.ambient_dim
            for perm in permutations(range(n)):
                permuted = pt.Polytope.from_points(
                    [tuple(v[i] for i in perm) for v in P.vertices], n)
                body = ok.okounkov_body(ok.GradedMonomialSeries.toric(permuted, 2))
                assert pt.simplex_inclusion(body.limit) == expected


class TestChebyshev:
    def test_support_function_transform_vanishes(self):
        tr = ok.chebyshev_transform(cf.MaxAffineFunction.support_function(SIGMA))
        assert tr(( F(1, 3), F(1, 3))) == 0
        assert tr((F(1, 4), F(1, 2))) == 0
        assert tr.domain is SIGMA  # the polytope itself, with no new hull

    def test_fubini_study_entropy_value(self):
        tr = ok.chebyshev_transform(cf.SmoothToricPotential.fubini_study(3, dim=2))
        assert tr((1, 1)) == pytest.approx(-3 * math.log(3), abs=1e-12)

    def test_fubini_study_matches_grid_maximization(self):
        lam = 2
        u = cf.SmoothToricPotential.fubini_study(lam, dim=2)
        tr = ok.chebyshev_transform(u)
        for y in ((0.5, 0.5), (1.0, 0.4), (0.2, 1.1)):
            grid = grid_conjugate_2d(partial(value_at, u), y)
            assert tr(y) == pytest.approx(grid, abs=1e-4)

    def test_logsumexp_value_within_certificate(self):
        u2 = cf.logsumexp_from_polytope(SIGMA, 2)
        tr = ok.chebyshev_transform(u2)
        val = tr((F(1, 3), F(1, 3)))
        lo, hi = tr.certificate
        assert lo - 1e-12 <= val <= hi + 1e-12
        assert lo == pytest.approx(-math.log(6) / 2)
