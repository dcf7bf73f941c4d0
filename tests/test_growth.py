import math
import sys
from fractions import Fraction as F

import numpy as np
import pytest

from growthlab import convexfn as cf
from growthlab import growth as gr
from growthlab import polytope as pt
from growthlab.errors import NotDelzantVertex

from _oracles import (
    ball_samples,
    brute_force_lattice_points,
    chunked_softmax_gradients,
    support_value,
)
from conftest import same_function

SIGMA = pt.standard_simplex(2)
SQUARE = pt.box([2, 2])
TRAP = pt.hull([(0, 0), (3, 0), (1, 1), (0, 1)])


@pytest.fixture(scope="module")
def gc_sigma():
    return gr.build_growth_condition(SIGMA, (0, 0), [1, 2, 4])


@pytest.fixture(scope="module")
def gc_square():
    return gr.build_growth_condition(SQUARE, (0, 0), [1, 2, 4])


@pytest.fixture(scope="module")
def gc_trap():
    return gr.build_growth_condition(TRAP, (0, 0), [1, 2, 4])


class TestBuild:
    def test_simplex_certificates(self, gc_sigma):
        assert gc_sigma.c_max == 1
        expected = {1: math.log(3), 2: math.log(6) / 2, 4: math.log(15) / 4}
        assert gc_sigma.k_levels == (1, 2, 4)
        for k in gc_sigma.k_levels:
            u = cf.logsumexp_from_polytope(gc_sigma.polytope, k)
            cert = cf.sup_difference(u, gc_sigma.representative)
            assert cert.lower == 0
            assert float(cert.upper) == pytest.approx(expected[k])

    def test_square_normalized_from_far_vertex(self):
        gc = gr.build_growth_condition(SQUARE, (2, 2), [1])
        assert gc.polytope == SQUARE
        assert gc.c_max == 4

    def test_trapezoid_c_max(self, gc_trap):
        assert gc_trap.c_max == 3

    def test_non_delzant_rejected(self):
        bad = pt.hull([(0, 0), (2, 0), (0, 1)])
        with pytest.raises(NotDelzantVertex):
            gr.build_growth_condition(bad, (0, 0), [1])


class TestRecover:
    def test_exact_route(self, gc_sigma, gc_trap):
        for gc, P in ((gc_sigma, SIGMA), (gc_trap, TRAP)):
            assert pt.Polytope.from_points(gc.representative.slopes, 2) == P

    def test_float_route_square(self, gc_square):
        # every gradient lies in the polytope, so the covering radius of the
        # samples over its vertices bounds the Hausdorff distance of their hull
        u4 = cf.logsumexp_from_polytope(gc_square.polytope, 4)
        G = gr._sampled_gradients(u4, 10 ** 4, 2)
        assert G.min() >= -1e-12 and G.max() <= 2 + 1e-12
        V = np.array([[float(c) for c in v] for v in SQUARE.vertices])
        bound = np.sqrt(((V[:, None, :] - G[None, :, :]) ** 2).sum(axis=2)).min(axis=1).max()
        assert bound < 0.5
        documented = math.log(u4.lattice_count) / 4 * 2
        assert bound <= documented

    def test_too_few_samples_is_value_error(self, gc_square):
        u4 = cf.logsumexp_from_polytope(gc_square.polytope, 4)
        with pytest.raises(ValueError, match="samples"):
            gr.monge_ampere_volume_numeric(u4, samples=2)
        assert gr.monge_ampere_volume_numeric(u4, samples=3).samples == 3
        u1 = cf.logsumexp_from_polytope(pt.box([5]), 1)
        with pytest.raises(ValueError, match="samples"):
            gr.monge_ampere_volume_numeric(u1, samples=0)
        assert gr.monge_ampere_volume_numeric(u1, samples=1).value == 0


class TestGradientKernel:
    """grad_many's one scratch block against the chunked formula in fresh
    arrays: the same BLAS calls and elementwise steps, so the same bytes."""

    @pytest.mark.parametrize("sides", [[3], [1, 2], [1, 2, 2]])
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_bitwise_equal_to_chunked_formula(self, sides, k):
        n = len(sides)
        P = pt.box(sides)
        u = cf.logsumexp_from_polytope(P, k)
        A = brute_force_lattice_points(P.vertices, k)
        for samples in (n + 1, 19999, 20000, 20001, 45001):
            want = chunked_softmax_gradients(
                A, ball_samples(n, samples, 11, gr.SAMPLE_RADIUS), k)
            assert gr._sampled_gradients(u, samples, 11).tobytes() == want.tobytes()
            X = ball_samples(n, samples, 12, gr.SAMPLE_RADIUS)
            assert u.grad_many(X).tobytes() == chunked_softmax_gradients(A, X, k).tobytes()
        # the one row chebyshev's BFGS passes, x[None, :] of a float vector
        x = np.linspace(-0.75, 1.25, n)
        assert u.grad_many(x[None, :])[0].tobytes() == \
            chunked_softmax_gradients(A, x[None, :], k)[0].tobytes()

    def test_peak_memory_is_one_block_and_four_sample_arrays(self):
        import tracemalloc
        u = cf.logsumexp_from_polytope(pt.box([1, 2, 2]), 2)
        u._exp_arr  # the exponents are listed before tracing
        samples, N = 10 ** 5, u.lattice_count
        budget = 8 * (cf.GRADIENT_CHUNK * N + 4 * samples * u.dim)
        tracemalloc.start()
        try:
            gr._sampled_gradients(u, samples, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < budget

    def test_block_above_budget_refused_before_numpy(self, monkeypatch):
        u = cf.logsumexp_from_polytope(pt.box([2, 2, 2]), 40)
        monkeypatch.setitem(sys.modules, "numpy", None)  # any import fails
        with pytest.raises(ValueError, match=f"above the limit of {gr.MAX_GRADIENT_FLOATS}"):
            gr._sampled_gradients(u, 10 ** 5, 0)


class TestVolume:
    def test_exact_values(self, gc_sigma, gc_square, gc_trap):
        assert gr.monge_ampere_volume(gc_sigma) == 1
        assert gr.monge_ampere_volume(gc_square) == 8
        assert gr.monge_ampere_volume(gc_trap) == 4

    def test_one_dimensional_degree(self):
        gc = gr.build_growth_condition(pt.box([5]), (0,), [1, 2])
        assert gr.monge_ampere_volume(gc) == 5

    def test_monte_carlo_square(self, gc_square):
        mc = gr.monge_ampere_volume_numeric(cf.logsumexp_from_polytope(gc_square.polytope, 4),
                                            samples=2 * 10 ** 4, seed=1)
        assert mc.value == pytest.approx(8, rel=0.02)

    def test_vertex_invariance(self):
        vols = set()
        for v in TRAP.vertices:
            gc = gr.build_growth_condition(TRAP, v, [1])
            vols.add(gr.monge_ampere_volume(gc))
        assert vols == {F(4)}


class TestSeshadri:
    def test_two_routes_agree_exactly(self, gc_sigma, gc_square, gc_trap):
        for gc, expected in ((gc_sigma, 1), (gc_square, 2), (gc_trap, 1)):
            ses = gr.seshadri_constant(gc)
            assert ses.lp_value == expected
            assert ses.domination_value == ses.lp_value

    def test_upper_bound_gap(self, gc_sigma, gc_square, gc_trap):
        s1 = gr.seshadri_constant(gc_sigma)
        assert s1.upper_bound == pytest.approx(1.0)
        assert s1.slack == pytest.approx(0.0, abs=1e-12)
        s2 = gr.seshadri_constant(gc_square)
        assert s2.upper_bound == pytest.approx(math.sqrt(8))
        assert s2.slack > 0.8
        s3 = gr.seshadri_constant(gc_trap)
        assert s3.upper_bound == pytest.approx(2.0)
        assert s3.slack == pytest.approx(1.0)

    def test_two_routes_on_random_scrambled_delzant(self, rng):
        from conftest import random_normalized_delzant
        for _ in range(10):
            P = random_normalized_delzant(rng, rng.choice((2, 3)))
            gc = gr.build_growth_condition(P, tuple([0] * P.ambient_dim), [1])
            ses = gr.seshadri_constant(gc)
            assert ses.domination_value == ses.lp_value

    def test_bisection_matches_fraction_bisection(self, rng):
        # the integer bisection against the same bisection run in Fractions
        # over the oracle's facets and snapped by the scan oracle; at a
        # tolerance of c_max + 1 neither loop runs and the value snaps to 0
        from _oracles import brute_force_facets, scan_simplest_fraction
        from conftest import random_delzant
        for n in (2, 3, 2, 3, 2, 3):
            P = random_delzant(rng, n)
            for v in P.vertices:
                gc = gr.build_growth_condition(P, v, [1])
                facets = brute_force_facets(gc.polytope.vertices)

                def fits(lam):
                    return all(lam * a[i] <= b for a, b in facets for i in range(n))

                for tol in (F(1, 2 ** 48), F(1, 3), F(1), gc.c_max + 1):
                    lo, hi = F(0), gc.c_max + 1
                    while hi - lo > tol:
                        mid = (lo + hi) / 2
                        lo, hi = (mid, hi) if fits(mid) else (lo, mid)
                    snapped = scan_simplest_fraction(lo, hi)
                    ses = gr.seshadri_constant(gc, tol)
                    assert ses.bisection_interval == (lo, hi)
                    assert ses.domination_value == (snapped if fits(snapped) else lo)

    def test_constant_is_the_least_edge_length(self, rng):
        # what the integer snap relies on: at each vertex of a Delzant lattice
        # polytope the constant is an integer, the least lattice length of the
        # edges there (edges from the oracle's facets)
        from _oracles import brute_force_edges
        from conftest import random_delzant
        for n in (2, 3) * 4:
            P = random_delzant(rng, n)
            V = P.vertices
            edges = brute_force_edges(V)
            for i, v in enumerate(V):
                ses = gr.seshadri_constant(gr.build_growth_condition(P, v, [1]))
                assert ses.lp_value.denominator == 1
                assert ses.lp_value == min(math.gcd(*(int(a - b) for a, b in zip(V[j], V[k])))
                                           for j, k in edges if i in (j, k))

    def test_facet_predicate_matches_coordinate_predicate(self, rng):
        # one comparison per facet, D max(a) p <= c q, against the n
        # comparisons a_i p D <= c q, at 0, around the Seshadri constant
        # lam and above it
        from conftest import random_normalized_delzant
        for _ in range(12):
            P = random_normalized_delzant(rng, rng.choice((2, 3)))
            bounds = gr._simplex_bounds(P)
            lam = pt.simplex_inclusion(P)
            for t in (F(0), lam / 3, lam - F(1, 2 ** 48), lam, lam + F(1, 2 ** 48),
                      lam + F(1, 3), 2 * lam + 1):
                p, q = t.numerator, t.denominator
                assert gr._simplex_fits(bounds, p, q) == all(
                    a_i * p * P.denom <= c * q for a, c in P.int_facets for a_i in a)
                assert gr._simplex_fits(bounds, p, q) == (t <= lam)

    def test_fractional_inclusion_value_is_exact(self):
        # Delzant corpus values are integral (edge degrees); fractional
        # values still arise for scaled bodies and must stay exact
        P = pt.standard_simplex(2).scaled(F(3, 2))
        assert pt.simplex_inclusion(P) == F(3, 2)
        from _oracles import bisection_simplex_inclusion, in_hull
        oracle = bisection_simplex_inclusion(P, lambda Q, x: in_hull(Q.vertices, x), 3)
        assert abs(oracle - F(3, 2)) <= F(1, 2 ** 40)

    def test_monotone_under_inclusion(self, rng):
        from conftest import random_normalized_delzant
        pairs = 0
        while pairs < 20:
            Q = random_normalized_delzant(rng, rng.choice((2, 3)))
            k = rng.choice((2, 3))
            P_small, P_big = Q, Q.scaled(k)
            gc_small = gr.build_growth_condition(P_small, P_small.vertices[0], [1])
            gc_big = gr.build_growth_condition(P_big, P_big.vertices[0], [1])
            assert gr.seshadri_constant(gc_small).lp_value <= \
                gr.seshadri_constant(gc_big).lp_value
            assert gr.monge_ampere_volume(gc_small) <= \
                gr.monge_ampere_volume(gc_big)
            pairs += 1


def slice_hull(comps, n):
    """The hull of the vertices of every nonempty radial component."""
    return pt.Polytope.from_points(
        [v for c in comps.values() if c is not None for v in c.slopes], n)


class TestDecompose:
    def test_simplex_level_one(self, gc_sigma):
        comps = gr.decompose(gc_sigma)
        assert set(comps) == {0, 1}
        assert same_function(
            comps[F(1)], cf.MaxAffineFunction([(1, 0), (0, 1)]))

    def test_beyond_c_max_is_minus_infinity(self, gc_sigma):
        comps = gr.decompose(gc_sigma, [F(2)])
        assert comps[F(2)] is None

    def test_square_with_extra_levels(self, gc_square):
        comps = gr.decompose(gc_square, [F(0), F(2), F(4), F(1), F(3)])
        assert slice_hull(comps, 2) == gc_square.polytope

    def test_cube_hexagonal_slice_level(self):
        gc = gr.build_growth_condition(pt.box([2, 2, 2]), (0, 0, 0), [1])
        comps = gr.decompose(gc, [F(0), F(2), F(3), F(4), F(6)])
        hexagon = comps[F(3)]
        assert set(hexagon.slopes) == {(F(2), F(1), F(0)), (F(2), F(0), F(1)),
                          (F(1), F(2), F(0)), (F(0), F(2), F(1)),
                          (F(1), F(0), F(2)), (F(0), F(1), F(2))}
        assert slice_hull(comps, 3) == gc.polytope

    def test_sup_of_components_matches_pointwise(self, gc_trap, rng):
        comps = [c for c in gr.decompose(gc_trap).values() if c is not None]
        h = gc_trap.representative
        for _ in range(1000):
            x = tuple(F(rng.randint(-50, 50), rng.randint(1, 3))
                      for _ in range(2))
            assert max(support_value(c.slopes, x) for c in comps) == support_value(h.slopes, x)


def level_bounds(gc, k, m):
    """-ln N(m)/m <= u_k - u_m <= ln N(k)/k, through 0 <= u_j - h <= ln N(j)/j."""
    uk, um = (cf.logsumexp_from_polytope(gc.polytope, j) for j in (k, m))
    return -math.log(um.lattice_count) / m, math.log(uk.lattice_count) / k


class TestLevelEquivalence:
    def test_two_levels(self, gc_sigma):
        lower, upper = level_bounds(gc_sigma, 1, 2)
        assert upper == pytest.approx(math.log(3))
        assert lower == pytest.approx(-math.log(6) / 2)

    def test_versus_representative(self, gc_trap):
        u1 = cf.logsumexp_from_polytope(gc_trap.polytope, 1)
        cert = cf.sup_difference(u1, gc_trap.representative)
        assert cert.lower == 0
        assert float(cert.upper) == pytest.approx(math.log(6))

    def test_sampled_difference_within_certificate(self, gc_square):
        lower, upper = level_bounds(gc_square, 1, 4)
        u1, u4 = (cf.logsumexp_from_polytope(gc_square.polytope, k) for k in (1, 4))
        X = np.random.default_rng(0).uniform(-20, 20, (500, 2))
        diff = u1.value_many(X) - u4.value_many(X)
        assert diff.min() >= lower - 1e-10
        assert diff.max() <= upper + 1e-10


class TestReport:
    def test_report_fields(self, gc_square):
        rep = gr.growth_report(gc_square, name="square2")
        d = rep.to_json_dict()
        assert d["volume_MA"] == "8"
        assert d["seshadri"]["lp"] == "2"
        assert d["seshadri"]["domination"] == "2"
        assert d["c_max"] == "4"
        assert d["k_levels"] == [1, 2, 4]
