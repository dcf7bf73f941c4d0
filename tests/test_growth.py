import math
from fractions import Fraction as F

import numpy as np
import pytest

from growthlab import convexfn as cf
from growthlab import growth as gr
from growthlab import polytope as pt
from growthlab.errors import NotDelzantVertex, UnknownLevel

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
        for k, a in gc_sigma.approximants.items():
            assert a.certificate.lower == 0
            assert float(a.certificate.upper) == pytest.approx(expected[k])

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
        assert gr.recover_polytope(gc_sigma) == SIGMA
        assert gr.recover_polytope(gc_trap) == TRAP

    def test_float_route_square(self, gc_square):
        verts, bound = gr.recover_polytope_numeric(gc_square, 4,
                                                   samples=10 ** 4, seed=2)
        assert bound < 0.5
        documented = math.log(gc_square.approximant(4).lattice_count) / 4 * 2
        assert bound <= documented
        assert verts.shape[1] == 2


    def test_too_few_samples_is_value_error(self, gc_square):
        for numeric in (gr.recover_polytope_numeric, gr.monge_ampere_volume_numeric):
            with pytest.raises(ValueError, match="samples"):
                numeric(gc_square, 4, samples=2)
        verts, _ = gr.recover_polytope_numeric(gc_square, 4, samples=3)
        assert verts.shape == (3, 2)
        gc = gr.build_growth_condition(pt.box([5]), (0,), [1])
        with pytest.raises(ValueError, match="samples"):
            gr.monge_ampere_volume_numeric(gc, 1, samples=0)
        assert gr.monge_ampere_volume_numeric(gc, 1, samples=1).value == 0


class TestVolume:
    def test_exact_values(self, gc_sigma, gc_square, gc_trap):
        assert gr.monge_ampere_volume(gc_sigma) == 1
        assert gr.monge_ampere_volume(gc_square) == 8
        assert gr.monge_ampere_volume(gc_trap) == 4

    def test_one_dimensional_degree(self):
        gc = gr.build_growth_condition(pt.box([5]), (0,), [1, 2])
        assert gr.monge_ampere_volume(gc) == 5

    def test_monte_carlo_square(self, gc_square):
        mc = gr.monge_ampere_volume_numeric(gc_square, k=4, samples=2 * 10 ** 4,
                                            seed=1)
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
        # over Polytope.contains and snapped by the scan oracle; at a
        # tolerance of c_max + 1 neither loop runs and the value snaps to 0
        from _oracles import scan_simplest_fraction
        from conftest import random_delzant
        for n in (2, 3, 2, 3, 2, 3):
            P = random_delzant(rng, n)
            for v in P.vertices:
                gc = gr.build_growth_condition(P, v, [1])

                def fits(lam):
                    return all(gc.polytope.contains(tuple(lam * (j == i) for j in range(n)))
                               for i in range(n))

                for tol in (F(1, 2 ** 48), F(1, 3), F(1), gc.c_max + 1):
                    lo, hi = F(0), gc.c_max + 1
                    while hi - lo > tol:
                        mid = (lo + hi) / 2
                        lo, hi = (mid, hi) if fits(mid) else (lo, mid)
                    snapped = scan_simplest_fraction(lo, hi)
                    ses = gr.seshadri_constant(gc, tol)
                    assert ses.bisection_interval == (lo, hi)
                    assert ses.domination_value == (snapped if fits(snapped) else lo)

    def test_fractional_inclusion_value_is_exact(self):
        # Delzant corpus values are integral (edge degrees); fractional
        # values still arise for scaled bodies and must stay exact
        P = pt.standard_simplex(2).scaled(F(3, 2))
        assert pt.simplex_inclusion(P) == F(3, 2)
        from _oracles import bisection_simplex_inclusion
        oracle = bisection_simplex_inclusion(P, lambda Q, x: Q.contains(x), 3)
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


class TestDecompose:
    def test_simplex_level_one(self, gc_sigma):
        comps = gr.decompose(gc_sigma)
        assert set(comps) == {0, 1}
        assert comps[F(1)].same_function(
            cf.MaxAffineFunction([((1, 0), 0), ((0, 1), 0)]))

    def test_beyond_c_max_is_minus_infinity(self, gc_sigma):
        comps = gr.decompose(gc_sigma, [F(2)])
        assert comps[F(2)] is None

    def test_square_with_extra_levels(self, gc_square):
        comps = gr.decompose(gc_square, [F(0), F(2), F(4), F(1), F(3)])
        assert cf.reassemble(comps).same_function(gc_square.representative)

    def test_cube_hexagonal_slice_level(self):
        gc = gr.build_growth_condition(pt.box([2, 2, 2]), (0, 0, 0), [1])
        comps = gr.decompose(gc, [F(0), F(2), F(3), F(4), F(6)])
        hexagon = comps[F(3)]
        slopes = {p.slope for p in hexagon.pieces}
        assert slopes == {(F(2), F(1), F(0)), (F(2), F(0), F(1)),
                          (F(1), F(2), F(0)), (F(0), F(2), F(1)),
                          (F(1), F(0), F(2)), (F(0), F(1), F(2))}
        assert cf.reassemble(comps).same_function(gc.representative)

    def test_sup_of_components_matches_pointwise(self, gc_trap, rng):
        comps = gr.decompose(gc_trap)
        glued = cf.reassemble(comps)
        h = gc_trap.representative
        for _ in range(1000):
            x = tuple(F(rng.randint(-50, 50), rng.randint(1, 3))
                      for _ in range(2))
            assert glued(x) == h(x)


class TestLevelEquivalence:
    def test_two_levels(self, gc_sigma):
        cert = gr.level_equivalence_certificate(gc_sigma, 1, 2)
        assert float(cert.upper) == pytest.approx(math.log(3))
        assert float(cert.lower) == pytest.approx(-math.log(6) / 2)

    def test_same_level_zero(self, gc_sigma):
        cert = gr.level_equivalence_certificate(gc_sigma, 2, 2)
        assert cert.lower == 0 and cert.upper == 0

    def test_versus_representative(self, gc_trap):
        cert = gr.level_equivalence_certificate(gc_trap, 1)
        assert cert.lower == 0
        assert float(cert.upper) == pytest.approx(math.log(6))

    def test_unknown_level(self, gc_sigma):
        with pytest.raises(UnknownLevel):
            gr.level_equivalence_certificate(gc_sigma, 3)

    def test_sampled_difference_within_certificate(self, gc_square):
        cert = gr.level_equivalence_certificate(gc_square, 1, 4)
        u1 = gc_square.approximant(1).potential
        u4 = gc_square.approximant(4).potential
        X = np.random.default_rng(0).uniform(-20, 20, (500, 2))
        diff = u1.value_many(X) - u4.value_many(X)
        assert diff.min() >= float(cert.lower) - 1e-10
        assert diff.max() <= float(cert.upper) + 1e-10


class TestReport:
    def test_report_fields(self, gc_square):
        rep = gr.growth_report(gc_square, name="square2")
        d = rep.to_json_dict()
        assert d["volume_MA"] == "8"
        assert d["seshadri"]["lp"] == "2"
        assert d["seshadri"]["domination"] == "2"
        assert d["c_max"] == "4"
        assert d["k_levels"] == [1, 2, 4]
