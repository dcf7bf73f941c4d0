import math
import random
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from growthlab import convexfn as cf
from growthlab import okounkov as ok
from growthlab import polytope as pt
from growthlab import rationals
from growthlab.errors import (
    DegenerateInput,
    GrowthLabError,
    NotDelzantVertex,
    NotLatticePolytope,
    NotNormalized,
)
from growthlab.rationals import det, dot, inverse, null_vector, rank, solve, solve_general

from _oracles import (
    _cofactor_normal,
    _primitive,
    bisection_simplex_inclusion,
    brute_force_edges,
    brute_force_facets,
    brute_force_lattice_points,
    brute_force_slice,
    brute_force_vertices,
    ehrhart_volume_3d,
    greedy_affine_basis,
    kernel_relative_volume,
    laplace_det,
    minor_rank,
    pick_area,
)


def facet_list(P):
    """P's facets as (normal, offset) pairs, in P's order."""
    return [(f.normal, f.offset) for f in P.facets]


def facet_set(P):
    return set(facet_list(P))


def incidence(P):
    """Each vertex's facet indices; the stored table is keyed by the vertex
    numerators over P.denom."""
    return {v: P._incidence[X] for X, v in zip(P.int_vertices, P.vertices)}


def apply_by_hand(umap, x):
    """A (x - base) in Fraction arithmetic, apart from the package's maps."""
    diff = [F(a) - F(b) for a, b in zip(x, umap.base)]
    return tuple(sum(F(m) * d for m, d in zip(row, diff)) for row in umap.matrix)


SIGMA = pt.standard_simplex(2)
SQUARE = pt.box([2, 2])
TRAP = pt.hull([(0, 0), (3, 0), (1, 1), (0, 1)])


class TestHull:
    def test_standard_simplex_facets(self):
        assert facet_set(SIGMA) == {((-1, 0), F(0)), ((0, -1), F(0)),
                                    ((1, 1), F(1))}

    def test_interior_point_dropped(self):
        P = pt.hull([(0, 0), (2, 0), (0, 2), (2, 2), (1, 1)])
        assert P == SQUARE

    def test_random_rational_3d_matches_brute_force(self):
        rng = random.Random(7)
        for _ in range(6):
            pts = [tuple(F(rng.randint(-8, 8), rng.randint(1, 4))
                         for _ in range(3)) for _ in range(10)]
            try:
                P = pt.hull(pts)
            except DegenerateInput:
                continue
            oracle = {(a, b) for a, b in brute_force_facets(pts)}
            assert facet_set(P) == oracle

    def test_degenerate_input_raises(self):
        with pytest.raises(DegenerateInput):
            pt.hull([(0, 0), (1, 1), (2, 2)])

    def test_coplanar_lattice_clouds_match_brute_force(self):
        # highly coplanar lattice clouds, where the incremental path is most
        # at risk, against the independent facet enumerator
        clouds = [
            pt.lattice_points(pt.box([3, 3]), 1),
            pt.lattice_points(pt.standard_simplex(3).scaled(3), 1),
            [(x, y, (x + y) % 2) for x in range(3) for y in range(3)],
        ]
        for pts in clouds:
            P = pt.hull(pts)
            n = P.ambient_dim
            assert facet_set(P) == brute_force_facets(pts)
            for v in P.vertices:
                assert rank([f.normal for f in P.facets if dot(f.normal, v) == f.offset]) == n

    def test_certificate_rejects_unsigned_ridge_cycle(self):
        # ab, bc, ac on a line: every ridge lies in exactly two simplices,
        # but the signed ridge sums are 2, 0, -2
        pts = [(0, 0), (1, 0), (2, 0)]
        a, b = (0, -1), 0
        facets = [(frozenset(ids), a, b) for ids in ((0, 1), (1, 2), (0, 2))]
        with pytest.raises(GrowthLabError, match="oriented cycle"):
            pt._certify(pts, facets, pt._dedupe_halfspaces(facets, 1), 2)

    def test_certificate_rejects_missing_facet(self):
        pts = sorted(pt.lattice_points(pt.box([2, 2, 2]), 1))
        facets = pt._incremental_hull(pts, 3, pt._affine_basis(pts))
        halfspaces = pt._dedupe_halfspaces(facets, 1)
        verts, total = pt._certify(pts, facets, halfspaces, 3)
        assert len(verts) == 8 and total == math.factorial(3) * 8
        with pytest.raises(GrowthLabError, match="oriented cycle"):
            pt._certify(pts, facets[1:], halfspaces, 3)

    def test_certificate_rejects_double_cover(self):
        # every simplex twice: the ridge sums still vanish, but the cycle
        # covers the boundary twice and cone volumes would double
        pts = sorted(pt.lattice_points(pt.box([2, 2]), 1))
        facets = pt._incremental_hull(pts, 2, pt._affine_basis(pts))
        doubled = facets + facets
        with pytest.raises(GrowthLabError, match="more than once"):
            pt._certify(pts, doubled, pt._dedupe_halfspaces(doubled, 1), 2)

    def test_duplicated_and_fractional_points(self):
        P = pt.hull([(0, 0), (0, 0), (1, 0), (1, 0), (F(1, 3), F(1, 3)),
                     (0, 1), (F(1, 4), F(1, 2))])
        assert P == pt.standard_simplex(2)

    def test_stored_over_the_vertices_lowest_terms(self):
        # (1/4, 3/4) lies on the slanted edge: a lattice polytope, denom 1
        P = pt.hull([(0, 0), (1, 0), (0, 1), (F(1, 4), F(3, 4))])
        assert P.denom == 1 and P.int_vertices == ((0, 0), (0, 1), (1, 0))

    def test_roundtrip_and_duality(self, rng):
        for n in (2, 3):
            for _ in range(8):
                from conftest import random_delzant
                P = random_delzant(rng, n)
                assert pt.hull(P.vertices) == P
                # every vertex saturates >= n facets of full rank
                for v in P.vertices:
                    active = [f.normal for f in P.facets if dot(f.normal, v) == f.offset]
                    assert len(active) >= n and rank(active) == n
                # every facet is saturated by >= n vertices
                for f in P.facets:
                    sat = [v for v in P.vertices if dot(f.normal, v) == f.offset]
                    assert len(sat) >= n


class TestDelzant:
    def test_simplex_is_delzant(self):
        assert pt.is_delzant(SIGMA).ok

    def test_non_delzant_vertex_found(self):
        report = pt.is_delzant(pt.hull([(0, 0), (2, 0), (0, 1)]))
        assert not report.ok
        assert report.failing_vertices() == [(F(0), F(1))]
        entry = next(e for e in report.entries if not e.ok)
        assert abs(entry.determinant) == 2

    def test_trapezoid_delzant_all_dets_unimodular(self):
        report = pt.is_delzant(TRAP)
        assert report.ok
        assert all(abs(e.determinant) == 1 for e in report.entries)

    def test_lattice_required(self):
        with pytest.raises(NotLatticePolytope):
            pt.is_delzant(pt.hull([(0, 0), (F(1, 2), 0), (0, 1)]))

    def test_generators_match_per_vertex_edges(self, rng):
        # the generators P keeps against the primitive directions from each
        # vertex to its neighbours on the oracle's edges
        from conftest import random_delzant
        for P in [OCTAHEDRON, TRAP] + [random_delzant(rng, n) for n in (2, 3, 2, 3)]:
            V, edges = P.vertices, brute_force_edges(P.vertices)
            report = pt.is_delzant(P)
            for i, e in enumerate(report.entries):
                assert e.vertex == V[i]
                want = sorted(_primitive([y - x for x, y in zip(V[i], V[j])], 0)[0]
                              for pair in edges if i in pair for j in pair if j != i)
                assert list(e.generators) == want
        assert not pt.is_delzant(OCTAHEDRON).ok


def cross_polytope(n):
    return pt.hull([tuple(s * int(i == j) for j in range(n)) for i in range(n) for s in (1, -1)])


OCTAHEDRON = cross_polytope(3)
# Non-simple polytopes: more than n facets at some vertex.  In the join of
# two squares in R^5, the ends of a diagonal of either square lie on n - 1 =
# 4 common facets whose normals have rank 3, so they span no edge; only
# that pair needs the rank test, as both ends are on 6 facets.
NON_SIMPLE = {
    "octahedron": OCTAHEDRON,
    "square pyramid": pt.hull([(0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0), (1, 1, 2)]),
    "cross-polytope 4": cross_polytope(4),
    "triangular bipyramid": pt.hull([(0, 0, 0), (3, 0, 0), (0, 3, 0), (1, 1, 1), (1, 1, -1)]),
    "join of two squares": pt.hull([(x, y, 0, 0, 0) for x in (0, 1) for y in (0, 1)]
                                   + [(0, 0, x, y, 1) for x in (0, 1) for y in (0, 1)]),
}


class TestEdges:
    @pytest.mark.parametrize("name", sorted(NON_SIMPLE))
    def test_non_simple_match_brute_force(self, name):
        P = NON_SIMPLE[name]
        n = P.ambient_dim
        assert any(len(fs) > n for fs in P._incidence.values())
        assert set(P.edges()) == brute_force_edges(P.vertices)

    def test_join_diagonals_are_not_edges(self):
        P = NON_SIMPLE["join of two squares"]
        # 4 + 4 square edges and 16 edges between the squares
        assert len(P.edges()) == 24
        assert all(len(P._incidence[X]) == 6 for X in P.int_vertices)

    def test_delzant_match_brute_force(self, rng):
        from conftest import random_delzant
        for n in (2, 3, 2, 3, 3, 3):
            P = random_delzant(rng, n)
            assert all(len(fs) == n for fs in P._incidence.values())
            assert set(P.edges()) == brute_force_edges(P.vertices)


@st.composite
def point_runs(draw):
    """1 to 9 integer points in Z^n, n = 1..4: each after the first is new,
    a repeat of an earlier one, on the line through two earlier ones or on
    the plane through three."""
    n = draw(st.integers(1, 4))
    point = st.tuples(*[st.integers(-3, 3)] * n)
    pts = [draw(point)]
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["new", "repeat", "line", "plane"]))
        p, q, r = [draw(st.sampled_from(pts)) for _ in range(3)]
        s, t = draw(st.integers(-2, 3)), draw(st.integers(-2, 3))
        if kind == "new":
            pts.append(draw(point))
        elif kind == "repeat":
            pts.append(p)
        else:
            t = t if kind == "plane" else 0
            pts.append(tuple(a + s * (b - a) + t * (c - a) for a, b, c in zip(p, q, r)))
    return pts


class TestAffineBasis:
    @given(point_runs())
    def test_greedy_first_independent(self, pts):
        assert pt._affine_basis(pts) == greedy_affine_basis(pts)


class TestNormalize:
    def test_simplex_at_far_vertex(self):
        Q, umap = pt.normalize_at_vertex(SIGMA, (1, 0))
        assert Q == SIGMA
        assert apply_by_hand(umap, (1, 0)) == (F(0), F(0))

    def test_square_symmetry(self):
        Q, _ = pt.normalize_at_vertex(SQUARE, (2, 2))
        assert Q == SQUARE

    def test_identity_on_normalized(self):
        Q, umap = pt.normalize_at_vertex(SIGMA, (0, 0))
        assert Q == SIGMA
        assert umap.matrix == ((F(1), F(0)), (F(0), F(1)))

    def test_output_always_delzant_at_origin(self, rng):
        from conftest import random_delzant
        for n in (2, 3):
            for _ in range(6):
                P = random_delzant(rng, n)
                v = rng.choice(P.vertices)
                Q, umap = pt.normalize_at_vertex(P, v)
                zero = tuple(F(0) for _ in range(n))
                assert zero in Q.vertices
                gens = set(pt._edge_generators(Q)[Q.vertices.index(zero)])
                assert gens == {tuple(1 if j == i else 0 for j in range(n))
                                for i in range(n)}
                assert apply_by_hand(umap, v) == zero

    def test_non_vertex_rejected(self):
        # a fractional point, a lattice point that is no vertex, a vertex of
        # 2 SIGMA and a point of another dimension
        for v in ((F(1, 2), F(1, 2)), (1, 1), (2, 0), (0, 0, 0)):
            with pytest.raises(NotDelzantVertex, match="is not a vertex"):
                pt.normalize_at_vertex(SIGMA, v)

    def test_rational_vertex_found_by_numerators(self):
        P = pt.hull([(F(1, 2), F(1, 3)), (F(5, 2), F(1, 3)), (F(1, 2), F(7, 3))])
        Q, umap = pt.normalize_at_vertex(P, (F(5, 2), F(1, 3)))
        assert apply_by_hand(umap, (F(5, 2), F(1, 3))) == (0, 0)
        assert Q == SIGMA.scaled(2)

    def test_refusals(self):
        # n edges that are not unimodular: G has no integer inverse
        with pytest.raises(NotDelzantVertex, match=r"at \(.*\) are not unimodular"):
            pt.normalize_at_vertex(pt.hull([(0, 0), (1, 2), (2, 1)]), (0, 0))
        with pytest.raises(NotDelzantVertex, match="has 4 edges, expected 3"):
            pt.normalize_at_vertex(OCTAHEDRON, (1, 0, 0))


@st.composite
def rational_point_clouds(draw):
    """(points, k): n + 1 to n + 4 points in R^n, n = 1..4, with coordinates
    a/d for |a| <= 3 and one d in 1..3, and a dilation k that keeps the
    oracle's box small."""
    n = draw(st.integers(1, 4))
    d = draw(st.integers(1, 3))
    coord = st.integers(-3, 3).map(lambda a: F(a, d))
    pts = draw(st.lists(st.tuples(*[coord] * n), min_size=n + 1,
                        max_size=n + 4))
    k = draw(st.integers(1, {1: 5, 2: 3, 3: 2, 4: 1}[n]))
    return pts, k


@st.composite
def rational_clouds(draw, n):
    """(points, d): n + 1 to n + 5 points in R^n with coordinates a/d for
    |a| <= 3 and one d in 1..3, so d conv(points) is a lattice polytope."""
    d = draw(st.integers(1, 3))
    coord = st.integers(-3, 3).map(lambda a: F(a, d))
    return draw(st.lists(st.tuples(*[coord] * n), min_size=n + 1,
                         max_size=n + 5)), d


def shoelace(pts):
    """Area of the convex hull of plane points, from its sorted vertex cycle."""
    cycle = brute_force_vertices(pts)
    cx, cy = (float(sum(c) / len(cycle)) for c in zip(*cycle))
    cycle.sort(key=lambda v: math.atan2(v[1] - cy, v[0] - cx))
    return abs(sum(x0 * y1 - x1 * y0
                   for (x0, y0), (x1, y1) in zip(cycle, cycle[1:] + cycle[:1]))) / 2


class TestLatticePoints:
    @given(rational_point_clouds())
    def test_matches_brute_force_oracle(self, cloud):
        pts, k = cloud
        P = pt.Polytope.from_points(pts)
        assume(P.is_full_dim)
        assert pt.lattice_points(P, k) == brute_force_lattice_points(pts, k)

    @pytest.mark.parametrize("clouds", [
        st.just([(0, 0), (2, 1)]),
        st.just(pt.slice_vertices(pt.box([2, 2, 2]), (1, 1, 1), 3)),
        # the chart's tail k/2 is integral only at even k
        st.just([(0, F(1, 2)), (1, F(1, 2))]),
        # heads from the Hermite transform of its edges alone would put 3P'
        # in a box of about 3 * 10^8 points, against 2,860 for 3P
        st.just([(F(1, 2), 1, F(-5, 2), 2), (0, 1, 3, -1), (F(-5, 2), 1, 6, 2),
                 (-3, 1, F(-1, 2), 0)]),
        st.deferred(lambda: flat_clouds()),
        st.deferred(lambda: flat_clouds(st.builds(F, st.integers(-4, 4), st.integers(1, 3)))),
    ], ids=["segment", "hexagon", "half_line", "skew_tetrahedron", "flat_clouds",
            "small_flat_clouds"])
    @given(data=st.data())
    def test_lower_dimensional_matches_brute_force_oracle(self, clouds, data):
        pts = data.draw(clouds)
        P = pt.Polytope.from_points(pts)
        assert not P.is_full_dim
        for k in (1, 2, 3):
            box = math.prod(math.floor(k * max(c)) - math.ceil(k * min(c)) + 1
                            for c in zip(*P.vertices))
            if box <= 3000:  # the oracle tests every point of a projection of the box
                points = brute_force_lattice_points(pts, k)
                assert pt.lattice_points(P, k) == pt.lattice_points(P.scaled(k), 1) == points

    @given(st.integers(0, 10 ** 6), st.sampled_from([2, 3]),
           st.sampled_from([F(1, 2), F(2, 3), F(3, 2)]), st.integers(1, 4))
    def test_count_matches_brute_force_oracle(self, seed, n, c, k):
        from conftest import random_delzant
        P = random_delzant(random.Random(seed), n).scaled(c)
        assert pt.row_count(pt._rows(P, k)) == len(brute_force_lattice_points(P.vertices, k))

    @pytest.mark.parametrize("P", [
        pt.box([1, 2, 3]),
        pt.box([2, 2, 1]),
        pt.hull([(x, y, z) for x, y in [(0, 0), (3, 0), (1, 1), (0, 1)] for z in (0, 2)]),
        pt.hull([(x, y, z) for x, y in [(0, 0), (2, 0), (0, 2)] for z in (0, 1)]),
    ], ids=["box123", "box221", "trapezoid_prism", "simplex_prism"])
    def test_count_leading_ehrhart_coefficient_is_volume(self, P):
        counts = [pt.row_count(pt._rows(P, k)) for k in (1, 2, 3, 4)]
        assert ehrhart_volume_3d(*counts) == pt.volume(P)

    @pytest.mark.parametrize("n", [2, 3])
    @settings(max_examples=5)
    @given(seed=st.integers(0, 10 ** 6))
    def test_ehrhart_count_matches_brute_force_oracle(self, seed, n):
        # k <= n counts a scan, k > n reads the Ehrhart polynomial; the
        # oracle tests every point of the box of 7P, so that box stays small
        from conftest import random_delzant
        P = random_delzant(random.Random(seed), n)
        assume(math.prod(7 * (max(c) - min(c)) + 1 for c in zip(*P.vertices)) <= 3 * 10 ** 4)
        for k in range(1, 8):
            assert pt.lattice_count(P, k) == len(brute_force_lattice_points(P.vertices, k))

    def test_ehrhart_closed_forms(self):
        for a in (1, 2, 5):
            interval = pt.box([a])
            assert [pt.lattice_count(interval, k) for k in range(1, 9)] == \
                [1 + a * k for k in range(1, 9)]
        cube = pt.box([1] * 4)
        assert [pt.lattice_count(cube, k) for k in range(1, 12)] == \
            [(k + 1) ** 4 for k in range(1, 12)]
        assert cube._ehrhart == (1, 15, 50, 60, 24)

    def test_lattice_count_refuses_non_lattice_input(self):
        with pytest.raises(ValueError, match="positive"):
            pt.lattice_count(SQUARE, 0)
        with pytest.raises(ValueError, match="limit"):
            pt.lattice_count(pt.box([2, 2, 2]), 200)

    def test_ehrhart_volume_mismatch_is_refused(self, monkeypatch):
        monkeypatch.setattr(pt, "volume", lambda P: F(7))
        P = pt.box([1, 2])
        assert pt.lattice_count(P, 2) == 15
        with pytest.raises(GrowthLabError, match="Ehrhart"):
            pt.lattice_count(P, 3)

    def test_box_budget(self, monkeypatch):
        with pytest.raises(ValueError, match="limit"):
            pt.lattice_points(pt.box([2, 2, 2]), 200)
        monkeypatch.setattr(pt, "MAX_BOX_POINTS", 27)
        assert len(pt.lattice_points(pt.box([2, 2, 2]), 1)) == 27
        monkeypatch.setattr(pt, "MAX_BOX_POINTS", 26)
        with pytest.raises(ValueError, match="27 lattice points"):
            pt.lattice_points(pt.box([2, 2, 2]), 1)

    def test_series_budget_checked_before_enumeration(self, monkeypatch):
        from growthlab import growth as gr
        from growthlab import okounkov as ok

        def refuse(*args):
            raise AssertionError("enumerated before the budget check")

        # the boxes of kSQUARE hold 9 and 25 points: each fits, not both
        monkeypatch.setattr(pt, "MAX_BOX_POINTS", 30)
        assert len(pt.lattice_points(SQUARE, 2)) == 25
        with pytest.raises(ValueError, match="34 lattice points together"):
            pt.dilate_boxes(SQUARE, [1, 2])
        monkeypatch.setattr(pt, "lattice_points", refuse)
        monkeypatch.setattr(pt, "_scan_rows", refuse)
        with pytest.raises(ValueError, match="together"):
            ok.GradedMonomialSeries.toric(SQUARE, 2)
        with pytest.raises(ValueError, match="together"):
            gr.build_growth_condition(SQUARE, (0, 0), (1, 2))

    def test_simplex_dilate(self):
        assert len(pt.lattice_points(SIGMA, 2)) == 6

    def test_square_grid(self):
        assert len(pt.lattice_points(SQUARE, 1)) == 9

    def test_trapezoid_points_and_pick(self):
        pts = pt.lattice_points(TRAP, 1)
        assert pts == [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (3, 0)]
        interior = [p for p in pts
                    if all(dot(f.normal, p) < f.offset for f in TRAP.facets)]
        boundary = len(pts) - len(interior)
        assert pick_area(len(interior), boundary) == pt.volume(TRAP) == 2

    def test_pick_on_random_2d(self, rng):
        from conftest import random_delzant
        for _ in range(8):
            P = random_delzant(rng, 2)
            for k in (1, 2, 3):
                pts = pt.lattice_points(P, k)
                Pk = P.scaled(k)
                interior = sum(
                    1 for p in pts
                    if all(dot(f.normal, p) < f.offset for f in Pk.facets))
                assert pick_area(interior, len(pts) - interior) == pt.volume(Pk)


class TestVolume:
    def test_known_volumes(self):
        assert pt.volume(SIGMA) == F(1, 2)
        assert pt.volume(SQUARE) == 4
        assert pt.volume(TRAP) == 2

    def test_lower_dimensional_is_zero_flagged(self):
        seg = pt.Polytope.from_points(pt.slice_vertices(SIGMA, (1, 1), 1))
        assert not seg.is_full_dim
        assert pt.volume(seg) == 0
        assert pt.relative_volume(seg) == 1  # primitive lattice segment

    def test_slice_lattice_area_matches_pick_in_span(self):
        # hexagonal slice of the cube: lattice-normalized area equals a Pick
        # count over the induced affine lattice
        cube = pt.box([2, 2, 2])
        hexagon = pt.Polytope.from_points(pt.slice_vertices(cube, (1, 1, 1), 3))
        pts = [p for p in pt.lattice_points(cube, 1) if sum(p) == 3]
        boundary = [p for p in pts if any(c in (0, 2) for c in p)]
        interior = len(pts) - len(boundary)
        assert pt.relative_volume(hexagon) == pick_area(interior, len(boundary)) == 3

    def test_scaling_law(self, rng):
        from conftest import random_delzant
        for n in (2, 3):
            for _ in range(5):
                P = random_delzant(rng, n)
                base = pt.volume(P)
                for k in (1, 2, 3):
                    assert pt.volume(P.scaled(k)) == k ** n * base

    def test_normalize_keeps_volume(self, rng):
        from conftest import random_delzant
        for n in (2, 3):
            for _ in range(4):
                P = random_delzant(rng, n)
                for v in P.vertices:
                    assert pt.volume(pt.normalize_at_vertex(P, v)[0]) == pt.volume(P)


@st.composite
def mixed_denominator_clouds(draw, n, top):
    """n + 1 to n + 4 points in [0, top]^n whose coordinates a/q each draw
    their own denominator q in 1..3, so the points of one cone differ in
    denominator."""
    coord = st.integers(1, 3).flatmap(lambda q: st.integers(0, top * q).map(lambda a: F(a, q)))
    pts = draw(st.lists(st.tuples(*[coord] * n), min_size=n + 1, max_size=n + 4))
    assume(len({x.denominator for p in pts for x in p}) > 1)
    return pts


class TestVolumeProperties:
    @given(mixed_denominator_clouds(2, 3))
    def test_area_matches_shoelace(self, pts):
        P = pt.Polytope.from_points(pts)
        assume(P.is_full_dim)
        assert pt.volume(P) == shoelace(pts)

    @settings(max_examples=10)
    @given(mixed_denominator_clouds(3, 1))
    def test_volume_matches_ehrhart_of_lattice_dilate(self, pts):
        P = pt.Polytope.from_points(pts)
        assume(P.is_full_dim)
        D = math.lcm(*(x.denominator for p in pts for x in p))
        lattice = [tuple(D * x for x in p) for p in pts]
        counts = [len(brute_force_lattice_points(lattice, k)) for k in (1, 2, 3, 4)]
        assert pt.volume(P) == ehrhart_volume_3d(*counts) / D ** 3

    @given(rational_clouds(2))
    def test_area_matches_pick_on_lattice_dilate(self, cloud):
        pts, d = cloud
        P = pt.Polytope.from_points(pts)
        assume(P.is_full_dim)
        lattice = brute_force_lattice_points(pts, d)
        facets = brute_force_facets([tuple(d * x for x in p) for p in pts])
        interior = sum(all(a[0] * x + a[1] * y < b for a, b in facets)
                       for x, y in lattice)
        assert (pt.volume(P)
                == pick_area(interior, len(lattice) - interior) / d ** 2)

    @given(rational_clouds(1))
    def test_interval_length(self, cloud):
        pts, _ = cloud
        P = pt.Polytope.from_points(pts)
        assume(P.is_full_dim)
        assert pt.volume(P) == max(pts)[0] - min(pts)[0]

    @given(st.one_of(*[rational_clouds(n) for n in (1, 2, 3)]),
           st.builds(F, st.integers(1, 6), st.integers(1, 6)))
    def test_scaled_volume_matches_fresh_hull(self, cloud, c):
        P = pt.Polytope.from_points(cloud[0])
        assume(P.is_full_dim)
        n = P.ambient_dim
        fresh = pt.Polytope.from_points([tuple(c * x for x in v) for v in P.vertices])
        assert pt.volume(P.scaled(c)) == c ** n * pt.volume(P) == pt.volume(fresh)


class TestVolumeAvoidsHull:
    def test_volume_reads_the_certified_hull(self, monkeypatch):
        polys = [pt.box([2, 2, 2]), pt.hull(TRAP.vertices), pt.box([1, 1, 1, 1]),
                 pt.standard_simplex(4),
                 pt.Polytope.from_points(pt.slice_vertices(pt.box([2, 2, 2]), (1, 1, 1), 3)),
                 pt.box([2, 2, 2]).scaled(F(3, 2)), pt.normalize_at_vertex(TRAP, (0, 0))[0],
                 pt.hull([(0, 0), (1, 0), (0, 1), (F(1, 4), F(3, 4))])]

        def refuse(*args):
            raise AssertionError("volume re-hulled or ran an elimination")

        monkeypatch.setattr(pt.Polytope, "from_points", refuse)
        monkeypatch.setattr(rationals, "_bareiss", refuse)
        monkeypatch.setattr(pt, "_bareiss", refuse)
        for P, vol in zip(polys, (8, 2, 1, F(1, 24), 0, 27, 2, F(1, 2)), strict=True):
            assert pt.volume(P) == vol


class TestLowestTerms:
    @given(st.one_of(*[rational_clouds(n) for n in (1, 2, 3)]),
           st.builds(F, st.integers(1, 6), st.integers(1, 6)))
    def test_denom_is_the_vertex_lcm(self, cloud, c):
        P = pt.Polytope.from_points(cloud[0])
        assume(not P.is_empty)
        for S in (P, P.scaled(c)):
            assert S.denom == math.lcm(*(x.denominator for v in S.vertices for x in v))

    @pytest.mark.parametrize("points", [
        [(0, 0), (F(1, 2), F(1, 2)), (1, 1)],
        [(0, 0, 0), (F(1, 2), 0, 0), (1, 0, 0), (0, 1, 0)],
    ])
    def test_lower_dimensional_lattice_polytope_has_denom_one(self, points):
        # an input point with denominator 2 is no vertex: the lcm of the
        # input is not the vertices' least denominator
        P = pt.Polytope.from_points(points)
        assert not P.is_full_dim and P.denom == 1
        assert P.vertices == tuple(sorted(p for p in points if F(1, 2) not in p))
        H = P.scaled(F(1, 2))
        assert H.denom == 2
        for c, D in ((2, 1), (F(2, 3), 3), (F(1, 3), 6)):
            S = H.scaled(c)
            assert S.denom == D and S.vertices == tuple(
                tuple(c * x for x in v) for v in H.vertices)
            for k in (1, 2, 3):
                assert sorted(pt.lattice_points(S, k)) == \
                    brute_force_lattice_points(S.vertices, k)


class TestSimplexInclusion:
    def test_examples(self):
        assert pt.simplex_inclusion(SIGMA) == 1
        assert pt.simplex_inclusion(SQUARE) == 2
        assert pt.simplex_inclusion(TRAP) == 1

    def test_requires_normalized(self):
        shifted = pt.hull([(1, 1), (2, 1), (1, 2)])
        with pytest.raises(NotNormalized):
            pt.simplex_inclusion(shifted)

    def test_matches_bisection_oracle(self, rng):
        from conftest import random_normalized_delzant
        for n in (2, 3):
            for _ in range(5):
                P = random_normalized_delzant(rng, n)
                lam = pt.simplex_inclusion(P)
                facets = brute_force_facets(P.vertices)
                oracle = bisection_simplex_inclusion(
                    P, lambda _, x: all(sum(ai * xi for ai, xi in zip(a, x)) <= b
                                        for a, b in facets), hi=max(lam, 1) + 1)
                assert abs(lam - oracle) <= F(1, 2 ** 40)


class TestSlice:
    def test_simplex_diagonal(self):
        assert pt.slice_vertices(SIGMA, (1, 1), 1) == [(F(0), F(1)), (F(1), F(0))]

    def test_square_cut(self):
        assert pt.slice_vertices(SQUARE, (1, 1), 3) == [(F(1), F(2)), (F(2), F(1))]

    def test_empty_slice_is_a_value(self):
        assert pt.slice_vertices(SIGMA, (1, 1), 2) == []

    def test_builds_no_hull(self, monkeypatch):
        P = pt.box([2, 3, 1])

        def refuse(*args):
            raise AssertionError("slice_vertices hulled")

        monkeypatch.setattr(pt.Polytope, "from_points", refuse)
        assert len(pt.slice_vertices(P, (1, 1, 1), F(5, 2))) == 5  # a pentagon

    @given(st.integers(0, 10 ** 6), st.sampled_from([2, 3]),
           st.sampled_from([1, F(1, 2), F(3, 2)]), st.lists(st.integers(-2, 2), min_size=3,
                                                            max_size=3))
    def test_matches_brute_force_oracle(self, seed, n, c, normal):
        from conftest import random_delzant
        P = random_delzant(random.Random(seed), n).scaled(c)
        normal = tuple(normal[:n - 1]) + (normal[-1] or 1,)
        values = sorted({sum(a * x for a, x in zip(normal, v)) for v in P.vertices})
        # every vertex level, two off-vertex levels and one empty level
        levels = values + [(values[0] + values[1]) / 2, (values[-2] + values[-1]) / 2,
                           values[-1] + F(1, 3)]
        for value in levels:
            assert pt.slice_vertices(P, normal, value) == \
                brute_force_slice(P.vertices, normal, value)


class TestStrictInclusion:
    def test_examples(self):
        assert cf.slope_inclusion_witness(SIGMA.scaled(F(3, 2)), SQUARE)[0]
        assert not cf.slope_inclusion_witness(SIGMA, SIGMA)[0]
        assert not cf.slope_inclusion_witness(SIGMA.scaled(2), TRAP)[0]


class TestFourDimensional:
    def test_box_and_simplex(self):
        B4 = pt.box([1, 1, 1, 1])
        assert pt.volume(B4) == 1
        assert len(B4.facets) == 8 and len(B4.vertices) == 16
        S4 = pt.standard_simplex(4)
        assert pt.volume(S4) == F(1, 24)
        assert len(pt.lattice_points(S4, 2)) == 15
        assert pt.is_delzant(B4).ok and pt.is_delzant(S4).ok
        assert pt.simplex_inclusion(B4) == 1

    def test_hull_matches_brute_force(self):
        rng = random.Random(40)
        done = 0
        while done < 4:
            pts = [tuple(rng.randint(-3, 3) for _ in range(4))
                   for _ in range(7)]
            try:
                P = pt.hull(pts)
            except DegenerateInput:
                continue
            assert {(f.normal, f.offset)
                    for f in P.facets} == brute_force_facets(pts)
            done += 1

    def test_slice_of_box(self):
        vertices = pt.slice_vertices(pt.box([1, 1, 1, 1]), (1, 1, 1, 1), F(3, 2))
        assert pt.Polytope.from_points(vertices).dim == 3
        assert all(sum(v) == F(3, 2) for v in vertices)
        # the midpoints of the 12 edges from weight-1 to weight-2 vertices
        assert len(vertices) == 12 and all(sorted(v) == [0, F(1, 2), 1, 1] or
                                           sorted(v) == [0, 0, F(1, 2), 1] for v in vertices)


class TestSerialization:
    @pytest.mark.parametrize("d", [{"dim": 2}, {"vertices": [["0", "0"]]}, [],
                                   {"dim": 2.0, "vertices": [[0, 0], [1, 0], [0, 1]]},
                                   {"dim": 0, "vertices": [[0, 0]]}])
    def test_malformed_json_is_degenerate_input(self, d):
        with pytest.raises(DegenerateInput):
            pt.Polytope.from_json_dict(d)

    def test_roundtrip_sorted(self):
        d = SQUARE.to_json_dict()
        assert d["vertices"] == sorted(d["vertices"])
        assert pt.Polytope.from_json_dict(d) == SQUARE

    def test_rational_strings(self):
        P = pt.hull([(0, 0), (F(1, 2), 0), (0, F(1, 3))])
        d = P.to_json_dict()
        assert ["1/2", "0"] in d["vertices"]
        assert pt.Polytope.from_json_dict(d) == P

    @pytest.mark.parametrize("s, value", [("1e4299", F(10) ** 4299),
                                          ("-1E-4299", -F(1, 10 ** 4299)),
                                          (" +2.5e+3 ", F(2500)), ("7E0", F(7))])
    def test_rat_takes_exponents_up_to_the_bound(self, s, value):
        assert rationals.rat(s) == value
        assert rationals.rat_str(rationals.rat(s))

    @pytest.mark.parametrize("s", ["1e4300", "-1E-4300", "123e4299", "1.23456e-4299"])
    def test_rat_refuses_values_it_cannot_print(self, s):
        # a numerator or denominator of 4301 digits is past int's str limit
        with pytest.raises(ValueError, match="more than 4300 digits"):
            rationals.rat(s)

    @pytest.mark.parametrize("s", ["1e4301", "-1E-4301", "+2.5e+4_301", " 1E100000000 ",
                                   "1e-100000000", "-3e-1_000_000"])
    def test_rat_refuses_larger_exponents(self, s):
        # Fraction(s) would build 10**|exponent| first
        with pytest.raises(ValueError, match=r"exponent .* beyond \+-4300"):
            rationals.rat(s)


# Coordinates with mixed denominators: a/d for d in 1..6, and floats
# m / 2^52 converted exactly, whose denominators reach 2^52.
mixed_coord = st.one_of(
    st.builds(F, st.integers(-6, 6), st.integers(1, 6)),
    st.integers(-2 ** 53, 2 ** 53).map(lambda m: F(m / 2 ** 52)))


@st.composite
def mixed_clouds(draw):
    """n + 1 to n + 4 points in R^n, n = 2..4, with mixed_coord coordinates."""
    n = draw(st.integers(2, 4))
    return draw(st.lists(st.tuples(*[mixed_coord] * n), min_size=n + 1,
                         max_size=n + 4))


@st.composite
def flat_clouds(draw, coord=mixed_coord):
    """2 to 5 points p0 + sum t_j d_j in R^n, n = 2..4, on a flat of
    dimension 1..n-1 spanned by directions d_j, with coord coordinates."""
    n = draw(st.integers(2, 4))
    d = draw(st.integers(1, n - 1))
    p0 = draw(st.tuples(*[coord] * n))
    dirs = draw(st.lists(st.tuples(*[coord] * n), min_size=d, max_size=d))
    coef = st.builds(F, st.integers(-3, 3), st.integers(1, 3))
    ts = draw(st.lists(st.lists(coef, min_size=d, max_size=d), min_size=2, max_size=5))
    return [tuple(x + sum(t * e[i] for t, e in zip(row, dirs)) for i, x in enumerate(p0))
            for row in ts]


# Every elimination takes integer rows.
exact_entry = st.integers(-5, 5)


@st.composite
def matrices(draw, square):
    """1-4 rows of exact_entry; some are a product of two random factors so
    that the rank drops."""
    m = draw(st.integers(1, 4))
    n = m if square else draw(st.integers(1, 4))
    if draw(st.booleans()):
        r = draw(st.integers(1, min(m, n)))
        A = draw(st.lists(st.lists(exact_entry, min_size=r, max_size=r),
                          min_size=m, max_size=m))
        B = draw(st.lists(st.lists(exact_entry, min_size=n, max_size=n),
                          min_size=r, max_size=r))
        return [[sum(a * B[t][j] for t, a in enumerate(row)) for j in range(n)]
                for row in A]
    return draw(st.lists(st.lists(exact_entry, min_size=n, max_size=n),
                         min_size=m, max_size=m))


@st.composite
def unimodular_matrices(draw):
    """1-4 rows: a product of elementary integer matrices (row shears, row
    swaps and sign flips), so the determinant is +-1."""
    n = draw(st.integers(1, 4))
    M = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 6))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        kind = draw(st.sampled_from(["shear", "swap", "flip"]))
        if kind == "shear" and i != j:
            c = draw(st.integers(-3, 3))
            M[i] = [a + c * b for a, b in zip(M[i], M[j])]
        elif kind == "swap":
            M[i], M[j] = M[j], M[i]
        else:
            M[i] = [-a for a in M[i]]
    return M


def _times(A, x):
    return [sum(a * y for a, y in zip(row, x)) for row in A]


@st.composite
def systems(draw, square):
    """(A, b) with A from matrices() or zero, and b random, zero or A x."""
    A = draw(matrices(square))
    m, n = len(A), len(A[0])
    if draw(st.integers(0, 5)) == 0:
        A = [[0] * n for _ in range(m)]
    kind = draw(st.sampled_from(["random", "zero", "image"]))
    if kind == "random":
        b = draw(st.lists(exact_entry, min_size=m, max_size=m))
    elif kind == "zero":
        b = [0] * m
    else:
        b = _times(A, draw(st.lists(exact_entry, min_size=n, max_size=n)))
    return A, b


# Entries mostly 0, so that an elimination meets columns with no pivot,
# rows with 0 under the pivot and pivots equal to the one before.
sparse_entry = st.sampled_from([0] * 6 + [-1, 1, 2])


@st.composite
def sparse_matrices(draw, rows=None):
    """m x n sparse_entry matrices, m, n = 1..5; n x n, or n - 1 x n for
    n = 2..5, by rows = "square" or "corank1"."""
    n = draw(st.integers(2 if rows == "corank1" else 1, 5))
    m = {"square": n, "corank1": n - 1}.get(rows) or draw(st.integers(1, 5))
    return draw(st.lists(st.lists(sparse_entry, min_size=n, max_size=n),
                         min_size=m, max_size=m))


class TestSolvers:
    @given(sparse_matrices("square"))
    def test_sparse_det(self, A):
        assert det(A) == laplace_det(A)

    @given(sparse_matrices())
    def test_sparse_rank(self, A):
        assert rank(A) == minor_rank(A)

    @given(sparse_matrices("corank1"))
    def test_sparse_null_vector(self, rows):
        # +-the cofactor vector, or None when the rank is below n - 1
        a = null_vector(rows)
        oracle = _cofactor_normal([[0] * len(rows[0])] + rows)
        if oracle is None:
            assert a is None
        else:
            assert tuple(a) in (oracle[0], tuple(-x for x in oracle[0]))

    @given(systems(square=False))
    def test_solve_general_matches_ranks(self, system):
        A, b = system
        x = solve_general(A, b)
        augmented = [row + [c] for row, c in zip(A, b)]
        assert (x is None) == (minor_rank(augmented) > minor_rank(A))
        if x is None:
            return
        assert all(type(c) is F for c in x)
        assert _times(A, x) == b
        # an unknown is free iff its column adds no rank; free unknowns are 0
        for j in range(len(x)):
            if minor_rank([row[:j + 1] for row in A]) == minor_rank([row[:j] for row in A]):
                assert x[j] == 0

    @given(systems(square=True))
    def test_solve_square(self, system):
        A, b = system
        x = solve(A, b)
        assert (x is None) == (laplace_det(A) == 0)
        if x is not None:
            assert all(type(c) is F for c in x)
            assert _times(A, x) == b

    @given(unimodular_matrices(), st.sampled_from([0, 2, -3]))
    def test_inverse(self, A, c):
        inv = inverse(A)
        n = len(A)
        assert all(type(x) is int for row in inv for x in row)
        columns = [_times(inv, col) for col in zip(*A)]  # of inv . A
        assert columns == [[int(i == j) for i in range(n)] for j in range(n)]
        # a row scaled by c makes the determinant 0 or at least 2 in size
        with pytest.raises(ValueError):
            inverse([[c * x for x in A[0]]] + A[1:])


def span_volume(coords):
    return pt.volume(pt.Polytope.from_points(coords))


class TestRelativeVolume:
    @settings(max_examples=100)
    @given(flat_clouds(), st.sampled_from([F(3, 2), F(2)]) | st.integers(1, 5)
           .map(lambda k: F(1, k)))
    def test_matches_integer_kernel_route(self, pts, c):
        P = pt.Polytope.from_points(pts)
        Q = P.scaled(c)
        assert not P.is_full_dim
        assert pt.relative_volume(P) == kernel_relative_volume(P.vertices, span_volume)
        assert pt.relative_volume(Q) == kernel_relative_volume(Q.vertices, span_volume)
        assert pt.relative_volume(Q) == c ** P.dim * pt.relative_volume(P)


class TestIntegerKernel:
    @given(mixed_clouds())
    def test_hull_matches_brute_force(self, pts):
        P = pt.Polytope.from_points(pts)
        assume(P.is_full_dim)
        assert facet_set(P) == brute_force_facets(pts)
        assert list(P.vertices) == brute_force_vertices(pts)

    @given(mixed_clouds(), st.sampled_from([F(3, 2), F(2)]) | st.integers(1, 5)
           .map(lambda k: F(1, k)))
    def test_scaled_matches_rehull(self, pts, c):
        P = pt.Polytope.from_points(pts)
        assume(P.is_full_dim)
        Q = P.scaled(c)
        R = pt.Polytope.from_points([tuple(c * x for x in v) for v in P.vertices])
        assert Q.vertices == R.vertices
        assert facet_list(Q) == facet_list(R)
        assert pt.volume(Q) == pt.volume(R) == c ** P.ambient_dim * pt.volume(P)
        # the mapped incidence table holds the facets through each vertex
        assert incidence(Q) == {v: {i for i, f in enumerate(Q.facets) if dot(f.normal, v) == f.offset}
                                for v in Q.vertices}

    @given(flat_clouds(), st.sampled_from([F(3, 2), F(2)]) | st.integers(1, 5)
           .map(lambda k: F(1, k)))
    def test_lower_dimensional_scaled_matches_rehull_without_hull(self, pts, c):
        P = pt.Polytope.from_points(pts)
        assume(1 <= P.dim < P.ambient_dim)
        hulls = []
        real = pt.Polytope.from_points.__func__

        def counted(cls, *args):
            hulls.append(args)
            return real(cls, *args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pt.Polytope, "from_points", classmethod(counted))
            Q = P.scaled(c)
        assert hulls == []
        R = pt.Polytope.from_points([tuple(c * x for x in v) for v in P.vertices])
        assert Q.vertices == R.vertices
        assert Q.dim == R.dim == P.dim
        assert pt.relative_volume(Q) == pt.relative_volume(R)
        assert {frozenset(e) for e in Q.edges()} == {frozenset(e) for e in R.edges()}

    @given(matrices(square=True))
    def test_det_matches_laplace(self, A):
        assert det(A) == laplace_det(A)

    @given(matrices(square=False))
    def test_rank_matches_minors(self, A):
        assert rank(A) == minor_rank(A)


size = st.builds(F, st.integers(1, 4), st.integers(1, 3))


@st.composite
def delzant_embeddings(draw):
    """A box, simplex, Hirzebruch trapezoid or trapezoid prism with rational
    sizes, through a seeded unimodular map and a rational translation; every
    vertex has unimodular edge generators."""
    kind = draw(st.sampled_from(["box", "simplex", "trapezoid", "prism"]))
    if kind == "box":
        base = list(product(*[(0, a) for a in draw(st.lists(size, min_size=1, max_size=3))]))
    elif kind == "simplex":
        n, k = draw(st.integers(1, 3)), draw(size)
        base = [tuple(k * (j == i) for j in range(n)) for i in range(-1, n)]
    else:
        a, b, c = draw(size), draw(size), draw(st.integers(1, 2))
        base = [(0, 0), (a + c * b, 0), (a, b), (0, b)]
        if kind == "prism":
            h = draw(size)
            base = [p + (z,) for p in base for z in (0, h)]
    n = len(base[0])
    if n == 1:
        M = ((draw(st.sampled_from([1, -1])),),)
    else:
        from conftest import random_unimodular
        M = random_unimodular(random.Random(draw(st.integers(0, 10 ** 6))), n)
    t = draw(st.tuples(*[st.builds(F, st.integers(-3, 3), st.integers(1, 3))] * n))
    return pt.Polytope.from_points([tuple(sum(m * x for m, x in zip(row, p)) + s
                                          for row, s in zip(M, t)) for p in base])


def assert_same_certified(Q, R):
    """The mapped Q and the re-hull R agree on vertices, facets, incidence
    and the volume of their boundary complexes."""
    assert Q.vertices == R.vertices
    assert facet_list(Q) == facet_list(R)
    assert incidence(Q) == incidence(R)
    assert pt.volume(Q) == pt.volume(R)


class TestUnimodularImage:
    @given(delzant_embeddings())
    def test_normalize_matches_rehull_at_every_vertex(self, P):
        for v in P.vertices:
            Q, umap = pt.normalize_at_vertex(P, v)
            R = pt.Polytope.from_points([apply_by_hand(umap, p) for p in P.vertices])
            assert_same_certified(Q, R)
            assert pt.volume(Q) == pt.volume(P)

    @pytest.mark.parametrize("c", [F(1, 2), F(2, 3)])
    def test_normalize_rational_delzant_at_every_vertex(self, rng, c):
        # a Delzant polytope scaled by c and shifted off the lattice, so the
        # point map clears the base's denominators as well as the point's
        from conftest import random_delzant
        for n in (2, 3, 2, 3):
            shift = [F(rng.randint(-5, 5), rng.randint(2, 6)) for _ in range(n)]
            P = pt.Polytope.from_points([tuple(c * x + s for x, s in zip(v, shift))
                                         for v in random_delzant(rng, n).vertices])
            for v in P.vertices:
                Q, umap = pt.normalize_at_vertex(P, v)
                assert_same_certified(Q, pt.Polytope.from_points(
                    [apply_by_hand(umap, p) for p in P.vertices]))

    @given(mixed_clouds())
    def test_infinitesimal_map_matches_rehull(self, pts):
        P = pt.Polytope.from_points(pts)
        assume(P.is_full_dim)
        n = P.ambient_dim
        R = pt.Polytope.from_points([(sum(v),) + v[:n - 1] for v in P.vertices])
        assert_same_certified(ok.infinitesimal_map(P), R)

    def test_no_hull_on_full_dimensional_input(self, monkeypatch):
        shapes = [pt.box([3]), TRAP, pt.box([2, 1, F(1, 2)])]

        def refuse(cls, *args):
            raise AssertionError("re-hulled")

        monkeypatch.setattr(pt.Polytope, "from_points", classmethod(refuse))
        for P in shapes:
            for v in P.vertices:
                assert pt.normalize_at_vertex(P, v)[0].is_full_dim
            assert ok.infinitesimal_map(P).is_full_dim


coprime = st.tuples(st.integers(1, 7), st.integers(1, 7)).filter(
    lambda pq: math.gcd(*pq) == 1).map(lambda pq: F(*pq))


class TestChainedDenominators:
    """scaled, normalize_at_vertex and scaled again, composed: each stage's
    numerators over its own denominator match a fresh hull of the mapped
    Fraction vertices and the brute-force oracles."""

    @settings(max_examples=25)
    @given(delzant_embeddings(), coprime, coprime, st.data())
    def test_chain_matches_fresh_hulls_and_oracles(self, P0, c1, c2, data):
        n = P0.ambient_dim
        P1 = P0.scaled(c1)
        Q, umap = pt.normalize_at_vertex(P1, data.draw(st.sampled_from(P1.vertices)))
        Q2 = Q.scaled(c2)
        pts1 = [tuple(c1 * x for x in v) for v in P0.vertices]
        ptsq = [apply_by_hand(umap, p) for p in pts1]
        stages = [(P1, pts1), (Q, ptsq), (Q2, [tuple(c2 * x for x in p) for p in ptsq])]
        for S, pts in stages:
            R = pt.Polytope.from_points(pts)
            facets = brute_force_facets(pts)
            assert S.vertices == R.vertices
            assert list(S.vertices) == brute_force_vertices(pts)
            assert facet_list(S) == facet_list(R)
            if n > 1:  # the oracle's 1-d facets are primitive (normal, offset) pairs
                assert facet_set(S) == facets
            assert pt.volume(S) == pt.volume(R)
            if n == 2:
                assert pt.volume(S) == shoelace(pts)
            u, v = (data.draw(st.sampled_from(pts)) for _ in range(2))
            t = data.draw(st.builds(F, st.integers(-1, 5), st.integers(1, 4)))
            free = data.draw(st.tuples(*[st.builds(F, st.integers(-20, 40), st.integers(1, 7))] * n))
            for x in (u, tuple(a + t * (b - a) for a, b in zip(u, v)), free):
                assert all(dot(f.normal, x) <= f.offset for f in S.facets) == all(
                    sum(ai * xi for ai, xi in zip(a, x)) <= b for a, b in facets)
            box = math.prod(math.floor(max(c)) - math.ceil(min(c)) + 1 for c in zip(*pts))
            if box <= 3000:  # the oracle tests every point of the box
                assert pt.lattice_points(S) == pt.lattice_points(R) \
                    == brute_force_lattice_points(pts, 1)
        assert pt.volume(Q2) == (c1 * c2) ** n * pt.volume(P0)
        for S, pts in stages[1:]:
            facets = brute_force_facets(pts)
            lam = pt.simplex_inclusion(S)
            assert lam == pt.simplex_inclusion(pt.Polytope.from_points(pts))
            oracle = bisection_simplex_inclusion(
                S, lambda _, x: all(sum(ai * xi for ai, xi in zip(a, x)) <= b
                                    for a, b in facets), hi=max(lam, 1) + 1)
            assert abs(lam - oracle) <= F(1, 2 ** 40)
