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
from growthlab.errors import (
    DegenerateInput,
    GrowthLabError,
    NotDelzantVertex,
    NotLatticePolytope,
    NotNormalized,
)
from growthlab.rationals import (det, inverse, rank, simplest_fraction_in, solve,
                                 solve_general)

from _oracles import (
    bisection_simplex_inclusion,
    brute_force_facets,
    brute_force_lattice_points,
    brute_force_vertices,
    ehrhart_volume_3d,
    in_hull,
    kernel_relative_volume,
    laplace_det,
    minor_rank,
    pick_area,
    scan_simplest_fraction,
)


def facet_set(P):
    return {(f.normal, f.offset) for f in P.facets}


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
                assert rank([f.normal for f in P.active_facets(v)]) == n

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
        facets = pt._incremental_hull(pts, 3)
        halfspaces = pt._dedupe_halfspaces(facets, 1)
        assert len(pt._certify(pts, facets, halfspaces, 3)) == 8
        with pytest.raises(GrowthLabError, match="oriented cycle"):
            pt._certify(pts, facets[1:], halfspaces, 3)

    def test_certificate_rejects_double_cover(self):
        # every simplex twice: the ridge sums still vanish, but the cycle
        # covers the boundary twice and cone volumes would double
        pts = sorted(pt.lattice_points(pt.box([2, 2]), 1))
        facets = pt._incremental_hull(pts, 2)
        doubled = facets + facets
        with pytest.raises(GrowthLabError, match="more than once"):
            pt._certify(pts, doubled, pt._dedupe_halfspaces(doubled, 1), 2)

    def test_duplicated_and_fractional_points(self):
        P = pt.hull([(0, 0), (0, 0), (1, 0), (1, 0), (F(1, 3), F(1, 3)),
                     (0, 1), (F(1, 4), F(1, 2))])
        assert P == pt.standard_simplex(2)

    def test_roundtrip_and_duality(self, rng):
        for n in (2, 3):
            for _ in range(8):
                from conftest import random_delzant
                P = random_delzant(rng, n)
                assert pt.hull(P.vertices) == P
                # every vertex saturates >= n facets of full rank
                for v in P.vertices:
                    active = [f.normal for f in P.active_facets(v)]
                    assert len(active) >= n and rank(active) == n
                # every facet is saturated by >= n vertices
                for f in P.facets:
                    sat = [v for v in P.vertices if f.value(v) == f.offset]
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


class TestNormalize:
    def test_simplex_at_far_vertex(self):
        Q, umap = pt.normalize_at_vertex(SIGMA, (1, 0))
        assert Q == SIGMA
        assert umap.apply((1, 0)) == (F(0), F(0))

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
                gens = set(pt._edge_generators(Q, zero))
                assert gens == {tuple(1 if j == i else 0 for j in range(n))
                                for i in range(n)}
                assert umap.apply(v) == zero

    def test_non_vertex_rejected(self):
        with pytest.raises(NotDelzantVertex):
            pt.normalize_at_vertex(SIGMA, (F(1, 2), F(1, 2)))


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


def cone_volume(s):
    """Volume of a 1- or 2-simplex, by its own length or cross product."""
    rows = [[x - y for x, y in zip(p, s[0])] for p in s[1:]]
    if len(rows) == 1:
        return abs(rows[0][0])
    (a, b), (c, e) = rows
    return abs(a * e - b * c) / 2


class TestLatticePoints:
    @given(rational_point_clouds())
    def test_matches_brute_force_oracle(self, cloud):
        pts, k = cloud
        P = pt.Polytope.from_points(pts)
        assume(P.is_full_dim)
        assert pt.lattice_points(P, k) == brute_force_lattice_points(pts, k)

    @pytest.mark.parametrize("P", [
        pt.Polytope.from_points([(0, 0), (2, 1)]),
        pt.sum_slice(pt.box([2, 2, 2]), 3),
    ], ids=["segment", "hexagon"])
    def test_lower_dimensional_matches_brute_force_oracle(self, P):
        assert not P.is_full_dim
        for k in (1, 2, 3):
            assert (pt.lattice_points(P, k)
                    == brute_force_lattice_points(P.vertices, k))

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
                    if all(f.value(p) < f.offset for f in TRAP.facets)]
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
                    if all(f.value(p) < f.offset for f in Pk.facets))
                assert pick_area(interior, len(pts) - interior) == pt.volume(Pk)


class TestVolume:
    def test_known_volumes(self):
        assert pt.volume(SIGMA) == F(1, 2)
        assert pt.volume(SQUARE) == 4
        assert pt.volume(TRAP) == 2

    def test_lower_dimensional_is_zero_flagged(self):
        seg = pt.sum_slice(SIGMA, 1)
        assert not seg.is_full_dim
        assert pt.volume(seg) == 0
        assert pt.relative_volume(seg) == 1  # primitive lattice segment

    def test_slice_lattice_area_matches_pick_in_span(self):
        # hexagonal slice of the cube: lattice-normalized area equals a Pick
        # count over the induced affine lattice
        cube = pt.box([2, 2, 2])
        hexagon = pt.sum_slice(cube, 3)
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
        cycle = brute_force_vertices(pts)
        cx, cy = (float(sum(c) / len(cycle)) for c in zip(*cycle))
        cycle.sort(key=lambda v: math.atan2(v[1] - cy, v[0] - cx))
        twice = sum(x0 * y1 - x1 * y0
                    for (x0, y0), (x1, y1) in zip(cycle, cycle[1:] + cycle[:1]))
        assert pt.volume(P) == abs(twice) / 2

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

    @given(st.one_of(rational_clouds(1), rational_clouds(2)))
    def test_cones_are_full_dimensional_and_sum_to_volume(self, cloud):
        pts, _ = cloud
        P = pt.Polytope.from_points(pts)
        assume(P.is_full_dim)
        vols = [cone_volume(s) for s in pt.triangulate(P)]
        assert vols and all(v > 0 for v in vols)
        assert sum(vols) == pt.volume(P)
        if P.ambient_dim == 1:
            assert pt.volume(P) == max(pts)[0] - min(pts)[0]


class TestVolumeAvoidsHull:
    def test_volume_and_triangulate_read_the_certified_complex(self, monkeypatch):
        polys = [pt.box([2, 2, 2]), pt.hull(TRAP.vertices), pt.box([1, 1, 1, 1]),
                 pt.standard_simplex(4), pt.sum_slice(pt.box([2, 2, 2]), 3)]

        def refuse(*args):
            raise AssertionError("volume or triangulate re-hulled")

        monkeypatch.setattr(pt.Polytope, "from_points", refuse)
        for P, vol in zip(polys, (8, 2, 1, F(1, 24), 0)):
            assert pt.volume(P) == vol
            assert pt.triangulate(P)


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
                oracle = bisection_simplex_inclusion(
                    P, lambda Q, x: Q.contains(x), hi=max(lam, 1) + 1)
                assert abs(lam - oracle) <= F(1, 2 ** 40)


class TestSlice:
    def test_simplex_diagonal(self):
        s = pt.sum_slice(SIGMA, 1)
        assert s.vertices == ((F(0), F(1)), (F(1), F(0)))

    def test_square_cut(self):
        s = pt.sum_slice(SQUARE, 3)
        assert s.vertices == ((F(1), F(2)), (F(2), F(1)))

    def test_empty_slice_is_a_value(self):
        s = pt.sum_slice(SIGMA, 2)
        assert s.is_empty and not s.contains((0, 0))

    def test_general_cut_of_lower_dimensional(self):
        seg = pt.sum_slice(SQUARE, 3)             # segment (1,2)-(2,1)
        point = pt.cut(seg, (1, 0), F(3, 2))      # x = 3/2 on that segment
        assert point.is_point and point.vertices == ((F(3, 2), F(3, 2)),)

    def test_lower_dimensional_contains_off_span(self):
        seg = pt.Polytope.from_points([(0, 0), (2, 1)])
        assert seg.contains((1, F(1, 2)))
        assert not seg.contains((0, 1))
        assert not seg.contains((4, 2))


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
        sl = pt.sum_slice(pt.box([1, 1, 1, 1]), F(3, 2))
        assert sl.dim == 3 and not sl.is_full_dim
        assert all(sum(v) == F(3, 2) for v in sl.vertices)


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
def flat_clouds(draw):
    """2 to 5 points p0 + sum t_j d_j in R^n, n = 2..4, on a flat of
    dimension 1..n-1 spanned by mixed_coord directions d_j."""
    n = draw(st.integers(2, 4))
    d = draw(st.integers(1, n - 1))
    p0 = draw(st.tuples(*[mixed_coord] * n))
    dirs = draw(st.lists(st.tuples(*[mixed_coord] * n), min_size=d, max_size=d))
    coef = st.builds(F, st.integers(-3, 3), st.integers(1, 3))
    ts = draw(st.lists(st.lists(coef, min_size=d, max_size=d), min_size=2, max_size=5))
    return [tuple(x + sum(t * e[i] for t, e in zip(row, dirs)) for i, x in enumerate(p0))
            for row in ts]


exact_entry = st.one_of(st.integers(-5, 5), st.builds(F, st.integers(-5, 5),
                                                      st.integers(1, 4)))


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


class TestSolvers:
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

    @given(matrices(square=True))
    def test_inverse(self, A):
        inv = inverse(A)
        assert (inv is None) == (laplace_det(A) == 0)
        if inv is not None:
            n = len(A)
            columns = [_times(inv, col) for col in zip(*A)]  # of inv . A
            assert columns == [[int(i == j) for i in range(n)] for j in range(n)]


class TestSimplestFraction:
    @given(st.one_of(
        st.tuples(*[st.builds(F, st.integers(-60, 60), st.integers(1, 12))] * 2),
        st.builds(lambda x, a, b: (x - F(1, 2 ** a), x + F(1, 2 ** b)),
                  st.builds(F, st.integers(-60, 60), st.integers(1, 12)),
                  st.integers(8, 48), st.integers(8, 48))))
    def test_matches_denominator_scan(self, ends):
        # narrow intervals around a/b, as bisection leaves them, walk the
        # continued-fraction descent
        lo, hi = sorted(ends)
        assert simplest_fraction_in(lo, hi) == scan_simplest_fraction(lo, hi)


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
        assert Q.facets == R.facets
        assert pt.volume(Q) == pt.volume(R) == c ** P.ambient_dim * pt.volume(P)
        assert all(Q.active_facets(v) == R.active_facets(v) for v in Q.vertices)

    @given(flat_clouds(), st.sampled_from([F(3, 2), F(2)]) | st.integers(1, 5)
           .map(lambda k: F(1, k)), st.data())
    def test_lower_dimensional_scaled_matches_rehull_without_hull(self, pts, c, data):
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
        u, v = (data.draw(st.sampled_from(R.vertices)) for _ in range(2))
        t = data.draw(st.builds(F, st.integers(-2, 6), st.integers(1, 4)))
        on_line = tuple(a + t * (b - a) for a, b in zip(u, v))
        free = data.draw(st.tuples(*[mixed_coord] * P.ambient_dim))
        for x in (u, on_line, free):
            assert Q.contains(x) == R.contains(x)

    @given(mixed_clouds(), st.data())
    def test_contains_matches_oracle(self, pts, data):
        P = pt.Polytope.from_points(pts)
        assume(P.is_full_dim)
        n = P.ambient_dim
        u, v = (data.draw(st.sampled_from(P.vertices)) for _ in range(2))
        t = data.draw(st.builds(F, st.integers(0, 4), st.integers(1, 4)))
        on_chord = tuple(a + t * (b - a) for a, b in zip(u, v))
        free = data.draw(st.tuples(*[mixed_coord] * n))
        for x in (u, on_chord, free):
            assert P.contains(x) == in_hull(pts, x)

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
            base = [p + (z,) for p in base for z in (0, draw(size))]
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
    assert Q.facets == R.facets
    assert Q._incidence == R._incidence
    assert pt.volume(Q) == pt.volume(R)


class TestUnimodularImage:
    @given(delzant_embeddings())
    def test_normalize_matches_rehull_at_every_vertex(self, P):
        for v in P.vertices:
            Q, umap = pt.normalize_at_vertex(P, v)
            R = pt.Polytope.from_points([umap.apply(p) for p in P.vertices])
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
            probes = [tuple(F(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(n))
                      for _ in range(4)]
            for v in P.vertices:
                Q, umap = pt.normalize_at_vertex(P, v)
                assert_same_certified(Q, pt.Polytope.from_points(
                    [umap.apply(p) for p in P.vertices]))
                for p in P.vertices + tuple(probes):
                    diff = [F(x) - F(b) for x, b in zip(p, umap.base)]
                    assert umap.apply(p) == tuple(sum(F(a) * y for a, y in zip(row, diff))
                                                  for row in umap.matrix)

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
