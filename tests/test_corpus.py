"""corpus_rows shares one exact computation per normalized polytope; the rows
must equal one full growth/Seshadri/Okounkov chain per (polytope, vertex)."""

import json
import random
from fractions import Fraction as F
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from growthlab import corpus
from growthlab import growth as gr
from growthlab import okounkov as ok
from growthlab import polytope as pt
from growthlab.errors import GrowthLabError

from conftest import random_delzant, random_unimodular


def reference_rows(entries, k_levels, k_max_body=3):
    """Every row on its own: build_growth_condition, then the volume,
    Seshadri and Okounkov chain, with no sharing between rows."""
    rows = []
    for name, P in entries:
        for v in P.vertices:
            try:
                gc = gr.build_growth_condition(P, v, k_levels)
                vol = gr.monge_ampere_volume(gc)
                ses = gr.seshadri_constant(gc)
                body = ok.okounkov_body(ok.GradedMonomialSeries.toric(gc.polytope, k_max_body))
                rows.append(corpus.CorpusRow(
                    name, v, gc.dim, vol, ses.lp_value, ses.domination_value,
                    bool(ok.volume_identity_check(body, vol)), ses.lp_value, ses.upper_bound,
                    ses.upper_bound - float(ses.lp_value)))
            except GrowthLabError as e:
                rows.append(corpus.CorpusRow(
                    name, v, P.ambient_dim, None, None, None, None, None, None, None,
                    error=f"{type(e).__name__}: {e}"))
    return rows


def fields(rows):
    """Each row's fields by name: rows compare field by field."""
    return [vars(r) for r in rows]


def _embedded(points, seed, shift):
    rng = random.Random(seed)
    M = random_unimodular(rng, len(points[0]))
    return [[str(sum(a * x for a, x in zip(row, p)) + t) for row, t in zip(M, shift)]
            for p in points]


@st.composite
def moved_delzant_entries(draw):
    """One or two random_delzant shapes in 2-d or 3-d, each next to its
    image under a random unimodular map and integer translation: the copies
    share every normalized polytope, and a symmetric shape shares one
    between its own vertices."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    entries = []
    for i in range(draw(st.integers(1, 2))):
        n = draw(st.sampled_from((2, 3)))
        P = random_delzant(rng, n)
        M = random_unimodular(rng, n)
        t = [rng.randint(-3, 3) for _ in range(n)]
        moved = pt.hull([tuple(sum(a * x for a, x in zip(row, v)) + s for row, s in zip(M, t))
                         for v in P.vertices])
        entries += [(f"shape{i}", P), (f"shape{i}_moved", moved)]
    return entries


def with_point_on_slanted_edge(P):
    """P hulled again with a point a quarter of a primitive step along one of
    its edges that is not axis-parallel: the same lattice polytope, hulled
    from points over denom 4 and stored over its vertices' denom 1.  None
    if every edge of P is axis-parallel."""
    for i, j in P.edges():
        X, Y = P.vertices[i], P.vertices[j]
        d = [y - x for x, y in zip(X, Y)]
        if sum(c != 0 for c in d) >= 2:
            step = 4 * gcd(*map(int, d))
            return pt.Polytope.from_points(
                list(P.vertices) + [tuple(x + c / step for x, c in zip(X, d))])
    return None


@pytest.fixture()
def user_dir(tmp_path):
    trapezoid = [(0, 0), (3, 0), (1, 1), (0, 1)]
    entries = {
        "a_not_delzant": [["0", "0"], ["2", "0"], ["0", "1"]],
        "b_not_lattice": [["0", "0"], ["1/2", "0"], ["0", "1/2"]],
        "c_segment": [["0", "0"], ["2", "1"]],
        "d_trapezoid": _embedded(trapezoid, 1, (2, -1)),
        "e_trapezoid": _embedded(trapezoid, 2, (-3, 4)),
    }
    for name, vertices in entries.items():
        (tmp_path / f"{name}.json").write_text(json.dumps({"dim": 2, "vertices": vertices}))
    return str(tmp_path)


class TestSharedRows:
    def test_builtin_rows_equal_per_vertex_chain(self):
        entries = corpus.builtin_corpus()
        rows = corpus.corpus_rows(entries, (1, 2))
        assert fields(rows) == fields(reference_rows(entries, (1, 2)))

    def test_user_rows_equal_per_vertex_chain(self, user_dir):
        entries = corpus.builtin_corpus() + corpus.load_user_corpus(user_dir)
        rows = corpus.corpus_rows(entries, (1, 2, 4))
        assert fields(rows) == fields(reference_rows(entries, (1, 2, 4)))
        errors = {r.name: r.error.split(":")[0] for r in rows if r.error}
        assert errors == {"a_not_delzant": "NotDelzantVertex",
                          "b_not_lattice": "NotLatticePolytope",
                          "c_segment": "DegenerateInput"}
        assert [r.vertex for r in rows if r.name == "c_segment"] == [(0, 0), (2, 1)]

    def test_one_computation_per_normalized_polytope(self, monkeypatch):
        # a row is looked up by its normalized vertices: only the 9 distinct
        # normalized polytopes of the 27 rows are built as images of P
        entries = corpus.builtin_corpus()
        calls = {"okounkov_body": 0, "is_delzant": 0, "image": 0}

        def counted(owner, name):
            real = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrapper)

        distinct = {pt.normalize_at_vertex(P, v)[0] for _, P in entries for v in P.vertices}
        calls["normalize_at_vertex"] = 0
        counted(ok, "okounkov_body")
        counted(pt, "is_delzant")
        counted(pt.UnimodularMap, "image")
        counted(pt, "normalize_at_vertex")
        rows = corpus.corpus_rows(entries, (1, 2))
        assert len(rows) == 27 and len(distinct) == 9
        assert calls == {"okounkov_body": 9, "is_delzant": len(entries), "image": 9,
                         "normalize_at_vertex": 9}

    def test_rows_not_shared_across_scales(self):
        # the unit triangle hulled with (1/4, 3/4), a point of its slanted
        # edge, is stored over its vertices' denom 1; the big triangle's
        # normalized facets are not the small one's
        big = pt.hull([(0, 0), (4, 0), (0, 4)])
        small = pt.hull([(0, 0), (1, 0), (0, 1), (F(1, 4), F(3, 4))])
        assert small.denom == 1 and small == pt.standard_simplex(2)
        entries = [("big", big), ("small", small)]
        rows = corpus.corpus_rows(entries, (1, 2))
        assert fields(rows) == fields(reference_rows(entries, (1, 2)))
        assert [(r.volume_MA, r.seshadri_lp) for r in rows if r.name == "small"] == [(1, 1)] * 3

    @given(moved_delzant_entries())
    def test_key_is_the_normalized_facets(self, entries):
        # the key is Q's facets in lowest terms, also for P hulled from points
        # over denom 4, so equal keys are equal normalized polytopes and
        # unequal keys unequal ones
        polytopes = [P for _, P in entries]
        copies = [C for C in map(with_point_on_slanted_edge, polytopes) if C is not None]
        assert copies and all(C.denom == 1 for C in copies)
        keyed = []
        for P in polytopes + copies:
            for i, v in enumerate(P.vertices):
                Q = pt.normalize_at_vertex(P, v)[0]
                key = pt.normalized_facets(P, i)
                assert list(key) == sorted((a, c // Q.denom) for a, c in Q.int_facets)
                keyed.append((key, Q))
        for (key1, Q1), (key2, Q2) in combinations(keyed, 2):
            assert (key1 == key2) == (Q1 == Q2)

    @given(moved_delzant_entries())
    def test_moved_copies_equal_per_vertex_chain(self, entries):
        rows = corpus.corpus_rows(entries, (1, 2))
        assert fields(rows) == fields(reference_rows(entries, (1, 2)))
        assert not any(r.error for r in rows)

    def test_shared_error_text(self, monkeypatch):
        # a failure past normalization is computed once and copied to every row of Q
        def fail(*args):
            raise GrowthLabError("no body")
        monkeypatch.setattr(ok, "okounkov_body", fail)
        rows = corpus.corpus_rows([("square", pt.box([2, 2]))], (1,))
        assert [r.error for r in rows] == ["GrowthLabError: no body"] * 4
        assert [r.vertex for r in rows] == [(F(0), F(0)), (F(0), F(2)), (F(2), F(0)),
                                            (F(2), F(2))]
