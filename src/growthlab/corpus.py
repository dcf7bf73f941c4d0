"""Built-in polytope corpus and the per-vertex report runner."""

import json
import os

from . import growth as gr
from . import okounkov as ok
from . import polytope as pt
from .errors import GrowthLabError
from .rationals import rat_str

K_MAX_BODY = 3  # Okounkov body levels 1..K_MAX_BODY of each row


def builtin_corpus():
    """Standard simplices (n = 1, 2, 3), boxes [0, 2]^n, and the Hirzebruch
    trapezoid conv{(0,0), (3,0), (1,1), (0,1)}."""
    T = pt.hull([(0, 0), (3, 0), (1, 1), (0, 1)])
    return [
        ("simplex1", pt.standard_simplex(1)),
        ("simplex2", pt.standard_simplex(2)),
        ("simplex3", pt.standard_simplex(3)),
        ("interval2", pt.box([2])),
        ("square2", pt.box([2, 2])),
        ("cube2", pt.box([2, 2, 2])),
        ("trapezoid", T),
    ]


def load_user_corpus(directory):
    entries = []
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(directory, name)) as fh:
            data = json.load(fh)
        entries.append((name[:-5], pt.Polytope.from_json_dict(data)))
    return entries


class CorpusRow:
    """One row: its name and vertex, then the values of the normalized
    polytope there, or the error text and only dim."""

    def __init__(self, name, vertex, dim, volume_MA=None, seshadri_lp=None,
                 seshadri_domination=None, okounkov_identity=None, gromov=None,
                 nth_root_volume=None, slack=None, error=None):
        self.name, self.vertex, self.dim, self.volume_MA = name, vertex, dim, volume_MA
        self.seshadri_lp, self.seshadri_domination = seshadri_lp, seshadri_domination
        self.okounkov_identity, self.gromov = okounkov_identity, gromov
        self.nth_root_volume, self.slack, self.error = nth_root_volume, slack, error

    def to_json_dict(self):
        if self.error is not None:
            return {"name": self.name,
                    "vertex": [rat_str(x) for x in self.vertex],
                    "error": self.error}
        return {"name": self.name,
                "vertex": [rat_str(x) for x in self.vertex],
                "dim": self.dim,
                "volume_MA": rat_str(self.volume_MA),
                "seshadri_lp": rat_str(self.seshadri_lp),
                "seshadri_domination": rat_str(self.seshadri_domination),
                "okounkov_identity": self.okounkov_identity,
                "gromov": rat_str(self.gromov),
                "nth_root_volume": self.nth_root_volume,
                "slack": self.slack}


def corpus_rows(entries, k_levels=(1, 2, 4)):
    """One exact row per (polytope, vertex); a bad entry flags its own rows
    and never aborts the run.  A row's values depend only on the polytope Q
    normalized at its vertex, so within one call they are computed once per
    distinct Q and shared by its rows, a GrowthLabError's text included.
    Rows are looked up by Q's facets, read off P's with no elimination, and
    only a new one builds Q.  The shared values are CorpusRow's keywords
    after name and vertex."""
    rows, by_q = [], {}
    for name, P in entries:
        try:
            gr.require_delzant(P)
            failed = None
        except GrowthLabError as e:
            failed = _error_row(P, e)
        for i, v in enumerate(P.vertices):
            rows.append(CorpusRow(name, v, **(failed or _shared_row(P, i, v, by_q, k_levels))))
    return rows


def _error_row(P, e):
    return {"dim": P.ambient_dim, "error": f"{type(e).__name__}: {e}"}


def _shared_row(P, i, v, by_q, k_levels):
    """The shared values of the row at v, the i-th vertex of the Delzant P,
    from by_q or computed into it.  by_q is keyed by the facets of the
    normalized polytope Q in integers and lowest terms (pt.normalized_facets),
    which determine Q; only a new key normalizes P at v."""
    key = pt.normalized_facets(P, i)
    if key not in by_q:
        try:
            Q, umap = pt.normalize_at_vertex(P, v)
            gc = gr.normalized_growth_condition(v, Q, umap, k_levels)
            by_q[key] = _exact_row(gc)
        except GrowthLabError as e:
            by_q[key] = _error_row(P, e)
    return by_q[key]


def _exact_row(gc):
    vol = gr.monge_ampere_volume(gc)
    ses = gr.seshadri_constant(gc)
    series = ok.GradedMonomialSeries.toric(gc.polytope, K_MAX_BODY)
    body = ok.okounkov_body(series)
    return {"dim": gc.dim, "volume_MA": vol, "seshadri_lp": ses.lp_value,
            "seshadri_domination": ses.domination_value,
            "okounkov_identity": bool(ok.volume_identity_check(body, vol)),
            "gromov": ses.lp_value,
            "nth_root_volume": ses.upper_bound, "slack": ses.upper_bound - float(ses.lp_value)}


def corpus_identities_hold(row):
    """The three exact identities a row without error satisfies."""
    eq_routes = row.seshadri_lp == row.seshadri_domination
    eq_gromov = row.gromov == row.seshadri_lp
    bound = float(row.seshadri_lp) <= row.nth_root_volume + 2 ** -20
    return eq_routes and row.okounkov_identity and eq_gromov and bound
