import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import Phase, settings

sys.path.insert(0, str(Path(__file__).parent))

from growthlab import polytope as pt

# Property tests draw the same small set of examples on every run.  They
# report the first failing example as drawn: shrinking it can take minutes.
settings.register_profile("growthlab", derandomize=True, max_examples=40,
                          deadline=None, database=None,
                          phases=[Phase.explicit, Phase.generate])
settings.load_profile("growthlab")


def piece_set(f):
    """The slopes of the support function f, the vertices of its polytope:
    its canonical form."""
    return frozenset(f.slopes)


def same_function(f, g):
    """Exact equality of support functions: their vertex sets agree."""
    return piece_set(f) == piece_set(g)


def value_at(u, x):
    """A smooth potential's float value at the point x."""
    return float(u.value_many([[float(c) for c in x]])[0])


def random_unimodular(rng, n, steps=4):
    """Product of elementary integer shears and swaps; determinant +-1."""
    M = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([-2, -1, 1, 2])
        M[i] = [a + c * b for a, b in zip(M[i], M[j])]
    if rng.random() < 0.5 and n > 1:
        i, j = rng.sample(range(n), 2)
        M[i], M[j] = M[j], M[i]
    return tuple(tuple(row) for row in M)


def _trapezoid(a, b, c):
    return [(0, 0), (a + c * b, 0), (a, b), (0, b)]


def random_delzant(rng, n, scramble=True):
    """Random Delzant polytope: a Delzant base shape through a random
    unimodular map and integer translation."""
    if n == 2:
        kind = rng.randrange(3)
        if kind == 0:
            k = rng.randint(1, 3)
            base = [(0, 0), (k, 0), (0, k)]
        elif kind == 1:
            a, b = rng.randint(1, 4), rng.randint(1, 4)
            base = [(x, y) for x in (0, a) for y in (0, b)]
        else:
            base = _trapezoid(rng.randint(1, 3), rng.randint(1, 3),
                              rng.randint(1, 2))
    elif n == 3:
        kind = rng.randrange(3)
        if kind == 0:
            k = rng.randint(1, 3)
            base = [(0, 0, 0), (k, 0, 0), (0, k, 0), (0, 0, k)]
        elif kind == 1:
            a, b, c = (rng.randint(1, 3) for _ in range(3))
            base = [(x, y, z) for x in (0, a) for y in (0, b) for z in (0, c)]
        else:
            h = rng.randint(1, 3)
            base = [(x, y, z) for (x, y) in _trapezoid(rng.randint(1, 2),
                                                       rng.randint(1, 2),
                                                       rng.randint(1, 2))
                    for z in (0, h)]
    else:
        raise ValueError("random Delzant generator supports n in {2, 3}")
    if not scramble:
        return pt.hull(base)
    M = random_unimodular(rng, n)
    t = [rng.randint(-3, 3) for _ in range(n)]
    pts = [tuple(sum(M[r][c] * Fraction(p[c]) for c in range(n)) + t[r]
                 for r in range(n)) for p in base]
    return pt.hull(pts)


def random_normalized_delzant(rng, n):
    P = random_delzant(rng, n)
    v = rng.choice(P.vertices)
    Q, _ = pt.normalize_at_vertex(P, v)
    return Q


@pytest.fixture(scope="session")
def corpus_entries():
    from growthlab.corpus import builtin_corpus
    return builtin_corpus()


@pytest.fixture()
def rng():
    return random.Random(20260809)
