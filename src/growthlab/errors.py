"""Exception hierarchy shared by all growthlab modules."""


class GrowthLabError(Exception):
    """Base class for all growthlab errors."""


class DegenerateInput(GrowthLabError):
    """Input whose affine span is too small for the requested operation."""


class NotLatticePolytope(GrowthLabError):
    """A lattice polytope was required but some vertex is non-integral."""


class NotDelzantVertex(GrowthLabError):
    """The vertex does not have a unimodular edge cone."""


class NotNormalized(GrowthLabError):
    """Polytope must have a vertex at the origin and lie in the positive orthant."""


class DimensionMismatch(GrowthLabError):
    """Operands live in different ambient dimensions."""


class IncomparableFamilies(GrowthLabError):
    """The two convex functions belong to families we cannot compare."""


class EmptySupport(GrowthLabError):
    """A valuation was requested for an empty exponent support."""


class EmptyInput(GrowthLabError):
    """A nonempty collection was required."""


class NonpositiveEpsilon(GrowthLabError):
    """Regularization width must be positive."""


class GrowthViolation(GrowthLabError):
    """Source potential does not grow slower than the target growth condition.

    Carries the violating vertex of the source slope polytope and the facet
    of the target slope polytope it breaks.
    """

    def __init__(self, message, vertex=None, facet=None):
        super().__init__(message)
        self.vertex = vertex
        self.facet = facet


class NonConvergence(GrowthLabError):
    """A search that is guaranteed to terminate exceeded its horizon."""
