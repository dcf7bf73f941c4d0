"""growthlab: exact toric growth conditions at desk scale.

Moment-polytope algebra, canonical growth conditions at torus-fixed points,
Okounkov bodies, Seshadri constants by independent routes, and certified
ball gluing via the regularized max.
"""

from .convexfn import (
    AffinePiece,
    BoundedDifferenceCertificate,
    ConvexConjugate,
    MaxAffineFunction,
    SmoothToricPotential,
    grows_slower,
    legendre,
    logsumexp_from_polytope,
    radial_component,
    reassemble,
    regularized_max,
    sup_difference,
)
from .embed import (
    GluedPotential,
    GluingCertificate,
    fit_ball,
    gromov_lower_bound,
    volume_obstruction,
)
from .errors import (
    DegenerateInput,
    DimensionMismatch,
    EmptyInput,
    EmptySupport,
    GrowthLabError,
    GrowthViolation,
    IncomparableFamilies,
    NonConvergence,
    NonpositiveEpsilon,
    NotDelzantVertex,
    NotLatticePolytope,
    NotNormalized,
    UnknownLevel,
)
from .growth import (
    GrowthCondition,
    GrowthReport,
    build_growth_condition,
    decompose,
    growth_report,
    level_equivalence_certificate,
    monge_ampere_volume,
    monge_ampere_volume_numeric,
    recover_polytope,
    recover_polytope_numeric,
    seshadri_constant,
)
from .okounkov import (
    GradedMonomialSeries,
    MonomialOrder,
    OkounkovBody,
    chebyshev_transform,
    compare,
    infinitesimal_map,
    okounkov_body,
    seshadri_from_body,
    valuation,
    volume_identity_check,
)
from .polytope import (
    HalfSpace,
    Polytope,
    UnimodularMap,
    box,
    cut,
    hull,
    is_delzant,
    lattice_points,
    normalize_at_vertex,
    relative_volume,
    simplex_inclusion,
    standard_simplex,
    sum_slice,
    triangulate,
    volume,
)

__version__ = "0.1.0"
