"""growthlab: exact toric growth conditions at desk scale.

Moment-polytope algebra, canonical growth conditions at torus-fixed points,
Okounkov bodies, Seshadri constants by independent routes, and certified
ball gluing via the regularized max.  Import from the submodules, e.g.
``from growthlab import polytope``.
"""

__version__ = "0.1.0"
