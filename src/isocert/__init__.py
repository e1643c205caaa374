"""isocert: exact symbolic and interval certification for the finite
computations behind constrained principal-curvature rigidity.

Layers, bottom up: exact rational polynomial algebra (exactalg, upoly,
algebraic), the coframe rewriting engine and its target identities
(frameforms, identities), configuration enumeration (configsolve),
interval certificates (vinterval, certify), auxiliary smooth
functions (mollify), the model catalog (geomex), and the report/CLI layer
(reports, cli).
"""

__version__ = "0.1.0"
