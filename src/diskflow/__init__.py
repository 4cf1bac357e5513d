"""diskflow: disk patterns and uniform hyperbolic structures from angle data,
random-Delaunay Euler characteristic estimators, and conformal curvature flow
on discrete metrics.

The package itself holds no names but ``__version__``: import each from the
module that defines it, as in ``from diskflow.uniformize import uniformize``.
Importing a module loads only what that module uses.
"""

__version__ = "0.1.0"
