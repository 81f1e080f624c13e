"""layerr: quadrature-error estimation for layer potentials near genus-0 surfaces.

Evaluates layer potentials over smooth closed surfaces discretized with a
Gauss-Legendre x trapezoidal tensor grid, and predicts the quadrature error
at off-surface target points from complex roots of the squared-distance
function, so callers can decide where regular quadrature is good enough.

The package namespace carries the names the README and the demos use; the
rest of the API lives in the submodules (errors, estimates, potentials,
quadrature, roots, surfaces, cli).
"""

from .estimates import full_estimate, sphere_simplified
from .potentials import (
    harmonic_double,
    harmonic_single,
    measured_error,
    mod_helmholtz_single,
    paper_density,
    potential_quadrature,
    unit_density,
)
from .quadrature import gauss_laguerre, gauss_legendre, grid, trapezoidal
from .roots import axisym_phi_root, circle_root, newton_root, sphere_theta_root, theta_line
from .surfaces import LINEAR_MAP, Sphere, Spheroid, paper_blob

__version__ = "0.1.0"
