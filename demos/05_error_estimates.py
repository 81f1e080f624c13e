"""The quadrature-error estimate next to the measured error.

For each target point the estimate splits into an azimuthal
(trapezoidal) and a polar (Gauss-Legendre) contribution, driven by the
complex roots in the matching variable. Near the symmetry axis the
azimuthal part is skipped by the cone criterion and the polar kernel is
integrated around the full circle.
"""
import math

import numpy as np

from layerr import (
    Sphere,
    full_estimate,
    grid,
    harmonic_single,
    measured_error,
    sphere_simplified,
    unit_density,
)

sphere = Sphere(1.0)
g = grid(30, 60)
kernel = harmonic_single()
sigma = unit_density()

print("targets at distance 0.1, from equator to pole:")
print(f"{'theta':>6} {'E_Q':>11} {'E_EST':>11} {'E_TZ':>11} {'E_GL':>11} {'skip':>5}")
# one block of targets: the estimate holds one array entry per target
thetas = (1.571, 1.2, 0.8, 0.4, 0.15, 0.0)
xs = 1.1 * np.array([[math.sin(theta), 0.0, math.cos(theta)] for theta in thetas])
eqs = measured_error(sphere, kernel, sigma, g, xs)
est = full_estimate(sphere, kernel, sigma, g, xs)
for i, theta in enumerate(thetas):
    print(
        f"{theta:6.2f} {eqs[i]:11.2e} {est.total[i]:11.2e} {est.e_tz[i]:11.2e} "
        f"{est.e_gl[i]:11.2e} {str(est.tz_skipped[i]):>5}"
    )

print("\nthe closed-form sphere bound needs only the target radius:")
print(f"{'d':>6} {'E_Q (max over dirs)':>20} {'bound':>11}")
for d in (0.1, 0.2, 0.3, 0.4):
    zeta = 1.0 + d
    worst = 0.0
    for theta in np.arccos(1 - 2 * (np.arange(8) + 0.5) / 8):
        x = zeta * np.array([math.sin(theta), 0.0, math.cos(theta)])
        worst = max(worst, measured_error(sphere, kernel, sigma, g, x))
    print(f"{d:6.2f} {worst:20.3e} {sphere_simplified(zeta, 1.0, 0.5, 60):11.3e}")

print("\ndecay with grid refinement at fixed distance ~0.15:")
# the estimate follows the worst-case envelope; the pointwise error
# oscillates on the grid scale and can sit well below it
x = 1.15 * np.array([math.sin(1.53) * math.cos(0.04), math.sin(1.53) * math.sin(0.04), math.cos(1.53)])
for n_t in (10, 20, 30, 40):
    gg = grid(n_t, 2 * n_t)
    eq = measured_error(sphere, kernel, sigma, gg, x)
    est = full_estimate(sphere, kernel, sigma, gg, x)  # one target: 0-d arrays
    print(f"  n_t={n_t:2d}: E_Q={eq:.3e}  E_EST={est.total:.3e}")
