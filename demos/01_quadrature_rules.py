"""Tour of the quadrature rules behind the surface discretization.

The surface grids combine Gauss-Legendre nodes in the polar direction
with a periodic trapezoidal rule in the azimuth; an 8-point
Gauss-Laguerre rule integrates the exponentially decaying error kernels.
"""
import math

import numpy as np

from layerr import gauss_laguerre, gauss_legendre, grid, trapezoidal

# Gauss-Legendre: exact for polynomials up to degree 2n-1
rule = gauss_legendre(5)
print("GL(5) nodes   :", np.round(rule.nodes, 6))
print("GL(5) weights :", np.round(rule.weights, 6))
print("sum of weights:", rule.weights.sum(), "(length of [-1,1] is 2)")

print("\nintegral of t^8 on [-1,1], exact value 2/9:")
for n in (3, 4, 5, 8):
    approx = np.sum(gauss_legendre(n).weights * gauss_legendre(n).nodes ** 8)
    print(f"  n={n}: {approx:.15f}  error {abs(approx - 2 / 9):.1e}")

# trapezoidal rule: spectrally accurate for smooth periodic integrands
print("\nperiodic integral of exp(sin(phi)) / (2 pi), trapezoidal rule:")
exact = 1.2660658777520084  # modified Bessel I_0(1)
for n in (4, 8, 16):
    tz = trapezoidal(n)
    approx = np.sum(tz.weights * np.exp(np.sin(tz.nodes))) / (2 * math.pi)
    print(f"  n={n}: {approx:.15f}  error {abs(approx - exact):.1e}")

# Gauss-Laguerre: integrals against exp(-x) on the half line
lag = gauss_laguerre(8)
print("\nGauss-Laguerre(8) moments vs factorials:")
for m in (0, 1, 5, 10):
    approx = np.sum(lag.weights * lag.nodes**m)
    print(f"  moment {m:2d}: {approx:.6e}  exact {math.factorial(m):.6e}")

# the tensor product of the two surface rules: node weights w_t[k] * w_phi[l]
g = grid(12, 24)
weights = np.outer(g.t_rule.weights, g.phi_rule.weights)
t, phi = np.meshgrid(g.t_rule.nodes, g.phi_rule.nodes, indexing="ij")
print(f"\ntensor rule over [-1,1] x [0,2pi) on a {g.n_t}x{g.n_phi} grid:")
print(f"  integral of 1            : {np.sum(weights):.12f}  (4 pi = {4 * math.pi:.12f})")
approx = np.sum(weights * t**2 * np.cos(phi) ** 2)
print(f"  integral of t^2 cos^2 phi: {approx:.12f}  (2 pi / 3 = {2 * math.pi / 3:.12f})")
