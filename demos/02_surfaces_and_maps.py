"""The three surface families and the two polar-angle maps.

Surfaces are parametrized over (theta, phi); the Gauss-Legendre variable
t reaches theta either linearly or through theta = pi - arccos(t). Under
the cosine map a sphere has a perfectly uniform area element, which is
why it is the default.
"""
import math

import numpy as np

from layerr import LINEAR_MAP, Sphere, Spheroid, paper_blob, theta_line

sphere = Sphere(1.0)
sphere_lin = Sphere(1.0, LINEAR_MAP)
spheroid = Spheroid(1.0, 3.0)
blob = paper_blob()


def partials(s, t):
    """The real partials d gamma/dt and d gamma/dphi of s at (t, phi = 0)."""
    _, d_t, d_phi = s.eval_t(t, 0.0)
    return np.real(d_t), np.real(d_phi)


print("area element |d gamma/dt x d gamma/dphi| across the polar range (phi = 0):")
print(f"{'t':>6} {'sphere/cos':>12} {'sphere/lin':>12} {'spheroid':>12} {'blob':>12}")
for t in (-0.9, -0.5, 0.0, 0.5, 0.9):
    row = [np.linalg.norm(np.cross(*partials(s, t))) for s in (sphere, sphere_lin, spheroid, blob)]
    print(f"{t:6.2f} {row[0]:12.6f} {row[1]:12.6f} {row[2]:12.6f} {row[3]:12.6f}")

print("\ngrid anisotropy |d gamma/dt| / |d gamma/dphi| (phi = 0):")
for t in (-0.9, 0.0, 0.9):
    pairs = (partials(s, t) for s in (sphere, spheroid, blob))
    vals = [np.linalg.norm(d_t) / np.linalg.norm(d_phi) for d_t, d_phi in pairs]
    print(f"  t={t:+.1f}: sphere {vals[0]:7.3f}  spheroid {vals[1]:7.3f}  blob {vals[2]:7.3f}")

# analytic continuation: one parameter may be complex
w = 1.0 + 0.3j
pos, d_theta, d_phi = spheroid.eval_sph(w, 0.5)
print("\nspheroid position at complex polar angle", w, ":")
print("  ", np.round(pos, 6))

# root finding runs on line evaluators: position and derivative along one
# parameter with the other fixed, continued analytically off the real axis;
# one point comes back as a column (3, 1)
line = theta_line(blob, 1.2)
pos, d_theta = (v[:, 0] for v in line(0.8))
h = 1e-6
fd = (np.real(line(0.8 + h)[0][:, 0]) - np.real(line(0.8 - h)[0][:, 0])) / (2 * h)
print("\nblob meridian at phi = 1.2, theta = 0.8:")
print("   position        ", np.round(np.real(pos), 8))
print("   d/dtheta        ", np.round(np.real(d_theta), 8))
print("   central diff.   ", np.round(fd, 8))
pos_c, _ = line(0.8 + 0.2j)
print("   at theta = 0.8+0.2i:", np.round(pos_c[:, 0], 6))
