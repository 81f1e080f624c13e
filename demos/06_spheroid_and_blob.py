"""Estimates on harder geometries: an elongated spheroid and a bumpy blob.

The 3:1 spheroid stretches the grid (anisotropy up to 3), and the blob
adds azimuthal radius variation plus a screened kernel. The estimate
should stay within about a decade of the measured error wherever the
error is measurable.
"""
import math

import numpy as np

from layerr import (
    Spheroid,
    full_estimate,
    grid,
    harmonic_double,
    measured_error,
    mod_helmholtz_single,
    paper_blob,
    paper_density,
)

spheroid = Spheroid(1.0, 3.0)
g = grid(60, 120)
kernel = harmonic_double()
sigma = paper_density()

print("double layer near the 3:1 spheroid, random targets (seed 7):")
rng = np.random.default_rng(7)
print(f"{'|x|':>6} {'dist':>6} {'E_Q':>11} {'E_EST':>11} {'ratio':>7}")
shown = 0
while shown < 8:
    u, v, w = rng.random(3)
    theta = math.acos(1 - 2 * u)
    x = (1.02 + 0.98 * w) * np.real(spheroid.position(theta, 2 * math.pi * v))
    eq = measured_error(spheroid, kernel, sigma, g, x)
    if not 1e-12 <= eq <= 1e-2:
        continue
    est = full_estimate(spheroid, kernel, sigma, g, x)  # one target: 0-d arrays
    print(
        f"{np.linalg.norm(x):6.2f} {est.grid_distance:6.3f} {eq:11.2e} "
        f"{est.total:11.2e} {est.total / eq:7.2f}"
    )
    shown += 1

print("\nscreened single layer on the shell around the blob:")
blob = paper_blob()
gb = grid(40, 80)
kb = mod_helmholtz_single(3.0)
print(f"{'theta':>6} {'phi':>6} {'E_Q':>11} {'E_EST':>11} {'decades off':>12}")
# shell points whose measured error is comfortably above the roundoff
# and far-field floors; much farther out both numbers become noise
angles = ((0.9, 1.55), (1.2, 1.6), (1.6, 3.1), (1.9, 5.76), (2.7, 0.9))
xs = 1.46 * np.array(
    [[math.sin(t) * math.cos(p), math.sin(t) * math.sin(p), math.cos(t)] for t, p in angles]
)
# the shell points as one block: a list of measured errors, one array of totals
eqs = measured_error(blob, kb, sigma, gb, xs)
est = full_estimate(blob, kb, sigma, gb, xs)
for (theta, phi), eq, total in zip(angles, eqs, est.total):
    off = abs(math.log10(total) - math.log10(eq)) if eq > 0 and total > 0 else float("nan")
    print(f"{theta:6.2f} {phi:6.2f} {eq:11.2e} {total:11.2e} {off:12.2f}")
