"""Array arithmetic that keeps the stored reference bits.

numpy's vectorized complex products use fused multiply-adds where the CPU has
them, its vectorized exp/log/acos/atan2/hypot and powers are not the C
library's, a 3-vector np.dot is a fused BLAS chain, and Python divides complex
numbers its own way. Estimates evaluate exp(-omega sqrt(R^2)) and n . (y - x)
at roots where these cancel to rounding level, so a last-bit change in a root
moves blob-shell's screened-kernel estimates by up to ~1e-7. These helpers keep
the bits stored in perfbench/reference/ and tests/estimate_corpus.json, and give
each target of a block the bits of a block of one, until exact numerators at
roots retire them. power runs the scalar power once per distinct value of a
real array, not once per entry.
"""
from __future__ import annotations

import math

import numpy as np


def entrywise(fn, *args):
    """fn applied to the entries of the broadcast args as Python scalars."""
    out = np.frompyfunc(fn, len(args), 1)(*args)
    return np.array(out.tolist()) if isinstance(out, np.ndarray) else out


def cmul(a, b):
    """a * b, with products of complex arrays rounded term by term as for scalars."""
    arrays = isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
    if not (arrays and a.dtype.kind == "c" and b.dtype.kind == "c"):
        return a * b
    # einsum's elementwise complex product has no fused multiply-add
    return np.einsum("...,...->...", a, b)


def power(x, n: int):
    """x ** n for n = 2 or 3, rounded as the scalar power."""
    if not isinstance(x, np.ndarray):
        return x**n
    if x.dtype.kind == "c":
        return cmul(x, x) if n == 2 else x**n
    # one math.pow per distinct bit pattern, so -0.0 and each NaN keep their own
    bits = np.ascontiguousarray(x, dtype=float).view(np.int64)
    bits, inverse = np.unique(bits, return_inverse=True)
    return entrywise(math.pow, bits.view(float), float(n))[inverse].reshape(x.shape)[()]


def cdiv(a, b):
    """a / b for complex scalars or arrays, rounded as Python's complex division."""
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    big = np.abs(br) >= np.abs(bi)
    # divide by the larger part only, so a real divisor divides no zero
    ratio = np.where(big, bi, br) / np.where(big, br, bi)
    den = np.where(big, br + bi * ratio, br * ratio + bi)
    real = np.where(big, ar + ai * ratio, ar * ratio + ai) / den
    out = np.empty(real.shape, dtype=complex)
    out.real = real
    out.imag = np.where(big, ai - ar * ratio, ai * ratio - ar) / den
    return out[()]


def dot3(u, v):
    """Dot products of real 3-vectors along the last axis, rounded as np.dot."""
    # matmul of (1, 3) by (3, 1) runs np.dot's inner loop once per lane; it
    # needs contiguous operands to do so, hence the copies
    u, v = (np.ascontiguousarray(a, dtype=float) for a in np.broadcast_arrays(u, v))
    return np.matmul(u[..., None, :], v[..., :, None])[..., 0, 0]
