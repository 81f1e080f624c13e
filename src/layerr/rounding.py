"""Scalar rounding for the array operations whose stored values need it.

tests/estimate_corpus.json (rtol 1e-10) and perfbench/reference/ (rtol 1e-8)
store estimates at roots where R^2 and n . (y - x) cancel to rounding level.
Each helper serves one module, where plain numpy was measured to move them:
- entrywise: math.log and math.atan2 of the closed-form roots (roots.py); numpy's
  differ between its AVX512 and AVX2 paths, by 3.1e-9 in corpus case 38's e_gl.
- cdiv: Python's complex division in the Newton step (roots._newton); numpy's
  moves 3 blob-shell rows past 1e-8, by up to 3.1e-8.
- cmul: the blob's complex products without fused multiply-adds
  (surfaces.Blob.evaluate); numpy's move 32 blob-shell rows, by up to 3.2e-8.
- dot3: np.dot for the grid anisotropy kappa (estimates._build_frame); a plain
  sum moves 1 blob-shell row, by 1.06e-8.
Exact numerators at roots would retire them, with one refresh of the stored values.
"""
from __future__ import annotations

import numpy as np


def entrywise(fn, *args):
    """fn applied to the entries of the broadcast args as Python scalars; one
    value for 0-d args."""
    args = np.broadcast_arrays(*args)
    out = list(map(fn, *(a.ravel().tolist() for a in args)))
    return np.array(out).reshape(args[0].shape) if args[0].ndim else out[0]


def cmul(a, b):
    """a * b, with products of complex arrays rounded term by term as for scalars."""
    arrays = isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
    if not (arrays and a.dtype.kind == "c" and b.dtype.kind == "c"):
        return a * b
    # einsum's elementwise complex product has no fused multiply-add
    return np.einsum("...,...->...", a, b)


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
