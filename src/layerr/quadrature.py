"""Quadrature rules and the tensor-product grid.

Provides Gauss-Legendre nodes/weights on [-1, 1], the periodic trapezoidal
rule on [0, 2*pi), and Gauss-Laguerre nodes/weights for integrals of the
form int_0^inf h(x) exp(-x) dx. Rules are immutable and cached per point
count, since the same grids are reused across many evaluation points.

Node computations are dependency-free Newton iterations on the classical
three-term recurrences, accurate to ~1e-15 for the point counts used here.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

GAUSS_LEGENDRE = "gauss_legendre"
TRAPEZOIDAL = "trapezoidal"
GAUSS_LAGUERRE = "gauss_laguerre"

_NEWTON_TOL = 1e-15


@dataclass(frozen=True, eq=False)
class Rule1D:
    """A one-dimensional quadrature rule: nodes and positive weights."""

    kind: str
    n: int
    nodes: np.ndarray
    weights: np.ndarray


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _legendre_and_derivative(n: int, x: np.ndarray):
    """Evaluate P_n and P_n' at x via the three-term recurrence."""
    p_prev = np.ones_like(x)
    p = x.copy()
    for k in range(2, n + 1):
        p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
    dp = n * (x * p - p_prev) / (x * x - 1.0)
    return p, dp


@lru_cache(maxsize=None)
def gauss_legendre(n: int) -> Rule1D:
    """n-point Gauss-Legendre rule on [-1, 1], exact to degree 2n - 1.

    Nodes are found by Newton iteration on the Legendre recurrence,
    started from the Chebyshev-angle approximation.
    """
    if n < 1:
        raise ValueError(f"gauss_legendre requires n >= 1, got {n}")
    k = np.arange(1, n + 1)
    x = np.cos(np.pi * (4 * k - 1) / (4 * n + 2))
    for _ in range(100):
        p, dp = _legendre_and_derivative(n, x)
        dx = p / dp
        x -= dx
        if np.max(np.abs(dx)) < _NEWTON_TOL:
            break
    _, dp = _legendre_and_derivative(n, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    # enforce exact symmetry about the origin
    x = 0.5 * (x - x[::-1])
    w = 0.5 * (w + w[::-1])
    order = np.argsort(x)
    return Rule1D(GAUSS_LEGENDRE, n, _freeze(x[order]), _freeze(w[order]))


@lru_cache(maxsize=None)
def trapezoidal(n: int) -> Rule1D:
    """n-point periodic trapezoidal rule on [0, 2*pi)."""
    if n < 1:
        raise ValueError(f"trapezoidal requires n >= 1, got {n}")
    nodes = 2.0 * np.pi * np.arange(n) / n
    weights = np.full(n, 2.0 * np.pi / n)
    return Rule1D(TRAPEZOIDAL, n, _freeze(nodes), _freeze(weights))


def _laguerre_and_prev(n: int, x: float):
    """Evaluate L_n and L_{n-1} at scalar x."""
    p_prev, p = 1.0, 1.0 - x
    for k in range(2, n + 1):
        p_prev, p = p, ((2 * k - 1.0 - x) * p - (k - 1.0) * p_prev) / k
    return p, p_prev


@lru_cache(maxsize=None)
def gauss_laguerre(n: int) -> Rule1D:
    """n-point Gauss-Laguerre rule: sum w_i h(x_i) ~ int_0^inf h(x) e^-x dx."""
    if n < 1:
        raise ValueError(f"gauss_laguerre requires n >= 1, got {n}")
    roots = []
    x = 0.0
    for i in range(1, n + 1):
        if i == 1:
            x = 3.0 / (1.0 + 2.4 * n)
        elif i == 2:
            x = roots[0] + 15.0 / (1.0 + 2.5 * n)
        else:
            ai = i - 2
            x = roots[-1] + ((1.0 + 2.55 * ai) / (1.9 * ai)) * (roots[-1] - roots[-2])
        for _ in range(100):
            p, p_prev = _laguerre_and_prev(n, x)
            dp = n * (p - p_prev) / x
            dx = p / dp
            x -= dx
            if abs(dx) < _NEWTON_TOL * max(1.0, abs(x)):
                break
        roots.append(x)
    xs = np.array(roots)
    # w_i = x_i / ((n+1) L_{n+1}(x_i))^2
    l_next = np.empty_like(xs)
    for idx, xi in enumerate(xs):
        p, _ = _laguerre_and_prev(n + 1, xi)
        l_next[idx] = p
    ws = xs / ((n + 1) ** 2 * l_next**2)
    return Rule1D(GAUSS_LAGUERRE, n, _freeze(xs), _freeze(ws))


@dataclass(frozen=True, eq=False)
class QuadratureGrid:
    """Tensor grid: Gauss-Legendre in t crossed with trapezoidal in phi."""

    n_t: int
    n_phi: int
    t_rule: Rule1D
    phi_rule: Rule1D


@lru_cache(maxsize=None)
def grid(n_t: int, n_phi: int) -> QuadratureGrid:
    """Build (and cache) the n_t x n_phi tensor-product grid."""
    return QuadratureGrid(n_t, n_phi, gauss_legendre(n_t), trapezoidal(n_phi))

