"""Layer-potential kernels, densities, and the tensor-quadrature evaluator.

A layer potential here is u(x) = integral of k(x, y) sigma(y) / |y - x|^(2p)
over the surface, discretized by the Gauss-Legendre x trapezoidal tensor
grid. The smooth factors are collected into f(t, phi) = k * sigma * area
element, which this module can evaluate at one complex parameter using the
analytic continuation sqrt(sum of squares) of the norms involved.

The measured quadrature error compares the base grid against the same
quadrature on a grid upsampled five-fold in both directions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import EvaluationError
from .quadrature import QuadratureGrid, grid
from .surfaces import Surface

HARMONIC_SINGLE = "harmonic_single"
HARMONIC_DOUBLE = "harmonic_double"
MOD_HELMHOLTZ_SINGLE = "mod_helmholtz_single"

UNIT = "unit"
PAPER = "paper"

_UPSAMPLE = 5


@dataclass(frozen=True)
class KernelSpec:
    """A layer-potential kernel: half-integer power p and smooth numerator."""

    kind: str
    omega: Optional[float] = None

    @property
    def p(self) -> float:
        if self.kind == HARMONIC_DOUBLE:
            return 1.5
        return 0.5


def harmonic_single() -> KernelSpec:
    """Single layer for the Laplacian: numerator 1, p = 1/2."""
    return KernelSpec(HARMONIC_SINGLE)


def harmonic_double() -> KernelSpec:
    """Double layer for the Laplacian: numerator n_y . (y - x), p = 3/2.

    The normal is the outward one (cross product of the t- and phi-partials
    normalized), so the closed-surface identity with unit density gives
    +4*pi for interior points and 0 for exterior points.
    """
    return KernelSpec(HARMONIC_DOUBLE)


def mod_helmholtz_single(omega: float) -> KernelSpec:
    """Single layer for (Laplacian - omega^2): numerator exp(-omega |y-x|)."""
    if omega <= 0:
        raise ValueError("omega must be positive")
    return KernelSpec(MOD_HELMHOLTZ_SINGLE, float(omega))


@dataclass(frozen=True)
class DensitySpec:
    """Surface density sigma(theta, phi); extends to complex arguments."""

    kind: str

    def value(self, theta, phi):
        if self.kind == UNIT:
            return 1.0 + 0.0 * np.real(theta)
        return 1.0 + np.sin(6.0 * phi + theta) * np.sin(theta) ** 2


def unit_density() -> DensitySpec:
    return DensitySpec(UNIT)


def paper_density() -> DensitySpec:
    """sigma = 1 + sin(6 phi + theta) sin^2(theta)."""
    return DensitySpec(PAPER)


def _dot_c(u, v):
    """Bilinear (unconjugated) dot product, valid for complex vectors."""
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _cross_c(u, v):
    return np.array(
        [
            u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0],
        ]
    )


def _sqrt_c(z):
    """Principal square root that stays real for positive real input."""
    if np.iscomplexobj(z) or (np.isscalar(z) and isinstance(z, complex)):
        return np.sqrt(complex(z))
    return math.sqrt(z) if z >= 0 else np.sqrt(complex(z))


def integrand_f_at(kernel: KernelSpec, density: DensitySpec, theta, phi, diff, d_t, d_phi):
    """f at an evaluated point: diff = gamma - x and the (t, phi) partials.

    f = k(x, gamma) * sigma * |d gamma/dt x d gamma/dphi| with the norm
    continued as the principal square root of the complex sum of squares.
    The double-layer numerator folds the normalization of the normal into
    the area element, leaving sigma * (cross . (gamma - x)), which is
    entire and needs no branch choice.
    """
    cross = _cross_c(d_t, d_phi)
    sigma = density.value(theta, phi)
    if kernel.kind == HARMONIC_DOUBLE:
        return sigma * _dot_c(cross, diff)
    area = _sqrt_c(_dot_c(cross, cross))
    if kernel.kind == HARMONIC_SINGLE:
        return sigma * area
    dist = _sqrt_c(_dot_c(diff, diff))
    return np.exp(-kernel.omega * dist) * sigma * area


def integrand_f(surface: Surface, kernel: KernelSpec, density: DensitySpec, t, phi, x):
    """Smooth numerator f at (t, phi); at most one argument complex."""
    pos, d_t, d_phi = surface.eval_t(t, phi)
    theta = surface.theta_map.theta(t)
    return integrand_f_at(kernel, density, theta, phi, pos - np.asarray(x), d_t, d_phi)


@dataclass(frozen=True, eq=False)
class _GridTables:
    """Per-(surface, grid) precomputed node data for fast potential sums."""

    thetas: np.ndarray  # (n_t,)
    ts: np.ndarray  # (n_t,)
    phis: np.ndarray  # (n_phi,)
    positions: np.ndarray  # (N, 3)
    normals: np.ndarray  # (N, 3) outward unit normals
    base_weights: np.ndarray  # (N,) w_t * w_phi * area element
    phi_flat: np.ndarray  # (N,)
    scale: float


@lru_cache(maxsize=64)
def _grid_tables(surface: Surface, g: QuadratureGrid) -> _GridTables:
    ts = g.t_rule.nodes
    phis = g.phi_rule.nodes
    n_t, n_phi = g.n_t, g.n_phi
    positions = np.empty((n_t * n_phi, 3))
    normals = np.empty((n_t * n_phi, 3))
    areas = np.empty(n_t * n_phi)
    thetas = np.array([surface.theta_map.theta(t) for t in ts])
    idx = 0
    for k in range(n_t):
        for l in range(n_phi):
            pos, d_t, d_phi = surface.eval_t(ts[k], phis[l])
            cr = np.cross(np.real(d_t), np.real(d_phi))
            nrm = np.linalg.norm(cr)
            positions[idx] = np.real(pos)
            areas[idx] = nrm
            normals[idx] = cr / nrm
            idx += 1
    w = np.outer(g.t_rule.weights, g.phi_rule.weights).ravel()
    phi_flat = np.tile(phis, n_t)
    scale = float(np.max(np.linalg.norm(positions, axis=1)))
    return _GridTables(
        thetas, ts, phis, positions, normals, w * areas, phi_flat, scale
    )


@lru_cache(maxsize=64)
def _density_table(surface: Surface, g: QuadratureGrid, density: DensitySpec) -> np.ndarray:
    tab = _grid_tables(surface, g)
    theta_flat = np.repeat(tab.thetas, g.n_phi)
    return np.asarray(density.value(theta_flat, tab.phi_flat), dtype=float)


def surface_scale(surface: Surface, g: QuadratureGrid) -> float:
    """Max |gamma| over the grid nodes; the residual-tolerance size proxy."""
    return _grid_tables(surface, g).scale


def nearest_grid_node(surface: Surface, g: QuadratureGrid, x):
    """Closest grid node to x by exhaustive scan.

    Returns (k, l, t_star, phi_star, distance).
    """
    tab = _grid_tables(surface, g)
    d2 = np.sum((tab.positions - np.asarray(x, dtype=float)) ** 2, axis=1)
    idx = int(np.argmin(d2))
    k, l = divmod(idx, g.n_phi)
    return k, l, float(tab.ts[k]), float(tab.phis[l]), float(math.sqrt(d2[idx]))


@dataclass(frozen=True)
class EvalPoint:
    """A target point with its derived grid-relative quantities."""

    x: np.ndarray
    k: int
    l: int
    t_star: float
    phi_star: float
    grid_distance: float

    @property
    def zeta(self) -> float:
        return float(np.linalg.norm(self.x))

    @property
    def rho(self) -> float:
        return float(math.hypot(self.x[0], self.x[1]))


def _finite_target(x) -> np.ndarray:
    """x as a float array; EvaluationError if a coordinate is NaN or infinite."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise EvaluationError(f"target {x.tolist()} is not finite")
    return x


def locate(surface: Surface, g: QuadratureGrid, x) -> EvalPoint:
    """Build an EvalPoint; rejects non-finite points and points on a grid node."""
    x = _finite_target(x)
    k, l, t_star, phi_star, dist = nearest_grid_node(surface, g, x)
    scale = surface_scale(surface, g)
    if dist <= 1e-12 * scale:
        raise EvaluationError(f"target {x.tolist()} coincides with a surface grid node")
    return EvalPoint(x, k, l, t_star, phi_star, dist)


def _kernel_values(kernel: KernelSpec, tab: _GridTables, x, dist):
    if kernel.kind == HARMONIC_SINGLE:
        return 1.0
    if kernel.kind == HARMONIC_DOUBLE:
        return np.einsum("ij,ij->i", tab.normals, tab.positions - x)
    return np.exp(-kernel.omega * dist)


def potential_quadrature(
    surface: Surface,
    kernel: KernelSpec,
    density: DensitySpec,
    g: QuadratureGrid,
    x,
) -> float:
    """Tensor quadrature of f / R^(2p) over the real grid nodes."""
    x = _finite_target(x)
    tab = _grid_tables(surface, g)
    sigma = _density_table(surface, g, density)
    diff = tab.positions - x
    r2 = np.einsum("ij,ij->i", diff, diff)
    dist = np.sqrt(r2)
    if np.min(dist) < 1e-14 * tab.scale:
        raise EvaluationError("a quadrature node coincides with the target point")
    kv = _kernel_values(kernel, tab, x, dist)
    return float(np.sum(tab.base_weights * sigma * kv / r2**kernel.p))


def reference_potential(
    surface: Surface,
    kernel: KernelSpec,
    density: DensitySpec,
    g: QuadratureGrid,
    x,
) -> float:
    """Same quadrature on the five-fold upsampled grid."""
    fine = grid(_UPSAMPLE * g.n_t, _UPSAMPLE * g.n_phi)
    return potential_quadrature(surface, kernel, density, fine, x)


def measured_error(
    surface: Surface,
    kernel: KernelSpec,
    density: DensitySpec,
    g: QuadratureGrid,
    x,
) -> float:
    """|base quadrature - upsampled reference|, the observed error."""
    return abs(
        potential_quadrature(surface, kernel, density, g, x)
        - reference_potential(surface, kernel, density, g, x)
    )
