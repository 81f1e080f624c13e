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

from .errors import EvaluationError, LayerrError
from .quadrature import QuadratureGrid, grid
from .rounding import cmul
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
    return cmul(u[0], v[0]) + cmul(u[1], v[1]) + cmul(u[2], v[2])


def _cross_c(u, v):
    return np.array(
        [
            cmul(u[1], v[2]) - cmul(u[2], v[1]),
            cmul(u[2], v[0]) - cmul(u[0], v[2]),
            cmul(u[0], v[1]) - cmul(u[1], v[0]),
        ]
    )


def _sqrt_c(z):
    """Principal square root that stays real for non-negative real input."""
    if np.iscomplexobj(z) or np.any(np.less(z, 0.0)):
        return np.sqrt(np.asarray(z, dtype=complex))
    return np.sqrt(z)


def integrand_f_at(kernel: KernelSpec, density: DensitySpec, theta, phi, diff, d_t, d_phi):
    """f at evaluated points: diff = gamma - x and the (t, phi) partials,
    coordinate first; theta and phi may be arrays.

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
    """Per-(surface, grid) precomputed node data for fast potential sums.

    Node tables are coordinate first, node index k * n_phi + l last, so each
    coordinate is one contiguous row."""

    thetas: np.ndarray  # (n_t,)
    ts: np.ndarray  # (n_t,)
    phis: np.ndarray  # (n_phi,)
    positions: np.ndarray  # (3, N)
    normals: np.ndarray  # (3, N) outward unit normals
    base_weights: np.ndarray  # (N,) w_t * w_phi * area element
    scale: float


@lru_cache(maxsize=64)
def _grid_tables(surface: Surface, g: QuadratureGrid) -> _GridTables:
    # One array evaluation per Gauss-Legendre row: theta and the map's
    # Jacobian are scalars of the row, phi runs along it. The partials and
    # their cross products are formed one row at a time, so no whole-table
    # copy of them is held.
    ts = g.t_rule.nodes
    phis = g.phi_rule.nodes
    n_t, n_phi = g.n_t, g.n_phi
    positions = np.empty((3, n_t, n_phi))
    normals = np.empty((3, n_t, n_phi))
    thetas = surface.theta_map.theta(ts)
    jacobians = np.broadcast_to(surface.theta_map.dtheta_dt_at(thetas), thetas.shape)
    for k, (theta, jacobian) in enumerate(zip(thetas, jacobians)):
        pos, d_theta, d_phi = surface.eval_sph(np.full(n_phi, theta), phis)
        d_t = d_theta * jacobian
        positions[:, k] = np.real(pos)
        normals[:, k] = np.cross(np.real(d_t), np.real(d_phi), axis=0)
    positions = positions.reshape(3, -1)
    normals = normals.reshape(3, -1)
    areas = np.linalg.norm(normals, axis=0)
    normals /= areas
    w = np.outer(g.t_rule.weights, g.phi_rule.weights).ravel()
    scale = float(np.max(np.linalg.norm(positions, axis=0)))
    return _GridTables(thetas, ts, phis, positions, normals, w * areas, scale)


@lru_cache(maxsize=64)
def _sum_weights(surface: Surface, g: QuadratureGrid, density: DensitySpec) -> np.ndarray:
    """base_weights * sigma at the grid nodes: the weights of the potential sums."""
    tab = _grid_tables(surface, g)
    sigma = density.value(np.repeat(tab.thetas, g.n_phi), np.tile(tab.phis, g.n_t))
    return tab.base_weights * np.asarray(sigma, dtype=float)


def surface_scale(surface: Surface, g: QuadratureGrid) -> float:
    """Max |gamma| over the grid nodes; the residual-tolerance size proxy."""
    return _grid_tables(surface, g).scale


def nearest_grid_node(surface: Surface, g: QuadratureGrid, x):
    """Closest grid node to x by exhaustive scan.

    Returns (k, l, t_star, phi_star, distance); the distance is inf or NaN for
    a target that is too far away (its square overflows) or not finite.
    """
    tab = _grid_tables(surface, g)
    x = np.asarray(x, dtype=float)
    px, py, pz = tab.positions
    with np.errstate(over="ignore"):
        d2 = (px - x[0]) ** 2 + (py - x[1]) ** 2 + (pz - x[2]) ** 2
    idx = int(np.argmin(d2))
    k, l = divmod(idx, g.n_phi)
    return k, l, float(tab.ts[k]), float(tab.phis[l]), float(math.sqrt(d2[idx]))


def target_block(x) -> np.ndarray:
    """x as an (M, 3) float block of targets; one target of shape (3,) is a
    block of one. Any other shape is an EvaluationError naming it."""
    x = np.asarray(x, dtype=float)
    if x.shape == (3,):
        return x.reshape(1, 3)
    if x.ndim != 2 or x.shape[1] != 3:
        raise EvaluationError(
            f"targets of shape {x.shape} are neither one point (3,) nor a block (M, 3)"
        )
    return x


def one_or_block(x, outcomes):
    """The outcomes of the targets x as returned to the caller: the list for a
    block (M, 3); for one target (3,) its value, or its LayerrError raised."""
    if np.ndim(x) > 1:
        return outcomes
    if isinstance(outcomes[0], LayerrError):
        raise outcomes[0]
    return outcomes[0]


def _not_located(x) -> EvaluationError:
    """The error of a target x without a finite distance to the grid."""
    if np.all(np.isfinite(x)):
        return EvaluationError(f"target {x.tolist()} is too far away: its squared distance overflows")
    return EvaluationError(f"target {x.tolist()} is not finite")


# A sum walks (targets x nodes) tiles of at most this many entries. Every
# tile of a sum works in place in the same 256 KiB tile buffers, two of them
# (three for the double layer), so that they stay in cache.
_TILE_TARGETS = 8
_TILE_NODES = 4096


def _coordinate_sum(out, scratch, positions, xs, factors=None):
    """out = (d0 f0 + d1 f1) + d2 f2, with d_c = positions[c] - xs[:, c] and
    f_c = factors[c], or f_c = d_c (R^2) where factors is None."""
    for c in range(3):
        d = np.subtract(positions[c], xs[:, c, None], out=scratch if c else out)
        d *= d if factors is None else factors[c]
        if c:
            out += scratch


def _tile_sums(kernel: KernelSpec, positions, normals, weights, xs, buffers):
    """Sums of the quadrature terms over the nodes of one (targets x nodes)
    tile, and each target's nearest node distance there; the node tables are
    coordinate first, the targets xs of shape (m, 3).

    The arithmetic runs in place in buffers, of shape (3, at least m x nodes)
    and shared by all tiles of a sum: R^2, R, and n_y . (y - x) for the
    double layer.
    """
    m, n = len(xs), len(weights)
    r2, dist, ndot = buffers[:, : m * n].reshape(3, m, n)
    _coordinate_sum(r2, dist, positions, xs)
    if kernel.kind == HARMONIC_DOUBLE:
        _coordinate_sum(ndot, dist, positions, xs, normals)
    np.sqrt(r2, out=dist)
    nearest = np.min(dist, axis=1)
    # f / R^(2p) for the half-integer powers p = 1/2 and 3/2, without a pow
    if kernel.kind == HARMONIC_DOUBLE:
        ndot *= weights
        r2 *= dist
        terms = np.divide(ndot, r2, out=ndot)
    elif kernel.kind == MOD_HELMHOLTZ_SINGLE:
        terms = np.multiply(-kernel.omega, dist, out=r2)
        np.exp(terms, out=terms)
        terms *= weights
        terms /= dist
    else:
        terms = np.divide(weights, dist, out=dist)
    return np.sum(terms, axis=1), nearest


def potential_quadrature(
    surface: Surface,
    kernel: KernelSpec,
    density: DensitySpec,
    g: QuadratureGrid,
    x,
):
    """Tensor quadrature of f / R^(2p) over the real grid nodes, at one target
    or a block.

    x of shape (3,) returns the sum or raises its EvaluationError. x of shape
    (M, 3) returns M outcomes, each a sum or the EvaluationError of that
    target: not finite, too far away (R^2 overflows), or a node within
    1e-14 * scale of it. A target's terms are added tile by tile in node
    order, so its sum is the same in any block.
    """
    block = target_block(x)
    tab = _grid_tables(surface, g)
    weights = _sum_weights(surface, g, density)
    sums = np.zeros(len(block))
    nearest = np.full(len(block), np.inf)
    buffers = np.empty((3, _TILE_TARGETS * _TILE_NODES))
    # a target on a node divides by zero, one that is not finite makes NaN
    # terms, and one whose R^2 overflows makes inf: their sums are discarded.
    # Where only a double-layer R^3 overflows, the term underflows to zero.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i in range(0, len(block), _TILE_TARGETS):
            rows = slice(i, i + _TILE_TARGETS)
            for j in range(0, len(weights), _TILE_NODES):
                nodes = slice(j, j + _TILE_NODES)
                s, d = _tile_sums(
                    kernel, tab.positions[:, nodes], tab.normals[:, nodes], weights[nodes],
                    block[rows], buffers,
                )
                sums[rows] += s
                nearest[rows] = np.minimum(nearest[rows], d)
    outcomes = []
    for xi, s, d in zip(block, sums, nearest):
        if not d < math.inf:
            outcomes.append(_not_located(xi))
        elif d < 1e-14 * tab.scale:
            outcomes.append(EvaluationError("a quadrature node coincides with the target point"))
        else:
            outcomes.append(float(s))
    return one_or_block(x, outcomes)


def reference_potential(
    surface: Surface,
    kernel: KernelSpec,
    density: DensitySpec,
    g: QuadratureGrid,
    x,
):
    """Same quadrature on the five-fold upsampled grid, at one target or a block."""
    fine = grid(_UPSAMPLE * g.n_t, _UPSAMPLE * g.n_phi)
    return potential_quadrature(surface, kernel, density, fine, x)


def measured_error(
    surface: Surface,
    kernel: KernelSpec,
    density: DensitySpec,
    g: QuadratureGrid,
    x,
):
    """|base quadrature - upsampled reference|, the observed error, at one
    target or a block.

    x of shape (3,) returns the error or raises its EvaluationError; x of
    shape (M, 3) returns M outcomes, each an error or the EvaluationError of
    that target, the base sum's before the reference sum's.
    """
    block = target_block(x)
    base = potential_quadrature(surface, kernel, density, g, block)
    ref = reference_potential(surface, kernel, density, g, block)
    outcomes = [
        b if isinstance(b, LayerrError) else r if isinstance(r, LayerrError) else abs(b - r)
        for b, r in zip(base, ref)
    ]
    return one_or_block(x, outcomes)
