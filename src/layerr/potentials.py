"""Layer-potential kernels, densities, and the tensor-quadrature evaluator.

A layer potential here is u(x) = integral of k(x, y) sigma(y) / |y - x|^(2p)
over the surface, discretized by the Gauss-Legendre x trapezoidal tensor
grid. The smooth factors are collected into f(t, phi) = k * sigma * area
element, which this module can evaluate at one complex parameter using the
analytic continuation sqrt(sum of squares) of the norms involved.

The measured quadrature error compares the base grid against the same
quadrature on a grid upsampled five-fold in both directions. That grid has
25 times the base nodes, so the sums never build a whole node table: they
stream the nodes through slabs of a few node tiles. What is cached per
base grid is what the nearest-node scan and the surface scale read, the node
positions and their largest |gamma|; no normals or weights are kept.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import EvaluationError, LayerrError
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

    def __post_init__(self):
        if self.kind not in (HARMONIC_SINGLE, HARMONIC_DOUBLE, MOD_HELMHOLTZ_SINGLE):
            raise ValueError(f"KernelSpec.kind names no kernel: {self.kind!r}")
        screened = self.kind == MOD_HELMHOLTZ_SINGLE
        if screened and not (self.omega is not None and 0.0 < self.omega < math.inf):
            raise ValueError(f"KernelSpec.omega must be finite and positive, got {self.omega}")

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
    return KernelSpec(MOD_HELMHOLTZ_SINGLE, float(omega))


@dataclass(frozen=True)
class DensitySpec:
    """Surface density sigma(theta, phi); extends to complex arguments."""

    kind: str

    def __post_init__(self):
        if self.kind not in (UNIT, PAPER):
            raise ValueError(f"DensitySpec.kind names no density: {self.kind!r}")

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


def integrand_f_at(kernel: KernelSpec, density: DensitySpec, theta, phi, diff, d_t, d_phi):
    """f at evaluated points: diff = gamma - x and the (t, phi) partials,
    coordinate first; theta and phi may be arrays.

    f = k(x, gamma) * sigma * |d gamma/dt x d gamma/dphi| with the norm
    continued as the principal square root of the complex sum of squares.
    The double-layer numerator folds the normalization of the normal into
    the area element, leaving sigma * (cross . (gamma - x)), which is
    entire and needs no branch choice.
    """
    cross = np.cross(d_t, d_phi, axis=0)
    sigma = density.value(theta, phi)
    if kernel.kind == HARMONIC_DOUBLE:
        return sigma * _dot_c(cross, diff)
    area = np.sqrt(_dot_c(cross, cross))
    if kernel.kind == HARMONIC_SINGLE:
        return sigma * area
    dist = np.sqrt(_dot_c(diff, diff))
    return np.exp(-kernel.omega * dist) * sigma * area


@dataclass(frozen=True, eq=False)
class _GridTables:
    """What the nearest-node scan and the scale read of a base grid: its node
    positions, coordinate first with node index k * n_phi + l last, and their
    largest |gamma|. The sums fill their own normals and weights slab by slab."""

    positions: np.ndarray  # (3, N)
    scale: float


def _fill_rows(surface, density, g, r0, r1, positions, normals, weights):
    """Fill the nodes of the Gauss-Legendre rows r0 to r1 of grid g into a
    sum's slab tables positions, normals and weights, from their first node on,
    and return the largest |gamma| among them.

    One array evaluation per block of whole rows, of about _TILE_NODES nodes,
    the rows' theta a column against the phi row, so theta, its Jacobian and
    their sines run once per row. Each block's positions, unit normals and
    weights w_t * w_phi * area element * sigma go straight into the tables,
    so no temporary is larger than a block.
    """
    theta_map, phis, n_phi = surface.theta_map, g.phi_rule.nodes, g.n_phi
    block_rows = max(1, _TILE_NODES // n_phi)
    scale = 0.0
    for start in range(r0, r1, block_rows):
        rows = slice(start, min(start + block_rows, r1))
        nodes = slice((start - r0) * n_phi, (rows.stop - r0) * n_phi)
        thetas = theta_map.theta(g.t_rule.nodes[rows, None])
        pos, d_theta, d_phi = surface.eval_sph(thetas, phis)
        d_t = d_theta * theta_map.dtheta_dt_at(thetas)
        position, normal = (table[:, nodes].reshape(pos.shape) for table in (positions, normals))
        position[...] = np.real(pos)
        normal[...] = np.cross(np.real(d_t), np.real(d_phi), axis=0)
        areas = np.linalg.norm(normal, axis=0)
        normal /= areas
        weight = np.multiply(np.outer(g.t_rule.weights[rows], g.phi_rule.weights), areas,
                             out=weights[nodes].reshape(areas.shape))
        weight *= density.value(thetas, phis)
        scale = max(scale, float(np.max(np.linalg.norm(position, axis=0))))
    return scale


@lru_cache(maxsize=64)
def _grid_tables(surface: Surface, g: QuadratureGrid) -> _GridTables:
    """The _GridTables of a base grid, filled a block of whole rows at a time
    as _fill_rows fills them, with the scale a running max over the blocks:
    a norm over the whole table would take 1.3x the table it measures."""
    thetas, phis = surface.theta_map.theta(g.t_rule.nodes), g.phi_rule.nodes
    positions = np.empty((3, g.n_t, g.n_phi))
    block_rows = max(1, _TILE_NODES // g.n_phi)
    scale = 0.0
    for start in range(0, g.n_t, block_rows):
        block = positions[:, start : start + block_rows]
        block[...] = np.real(surface.position(thetas[start : start + block_rows, None], phis))
        scale = max(scale, float(np.max(np.linalg.norm(block, axis=0))))
    return _GridTables(positions.reshape(3, -1), scale)


def surface_scale(surface: Surface, g: QuadratureGrid) -> float:
    """Max |gamma| over the grid nodes; the residual-tolerance size proxy."""
    return _grid_tables(surface, g).scale


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
# tile a worker of a sum takes works in place in that worker's own 512 KiB
# tile buffers, two of them (three for the double layer).
_TILE_TARGETS = 16
_TILE_NODES = 4096
# A sum fills the node tables of this many nodes at a time, eight node tiles.
_SLAB_NODES = 8 * _TILE_NODES


def _work_buffers(count: int, shape) -> np.ndarray:
    """count uninitialised float buffers of shape, as one array (count, *shape)
    in which each buffer starts on a 64-byte boundary, so that the speed of the
    kernels working in them does not depend on where the heap puts them."""
    size = math.prod(shape)
    stride = -(-size // 8) * 8
    raw = np.empty(count * stride + 7)
    start = -raw.ctypes.data % 64 // 8
    buffers = raw[start : start + count * stride].reshape(count, stride)
    return buffers[:, :size].reshape(count, *shape)


def _coordinate_sum(out, scratch, positions, xs, factors=None):
    """out = (d0 f0 + d1 f1) + d2 f2, with d_c = positions[c] - xs[:, c] and
    f_c = factors[c], or f_c = d_c (R^2) where factors is None."""
    for c in range(3):
        d = np.subtract(positions[c], xs[:, c, None], out=scratch if c else out)
        d *= d if factors is None else factors[c]
        if c:
            out += scratch


def nearest_grid_node(surface: Surface, g: QuadratureGrid, x):
    """Closest grid node to each target by exhaustive scan: (k, l, t_star,
    phi_star, distance), five scalars for one target x of shape (3,) and five
    arrays for a block (M, 3).

    A block is scanned in chunks of targets, each R^2 = (dx dx + dy dy) + dz dz
    formed by the sums' _coordinate_sum in two buffers that every chunk reuses,
    of at most _TILE_TARGETS * _TILE_NODES (target, node) entries or one
    target's row. A tie goes to the first node; the distance is inf or NaN for
    a target that is too far away (its R^2 overflows) or not finite.
    """
    block = target_block(x)
    positions = _grid_tables(surface, g).positions
    chunk = max(1, _TILE_TARGETS * _TILE_NODES // positions.shape[1])
    buffers = _work_buffers(2, (min(chunk, len(block)), positions.shape[1]))
    idx, d2 = np.empty(len(block), dtype=np.intp), np.empty(len(block))
    with np.errstate(over="ignore"):
        for i in range(0, len(block), chunk):
            r2, scratch = buffers[:, : len(block[i : i + chunk])]
            _coordinate_sum(r2, scratch, positions, block[i : i + chunk])
            np.argmin(r2, axis=1, out=idx[i : i + chunk])
            np.min(r2, axis=1, out=d2[i : i + chunk])
    k, l = np.divmod(idx, g.n_phi)
    found = (k, l, g.t_rule.nodes[k], g.phi_rule.nodes[l], np.sqrt(d2))
    return found if np.ndim(x) > 1 else tuple(v[0].item() for v in found)


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


def _affinity_cpus() -> list:
    """The CPUs this process may run on, in order; none where the platform
    cannot say, and then every sum runs in one worker."""
    if not hasattr(os, "sched_getaffinity"):
        return []
    return sorted(os.sched_getaffinity(0))


def _sum_tiles(kernel, positions, normals, weights, block, tiles, sums, nearest, buffers,
               cpu=None):
    """One worker of a sum over one slab of nodes: takes target tiles from the
    shared iterator tiles until it is exhausted, and adds each tile's terms
    into its rows of sums and nearest, node tile by node tile in node order.
    The node tables of the slab are coordinate first; buffers, of shape
    (3, _TILE_TARGETS * _TILE_NODES), are this worker's own.

    A worker on a thread of its own first pins that thread to cpu (on Linux,
    sched_setaffinity(0) sets the calling thread's mask only): two unpinned
    numpy threads often ran one after the other on a 2-CPU host. The inline
    worker, cpu None, leaves the calling thread's mask alone. next() on a
    range iterator is atomic under the interpreter lock, so each tile goes
    to one worker.
    """
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})
    # a target on a node divides by zero, one that is not finite makes NaN
    # terms, and one whose R^2 overflows makes inf: their sums are discarded.
    # Where only a double-layer R^3 overflows, the term underflows to zero.
    # numpy keeps its error state per context and a new thread starts at the
    # defaults, so each worker sets its own.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i in tiles:
            rows = slice(i, i + _TILE_TARGETS)
            for j in range(0, len(weights), _TILE_NODES):
                nodes = slice(j, j + _TILE_NODES)
                s, d = _tile_sums(
                    kernel, positions[:, nodes], normals[:, nodes], weights[nodes],
                    block[rows], buffers,
                )
                sums[rows] += s
                nearest[rows] = np.minimum(nearest[rows], d)


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
    1e-14 * scale of it, scale being the largest |gamma| over the nodes. A
    target's terms are added tile by tile in node order, so its sum is the
    same in any block and with any number of workers. An empty block (0, 3)
    returns [] and fills no slab.

    The nodes stream through slabs of _SLAB_NODES, whose starts are multiples
    of _TILE_NODES, so no table of the whole grid is built. For each slab the
    calling thread's _fill_rows fills the Gauss-Legendre rows that cover it,
    weights times sigma, into one set of slab tables, reused by every slab,
    and updates the running scale. Then the target tiles are shared out to one
    worker thread per CPU the process may run on, each pinned to its CPU and
    kept for the whole sum, and never more workers than tiles; a block of one
    tile, or a process on one CPU, runs its one worker inline. The next slab
    is filled once every worker has finished this one.
    """
    block = target_block(x)
    if not len(block):
        return []
    n_phi, n_nodes = g.n_phi, g.n_t * g.n_phi
    # rows that can cover one slab, however its start falls in a row
    slab_rows = min(g.n_t, -(-_SLAB_NODES // n_phi) + 1)
    positions, normals = np.empty((2, 3, slab_rows * n_phi))
    weights = np.empty(slab_rows * n_phi)
    sums = np.zeros(len(block))
    nearest = np.full(len(block), np.inf)
    starts = range(0, len(block), _TILE_TARGETS)
    cpus = _affinity_cpus()[: len(starts)]
    buffers = _work_buffers(max(1, len(cpus)), (3, _TILE_TARGETS * _TILE_NODES))
    scale = 0.0
    with ExitStack() as stack:
        # one thread per CPU for the whole sum: a thread of a shared pool could
        # take another CPU's worker in the next slab, and a thread that moved to
        # a CPU still running the other worker started a scheduler slice late
        pools = [stack.enter_context(ThreadPoolExecutor(1)) for _ in cpus] if len(cpus) > 1 else []
        for start in range(0, n_nodes, _SLAB_NODES):
            r0, r1 = start // n_phi, min(g.n_t, -(-(start + _SLAB_NODES) // n_phi))
            scale = max(scale, _fill_rows(surface, density, g, r0, r1,
                                          positions, normals, weights))
            nodes = slice(start - r0 * n_phi, min(start + _SLAB_NODES, n_nodes) - r0 * n_phi)
            args = (kernel, positions[:, nodes], normals[:, nodes], weights[nodes], block,
                    iter(starts), sums, nearest)
            if pools:
                workers = [pool.submit(_sum_tiles, *args, b, cpu=cpu)
                           for pool, b, cpu in zip(pools, buffers, cpus)]
                for worker in workers:
                    worker.result()
            else:
                _sum_tiles(*args, buffers[0])
    outcomes = []
    for xi, s, d in zip(block, sums, nearest):
        if not d < math.inf:
            outcomes.append(_not_located(xi))
        elif d < 1e-14 * scale:
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
