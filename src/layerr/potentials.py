"""Layer-potential kernels, densities, and the tensor-quadrature evaluator.

A layer potential here is u(x) = integral of k(x, y) sigma(y) / |y - x|^(2p)
over the surface, discretized by the Gauss-Legendre x trapezoidal tensor
grid. The smooth factors are collected into f(t, phi) = k * sigma * area
element, which this module can evaluate at one complex parameter using the
analytic continuation sqrt(sum of squares) of the norms involved.

The measured quadrature error compares the base grid against the same
quadrature on a grid upsampled five-fold in both directions. That grid has
25 times the base nodes, so the sums never build a whole node table: they
stream the nodes through slabs of a few node tiles, and fill and hold only
what their kernel reads, the unit normals for the double layer alone. The
calling thread fills each slab and cuts its node tiles; one worker thread per
CPU, pinned when it starts, sums them over tiles of 16 targets, or 8 for the
double layer, in the same 1 MiB of tile buffers for every kernel. What
is cached per base grid is what the nearest-node scan and the surface scale
read, the node positions, cut into patches with a bounding sphere each, and
their largest |gamma|; no normals or weights are kept.
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
        # the sums tell the screened kernel by its omega
        if not screened and self.omega is not None:
            raise ValueError(f"KernelSpec.omega is for {MOD_HELMHOLTZ_SINGLE} only, "
                             f"got {self.omega} for {self.kind}")

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
    positions, cut into patches, and their largest |gamma|. The sums fill their
    own positions, normals and weights slab by slab.

    A patch is a rectangle of whole grid rows and columns, about N^(1/4) of
    them each way: about sqrt(N) patches of about sqrt(N) nodes, also on a
    grid of few rows. The last range of rows and the last of columns end at the
    grid's edge, so they may overlap the range before them and every patch has
    the same shape. positions holds each patch's nodes in row-major order,
    coordinate first, (3, patches, nodes per patch); the first node of patch p
    is grid node first[p] (index k * n_phi + l), and its rows are cols nodes
    long. No node of patch p lies farther than radii[p], in computed distance,
    from centres[:, p], the middle of the patch's bounding box.
    """

    positions: np.ndarray  # (3, patches, rows * cols)
    cols: int
    first: np.ndarray  # (patches,)
    centres: np.ndarray  # (3, patches)
    radii: np.ndarray  # (patches,)
    scale: float


def _fill_rows(surface, density, g, r0, r1, positions, normals, weights):
    """Fill the nodes of the Gauss-Legendre rows r0 to r1 of grid g into a
    sum's slab tables positions, normals and weights, from their first node on,
    and return the largest |gamma| among them. normals is None for a kernel
    that reads no normals, and then none is normalised.

    One array evaluation per block of whole rows, of about _TILE_NODES nodes,
    the rows' theta a column against the phi row, so theta, its Jacobian and
    their sines run once per row. Each block's positions, unit normals and
    weights w_t * w_phi * area element * sigma go straight into the tables.
    Component c of the cross product d gamma/dt x d gamma/dphi is
    a_i b_j - a_j b_i, in the normal table or in a block buffer, and the area
    element sqrt((n0 n0 + n1 n1) + n2 n2) is formed in the weight table: the
    bits of np.cross and np.linalg.norm, with no temporary of three blocks.
    """
    theta_map, phis, n_phi = surface.theta_map, g.phi_rule.nodes, g.n_phi
    block_rows = max(1, _TILE_NODES // n_phi)
    scratch = np.empty((2, block_rows * n_phi))
    largest = 0.0
    for start in range(r0, r1, block_rows):
        rows = slice(start, min(start + block_rows, r1))
        nodes = slice((start - r0) * n_phi, (rows.stop - r0) * n_phi)
        thetas = theta_map.theta(g.t_rule.nodes[rows, None])
        pos, d_theta, d_phi = surface.eval_sph(thetas, phis)
        a, b = np.real(d_theta * theta_map.dtheta_dt_at(thetas)), np.real(d_phi)
        shape = pos.shape[1:]
        position = positions[:, nodes].reshape(pos.shape)
        position[...] = np.real(pos)
        # the area element first, then times the rule weights and sigma
        weight = weights[nodes].reshape(shape)
        cross, temp = (buf[: weight.size].reshape(shape) for buf in scratch)
        for c in range(3):
            i, j = (c + 1) % 3, (c + 2) % 3
            normal = cross if normals is None else normals[c, nodes].reshape(shape)
            np.multiply(a[i], b[j], out=normal)
            normal -= np.multiply(a[j], b[i], out=temp)
            np.multiply(normal, normal, out=temp if c else weight)
            if c:
                weight += temp
        np.sqrt(weight, out=weight)
        if normals is not None:
            normals[:, nodes] /= weight.ravel()
        weight *= np.outer(g.t_rule.weights[rows], g.phi_rule.weights)
        weight *= density.value(thetas, phis)
        # the largest |gamma| as the root of the largest (p0 p0 + p1 p1) + p2 p2:
        # the root is monotone and correctly rounded, so this is its largest norm
        for c in range(3):
            np.multiply(position[c], position[c], out=temp if c else cross)
            if c:
                cross += temp
        largest = max(largest, float(np.max(cross)))
    return math.sqrt(largest)


@lru_cache(maxsize=64)
def _grid_tables(surface: Surface, g: QuadratureGrid) -> _GridTables:
    """The _GridTables of a base grid, filled a band of patches at a time: one
    evaluation of the band's rows against the phi row, copied into its patches,
    with the scale a running max over the bands. No temporary is larger than a
    band, about N^(3/4) nodes: a norm over the whole table would take 1.3x the
    table it measures."""
    n_t, n_phi = g.n_t, g.n_phi
    # about side x side patches; a grid of fewer than side rows has one row
    # per patch and wider patches, so there are still about side^2
    side = round((n_t * n_phi) ** 0.25)
    rows = -(-n_t // side)
    cols = -(-n_phi * -(-n_t // rows) // side**2)
    ks = np.minimum(np.arange(0, n_t, rows), n_t - rows)
    ls = np.minimum(np.arange(0, n_phi, cols), n_phi - cols)
    thetas, phis = surface.theta_map.theta(g.t_rule.nodes), g.phi_rule.nodes
    positions = np.empty((3, len(ks), len(ls), rows * cols))
    centres, radii = np.empty((3, len(ks), len(ls))), np.empty((len(ks), len(ls)))
    scale = 0.0
    for i, k in enumerate(ks):
        band = np.real(surface.position(thetas[k : k + rows, None], phis))
        scale = max(scale, float(np.max(np.linalg.norm(band, axis=0))))
        patches = positions[:, i].reshape(3, len(ls), rows, cols)
        patches[...] = band[:, :, ls[:, None] + np.arange(cols)].swapaxes(1, 2)
        centre = (np.min(positions[:, i], axis=2) + np.max(positions[:, i], axis=2)) / 2
        offsets = np.linalg.norm(positions[:, i] - centre[..., None], axis=0)
        centres[:, i], radii[i] = centre, np.max(offsets, axis=1)
    first = (ks[:, None] * n_phi + ls).ravel()
    return _GridTables(positions.reshape(3, len(first), -1), cols, first,
                       centres.reshape(3, -1), radii.ravel(), scale)


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
# tile a worker of a sum takes works in place in that worker's own tile
# buffers, 2 x _TILE_TARGETS x _TILE_NODES doubles (1 MiB) for every kernel:
# two of these tiles for the single layers, and four of tiles of half the
# targets for the double layer (_tile_layout).
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


def _coordinate_sum(out, scratch, positions, columns):
    """out = R^2 = (d0 d0 + d1 d1) + d2 d2, with d_c = positions[c] - columns[c]
    and columns the targets' coordinates, (3, m, 1)."""
    for c in range(3):
        d = np.subtract(positions[c], columns[c], out=scratch if c else out)
        d *= d
        if c:
            out += scratch


# The nearest-node scan works in three buffers of this many entries, together
# the size of one of the sums' tiles: its (target, patch) bounds, and its
# (target, node) R^2 and scratch.
_SCAN_ENTRIES = _TILE_TARGETS * _TILE_NODES // 3
# Skipping a patch is exact where its bound lb = |x - c| - r exceeds the best
# distance found, ub, by more than _PRUNE_REL * (lb + 2 r + ub) + _PRUNE_ABS.
# With eps the machine epsilon: the computed norms |x - c|, and each |y - c|
# behind r, lie within 1.75 eps of the exact ones, and lb within eps / 2 of
# the sum |x - c| + r; a computed R^2 lies within 2.5 eps of |x - y|^2, so its
# root within 1.25 eps of |x - y|; and ub within eps / 2 of the root of its
# R^2. Together they take less than 3.5 eps (lb + 2 r) + 0.5 eps ub off the
# gap between a patch's nodes and ub, and rounding the test itself less than
# what is left of 4 eps. Squares that underflow take at most
# sqrt(3 * 2^-1075) off a distance, less than the root of the smallest normal.
_PRUNE_REL = 4 * np.finfo(float).eps
_PRUNE_ABS = math.sqrt(np.finfo(float).tiny)


def _patch_r2(out, scratch, positions, patches, xs):
    """out[j] = R^2 from the target xs[j] to each node of patch patches[j], as
    _coordinate_sum forms it: (dx dx + dy dy) + dz dz. positions is the
    patch table of _GridTables, (3, patches, nodes per patch)."""
    for c in range(3):
        # mode="clip" gathers straight into the buffer; the default buffers out
        d = np.take(positions[c], patches, axis=0, out=scratch if c else out, mode="clip")
        d -= xs[:, c, None]
        d *= d
        if c:
            out += scratch


def _scan_patches(tab: _GridTables, n_phi, xs, lanes, patches, r2, scratch):
    """The least R^2 from each target xs[lanes[j]] to a node of patch
    patches[j], and that node's grid index; the first such node in the patch
    on a tie. The pairs are scanned as many at a time as fill r2."""
    size = tab.positions.shape[2]
    per = max(1, r2.size // size)
    least, at = np.empty(len(lanes)), np.empty(len(lanes), dtype=np.intp)
    for j in range(0, len(lanes), per):
        pairs = slice(j, j + per)
        n = len(lanes[pairs])
        out, temp = r2[: n * size].reshape(n, size), scratch[: n * size].reshape(n, size)
        _patch_r2(out, temp, tab.positions, patches[pairs], xs[lanes[pairs]])
        np.argmin(out, axis=1, out=at[pairs])
        np.min(out, axis=1, out=least[pairs])
    row, col = np.divmod(at, tab.cols)
    return least, tab.first[patches] + row * n_phi + col


def nearest_grid_node(surface: Surface, g: QuadratureGrid, x):
    """Closest grid node to each target: (k, l, t_star, phi_star, distance),
    five scalars for one target x of shape (3,) and five arrays for a block
    (M, 3).

    An exact scan pruned by the patches of _GridTables. For a block of
    targets, every (target, patch) pair is bounded from below by
    lb = |x - c| - r; each target's patch of least lb is scanned, which gives
    it an upper bound ub; then only the pairs whose lb does not exceed ub by
    more than a bound on rounding (_PRUNE_REL) are scanned. Each node's R^2 is
    (dx dx + dy dy) + dz dz, and a tie goes to the node of least index. A
    target whose bounds or R^2 overflow, or that is not finite, prunes no
    patch; its distance is inf or NaN, and its node (0, 0). The scan works in
    three buffers of _SCAN_ENTRIES, whatever the grid.
    """
    block = target_block(x)
    tab = _grid_tables(surface, g)
    n_patches = len(tab.radii)
    per = max(1, _SCAN_ENTRIES // n_patches)
    bounds, r2, scratch = _work_buffers(3, (_SCAN_ENTRIES,))
    idx, d2 = np.empty(len(block), dtype=np.intp), np.empty(len(block))
    # a NaN target makes NaN bounds and R^2, where np.minimum.at flags invalid
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(0, len(block), per):
            xs = block[i : i + per]
            lanes = np.arange(len(xs))
            lb, gap = (b[: len(xs) * n_patches].reshape(len(xs), n_patches)
                       for b in (bounds, scratch))
            _coordinate_sum(lb, gap, tab.centres, xs.T[:, :, None])
            np.sqrt(lb, out=lb)
            lb -= tab.radii
            nearest = np.argmin(lb, axis=1)
            least, node = _scan_patches(tab, g.n_phi, xs, lanes, nearest, r2, scratch)
            ub = np.sqrt(least)[:, None]
            # skip where lb > ub + _PRUNE_REL * (lb + 2 r + ub) + _PRUNE_ABS;
            # a NaN or inf bound skips nothing
            np.add(lb, ub, out=gap)
            gap += 2.0 * tab.radii
            gap *= _PRUNE_REL
            gap += ub + _PRUNE_ABS
            scan = ~(lb > gap)
            scan[lanes, nearest] = False
            lane, patch = np.nonzero(scan)
            more, more_node = _scan_patches(tab, g.n_phi, xs, lane, patch, r2, scratch)
            # per lane the least R^2, then the least index of a node at it; a
            # NaN R^2 is the least, as argmin takes it. The indices go through
            # np.minimum.at as floats, exact below 2^53: its integer loop, run
            # nowhere else, added 0.2 MB to spheroid-random's peak RSS
            best = d2[i : i + len(xs)]
            best[...] = least
            np.minimum.at(best, lane, more)
            first = np.where(least > best, math.inf, node)
            tied = ~(more > best[lane])
            np.minimum.at(first, lane[tied], more_node[tied])
            idx[i : i + len(xs)] = first
    k, l = np.divmod(idx, g.n_phi)
    found = (k, l, g.t_rule.nodes[k], g.phi_rule.nodes[l], np.sqrt(d2))
    return found if np.ndim(x) > 1 else tuple(v[0].item() for v in found)


def _tile_layout(kernel: KernelSpec):
    """(buffers, targets): the tile buffers each worker of a sum of kernel
    holds, and the most targets a tile has. Together the buffers hold
    2 x _TILE_TARGETS x _TILE_NODES doubles for every kernel: R^2 and R for
    the single layers; R^2, n_y . (y - x), a coordinate difference and a
    product for the double layer, in tiles of half the targets."""
    if kernel.kind == HARMONIC_DOUBLE:
        return 4, _TILE_TARGETS // 2
    return 2, _TILE_TARGETS


def _tile_sums(kernel: KernelSpec, positions, normals, weights, columns, buffers):
    """Sums of the quadrature terms over the nodes of one (targets x nodes)
    tile, and each target's nearest node distance there; the node tables are
    coordinate first, and columns holds the m targets' coordinates as three
    columns, (3, m, 1).

    The arithmetic runs in place in buffers, of shape (_tile_layout's count,
    at least m x nodes) and shared by all tiles of a sum. The kernel is told
    by what the sum passes: normals for the double layer, the one kernel that
    reads them, and omega for the screened single layer. The double layer
    forms each coordinate difference d_c once and adds d_c n_c into
    n_y . (y - x) and d_c d_c into R^2, both as (c0 + c1) + c2, the
    association of the single layers' R^2.
    """
    m, n = columns.shape[1], len(weights)
    tiles = buffers[:, : m * n].reshape(len(buffers), m, n)
    if normals is None:
        r2, dist = tiles
        _coordinate_sum(r2, dist, positions, columns)
    else:
        # dist holds each coordinate difference until it holds R
        r2, ndot, dist, product = tiles
        for c in range(3):
            d = np.subtract(positions[c], columns[c], out=dist)
            np.multiply(d, normals[c], out=product if c else ndot)
            if c:
                ndot += product
            np.multiply(d, d, out=product if c else r2)
            if c:
                r2 += product
    np.sqrt(r2, out=dist)
    nearest = np.minimum.reduce(dist, axis=1)
    # f / R^(2p) for the half-integer powers p = 1/2 and 3/2, without a pow
    if normals is not None:
        ndot *= weights
        r2 *= dist
        terms = np.divide(ndot, r2, out=ndot)
    elif kernel.omega is None:
        terms = np.divide(weights, dist, out=dist)
    else:
        terms = np.multiply(-kernel.omega, dist, out=r2)
        np.exp(terms, out=terms)
        terms *= weights
        terms /= dist
    return np.add.reduce(terms, axis=1), nearest


def _affinity_cpus() -> list:
    """The CPUs this process may run on, in order; none where the platform
    cannot say, and then every sum runs in one worker."""
    if not hasattr(os, "sched_getaffinity"):
        return []
    return sorted(os.sched_getaffinity(0))


def _sum_tiles(kernel, node_tiles, block, tiles, sums, nearest, buffers):
    """One worker of a sum over one slab of nodes: takes target tiles, slices
    of block, from the shared iterator tiles until it is exhausted, and adds
    each tile's terms into its rows of sums and nearest, node tile by node
    tile of node_tiles in node order. node_tiles holds the slab's
    (positions, normals, weights) tiles, coordinate first, normals None where
    the kernel reads none; buffers, of _tile_layout's shape, are this
    worker's own. next() on a list iterator is atomic under the interpreter
    lock, so each tile goes to one worker.
    """
    # a target on a node divides by zero, one that is not finite makes NaN
    # terms, and one whose R^2 overflows makes inf: their sums are discarded.
    # Where only a double-layer R^3 overflows, the term underflows to zero.
    # numpy keeps its error state per context and a new thread starts at the
    # defaults, so each worker sets its own.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for rows in tiles:
            columns = block[rows].T[:, :, None]
            tile_sums, tile_nearest = sums[rows], nearest[rows]
            for node_tile in node_tiles:
                s, d = _tile_sums(kernel, *node_tile, columns, buffers)
                tile_sums += s
                np.minimum(tile_nearest, d, out=tile_nearest)


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
    positions and weights times sigma, and unit normals for the double layer
    only, into one set of slab tables, reused by every slab, and updates the
    running scale; then it cuts the slab into node tiles. The targets are cut
    once into tiles of _tile_layout's size, 16 targets, or 8 for the double
    layer, in target order, and each slab's tiles are shared out to one worker
    thread per CPU the process may run on, pinned to it when the thread starts
    and kept for the whole sum, never more workers than tiles. A block of one
    tile, or a process on one CPU, runs its one worker inline. Each worker
    holds the tile buffers of _tile_layout, the same 1 MiB for every kernel.
    The next slab is filled once every worker has finished this one.
    """
    block = target_block(x)
    if not len(block):
        return []
    n_phi, n_nodes = g.n_phi, g.n_t * g.n_phi
    double = kernel.kind == HARMONIC_DOUBLE
    # rows that can cover one slab, however its start falls in a row
    slab_nodes = min(g.n_t, -(-_SLAB_NODES // n_phi) + 1) * n_phi
    positions, weights = np.empty((3, slab_nodes)), np.empty(slab_nodes)
    normals = np.empty((3, slab_nodes)) if double else None
    sums = np.zeros(len(block))
    nearest = np.full(len(block), np.inf)
    count, size = _tile_layout(kernel)
    tiles = [slice(i, i + size) for i in range(0, len(block), size)]
    cpus = _affinity_cpus()[: len(tiles)]
    buffers = _work_buffers(max(1, len(cpus)), (count, size * _TILE_NODES))
    scale = 0.0
    with ExitStack() as stack:
        # one thread per CPU for the whole sum, pinned by its first task (on
        # Linux, sched_setaffinity(0) sets the calling thread's mask only):
        # two unpinned numpy threads often ran one after the other on a 2-CPU
        # host, and a thread of a shared pool could take another CPU's worker
        # in the next slab and start a scheduler slice late
        pools = [stack.enter_context(ThreadPoolExecutor(1)) for _ in cpus] if len(cpus) > 1 else []
        for pin in [pool.submit(os.sched_setaffinity, 0, {cpu}) for pool, cpu in zip(pools, cpus)]:
            pin.result()
        for start in range(0, n_nodes, _SLAB_NODES):
            r0, r1 = start // n_phi, min(g.n_t, -(-(start + _SLAB_NODES) // n_phi))
            scale = max(scale, _fill_rows(surface, density, g, r0, r1,
                                          positions, normals, weights))
            first, last = start - r0 * n_phi, min(start + _SLAB_NODES, n_nodes) - r0 * n_phi
            cuts = [slice(j, min(j + _TILE_NODES, last)) for j in range(first, last, _TILE_NODES)]
            node_tiles = [(positions[:, t], normals if normals is None else normals[:, t], weights[t])
                          for t in cuts]
            args = (kernel, node_tiles, block, iter(tiles), sums, nearest)
            if pools:
                workers = [pool.submit(_sum_tiles, *args, b) for pool, b in zip(pools, buffers)]
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
