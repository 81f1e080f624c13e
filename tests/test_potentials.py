import errno
import itertools
import math
import os
import re
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from layerr import potentials
from layerr.errors import EvaluationError
from layerr.potentials import (
    DensitySpec,
    KernelSpec,
    _SLAB_NODES,
    _TILE_NODES,
    _TILE_TARGETS,
    _grid_tables,
    _tile_sums,
    harmonic_double,
    harmonic_single,
    measured_error,
    mod_helmholtz_single,
    nearest_grid_node,
    paper_density,
    potential_quadrature,
    reference_potential,
    unit_density,
)
from layerr.cli import preset_config
from layerr.estimates import _build_frame, _root_terms, full_estimate
from layerr.quadrature import grid
from layerr.surfaces import LINEAR_MAP, Sphere, Spheroid, paper_blob


SPHERE = Sphere(1.0)
G_SPHERE = grid(30, 60)


def _streamed_tables(surface, g, density, kernel=harmonic_double()):
    """The node tables a sum of kernel streams, node tile by node tile, joined:
    positions, normals and the weights times sigma, recorded from one inline
    sum at one target. Only the double layer streams normals; for the single
    layers they are None."""
    tiles = []

    def recorded(kernel, node_tiles, *args):
        tiles.extend((positions.copy(), normals if normals is None else normals.copy(),
                      weights.copy()) for positions, normals, weights in node_tiles)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(potentials, "_sum_tiles", recorded)
        potential_quadrature(surface, kernel, density, g, [[9.0, 0.0, 0.0]])
    positions, normals, weights = zip(*tiles)
    return (np.concatenate(positions, axis=-1),
            None if normals[0] is None else np.concatenate(normals, axis=-1),
            np.concatenate(weights))


def _node_positions(surface, g):
    """The positions of the grid g's nodes in node order, (3, N), evaluated as
    the base grid's table is: each row's theta a column against the phi row."""
    thetas = surface.theta_map.theta(g.t_rule.nodes)
    return np.real(surface.position(thetas[:, None], g.phi_rule.nodes)).reshape(3, -1)


def _whole_tables(surface, g):
    """The node tables of the whole grid g, filled by _fill_rows over all its
    rows into full-size arrays with unit sigma, exactly 1.0: the polar angle of
    each row, the positions, normals and weights w_t * w_phi * area element of
    each node, and the scale."""
    n_nodes = g.n_t * g.n_phi
    positions, normals, weights = np.empty((3, n_nodes)), np.empty((3, n_nodes)), np.empty(n_nodes)
    scale = potentials._fill_rows(surface, unit_density(), g, 0, g.n_t,
                                  positions, normals, weights)
    return surface.theta_map.theta(g.t_rule.nodes), positions, normals, weights, scale


# ----------------------------------------------------------- smooth factors


def test_unit_sphere_cosine_integrand_is_one():
    k = harmonic_single()
    d = unit_density()
    frame = _build_frame(SPHERE, k, d, G_SPHERE, np.array([5.0, 0.0, 0.0]))
    for t in (-0.8, 0.0, 0.6):
        for phi in (0.1, 2.5):
            f = _root_terms(frame, SPHERE.theta_map.theta(t), phi)[0][0]
            assert complex(f).real == pytest.approx(1.0, rel=1e-12)
            assert complex(f).imag == pytest.approx(0.0, abs=1e-13)


def test_double_layer_numerator_at_center():
    # outward normal dotted with the radius vector gives the radius:
    # with unit density and unit area element, f = a at the center
    k = harmonic_double()
    d = unit_density()
    frame = _build_frame(SPHERE, k, d, G_SPHERE, np.array([0.0, 0.0, 0.0]))
    f = _root_terms(frame, SPHERE.theta_map.theta(0.3), 1.2)[0][0]
    assert complex(f).real == pytest.approx(1.0, rel=1e-12)


def test_mod_helmholtz_numerator_decay():
    k = mod_helmholtz_single(3.0)
    d = unit_density()
    # target at distance 1 from the evaluation point on the surface
    theta, phi = SPHERE.theta_map.theta(0.0), 0.0
    x = np.real(SPHERE.position(theta, phi)) - np.array([1.0, 0.0, 0.0])
    f = _root_terms(_build_frame(SPHERE, k, d, G_SPHERE, x), theta, phi)[0][0]
    assert abs(complex(f)) == pytest.approx(math.exp(-3.0), rel=1e-12)


@pytest.mark.parametrize(
    "kernel",
    [harmonic_single(), harmonic_double(), mod_helmholtz_single(2.0)],
    ids=lambda k: k.kind,
)
def test_estimator_numerator_is_the_quadrature_integrand(kernel):
    # f from the estimator's root terms at every real node equals the sums'
    # weight over the rule weights, times 1, n.(y - x) or exp(-omega R)
    blob, g, density = paper_blob(), grid(12, 24), paper_density()
    xs = np.array([[1.3, 0.1, 0.2], [0.1, -0.2, 0.3]])
    positions, normals, weights = _streamed_tables(blob, g, density)
    theta = np.repeat(blob.theta_map.theta(g.t_rule.nodes), g.n_phi)[:, None]
    phi = np.tile(g.phi_rule.nodes, g.n_t)[:, None]
    f = _root_terms(_build_frame(blob, kernel, density, g, xs), theta, phi)[0]
    rule_weights = np.outer(g.t_rule.weights, g.phi_rule.weights).ravel()
    area_sigma = weights / rule_weights
    diff = positions.T[:, None, :] - xs
    factor = {
        "harmonic_single": np.ones(diff.shape[:2]),
        "harmonic_double": np.einsum("kc,kmc->km", normals.T, diff),
        "mod_helmholtz_single": np.exp(-2.0 * np.linalg.norm(diff, axis=-1)),
    }[kernel.kind]
    expected = area_sigma[:, None] * factor
    # the double layer's n.(y - x) cancels at some nodes: compare against the
    # largest numerator
    np.testing.assert_allclose(f, expected, rtol=0.0, atol=1e-12 * np.max(np.abs(expected)))


def test_paper_density_formula():
    d = paper_density()
    theta, phi = 0.7, 1.9
    assert d.value(theta, phi) == pytest.approx(
        1.0 + math.sin(6 * phi + theta) * math.sin(theta) ** 2
    )


@pytest.mark.parametrize(
    "make, field",
    [
        (lambda: mod_helmholtz_single(math.nan), "KernelSpec.omega"),
        (lambda: mod_helmholtz_single(math.inf), "KernelSpec.omega"),
        (lambda: mod_helmholtz_single(0.0), "KernelSpec.omega"),
        (lambda: mod_helmholtz_single(-1.0), "KernelSpec.omega"),
        (lambda: KernelSpec("mod_helmholtz_single"), "KernelSpec.omega"),
        (lambda: KernelSpec("harmonic_single", 3.0), "KernelSpec.omega"),
        (lambda: KernelSpec("foo"), "KernelSpec.kind"),
        (lambda: DensitySpec("bogus"), "DensitySpec.kind"),
    ],
    ids=["nan-omega", "inf-omega", "zero-omega", "negative-omega", "no-omega",
         "harmonic-omega", "kind", "density-kind"],
)
def test_invalid_kernel_and_density_specs_are_rejected(make, field):
    # unchecked, these summed as another kernel or density, or failed later
    # with a misleading error inside the estimate
    with pytest.raises(ValueError, match=re.escape(field)):
        make()


# --------------------------------------------------------- shell potentials


def test_shell_potential_exterior():
    u = potential_quadrature(SPHERE, harmonic_single(), unit_density(), G_SPHERE, [0, 0, 2.0])
    assert u == pytest.approx(2 * math.pi, abs=1e-10)


def test_shell_potential_interior():
    u = potential_quadrature(SPHERE, harmonic_single(), unit_density(), G_SPHERE, [0, 0.5, 0])
    assert u == pytest.approx(4 * math.pi, abs=1e-10)


def test_double_layer_gauss_identity():
    # with the outward-normal convention the closed-surface identity gives
    # +4 pi inside and 0 outside
    k = harmonic_double()
    d = unit_density()
    u_in = potential_quadrature(SPHERE, k, d, G_SPHERE, [0.25, 0.1, -0.2])
    u_out = potential_quadrature(SPHERE, k, d, G_SPHERE, [1.4, 1.0, 0.8])
    assert u_in == pytest.approx(4 * math.pi, abs=1e-10)
    assert u_out == pytest.approx(0.0, abs=1e-10)


def test_reference_far_point_agrees_with_base():
    x = [0.0, 2.5, 0.0]
    base = potential_quadrature(SPHERE, harmonic_single(), unit_density(), G_SPHERE, x)
    ref = reference_potential(SPHERE, harmonic_single(), unit_density(), G_SPHERE, x)
    assert abs(base - ref) < 1e-12


def test_reference_converged_close_to_surface():
    x = [1.05, 0.0, 0.0]
    ref = reference_potential(SPHERE, harmonic_single(), unit_density(), G_SPHERE, x)
    exact = 4 * math.pi / 1.05
    # the five-fold grid error at this separation sits near 3.5e-9
    assert ref == pytest.approx(exact, abs=1e-8)
    base = potential_quadrature(SPHERE, harmonic_single(), unit_density(), G_SPHERE, x)
    assert abs(base - exact) > 1e-4  # the base grid is visibly unconverged here


def test_measured_error_far_point_tiny():
    assert measured_error(SPHERE, harmonic_single(), unit_density(), G_SPHERE, [0, 0, 3.0]) < 1e-12


def test_measured_error_within_simplified_band():
    from layerr.estimates import sphere_simplified

    x = [1.1, 0.0, 0.02]
    eq = measured_error(SPHERE, harmonic_single(), unit_density(), G_SPHERE, x)
    bound = sphere_simplified(float(np.linalg.norm(x)), 1.0, 0.5, 60)
    assert eq <= bound
    assert eq >= bound / 100.0


def test_interior_mirror_same_magnitude():
    k, d = harmonic_single(), unit_density()
    e_out = measured_error(SPHERE, k, d, G_SPHERE, [1.1, 0.0, 0.013])
    e_in = measured_error(SPHERE, k, d, G_SPHERE, [1 / 1.1, 0.0, 0.012])
    assert 0.1 < e_out / e_in < 10.0


def test_convergence_with_refinement():
    k, d = harmonic_single(), unit_density()
    x = [1.5, 0.0, 0.3]
    errs = [measured_error(SPHERE, k, d, grid(n, 2 * n), x) for n in (10, 20, 40)]
    assert errs[1] < 3.0 * errs[0]
    assert errs[2] < 3.0 * errs[1]
    assert errs[2] < errs[0] / 100.0


def test_rotational_symmetry_of_potentials():
    # rotations by grid multiples permute the azimuthal sum exactly
    k, d = harmonic_single(), unit_density()
    s = Spheroid(1.0, 3.0)
    g = grid(24, 48)
    vals = []
    for j in (0, 5, 17):
        psi = 2 * math.pi * j / 48
        x = [1.4 * math.cos(psi), 1.4 * math.sin(psi), 0.5]
        vals.append(potential_quadrature(s, k, d, g, x))
    assert vals[0] == pytest.approx(vals[1], abs=1e-13)
    assert vals[0] == pytest.approx(vals[2], abs=1e-13)


def test_singular_node_rejected():
    node = np.real(SPHERE.position(SPHERE.theta_map.theta(G_SPHERE.t_rule.nodes[3]),
                                   G_SPHERE.phi_rule.nodes[5]))
    with pytest.raises(EvaluationError):
        potential_quadrature(SPHERE, harmonic_single(), unit_density(), G_SPHERE, node)


# ------------------------------------------------------ tiled block sums

KERNELS = [harmonic_single(), harmonic_double(), mod_helmholtz_single(3.0)]
KERNEL_IDS = ["single", "double", "helmholtz"]
# 13 x 27 base nodes and a 65 x 135 reference grid: neither node count, nor
# the 37 targets below, is a multiple of its tile size
BLOB, G_BLOB = paper_blob(), grid(13, 27)


def _blob_targets():
    rng = np.random.default_rng(5)
    dirs = rng.standard_normal((37, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    return dirs * rng.uniform(0.5, 2.0, (37, 1))


def test_tile_sizes_do_not_divide_the_test_blocks():
    n_ref = 25 * G_BLOB.n_t * G_BLOB.n_phi
    assert n_ref > 2 * _TILE_NODES and n_ref % _TILE_NODES
    assert G_BLOB.n_t * G_BLOB.n_phi % _TILE_NODES
    assert len(_blob_targets()) > 2 * _TILE_TARGETS and len(_blob_targets()) % _TILE_TARGETS
    # and the double layer's last tile of 8 targets is partial too
    assert potentials._tile_layout(harmonic_double())[1] == _TILE_TARGETS // 2
    assert len(_blob_targets()) % (_TILE_TARGETS // 2)


@pytest.mark.parametrize("kernel", KERNELS, ids=KERNEL_IDS)
def test_block_sums_equal_blocks_of_one_bitwise(kernel):
    xs = _blob_targets()
    d = paper_density()
    fine = grid(65, 135)
    for g in (G_BLOB, fine):
        block = potential_quadrature(BLOB, kernel, d, g, xs)
        assert block[3:14] == potential_quadrature(BLOB, kernel, d, g, xs[3:14])
        assert block == [potential_quadrature(BLOB, kernel, d, g, x) for x in xs]
    eqs = measured_error(BLOB, kernel, d, G_BLOB, xs)
    assert eqs == [measured_error(BLOB, kernel, d, G_BLOB, x) for x in xs]


def _node(surface, g, k, l):
    return np.real(surface.position(surface.theta_map.theta(g.t_rule.nodes[k]),
                                    g.phi_rule.nodes[l]))


@pytest.mark.parametrize("kernel", KERNELS, ids=KERNEL_IDS)
def test_failing_targets_are_their_own_outcomes_in_a_block(kernel):
    xs = _blob_targets()
    bad_nan = np.array([0.3, math.nan, 0.1])
    bad_node = _node(BLOB, G_BLOB, 4, 9)
    block = np.vstack([xs[:9], bad_nan, xs[9:12], bad_node, xs[12:]])
    d = paper_density()
    for f in (potential_quadrature, measured_error):
        got = f(BLOB, kernel, d, G_BLOB, block)
        assert len(got) == len(block)
        for i, (x, outcome) in enumerate(zip(block, got)):
            if i in (9, 13):
                with pytest.raises(EvaluationError) as exc:
                    f(BLOB, kernel, d, G_BLOB, x)
                assert type(outcome) is EvaluationError and str(outcome) == str(exc.value)
            else:
                assert outcome == f(BLOB, kernel, d, G_BLOB, x)
        assert str(got[9]) == "target [0.3, nan, 0.1] is not finite"
        assert str(got[13]) == "a quadrature node coincides with the target point"


def _per_target_sum(surface, kernel, density, g, x):
    """The quadrature sum at x from (N, 3) node tables, one target at a time,
    and the sum of its terms' magnitudes."""
    thetas, positions, normals, weights, _ = _whole_tables(surface, g)
    positions, normals = positions.T, normals.T
    sigma = density.value(np.repeat(thetas, g.n_phi), np.tile(g.phi_rule.nodes, g.n_t))
    diff = positions - x
    r2 = np.einsum("ij,ij->i", diff, diff)
    dist = np.sqrt(r2)
    if kernel.kind == "harmonic_double":
        kv = np.einsum("ij,ij->i", normals, diff)
    elif kernel.kind == "mod_helmholtz_single":
        kv = np.exp(-kernel.omega * dist)
    else:
        kv = 1.0
    terms = weights * sigma * kv / (dist if kernel.p == 0.5 else r2 * dist)
    return np.sum(terms), np.sum(np.abs(terms))


@pytest.mark.parametrize("kernel", KERNELS, ids=KERNEL_IDS)
def test_tiled_sums_agree_with_per_target_oracle(kernel):
    xs = _blob_targets()
    d = paper_density()
    for g in (G_BLOB, grid(65, 135)):
        for x, got in zip(xs, potential_quadrature(BLOB, kernel, d, g, xs)):
            want, magnitude = _per_target_sum(BLOB, kernel, d, g, x)
            assert abs(got - want) <= 1e-13 * magnitude


def _expression_tile_sums(kernel, positions, normals, weights, xs):
    """A tile's sums and nearest distances as whole-array expressions, each
    operation making a new array, in the order the in-place kernel keeps:
    R^2 = (dx dx + dy dy) + dz dz, n . (y - x) = (dx nx + dy ny) + dz nz."""
    dx, dy, dz = (p - xs[:, c, None] for c, p in enumerate(positions))
    r2 = dx * dx + dy * dy + dz * dz
    dist = np.sqrt(r2)
    if kernel.kind == "harmonic_double":
        terms = (dx * normals[0] + dy * normals[1] + dz * normals[2]) * weights / (r2 * dist)
    elif kernel.kind == "mod_helmholtz_single":
        terms = np.exp(-kernel.omega * dist) * weights / dist
    else:
        terms = weights / dist
    return np.sum(terms, axis=1), np.min(dist, axis=1)


@pytest.mark.parametrize("kernel", KERNELS, ids=KERNEL_IDS)
def test_tile_kernel_matches_expression_arithmetic_bitwise(kernel):
    positions, normals, weights = _streamed_tables(BLOB, grid(65, 135), paper_density())
    xs = _blob_targets()
    on_node, nan, far = positions[:, 8200], [0.3, math.nan, 0.1], [1e200, 0.0, 0.0]
    # buffers left full of NaN and reused by the next tile, as in a sum: two
    # of 16-target tiles and no normals for the single layers, four of 8-target
    # tiles and the normals for the double layer
    double = kernel.kind == "harmonic_double"
    count, size = potentials._tile_layout(kernel)
    assert (count, size) == ((4, 8) if double else (2, _TILE_TARGETS))
    full = np.vstack([xs[: size - 3], [nan, far, positions[:, 100]]])
    partial = np.vstack([on_node, xs[5:7], far, nan])
    buffers = np.full((count, size * _TILE_NODES), np.nan)
    tiles = [(full, slice(0, _TILE_NODES)), (partial, slice(2 * _TILE_NODES, None))]
    assert len(full) == size and len(partial) < size
    assert 0 < len(weights[tiles[1][1]]) < _TILE_NODES
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for block, nodes in tiles:
            tile_normals = normals[:, nodes] if double else None
            args = (kernel, positions[:, nodes], tile_normals, weights[nodes])
            # the kernel takes the targets as three coordinate columns
            sums, nearest = _tile_sums(*args, block.T[:, :, None], buffers)
            want_sums, want_nearest = _expression_tile_sums(*args, block)
            assert np.array_equal(sums, want_sums, equal_nan=True)
            assert np.array_equal(nearest, want_nearest, equal_nan=True)
            assert np.isnan(sums[np.isnan(block).any(axis=1)]).all()
            assert (nearest[block[:, 0] == 1e200] == np.inf).all()
            assert 0.0 in nearest


# ------------------------------------------------------ workers of a sum

needs_affinity = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity"), reason="the platform has no CPU affinity"
)


@needs_affinity
@pytest.mark.parametrize("size", [_TILE_TARGETS, _TILE_TARGETS // 2])
@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("n_targets", [1, 15, 17, 33, 300, 1152, 1600])
def test_target_tiles_share_out_evenly_to_the_workers(n_targets, workers, size, monkeypatch):
    # a sum cuts its targets into fixed-size tiles of _tile_layout's size, 16
    # for the single layers and 8 for the double layer, in target order; it
    # uses no more workers than tiles, and the one shared iterator hands each
    # tile to one worker, so every target is summed once
    kernel = harmonic_single() if size == _TILE_TARGETS else harmonic_double()
    assert potentials._tile_layout(kernel)[1] == size
    cpu = min(os.sched_getaffinity(0))
    monkeypatch.setattr(potentials, "_affinity_cpus", lambda: [cpu] * workers)
    sum_tiles, calls, taken = potentials._sum_tiles, [], []

    class Recorded:
        def __init__(self, tiles):
            self.tiles = tiles

        def __iter__(self):
            return self

        def __next__(self):
            t = next(self.tiles)
            taken.append((threading.get_ident(), t))
            return t

    def recorded(kernel, node_tiles, block, tiles, *args):
        calls.append(threading.get_ident())
        sum_tiles(kernel, node_tiles, block, Recorded(tiles), *args)

    monkeypatch.setattr(potentials, "_sum_tiles", recorded)
    block = np.random.default_rng(5).uniform(2.0, 3.0, (n_targets, 3))
    # a grid of one slab: each worker is called once
    got = potential_quadrature(SPHERE, kernel, unit_density(), grid(7, 13), block)
    assert len(got) == n_targets and all(isinstance(o, float) for o in got)
    count = math.ceil(n_targets / size)
    used = min(workers, count)
    assert len(calls) == len(set(calls)) == used
    assert {ident for ident, _ in taken} <= set(calls)
    tiles = sorted((t for _, t in taken), key=lambda t: t.start)
    assert tiles == [slice(i, i + size) for i in range(0, n_targets, size)]
    covered = np.concatenate([np.arange(n_targets)[t] for t in tiles])
    assert np.array_equal(covered, np.arange(n_targets))
    if (n_targets, size) == (300, _TILE_TARGETS):
        # spheroid-random's targets: 18 tiles of 16 and a last one of 12
        assert [len(np.arange(n_targets)[t]) for t in tiles] == [16] * 18 + [12]
    if (n_targets, size) == (300, _TILE_TARGETS // 2):
        # and in the double layer's tiles: 37 tiles of 8 and a last one of 4
        assert [len(np.arange(n_targets)[t]) for t in tiles] == [8] * 37 + [4]


def _worker_block():
    """71 blob targets, more than four tiles of _TILE_TARGETS, whose last tile
    is partial in every kernel's tiles: 5 of 16 targets (the last of 7) for
    the single layers, 9 of 8 (the last of 7) for the double layer. Mixed in:
    a NaN target, an overflowing one, and a node of each grid of the sums."""
    ordinary = np.random.default_rng(9).uniform(-2.0, 2.0, (67, 3))
    base_node = _node_positions(BLOB, G_BLOB)[:, 50]
    fine_node = _node_positions(BLOB, grid(65, 135))[:, 8200]
    bad = [[0.3, math.nan, 0.1], [1e200, 0.0, 0.0], base_node, fine_node]
    return np.vstack([ordinary[:20], bad[:2], ordinary[20:50], bad[2:], ordinary[50:]])


def _record_workers(monkeypatch):
    """Patches _sum_tiles to record, for each call, whether it runs on the main
    thread, its thread, that thread's CPU mask and its tile buffers, the last
    argument; returns the list the calls go to."""
    sum_tiles, calls = potentials._sum_tiles, []

    def recorded(*args):
        calls.append((threading.current_thread() is threading.main_thread(),
                      threading.get_ident(), os.sched_getaffinity(0), args[-1]))
        sum_tiles(*args)

    monkeypatch.setattr(potentials, "_sum_tiles", recorded)
    return calls


def _check_workers(calls, listed, mask, slabs):
    """The recorded calls of one sum over slabs slabs, on the CPUs listed, in a
    process of CPU mask mask: one worker runs inline on the calling thread with
    the mask unchanged; W workers run on W threads that are not the main
    thread, each pinned to one listed CPU and kept, with its own tile buffers,
    for the whole sum. Each worker takes every slab."""
    assert len(calls) == len(listed) * slabs
    workers = {(main, ident, tuple(sorted(m)), b.ctypes.data) for main, ident, m, b in calls}
    if len(listed) == 1:
        assert workers == {(True, threading.get_ident(), tuple(sorted(mask)), calls[0][3].ctypes.data)}
        return
    assert len(workers) == len({w[1] for w in workers}) == len({w[3] for w in workers}) == len(listed)
    assert not any(w[0] for w in workers)
    assert sorted(w[2] for w in workers) == sorted((cpu,) for cpu in listed)


def _outcome_bits(outcomes):
    """Each outcome as its float's hex digits, or as its error's type and text."""
    return [o.hex() if isinstance(o, float) else (type(o), str(o)) for o in outcomes]


@needs_affinity
@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("kernel", KERNELS, ids=KERNEL_IDS)
def test_sums_in_worker_threads_equal_one_worker_bitwise(kernel, workers, monkeypatch):
    cpus = sorted(os.sched_getaffinity(0))
    if workers == 2 and len(cpus) < 2:
        pytest.skip("two workers need two CPUs")
    block, d = _worker_block(), paper_density()
    # the kernel's own tiles, with a partial last one: 5 of 16 targets for the
    # single layers, 9 of 8 for the double layer, the last of 7 in both
    size = potentials._tile_layout(kernel)[1]
    assert len(block) % size == 7 and math.ceil(len(block) / size) == {16: 5, 8: 9}[size]
    listed = {n: [cpus[i % len(cpus)] for i in range(n)] for n in (1, workers)}
    calls = _record_workers(monkeypatch)
    runs = {}
    # a short switch interval, so that workers interleave at every bytecode;
    # a warning of a worker is an error that the sum raises
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for n in (1, workers):
                monkeypatch.setattr(potentials, "_affinity_cpus", lambda: listed[n])
                runs[n] = []
                # each grid's sum is one slab
                for g in (G_BLOB, grid(65, 135)):
                    calls.clear()
                    runs[n].append(_outcome_bits(potential_quadrature(BLOB, kernel, d, g, block)))
                    _check_workers(calls, listed[n], cpus, 1)
    finally:
        sys.setswitchinterval(switch)
    assert runs[workers] == runs[1]
    assert [type(o) for o in runs[1][0][20:22]] == [tuple, tuple]
    assert [type(o) for o in runs[1][1][52:54]] == [str, tuple]
    assert os.sched_getaffinity(0) == set(cpus)


# three slabs; 375 divides neither a node tile nor a slab, so rows straddle both
G_SLABS = grid(200, 375)


def _whole_table_sums(surface, kernel, density, g, block):
    """The outcomes in the order of the sums before they streamed: every
    target tile against the whole tables of g, node tile by node tile, with
    the weights times sigma over the whole table, in the kernel's tiles."""
    thetas, positions, normals, weights, scale = _whole_tables(surface, g)
    sigma = density.value(thetas[:, None], g.phi_rule.nodes)
    weights = (weights.reshape(g.n_t, g.n_phi) * np.asarray(sigma, dtype=float)).ravel()
    sums, nearest = np.zeros(len(block)), np.full(len(block), np.inf)
    count, size = potentials._tile_layout(kernel)
    buffers = np.empty((count, size * _TILE_NODES))
    double = kernel.kind == "harmonic_double"
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i in range(0, len(block), size):
            rows = slice(i, i + size)
            for j in range(0, len(weights), _TILE_NODES):
                nodes = slice(j, j + _TILE_NODES)
                s, d = _tile_sums(kernel, positions[:, nodes],
                                  normals[:, nodes] if double else None,
                                  weights[nodes], block[rows].T[:, :, None], buffers)
                sums[rows] += s
                nearest[rows] = np.minimum(nearest[rows], d)
    return [
        potentials._not_located(xi) if not d < math.inf
        else EvaluationError("a quadrature node coincides with the target point")
        if d < 1e-14 * scale else float(s)
        for xi, s, d in zip(block, sums, nearest)
    ]


@needs_affinity
@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("kernel", KERNELS, ids=KERNEL_IDS)
def test_streamed_sums_equal_whole_table_sums_bitwise(kernel, workers, monkeypatch):
    g, d = G_SLABS, paper_density()
    n_nodes = g.n_t * g.n_phi
    slabs = math.ceil(n_nodes / _SLAB_NODES)
    assert slabs >= 3 and _TILE_NODES % g.n_phi and _SLAB_NODES % g.n_phi
    # a NaN target, an overflowing one and a node of the last slab among 71
    last_slab_node = _node_positions(BLOB, g)[:, n_nodes - 700]
    assert n_nodes - 700 >= (slabs - 1) * _SLAB_NODES
    ordinary = np.random.default_rng(9).uniform(-2.0, 2.0, (68, 3))
    bad = [[0.3, math.nan, 0.1], [1e200, 0.0, 0.0], last_slab_node]
    block = np.vstack([ordinary[:20], bad[:2], ordinary[20:50], bad[2:], ordinary[50:]])
    cpus = sorted(os.sched_getaffinity(0))
    listed = [cpus[i % len(cpus)] for i in range(workers)]
    monkeypatch.setattr(potentials, "_affinity_cpus", lambda: listed)
    calls = _record_workers(monkeypatch)
    # workers interleave at every bytecode; a warning of a worker is an error
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _outcome_bits(potential_quadrature(BLOB, kernel, d, g, block))
    finally:
        sys.setswitchinterval(switch)
    assert got == _outcome_bits(_whole_table_sums(BLOB, kernel, d, g, block))
    assert [str(o[1]) for o in got[20:22]] == [
        "target [0.3, nan, 0.1] is not finite",
        "target [1e+200, 0.0, 0.0] is too far away: its squared distance overflows",
    ]
    assert got[52] == (EvaluationError, "a quadrature node coincides with the target point")
    # every slab goes to every worker: inline for one, a pinned thread per CPU
    # otherwise, each kept with its buffers for the whole sum
    _check_workers(calls, listed, cpus, slabs)
    assert os.sched_getaffinity(0) == set(cpus)


@needs_affinity
def test_scan_and_sum_buffers_start_on_64_byte_boundaries(monkeypatch):
    # the nearest-node scan's bound, R^2 and scratch buffers and each sum
    # worker's tile buffers start on a 64-byte boundary, on grids whose node
    # count is not a multiple of 8 and with two workers, wherever the heap
    # puts them
    cpu = min(os.sched_getaffinity(0))
    monkeypatch.setattr(potentials, "_affinity_cpus", lambda: [cpu, cpu])
    coordinate_sum, patch_r2 = potentials._coordinate_sum, potentials._patch_r2
    scans, tiles = [], []

    def scanned(out, scratch, *args):
        scans.append((out.ctypes.data % 64, scratch.ctypes.data % 64))
        coordinate_sum(out, scratch, *args)

    def scanned_patches(out, scratch, *args):
        scans.append((out.ctypes.data % 64, scratch.ctypes.data % 64))
        patch_r2(out, scratch, *args)

    monkeypatch.setattr(potentials, "_coordinate_sum", scanned)
    monkeypatch.setattr(potentials, "_patch_r2", scanned_patches)
    calls = _record_workers(monkeypatch)
    block = np.random.default_rng(3).uniform(-2.0, 2.0, (40, 3))
    for surface, g in [(BLOB, G_BLOB), (SPHERE, grid(7, 13)), (Spheroid(1.0, 3.0), grid(60, 120))]:
        nearest_grid_node(surface, g, block)
        calls.clear()
        # each grid's sum is one slab
        potential_quadrature(surface, harmonic_double(), unit_density(), g, block)
        _check_workers(calls, [cpu, cpu], os.sched_getaffinity(0), 1)
        tiles += [[b.ctypes.data % 64 for b in buffers] for *_, buffers in calls]
    assert scans and set(scans) == {(0, 0)}
    assert len(tiles) >= 2 * 3 and all(t and set(t) == {0} for t in tiles)


@needs_affinity
@pytest.mark.parametrize("kernel", KERNELS, ids=KERNEL_IDS)
def test_every_kernel_holds_the_same_tile_buffers_per_worker(kernel, monkeypatch):
    # each of two workers holds 2 x _TILE_TARGETS x _TILE_NODES doubles of
    # tile buffers (1 MiB), whatever the kernel: two buffers of 16-target tiles
    # for the single layers, four of 8-target tiles for the double layer, each
    # on a 64-byte boundary
    cpu = min(os.sched_getaffinity(0))
    monkeypatch.setattr(potentials, "_affinity_cpus", lambda: [cpu, cpu])
    calls = _record_workers(monkeypatch)
    block = np.random.default_rng(3).uniform(-2.0, 2.0, (40, 3))
    potential_quadrature(BLOB, kernel, paper_density(), G_SLABS, block)
    _check_workers(calls, [cpu, cpu], os.sched_getaffinity(0), 3)
    held = {buffers.ctypes.data: (buffers.dtype, buffers.shape,
                                  {b.ctypes.data % 64 for b in buffers})
            for *_, buffers in calls}
    shape = (4, 8 * _TILE_NODES) if kernel.kind == "harmonic_double" else (2, 16 * _TILE_NODES)
    assert list(held.values()) == [(np.dtype(float), shape, {0})] * 2
    assert math.prod(shape) == 2 * _TILE_TARGETS * _TILE_NODES


@needs_affinity
def test_a_worker_error_reaches_the_caller_and_leaves_no_thread(monkeypatch):
    block = _worker_block()
    third = block[32:48]
    tile_sums = potentials._tile_sums

    class TileFailed(RuntimeError):
        pass

    def failing(kernel, positions, normals, weights, xs, buffers):
        # xs holds the tile's targets as three coordinate columns, (3, m, 1)
        if np.array_equal(xs[:, :, 0].T, third, equal_nan=True):
            raise TileFailed("the third tile")
        return tile_sums(kernel, positions, normals, weights, xs, buffers)

    cpu = min(os.sched_getaffinity(0))
    monkeypatch.setattr(potentials, "_tile_sums", failing)
    monkeypatch.setattr(potentials, "_affinity_cpus", lambda: [cpu, cpu])
    before, raised = threading.active_count(), []

    def call():
        try:
            potential_quadrature(BLOB, harmonic_single(), unit_density(), G_BLOB, block)
        except TileFailed as exc:
            raised.append(exc)

    caller = threading.Thread(target=call, daemon=True)
    caller.start()
    caller.join(timeout=60)
    assert not caller.is_alive()
    assert [str(exc) for exc in raised] == ["the third tile"]
    assert threading.active_count() == before


@needs_affinity
def test_a_failed_pin_reaches_the_caller_and_leaves_no_thread(monkeypatch):
    # the second of two workers cannot pin its thread: the sum raises that
    # error instead of hanging, leaves no thread behind, and the calling
    # thread keeps its CPU mask
    mask, pins, setaffinity = os.sched_getaffinity(0), itertools.count(), os.sched_setaffinity
    cpu = min(mask)

    def pin(pid, cpus):
        if next(pins) == 1:
            raise OSError(errno.EINVAL, "the second pin failed")
        setaffinity(pid, cpus)

    monkeypatch.setattr(potentials.os, "sched_setaffinity", pin)
    monkeypatch.setattr(potentials, "_affinity_cpus", lambda: [cpu, cpu])
    before, raised, masks = threading.active_count(), [], []

    def call():
        try:
            potential_quadrature(BLOB, harmonic_single(), unit_density(), G_BLOB, _worker_block())
        except OSError as exc:
            raised.append(exc)
        masks.append(os.sched_getaffinity(0))

    caller = threading.Thread(target=call, daemon=True)
    caller.start()
    caller.join(timeout=60)
    assert not caller.is_alive()
    assert [exc.strerror for exc in raised] == ["the second pin failed"]
    assert next(pins) == 2
    assert threading.active_count() == before
    assert masks == [mask] and os.sched_getaffinity(0) == mask


@pytest.mark.parametrize("shape", [(0,), (2,), (4,), (2, 2), (2, 3, 1)])
@pytest.mark.parametrize("f", [potential_quadrature, measured_error, full_estimate])
def test_malformed_target_arrays_are_evaluation_errors(f, shape):
    with pytest.raises(EvaluationError, match=re.escape(f"shape {shape}")):
        f(SPHERE, harmonic_single(), unit_density(), G_SPHERE, np.ones(shape))


@pytest.mark.parametrize("f", [potential_quadrature, measured_error, full_estimate])
def test_empty_block_has_no_outcomes(f, monkeypatch):
    # a sum over no targets returns before it fills any slab of its grid
    fills = []
    monkeypatch.setattr(potentials, "_fill_rows", lambda *args: fills.append(args))
    out = f(SPHERE, harmonic_single(), unit_density(), G_SPHERE, np.empty((0, 3)))
    if f is full_estimate:
        # no errors, and every array of the estimates is empty
        assert out.errors == ()
        assert all(np.shape(v) == (0,) for name, v in vars(out).items() if name != "errors")
    else:
        assert out == []
    assert fills == []


# ------------------------------------------------------------- grid lookups


def _exhaustive_scan(surface, g, block):
    """The reference for nearest_grid_node, one target at a time: its R^2 to
    every node, (dx dx + dy dy) + dz dz, and its first least entry, as
    (k, l, t_star, phi_star, distance) arrays."""
    positions = _node_positions(surface, g)
    idx, d2 = np.empty(len(block), dtype=np.intp), np.empty(len(block))
    with np.errstate(over="ignore"):
        for i, x in enumerate(block):
            d = positions - x[:, None]
            r2 = (d[0] * d[0] + d[1] * d[1]) + d[2] * d[2]
            idx[i] = np.argmin(r2)
            d2[i] = r2[idx[i]]
    k, l = np.divmod(idx, g.n_phi)
    return k, l, g.t_rule.nodes[k], g.phi_rule.nodes[l], np.sqrt(d2)


def _bitwise_equal(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def test_nearest_grid_node_matches_exhaustive_scan():
    x = np.array([0.8, -0.3, 0.9])
    k, l, t_star, phi_star, dist = nearest_grid_node(SPHERE, G_SPHERE, x)
    assert t_star == pytest.approx(G_SPHERE.t_rule.nodes[k])
    assert phi_star == pytest.approx(G_SPHERE.phi_rule.nodes[l])
    best = math.inf
    for tk in G_SPHERE.t_rule.nodes:
        for pl in G_SPHERE.phi_rule.nodes:
            pos = np.real(SPHERE.position(SPHERE.theta_map.theta(tk), pl))
            best = min(best, float(np.linalg.norm(pos - x)))
    assert dist == pytest.approx(best, abs=1e-14)
    # per grid, a block longer than one chunk of the scan, with the far, the
    # NaN, an on-axis and an on-node target: each entry is bitwise its own scan's
    for surface, g in [(SPHERE, G_SPHERE), (Spheroid(1.0, 3.0), grid(20, 40)),
                       (paper_blob(), grid(25, 25))]:
        chunk = potentials._SCAN_ENTRIES // len(_grid_tables(surface, g).radii)
        node = _node_positions(surface, g)[:, 7]
        ordinary = np.random.default_rng(5).normal(scale=1.5, size=(chunk + 9, 3))
        block = np.vstack([ordinary, _FAR, [math.nan, 0.0, 0.0], [0.0, 0.0, 2.5], node])
        found = nearest_grid_node(surface, g, block)
        assert len(block) > chunk and all(len(v) == len(block) for v in found)
        for i, xi in enumerate(block):
            one = nearest_grid_node(surface, g, xi)
            assert [type(v) for v in one] == [int, int, float, float, float]
            for got, single, want in zip(found, one, _exhaustive_scan(surface, g, xi[None])):
                assert _bitwise_equal(got[i], single) and _bitwise_equal(single, want)
        assert found[4][-1] == 0.0 and math.isnan(found[4][len(ordinary) + 3])
        empty = nearest_grid_node(surface, g, np.empty((0, 3)))
        assert [v.shape for v in empty] == [(0,)] * 5


def _patch_nodes(tab, g):
    """The grid index k * n_phi + l of every entry of the patch table of
    _GridTables, (patches, nodes per patch)."""
    q = np.arange(tab.positions.shape[2])
    return tab.first[:, None] + q // tab.cols * g.n_phi + q % tab.cols


def _assert_exhaustive(surface, g, block):
    found = nearest_grid_node(surface, g, block)
    for got, want in zip(found, _exhaustive_scan(surface, g, block)):
        assert got.dtype == want.dtype and _bitwise_equal(got, want)


_SCAN_SURFACES = [Sphere(1.0), Sphere(1.0, LINEAR_MAP), Spheroid(1.0, 3.0), paper_blob()]


@settings(max_examples=60, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    surface=st.sampled_from(_SCAN_SURFACES),
    shape=st.one_of(st.sampled_from([(4, 4), (5, 4097), (7, 1000)]),
                    st.tuples(st.integers(4, 64), st.integers(4, 128))),
    seed=st.integers(0, 2**32 - 1),
    spread=st.sampled_from([1e-9, 1e-3, 0.1, 1.0]),
)
def test_pruned_scan_is_the_exhaustive_scan(surface, shape, seed, spread):
    # near nodes, on nodes, on the axis, off the surface and far from it
    g = grid(*shape)
    rng = np.random.default_rng(seed)
    nodes = _node_positions(surface, g)[:, rng.integers(0, g.n_t * g.n_phi, 12)].T
    block = np.vstack([
        nodes[:3],
        nodes[3:] * rng.uniform(1.0 - spread, 1.0 + spread, (9, 1)),
        nodes[3:6] + rng.normal(scale=spread, size=(3, 3)),
        [[0.0, 0.0, z] for z in rng.uniform(-4.0, 4.0, 3)],
        rng.normal(scale=2.0, size=(6, 3)),
        rng.normal(scale=1e6, size=(2, 3)),
    ])
    _assert_exhaustive(surface, g, block)


@pytest.mark.parametrize("surface", _SCAN_SURFACES, ids=["sphere-cosine", "sphere-linear",
                                                         "spheroid", "blob"])
def test_pruned_scan_is_the_exhaustive_scan_on_hard_targets(surface):
    # at 480 x 960: the centre and points on the axis, whose R^2 ties across
    # whole rows of a surface of revolution; on and next to a node; far;
    # overflowing in one or two coordinates; NaN and infinite
    g = grid(480, 960)
    nodes = _node_positions(surface, g)[:, [0, 7, 230_000, 460_799]].T
    axis = [[0.0, 0.0, 0.0], [0.0, 0.0, 0.5], [0.0, 0.0, -2.0], [0.0, 0.0, 1e-9]]
    block = np.vstack([axis, nodes, nodes + 1e-3, [[1e6, 0.0, 0.0], [0.0, 1e6, 1e6]], _FAR,
                       [[1e154, 1e154, 0.0], [math.nan, 0.0, 0.0], [math.inf, 0.0, 0.0],
                        [-math.inf, math.inf, 0.0]]])
    _assert_exhaustive(surface, g, block)
    if surface.axisymmetric:
        # a tie is real: on the axis many nodes share the least R^2
        positions = _node_positions(surface, g)
        d = positions - np.array([[0.0], [0.0], [0.5]])
        r2 = (d[0] * d[0] + d[1] * d[1]) + d[2] * d[2]
        assert np.count_nonzero(r2 == r2.min()) > 1


def test_pruned_scan_forms_few_entries():
    # spheroid-random's targets on its 4x grid: the scan forms at most a fifth
    # of the exhaustive scan's (target, node) entries
    cfg = preset_config("spheroid-random")
    g = grid(4 * cfg.n_t, 4 * cfg.n_phi)
    patch_r2, entries = potentials._patch_r2, []

    def counted(out, *args):
        entries.append(out.size)
        patch_r2(out, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(potentials, "_patch_r2", counted)
        found = nearest_grid_node(cfg.surface, g, cfg.targets)
    assert sum(entries) <= len(cfg.targets) * g.n_t * g.n_phi / 5
    for got, want in zip(found, _exhaustive_scan(cfg.surface, g, cfg.targets)):
        assert _bitwise_equal(got, want)


def test_scan_buffers_do_not_grow_with_the_grid(monkeypatch):
    # one set of work buffers per call, of at most two sum tiles together,
    # the same on every grid and for every block
    work_buffers, made = potentials._work_buffers, []

    def recorded(count, shape):
        made.append(count * math.prod(shape))
        return work_buffers(count, shape)

    monkeypatch.setattr(potentials, "_work_buffers", recorded)
    block = np.random.default_rng(6).uniform(-2.0, 2.0, (700, 3))
    for g in [grid(4, 4), grid(7, 1000), grid(60, 120), grid(240, 480)]:
        for targets in (block[0], block):
            nearest_grid_node(Spheroid(1.0, 3.0), g, targets)
    assert len(made) == 8 and len(set(made)) == 1
    assert made[0] <= 2 * _TILE_TARGETS * _TILE_NODES


def _per_node_tables(surface, g):
    """The grid tables built one node at a time, from eval_t, np.cross and
    np.linalg.norm along the coordinate axis, (n0 n0 + n1 n1) + n2 n2."""
    positions, normals, weights = [], [], []
    for k, t in enumerate(g.t_rule.nodes):
        for l, phi in enumerate(g.phi_rule.nodes):
            pos, d_t, d_phi = surface.eval_t(t, phi)
            cr = np.cross(np.real(d_t), np.real(d_phi))
            area = np.linalg.norm(cr, axis=0)
            positions.append(np.real(pos))
            normals.append(cr / area)
            weights.append(g.t_rule.weights[k] * g.phi_rule.weights[l] * area)
    positions = np.array(positions)
    scale = float(np.max(np.linalg.norm(positions, axis=1)))
    return positions, np.array(normals), np.array(weights), scale


@pytest.mark.parametrize(
    "surface",
    [Sphere(1.0), Sphere(1.0, LINEAR_MAP), Spheroid(1.0, 3.0), paper_blob()],
    ids=["sphere-cosine", "sphere-linear", "spheroid", "blob"],
)
# patches of 3 x 4 nodes, the last band of rows overlapping the one before;
# 3 x 6, which divide the grid; and 1 x 87, the last columns overlapping
@pytest.mark.parametrize("n_t,n_phi", [(7, 12), (12, 24), (7, 1000)])
def test_grid_tables_match_per_node_build(surface, n_t, n_phi):
    g = grid(n_t, n_phi)
    positions, normals, weights, scale = _per_node_tables(surface, g)
    tab = _grid_tables(surface, g)
    # each patch is a rectangle of whole rows and columns inside the grid, and
    # every node lies in one at least
    rows = tab.positions.shape[2] // tab.cols
    assert np.all(tab.first // n_phi + rows <= n_t) and np.all(tab.first % n_phi + tab.cols <= n_phi)
    nodes = _patch_nodes(tab, g)
    assert np.array_equal(np.unique(nodes), np.arange(n_t * n_phi))
    # the table is coordinate first: (3, patches, nodes per patch) against the
    # per-node (N, 3), and no node is farther from its patch's centre than
    # the patch's radius
    assert np.array_equal(tab.positions, positions.T[:, nodes])
    assert np.all(np.linalg.norm(tab.positions - tab.centres[..., None], axis=0)
                  <= tab.radii[:, None])
    assert tab.scale == scale
    # the sums' streamed positions are the cached ones, their normals and
    # weights times sigma those of the per-node build
    thetas = surface.theta_map.theta(g.t_rule.nodes)
    for density in (unit_density(), paper_density()):
        sigma = [density.value(theta, phi) for theta in thetas for phi in g.phi_rule.nodes]
        want = weights * np.array(sigma, dtype=float)
        streamed = _streamed_tables(surface, g, density)
        assert streamed[0].tobytes() == positions.T.tobytes()
        assert np.max(np.abs(streamed[1] - normals.T)) <= 1e-15
        # the paper density is 0 at some nodes, where both products are 0
        assert np.all(np.abs(streamed[2] - want) <= 1e-15 * np.abs(want))


@pytest.mark.parametrize("surface", _SCAN_SURFACES, ids=["sphere-cosine", "sphere-linear",
                                                         "spheroid", "blob"])
def test_fill_without_normals_writes_the_same_tables(surface):
    # the normals and unit-density weights of a fill are the per-node build's
    # bitwise; a fill without a normal table writes the positions, weights
    # and scale of one with it, from any first row, with either density
    for g in (grid(7, 12), grid(12, 24), grid(7, 1000)):
        _, _, normals, weights, _ = _whole_tables(surface, g)
        _, per_node_normals, per_node_weights, _ = _per_node_tables(surface, g)
        assert _bitwise_equal(normals, per_node_normals.T.copy())
        assert _bitwise_equal(weights, per_node_weights)
    g = G_SLABS
    for density, r0 in [(unit_density(), 0), (paper_density(), 37)]:
        n_nodes = (g.n_t - r0) * g.n_phi
        positions, weights = np.empty((2, 3, n_nodes)), np.empty((2, n_nodes))
        scale = potentials._fill_rows(surface, density, g, r0, g.n_t,
                                      positions[0], np.empty((3, n_nodes)), weights[0])
        bare = potentials._fill_rows(surface, density, g, r0, g.n_t,
                                     positions[1], None, weights[1])
        assert bare.hex() == scale.hex()
        assert _bitwise_equal(positions[1], positions[0])
        assert _bitwise_equal(weights[1], weights[0])


@pytest.mark.parametrize("kernel", KERNELS[:1] + KERNELS[2:], ids=["single", "helmholtz"])
def test_streamed_positions_weights_and_scale_are_the_same_for_every_kernel(kernel):
    # over G_SLABS's three slabs: a single layer streams no normals, and the
    # positions, weights times sigma and scale of the double layer bitwise
    fill_rows = potentials._fill_rows
    streamed = {}
    for k in (kernel, harmonic_double()):
        scales = []

        def filled(*args):
            scales.append(fill_rows(*args))
            return scales[-1]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(potentials, "_fill_rows", filled)
            positions, normals, weights = _streamed_tables(BLOB, G_SLABS, paper_density(), k)
        assert (normals is None) == (k.kind != "harmonic_double")
        streamed[k.kind] = (positions.tobytes(), weights.tobytes(), [s.hex() for s in scales])
    assert len(scales) == math.ceil(G_SLABS.n_t * G_SLABS.n_phi / _SLAB_NODES)
    assert streamed[kernel.kind] == streamed["harmonic_double"]


def test_grid_table_build_holds_no_whole_table_temporary():
    # the positions of a fresh surface on a 180k-node grid, the size of
    # spheroid-random's reference grid: the build's peak of traced memory
    # stays within 1.25x of what it keeps
    surface, g = Spheroid(1.0, 2.0), grid(300, 600)
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        tab = _grid_tables(surface, g)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak <= 1.25 * tab.positions.nbytes


def test_measured_error_builds_no_whole_reference_table(monkeypatch):
    # spheroid-random's grids, 60x120 and the 5x 300x600 of 180k nodes, on a
    # fresh surface, with at most two workers: measured_error's peak of traced
    # memory is one set of slab tables and each worker's tile buffers, with
    # room the size of the base grid's table for the row blocks' and sigma's
    # temporaries, and it keeps nothing
    surface, g = Spheroid(1.0, 3.0), grid(60, 120)
    block = np.random.default_rng(4).uniform(-2.0, 2.0, (300, 3))
    cpus = potentials._affinity_cpus()[:2]
    monkeypatch.setattr(potentials, "_affinity_cpus", lambda: cpus)
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        errors = measured_error(surface, harmonic_single(), paper_density(), g, block)
        held, peak = (v - before for v in tracemalloc.get_traced_memory())
    finally:
        if not tracing:
            tracemalloc.stop()
    assert all(isinstance(e, float) for e in errors)
    fine_nodes, n_phi = 25 * g.n_t * g.n_phi, 5 * g.n_phi
    slab_tables = 7 * 8 * (math.ceil(_SLAB_NODES / n_phi) + 1) * n_phi
    tile_buffers = max(1, len(cpus)) * 2 * 8 * _TILE_TARGETS * _TILE_NODES
    base_table = 7 * 8 * g.n_t * g.n_phi
    bound = 1.25 * (slab_tables + tile_buffers + base_table)
    # positions, normals, weights and sum weights of the whole reference grid
    assert bound < 0.6 * 8 * 8 * fine_nodes
    assert peak <= bound
    assert held < base_table


@pytest.mark.parametrize("kernel", KERNELS, ids=KERNEL_IDS)
def test_measured_error_holds_only_what_its_kernel_reads(kernel, monkeypatch):
    # as above, per kernel: the double layer's peak stays within the slab
    # tables of 7 floats per node (positions, unit normals, weights); a single
    # layer's, which reads no normals, within 4 floats per node. Both within
    # two full tile buffers per worker, with room the size of the base grid's
    # table, and keeping nothing
    surface, g = Spheroid(1.0, 3.0), grid(60, 120)
    block = np.random.default_rng(4).uniform(-2.0, 2.0, (300, 3))
    cpus = potentials._affinity_cpus()[:2]
    monkeypatch.setattr(potentials, "_affinity_cpus", lambda: cpus)
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        errors = measured_error(surface, kernel, paper_density(), g, block)
        held, peak = (v - before for v in tracemalloc.get_traced_memory())
    finally:
        if not tracing:
            tracemalloc.stop()
    assert all(isinstance(e, float) for e in errors)
    floats = 7 if kernel.kind == "harmonic_double" else 4
    n_phi = 5 * g.n_phi
    slab_tables = floats * 8 * (math.ceil(_SLAB_NODES / n_phi) + 1) * n_phi
    tile_buffers = max(1, len(cpus)) * 2 * 8 * _TILE_TARGETS * _TILE_NODES
    base_table = 7 * 8 * g.n_t * g.n_phi
    assert peak <= 1.25 * (slab_tables + tile_buffers + base_table)
    assert held < base_table


def test_locate_builds_eval_point():
    x = np.array([1.3, 0.2, -0.4])
    frame = _build_frame(SPHERE, harmonic_single(), unit_density(), G_SPHERE, x)
    assert frame.located.tolist() == [True] and frame.errors == [None]
    assert np.array_equal(frame.x, [x])
    _, _, t_star, phi_star, dist = nearest_grid_node(SPHERE, G_SPHERE, x)
    assert (frame.t_star[0], frame.phi_star[0]) == (t_star, phi_star)
    assert frame.grid_distance[0] == dist > 0
    assert frame.theta_star[0] == pytest.approx(SPHERE.theta_map.theta(t_star))


def test_locate_rejects_on_node_target():
    node = np.real(SPHERE.position(SPHERE.theta_map.theta(G_SPHERE.t_rule.nodes[0]),
                                   G_SPHERE.phi_rule.nodes[0]))
    with pytest.raises(EvaluationError, match="coincides with a surface grid node"):
        full_estimate(SPHERE, harmonic_single(), unit_density(), G_SPHERE, node)


def test_estimate_rejects_targets_it_cannot_locate():
    node = np.real(SPHERE.position(SPHERE.theta_map.theta(G_SPHERE.t_rule.nodes[0]),
                                   G_SPHERE.phi_rule.nodes[0]))
    bad = np.array([1.3, np.nan, -0.4])
    out = full_estimate(SPHERE, harmonic_single(), unit_density(), G_SPHERE,
                        np.array([[1.3, 0.2, -0.4], node, bad]))
    assert out.grid_distance[0] > 0 and out.errors[0] is None
    assert isinstance(out.errors[1], EvaluationError)
    assert str(out.errors[1]) == f"target {node.tolist()} coincides with a surface grid node"
    assert isinstance(out.errors[2], EvaluationError)
    assert str(out.errors[2]) == f"target {bad.tolist()} is not finite"


_FAR = np.array([[1e200, 0.0, 0.0], [1e155, 0.0, 0.0], [0.0, -9.5e153, 9.5e153]])


@pytest.mark.parametrize("kernel", KERNELS, ids=KERNEL_IDS)
def test_far_targets_get_one_typed_error_from_sums_and_frame(kernel):
    # squared distances beyond the largest double; 1e120 is far but its R^2
    # is finite, and its double-layer R^3 overflows to a term that is zero
    ordinary = np.array([[1e120, 0.0, 0.0], [1.3, 0.2, -0.4]])
    block = np.vstack([_FAR, ordinary])
    sums = potential_quadrature(SPHERE, kernel, unit_density(), G_SPHERE, block)
    estimates = full_estimate(SPHERE, kernel, unit_density(), G_SPHERE, block)
    for x, s, e in zip(_FAR, sums, estimates.errors):
        want = f"target {x.tolist()} is too far away: its squared distance overflows"
        assert isinstance(s, EvaluationError) and isinstance(e, EvaluationError)
        assert str(s) == str(e) == want
    for i, (x, s) in enumerate(zip(ordinary, sums[3:]), start=3):
        e = {f: v[i] for f, v in vars(estimates).items() if f != "errors"}
        assert estimates.errors[i] is None
        assert math.isfinite(s) and math.isfinite(e["total"]) and math.isfinite(e["grid_distance"])
        assert s == potential_quadrature(SPHERE, kernel, unit_density(), G_SPHERE, x)
        one = full_estimate(SPHERE, kernel, unit_density(), G_SPHERE, x)
        assert one.errors == (None,)
        assert all(np.array_equal(v, getattr(one, f), equal_nan=True) for f, v in e.items())
    assert nearest_grid_node(SPHERE, G_SPHERE, _FAR[0])[4] == math.inf


def test_linear_map_shell_potential():
    s = Sphere(1.0, LINEAR_MAP)
    u = potential_quadrature(s, harmonic_single(), unit_density(), grid(30, 60), [0, 0, 2.0])
    assert u == pytest.approx(2 * math.pi, abs=1e-9)
