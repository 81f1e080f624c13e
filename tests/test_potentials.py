import math
import os
import re
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from layerr import potentials
from layerr.errors import EvaluationError
from layerr.potentials import (
    DensitySpec,
    KernelSpec,
    _TILE_NODES,
    _TILE_TARGETS,
    _grid_tables,
    _sum_weights,
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
from layerr.estimates import _build_frame, _root_terms, full_estimate
from layerr.quadrature import grid
from layerr.surfaces import LINEAR_MAP, Sphere, Spheroid, paper_blob


SPHERE = Sphere(1.0)
G_SPHERE = grid(30, 60)


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
    tab = _grid_tables(blob, g)
    theta = np.repeat(tab.thetas, g.n_phi)[:, None]
    phi = np.tile(tab.phis, g.n_t)[:, None]
    f = _root_terms(_build_frame(blob, kernel, density, g, xs), theta, phi)[0]
    rule_weights = np.outer(g.t_rule.weights, g.phi_rule.weights).ravel()
    area_sigma = _sum_weights(blob, g, density) / rule_weights
    diff = tab.positions.T[:, None, :] - xs
    factor = {
        "harmonic_single": np.ones(diff.shape[:2]),
        "harmonic_double": np.einsum("kc,kmc->km", tab.normals.T, diff),
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
        (lambda: KernelSpec("foo"), "KernelSpec.kind"),
        (lambda: DensitySpec("bogus"), "DensitySpec.kind"),
    ],
    ids=["nan-omega", "inf-omega", "zero-omega", "negative-omega", "no-omega", "kind",
         "density-kind"],
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
    tab = _grid_tables(surface, g)
    positions, normals = tab.positions.T, tab.normals.T
    sigma = density.value(np.repeat(tab.thetas, g.n_phi), np.tile(tab.phis, g.n_t))
    diff = positions - x
    r2 = np.einsum("ij,ij->i", diff, diff)
    dist = np.sqrt(r2)
    if kernel.kind == "harmonic_double":
        kv = np.einsum("ij,ij->i", normals, diff)
    elif kernel.kind == "mod_helmholtz_single":
        kv = np.exp(-kernel.omega * dist)
    else:
        kv = 1.0
    terms = tab.base_weights * sigma * kv / (dist if kernel.p == 0.5 else r2 * dist)
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
    fine = grid(65, 135)
    tab = _grid_tables(BLOB, fine)
    weights = _sum_weights(BLOB, fine, paper_density())
    xs = _blob_targets()
    on_node, nan, far = tab.positions[:, 8200], [0.3, math.nan, 0.1], [1e200, 0.0, 0.0]
    full = np.vstack([xs[: _TILE_TARGETS - 3], [nan, far, tab.positions[:, 100]]])
    partial = np.vstack([on_node, xs[5:7], far, nan])
    # buffers left full of NaN and reused by the next tile, as in a sum
    buffers = np.full((3, _TILE_TARGETS * _TILE_NODES), np.nan)
    tiles = [(full, slice(0, _TILE_NODES)), (partial, slice(2 * _TILE_NODES, None))]
    assert len(full) == _TILE_TARGETS and len(partial) < _TILE_TARGETS
    assert 0 < len(weights[tiles[1][1]]) < _TILE_NODES
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for block, nodes in tiles:
            args = (kernel, tab.positions[:, nodes], tab.normals[:, nodes], weights[nodes], block)
            sums, nearest = _tile_sums(*args, buffers)
            want_sums, want_nearest = _expression_tile_sums(*args)
            assert np.array_equal(sums, want_sums, equal_nan=True)
            assert np.array_equal(nearest, want_nearest, equal_nan=True)
            assert np.isnan(sums[np.isnan(block).any(axis=1)]).all()
            assert (nearest[block[:, 0] == 1e200] == np.inf).all()
            assert 0.0 in nearest


# ------------------------------------------------------ workers of a sum

needs_affinity = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity"), reason="the platform has no CPU affinity"
)


def _worker_block():
    """71 blob targets: four full tiles and a part, so that neither the 71
    targets nor their 5 tiles divide among 2 or 3 workers. Mixed in: a NaN
    target, an overflowing one, and a node of each grid of the sums."""
    ordinary = np.random.default_rng(9).uniform(-2.0, 2.0, (67, 3))
    base_node = _grid_tables(BLOB, G_BLOB).positions[:, 50]
    fine_node = _grid_tables(BLOB, grid(65, 135)).positions[:, 8200]
    bad = [[0.3, math.nan, 0.1], [1e200, 0.0, 0.0], base_node, fine_node]
    return np.vstack([ordinary[:20], bad[:2], ordinary[20:50], bad[2:], ordinary[50:]])


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
    assert len(block) % _TILE_TARGETS and len(block) % workers
    assert math.ceil(len(block) / _TILE_TARGETS) % workers
    listed = {n: [cpus[i % len(cpus)] for i in range(n)] for n in (1, workers)}
    sum_tiles, calls = potentials._sum_tiles, []

    def recorded(*args, cpu=None):
        calls.append((threading.current_thread() is threading.main_thread(), cpu))
        sum_tiles(*args, cpu=cpu)

    monkeypatch.setattr(potentials, "_sum_tiles", recorded)
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
                runs[n] = [
                    _outcome_bits(potential_quadrature(BLOB, kernel, d, g, block))
                    for g in (G_BLOB, grid(65, 135))
                ]
    finally:
        sys.setswitchinterval(switch)
    assert runs[workers] == runs[1]
    assert [type(o) for o in runs[1][0][20:22]] == [tuple, tuple]
    assert [type(o) for o in runs[1][1][52:54]] == [str, tuple]
    # one inline worker per one-worker sum; a pinned thread per CPU otherwise
    assert calls[:2] == [(True, None)] * 2
    assert sorted(calls[2:]) == sorted([(False, cpu) for cpu in listed[workers]] * 2)
    assert os.sched_getaffinity(0) == set(cpus)


@needs_affinity
def test_a_worker_error_reaches_the_caller_and_leaves_no_thread(monkeypatch):
    block = _worker_block()
    third = block[2 * _TILE_TARGETS : 3 * _TILE_TARGETS]
    tile_sums = potentials._tile_sums

    class TileFailed(RuntimeError):
        pass

    def failing(kernel, positions, normals, weights, xs, buffers):
        if np.array_equal(xs, third, equal_nan=True):
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


@pytest.mark.parametrize("shape", [(0,), (2,), (4,), (2, 2), (2, 3, 1)])
@pytest.mark.parametrize("f", [potential_quadrature, measured_error, full_estimate])
def test_malformed_target_arrays_are_evaluation_errors(f, shape):
    with pytest.raises(EvaluationError, match=re.escape(f"shape {shape}")):
        f(SPHERE, harmonic_single(), unit_density(), G_SPHERE, np.ones(shape))


@pytest.mark.parametrize("f", [potential_quadrature, measured_error, full_estimate])
def test_empty_block_has_no_outcomes(f):
    out = f(SPHERE, harmonic_single(), unit_density(), G_SPHERE, np.empty((0, 3)))
    if f is full_estimate:
        # no errors, and every array of the estimates is empty
        assert out.errors == ()
        assert all(np.shape(v) == (0,) for name, v in vars(out).items() if name != "errors")
    else:
        assert out == []


# ------------------------------------------------------------- grid lookups


def _scan_one(surface, g, x):
    """One target's scan as the estimator made it before it scanned blocks."""
    px, py, pz = _grid_tables(surface, g).positions
    with np.errstate(over="ignore"):
        d2 = (px - x[0]) ** 2 + (py - x[1]) ** 2 + (pz - x[2]) ** 2
    idx = int(np.argmin(d2))
    k, l = divmod(idx, g.n_phi)
    return k, l, float(g.t_rule.nodes[k]), float(g.phi_rule.nodes[l]), math.sqrt(d2[idx])


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
        chunk = _TILE_TARGETS * _TILE_NODES // (g.n_t * g.n_phi)
        node = _grid_tables(surface, g).positions[:, 7]
        ordinary = np.random.default_rng(5).normal(scale=1.5, size=(chunk + 9, 3))
        block = np.vstack([ordinary, _FAR, [math.nan, 0.0, 0.0], [0.0, 0.0, 2.5], node])
        found = nearest_grid_node(surface, g, block)
        assert len(block) > chunk and all(len(v) == len(block) for v in found)
        for i, xi in enumerate(block):
            one = nearest_grid_node(surface, g, xi)
            assert [type(v) for v in one] == [int, int, float, float, float]
            for got, single, want in zip(found, one, _scan_one(surface, g, xi)):
                assert _bitwise_equal(got[i], single) and _bitwise_equal(single, want)
        assert found[4][-1] == 0.0 and math.isnan(found[4][len(ordinary) + 3])
        empty = nearest_grid_node(surface, g, np.empty((0, 3)))
        assert [v.shape for v in empty] == [(0,)] * 5


def _per_node_tables(surface, g):
    """The grid tables built one node at a time, from eval_t and np.cross."""
    positions, normals, weights = [], [], []
    for k, t in enumerate(g.t_rule.nodes):
        for l, phi in enumerate(g.phi_rule.nodes):
            pos, d_t, d_phi = surface.eval_t(t, phi)
            cr = np.cross(np.real(d_t), np.real(d_phi))
            area = np.linalg.norm(cr)
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
# 7 x 1000 spans blocks of 4096 // 1000 = 4 rows, the last one short
@pytest.mark.parametrize("n_t,n_phi", [(7, 12), (12, 24), (7, 1000)])
def test_grid_tables_match_per_node_build(surface, n_t, n_phi):
    g = grid(n_t, n_phi)
    positions, normals, weights, scale = _per_node_tables(surface, g)
    tab = _grid_tables(surface, g)
    # the tables are coordinate first: (3, N) against the per-node (N, 3)
    assert np.array_equal(tab.positions, positions.T)
    assert tab.scale == scale
    assert np.max(np.abs(tab.base_weights - weights) / np.abs(weights)) <= 1e-15
    assert np.max(np.abs(tab.normals - normals.T)) <= 1e-15
    for density in (unit_density(), paper_density()):
        sigma = [density.value(theta, phi) for theta in tab.thetas for phi in tab.phis]
        want = tab.base_weights * np.array(sigma, dtype=float)
        assert _sum_weights(surface, g, density).tobytes() == want.tobytes()


def test_grid_table_build_holds_no_whole_table_temporary():
    # the tables and sum weights of a fresh surface on a 180k-node grid, the
    # size of spheroid-random's reference grid: the build's peak of traced
    # memory stays within 1.25x of what it keeps
    surface, g = Spheroid(1.0, 2.0), grid(300, 600)
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        tab = _grid_tables(surface, g)
        weights = _sum_weights(surface, g, paper_density())
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    kept = [tab.thetas, tab.positions, tab.normals, tab.base_weights, weights]
    assert peak <= 1.25 * sum(a.nbytes for a in kept)


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
