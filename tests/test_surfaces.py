import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from layerr.cli import _build_config
from layerr.errors import NonConvergence
from layerr.estimates import _build_frame
from layerr.potentials import _fill_rows, _grid_tables, harmonic_single, unit_density
from layerr.quadrature import grid
from layerr.roots import (
    VAR_PHI,
    VAR_THETA,
    axisym_phi_root,
    newton_root,
    phi_line,
    theta_line,
)
from layerr.rounding import cmul
from layerr.surfaces import (
    COSINE_MAP,
    LINEAR_MAP,
    Blob,
    Sphere,
    Spheroid,
    paper_blob,
    theta_map_by_name,
)


def surfaces_under_test():
    return [
        ("sphere", Sphere(1.0)),
        ("spheroid", Spheroid(1.0, 3.0)),
        ("blob", paper_blob()),
    ]


# ---------------------------------------------------------------- theta maps


def test_linear_map_midpoint():
    assert LINEAR_MAP.theta(0.0) == pytest.approx(math.pi / 2)


def test_cosine_map_endpoints():
    assert COSINE_MAP.theta(-1.0) == pytest.approx(0.0, abs=1e-15)
    assert COSINE_MAP.theta(1.0) == pytest.approx(math.pi, abs=1e-15)
    assert LINEAR_MAP.theta(-1.0) == pytest.approx(0.0, abs=1e-15)


def test_cosine_inverse_midpoint():
    assert COSINE_MAP.t(math.pi / 2) == pytest.approx(0.0, abs=1e-15)


def test_maps_roundtrip():
    for m in (LINEAR_MAP, COSINE_MAP):
        for t in np.linspace(-0.99, 0.99, 21):
            assert m.t(m.theta(t)) == pytest.approx(t, abs=1e-14)


def test_inverse_rejects_out_of_range():
    with pytest.raises(ValueError):
        COSINE_MAP.t(-0.5)
    with pytest.raises(ValueError):
        LINEAR_MAP.t(3.5)


def test_complex_map_principal_branch():
    w = COSINE_MAP.theta(0.3 + 0.2j)
    assert COSINE_MAP.t(w) == pytest.approx(0.3 + 0.2j, abs=1e-14)


def test_theta_map_by_name():
    assert theta_map_by_name("Linear") is LINEAR_MAP
    assert theta_map_by_name("cosine") is COSINE_MAP
    with pytest.raises(ValueError):
        theta_map_by_name("chebyshev")


# The maps as scalar stdlib formulas, one entry at a time: the oracle the
# array methods must reproduce bit for bit.


def _theta_oracle(kind, t):
    if kind == "linear":
        return (t + 1.0) * (math.pi / 2.0)
    if isinstance(t, complex):
        return math.pi - cmath.acos(t)
    if -1.0 <= t <= 1.0:
        return math.pi - math.acos(t)
    return math.pi - cmath.acos(complex(t))


def _t_oracle(kind, theta):
    if kind == "linear":
        return -1.0 + 2.0 * theta / math.pi
    return -cmath.cos(theta) if isinstance(theta, complex) else -math.cos(theta)


def _jacobian_oracle(kind, theta):
    if kind == "linear":
        return math.pi / 2.0
    s = cmath.sin(theta) if isinstance(theta, complex) else math.sin(theta)
    return 1.0 / s if s else math.inf


def _assert_matches_oracle(got, oracle, kind, args):
    """got matches oracle applied to each entry of args: same shape, real or
    complex alike, and NaN in the same parts. A real entry of a real argument
    or an infinite entry has the same bits in each part; any other complex
    entry, which numpy's complex arithmetic computes, lies within 16 eps of the
    oracle relative to its modulus."""
    want = np.array([oracle(kind, v) for v in args.ravel().tolist()]).reshape(args.shape)
    got = np.asarray(got)
    assert got.shape == want.shape
    if want.size:
        assert got.dtype == want.dtype
    got, want = got.ravel(), want.ravel()
    for part in (np.real, np.imag):
        assert (np.isnan(part(got)) == np.isnan(part(want))).all()
    real = (args.dtype.kind != "c") & (np.imag(want) == 0.0)
    exact = ~np.isnan(want) & (real | np.isinf(want))
    assert (got[exact].view(np.uint64) == want[exact].view(np.uint64)).all()
    g, w = got[np.isfinite(want) & ~exact], want[np.isfinite(want) & ~exact]
    assert (np.abs(g - w) <= 16 * np.finfo(float).eps * np.abs(w)).all()


_RNG = np.random.default_rng(12)
_T_ARGS = [
    np.array([[-1.0, -0.5, -0.0, 0.7, 1.0], [1.5, -3.0, math.nan, 0.2, 1.0 + 1e-16]]),
    np.linspace(-1.0, 1.0, 12).reshape(3, 4),
    _RNG.uniform(-1.5, 1.5, (30, 4)),
    np.array([0.3 + 0.2j, -2.0 + 1e-3j, 1.0 + 0j, -1.0 - 0j,
              complex(math.nan, 0.0), complex(0.5, math.nan)]),
    _RNG.uniform(-2.0, 2.0, (10, 3)) + 1j * _RNG.uniform(-2.0, 2.0, (10, 3)),
    np.array(0.25),
    np.array(-1.5),
    np.array(0.3 - 0.1j),
    np.empty(0),
    np.empty((0, 2), dtype=complex),
]
_THETA_ARGS = [
    np.array([[0.0, math.pi / 3.0, math.pi / 2.0], [math.pi, 2.0, 1e-300]]),
    _RNG.uniform(0.0, math.pi, (25, 4)),
    np.array([0j, math.pi + 0j, 0.4 + 0.3j, 2.0 - 1.0j, -0.5 + 2.0j, 4.0 + 0j,
              complex(math.nan, 0.0), complex(1.0, math.nan)]),
    _RNG.uniform(-1.0, 4.0, (10, 3)) + 1j * _RNG.uniform(-3.0, 3.0, (10, 3)),
    np.array(math.pi),
    np.array(0.0),
    np.array(1.0 + 0.5j),
    np.empty(0),
    np.empty((2, 0), dtype=complex),
]


@pytest.mark.parametrize("m", [LINEAR_MAP, COSINE_MAP], ids=["linear", "cosine"])
@pytest.mark.parametrize("t", _T_ARGS)
def test_theta_is_bitwise_the_scalar_formula(m, t):
    _assert_matches_oracle(m.theta(t), _theta_oracle, m.kind, t)


@pytest.mark.parametrize("m", [LINEAR_MAP, COSINE_MAP], ids=["linear", "cosine"])
@pytest.mark.parametrize("theta", _THETA_ARGS)
def test_inverse_and_jacobian_are_bitwise_the_scalar_formulas(m, theta):
    _assert_matches_oracle(m.t(theta), _t_oracle, m.kind, theta)
    jacobian = np.broadcast_to(m.dtheta_dt_at(theta), theta.shape)
    _assert_matches_oracle(jacobian, _jacobian_oracle, m.kind, theta)


@pytest.mark.parametrize("m", [LINEAR_MAP, COSINE_MAP], ids=["linear", "cosine"])
def test_jacobian_takes_real_theta_beyond_the_interval(m):
    theta = np.array([-0.5, -0.0, math.nan, 4.0])
    jacobian = np.broadcast_to(m.dtheta_dt_at(theta), theta.shape)
    _assert_matches_oracle(jacobian, _jacobian_oracle, m.kind, theta)


@pytest.mark.parametrize("m", [LINEAR_MAP, COSINE_MAP], ids=["linear", "cosine"])
def test_scalars_in_give_scalars_out(m):
    for value in (0.0, 0.3, 0.3 + 0.1j):
        assert np.ndim(m.theta(value)) == 0
        assert np.ndim(m.t(value)) == 0
        assert np.ndim(m.dtheta_dt_at(value)) == 0
        assert m.theta(value) == _theta_oracle(m.kind, value)
        assert m.t(value) == _t_oracle(m.kind, value)
        assert m.dtheta_dt_at(value) == _jacobian_oracle(m.kind, value)


@pytest.mark.parametrize("m", [LINEAR_MAP, COSINE_MAP], ids=["linear", "cosine"])
@pytest.mark.parametrize(
    "theta",
    [-0.5, 4.0, math.nan, np.array(math.nan), np.array([0.1, math.nan]),
     np.array([[0.5], [-1e-300]])],
)
def test_inverse_rejects_real_theta_outside_the_interval(m, theta):
    with pytest.raises(ValueError, match="must lie in"):
        m.t(theta)


# ---------------------------------------------------------------- evaluation


def test_sphere_equator_point_and_partials():
    s = Sphere(1.0)
    pos, dth, dph = s.eval_sph(math.pi / 2, 0.0)
    assert pos == pytest.approx([1.0, 0.0, 0.0], abs=1e-15)
    assert dth == pytest.approx([0.0, 0.0, -1.0], abs=1e-15)
    assert dph == pytest.approx([0.0, 1.0, 0.0], abs=1e-15)


def test_spheroid_pole():
    s = Spheroid(1.0, 3.0)
    pos = s.position(0.0, 0.7)
    assert pos == pytest.approx([0.0, 0.0, 3.0], abs=1e-15)


def test_blob_equator_harmonic_vanishes():
    # the radius perturbation carries cos(theta), so it dies on the equator
    b = paper_blob()
    pos = np.real(b.position(math.pi / 2, 0.0))
    assert pos == pytest.approx([1.0, 0.0, 0.0], abs=1e-14)


def test_eval_t_chain_rule_cosine_center():
    s = Sphere(1.0)
    pos, d_t, _ = s.eval_t(0.0, 0.0)
    assert np.real(pos) == pytest.approx([1.0, 0.0, 0.0], abs=1e-15)
    assert np.real(d_t) == pytest.approx([0.0, 0.0, -1.0], abs=1e-12)


def test_eval_t_linear_jacobian():
    s = Spheroid(1.0, 3.0, LINEAR_MAP)
    theta = s.theta_map.theta(0.3)
    _, d_theta, _ = s.eval_sph(theta, 1.1)
    _, d_t, _ = s.eval_t(0.3, 1.1)
    assert np.real(d_t) == pytest.approx(np.real(d_theta) * math.pi / 2, rel=1e-13)


def areas(s, g):
    """The area element at each node of the grid g, as the quadrature sums use
    it: the weights of the whole grid's tables, filled by _fill_rows over all
    rows with unit sigma, exactly 1.0, over the rule weights."""
    n_nodes = g.n_t * g.n_phi
    weights = np.empty(n_nodes)
    _fill_rows(s, unit_density(), g, 0, g.n_t, np.empty((3, n_nodes)), np.empty((3, n_nodes)),
               weights)
    return weights / np.outer(g.t_rule.weights, g.phi_rule.weights).ravel()


def test_area_element_sphere_cosine_constant():
    assert areas(Sphere(1.0), grid(8, 4)) == pytest.approx(np.ones(32), rel=1e-12)


def test_area_element_sphere_linear():
    g = grid(5, 4)
    thetas = np.repeat(LINEAR_MAP.theta(g.t_rule.nodes), 4)
    assert areas(Sphere(1.0, LINEAR_MAP), g) == pytest.approx(
        math.pi / 2 * np.sin(thetas), rel=1e-13
    )


def test_area_element_scales_with_radius():
    assert areas(Sphere(2.0), grid(7, 6)) == pytest.approx(np.full(42, 4.0), rel=1e-12)


def test_grid_anisotropy_sphere():
    # the nearest node of a target on the positive x-axis is (t, phi) = (0, 0)
    x = np.array([1.1, 0.0, 0.0])
    for theta_map, kappa in ((COSINE_MAP, 1.0), (LINEAR_MAP, math.pi / 2)):
        frame = _build_frame(Sphere(1.0, theta_map), harmonic_single(), unit_density(),
                             grid(5, 8), x)
        assert (frame.t_star[0], frame.phi_star[0]) == (0.0, 0.0)
        assert frame.kappa[0] == pytest.approx(kappa, rel=1e-12)


def test_grid_anisotropy_off_equator_matches_finite_differences():
    s = Sphere(1.0)
    frame = _build_frame(s, harmonic_single(), unit_density(), grid(8, 16),
                         np.array([0.4, 0.3, -0.8]))
    t, phi = frame.t_star[0], frame.phi_star[0]
    assert abs(t) > 0.5
    h = 1e-6
    d_t = (np.real(s.position(s.theta_map.theta(t + h), phi))
           - np.real(s.position(s.theta_map.theta(t - h), phi))) / (2 * h)
    d_p = (np.real(s.position(s.theta_map.theta(t), phi + h))
           - np.real(s.position(s.theta_map.theta(t), phi - h))) / (2 * h)
    expected = np.linalg.norm(d_t) / np.linalg.norm(d_p)
    assert frame.kappa[0] == pytest.approx(expected, rel=1e-6)


def test_partials_match_finite_differences():
    rng = np.random.default_rng(11)
    h = 1e-6
    for name, s in surfaces_under_test():
        for _ in range(100):
            theta = 0.05 + (math.pi - 0.1) * rng.random()
            phi = 2 * math.pi * rng.random()
            _, dth, dph = s.eval_sph(theta, phi)
            fd_th = (np.real(s.position(theta + h, phi)) - np.real(s.position(theta - h, phi))) / (2 * h)
            fd_ph = (np.real(s.position(theta, phi + h)) - np.real(s.position(theta, phi - h))) / (2 * h)
            assert np.real(dth) == pytest.approx(fd_th, rel=1e-8, abs=1e-8), name
            assert np.real(dph) == pytest.approx(fd_ph, rel=1e-8, abs=1e-8), name


def test_complex_evaluation_reduces_to_real():
    for name, s in surfaces_under_test():
        pos_r, dth_r, dph_r = s.eval_sph(0.9, 2.2)
        pos_c, dth_c, dph_c = s.eval_sph(complex(0.9, 0.0), 2.2)
        assert np.all(pos_c == pos_r) and np.all(dth_c == dth_r) and np.all(dph_c == dph_r), name


def test_conjugation_symmetry():
    w = 0.8 + 0.35j
    for name, s in surfaces_under_test():
        pos_plus = s.position(w, 1.3)
        pos_minus = s.position(w.conjugate(), 1.3)
        assert np.conj(pos_plus) == pytest.approx(pos_minus, rel=1e-13, abs=1e-13), name


def test_eval_sph_arrays_match_scalar_calls_bitwise():
    # The grid tables evaluate one Gauss-Legendre row per call: theta fixed,
    # phi along the row. Each entry must equal the scalar call at that node,
    # so node positions (and with them the nearest node and E_EST) do not
    # depend on how the table was built.
    phis = 2 * math.pi * np.arange(24) / 24
    for name, s in surfaces_under_test():
        for theta in (0.03, 0.9, math.pi / 2, 2.7):
            rows = s.eval_sph(np.full(phis.size, theta), phis)
            for j, phi in enumerate(phis):
                for row, scalar in zip(rows, s.eval_sph(theta, phi)):
                    assert row.shape == (3, phis.size), name
                    assert np.array_equal(row[:, j], scalar), (name, theta, phi)


_parts = hst.floats(-4.0, 4.0, allow_nan=False) | hst.sampled_from([0.0, -0.0, math.pi])
_imag = hst.floats(-800.0, 800.0, allow_nan=False)  # beyond |Im| ~ 710 sin and cos overflow


@settings(max_examples=60, deadline=None)
@given(hst.lists(hst.tuples(_parts, _imag, _parts), min_size=1, max_size=12),
       hst.sampled_from([VAR_THETA, VAR_PHI]))
def test_evaluate_is_eval_sph_bitwise(entries, var):
    # the line along var: var complex, the other coordinate real; each request
    # gives the bits of eval_sph's matching entries
    w = np.array([complex(re, im) for re, im, _ in entries])
    other = np.array([v for _, _, v in entries])
    theta, phi = (w, other) if var == VAR_THETA else (other, w)
    for name, s in surfaces_under_test():
        with np.errstate(all="ignore"):
            pos, d_theta, d_phi = s.eval_sph(theta, phi)
            for partials, want in (((), [pos]), ((VAR_THETA,), [pos, d_theta]),
                                   ((VAR_PHI,), [pos, d_phi])):
                got = s.evaluate(theta, phi, partials)
                assert len(got) == len(want), (name, partials)
                for g, wv in zip(got, want):
                    assert g.tobytes() == wv.tobytes() and g.dtype == wv.dtype, (name, partials)


@pytest.mark.parametrize(
    "surface",
    [Sphere(1.0), Sphere(1.0, LINEAR_MAP), Spheroid(1.0, 3.0), paper_blob()],
    ids=["sphere-cosine", "sphere-linear", "spheroid", "blob"],
)
@pytest.mark.parametrize("imag", [0.0, 0.7], ids=["real", "complex"])
@pytest.mark.parametrize(
    "partials", [(), (VAR_THETA,), (VAR_PHI,), (VAR_THETA, VAR_PHI)],
    ids=["position", "theta", "phi", "both"],
)
def test_evaluate_broadcasts_a_theta_column_against_a_phi_row_bitwise(surface, imag, partials):
    # The sums fill a tensor grid's rows from the polar angles as a column and
    # the azimuths as a row; each vector must hold the bits and dtype of the
    # call on the grid flattened by np.repeat and np.tile, shaped (3, n_t, n_phi).
    g = grid(13, 37)
    theta = surface.theta_map.theta(g.t_rule.nodes)
    theta = theta + 1j * imag * np.linspace(-1.0, 1.0, g.n_t) if imag else theta
    phi = g.phi_rule.nodes
    got = surface.evaluate(theta[:, None], phi, partials)
    want = surface.evaluate(np.repeat(theta, g.n_phi), np.tile(phi, g.n_t), partials)
    assert len(got) == len(want) == 1 + len(partials)
    for gv, wv in zip(got, want):
        assert gv.shape == (3, g.n_t, g.n_phi) and gv.dtype == wv.dtype
        assert gv.tobytes() == wv.tobytes()


def test_position_only_callers_ask_for_no_partials(monkeypatch):
    asked = []
    for cls in (Spheroid, Blob):
        def recorded(self, theta, phi, partials, evaluate=cls.evaluate):
            asked.append(tuple(partials))
            return evaluate(self, theta, phi, partials)

        monkeypatch.setattr(cls, "evaluate", recorded)
    # fresh surfaces, so the cached base grids are built here
    for surface in (Spheroid(1.0, 3.0), paper_blob()):
        _grid_tables(surface, grid(8, 16))
    x = np.array([[1.5, 0.2, 0.3], [0.1, 2.0, -0.4]])
    axisym_phi_root(Spheroid(1.0, 3.0), np.array([0.7, 1.9]), x)
    calls = len(asked)
    _build_config({"surface": {"shape": "spheroid", "a": 1.0, "b": 2.0},
                   "grid": {"n_t": 10, "n_phi": 20},
                   "targets": {"generator": "random", "count": 5, "seed": 3}})
    assert calls >= 3 and len(asked) > calls
    assert set(asked) == {()}


# Reference formulas: the generic evaluators the three surfaces replaced. A
# surface of revolution took profile callables a(theta), b(theta) and their
# derivatives; the blob was rho * (unit radial direction) with three radius
# closures. The concrete evaluators must reproduce them bitwise, NaN entries
# included, because the stored estimates depend on every last bit.


def profile_eval_sph(a, da, b, db, theta, phi):
    a, da, b, db = a(theta), da(theta), b(theta), db(theta)
    st, ct = np.sin(theta), np.cos(theta)
    sp, cp = np.sin(phi), np.cos(phi)
    pos = np.array([a * st * cp, a * st * sp, b * ct])
    mer = da * st + a * ct
    d_theta = np.array([mer * cp, mer * sp, db * ct - b * st])
    d_phi = np.array([-a * st * sp, a * st * cp, 0.0 * sp])
    return pos, d_theta, d_phi


def spheroid_reference(a, b):
    zero = lambda theta: 0.0 * theta
    return lambda theta, phi: profile_eval_sph(
        lambda th: a + 0.0 * th, zero, lambda th: b + 0.0 * th, zero, theta, phi
    )


_Y32_AMPL = 0.25 * math.sqrt(105.0 / (2.0 * math.pi))


def blob_reference(theta, phi):
    def g(theta, phi):
        st = np.sin(theta)
        return cmul(_Y32_AMPL * np.cos(2.0 * phi) * cmul(st, st), np.cos(theta))

    def rho(theta, phi):
        return 0.8 + 0.2 * np.exp(-3.0 * g(theta, phi))

    def rho_th(theta, phi):
        st, ct = np.sin(theta), np.cos(theta)
        cube = cmul(cmul(st, st), st)
        dg = cmul(_Y32_AMPL * np.cos(2.0 * phi), cmul(cmul(2.0 * st, ct), ct) - cube)
        return cmul(0.2 * np.exp(-3.0 * g(theta, phi)), -3.0 * dg)

    def rho_ph(theta, phi):
        st = np.sin(theta)
        dg = cmul(_Y32_AMPL * (-2.0 * np.sin(2.0 * phi)), cmul(st, st))
        dg = cmul(dg, np.cos(theta))
        return cmul(0.2 * np.exp(-3.0 * g(theta, phi)), -3.0 * dg)

    r, r_th, r_ph = rho(theta, phi), rho_th(theta, phi), rho_ph(theta, phi)
    st, ct = np.sin(theta), np.cos(theta)
    sp, cp = np.sin(phi), np.cos(phi)
    u = np.array([cp * st, sp * st, ct])
    du_th = np.array([cp * ct, sp * ct, -st])
    du_ph = np.array([-sp * st, cp * st, 0.0 * st])
    return r * u, r_th * u + r * du_th, r_ph * u + r * du_ph


def reference_arguments():
    """(label, theta, phi): real scalars, real rows, and arrays with a complex
    theta or phi whose imaginary parts run from 0.1 to 800 in both signs, the
    range Newton's wandering iterates reach (past about 710, sin and cos
    overflow and the entries are NaN)."""
    rng = np.random.default_rng(5)
    re_theta = np.concatenate([[0.0, math.pi / 2, math.pi], rng.uniform(-0.3, math.pi + 0.3, 57)])
    re_phi = np.concatenate([[0.0, math.pi, 2 * math.pi], rng.uniform(-1.0, 7.0, 57)])
    mags = np.geomspace(0.1, 800.0, 30)
    im = np.concatenate([mags, -mags])
    args = [("real scalar", float(t), float(p)) for t, p in zip(re_theta[::6], re_phi[::6])]
    args.append(("real row", np.full(re_phi.size, 0.9), re_phi))
    args.append(("real table", re_theta, re_phi))
    args.append(("complex theta", re_theta + 1j * im, re_phi))
    args.append(("complex phi", re_theta, re_phi + 1j * im))
    return args


@pytest.mark.parametrize(
    "surface, reference",
    [
        (Sphere(1.3), spheroid_reference(1.3, 1.3)),
        (Spheroid(1.0, 3.0), spheroid_reference(1.0, 3.0)),
        (paper_blob(), blob_reference),
    ],
    ids=["sphere", "spheroid", "blob"],
)
def test_eval_sph_matches_generic_reference_bitwise(surface, reference):
    for label, theta, phi in reference_arguments():
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = surface.eval_sph(theta, phi), reference(theta, phi)
        for k, (g, w) in enumerate(zip(got, want)):
            assert g.dtype == w.dtype, (label, k)
            assert np.array_equal(g, w, equal_nan=True), (label, k)


def test_area_element_positive_interior_vanishes_at_poles():
    for name, s in surfaces_under_test():
        assert np.all(areas(s, grid(9, 8)) > 0), name
        _, dth, dph = s.eval_sph(0.0, 0.7)
        assert np.linalg.norm(np.cross(np.real(dth), np.real(dph))) < 1e-12, name
        _, dth, dph = s.eval_sph(math.pi, 0.7)
        assert np.linalg.norm(np.cross(np.real(dth), np.real(dph))) < 1e-12, name


# ------------------------------------------------------------- line models
# Root finding runs Newton on the analytic line evaluators theta_line and
# phi_line: position and derivative along one parameter, the other fixed.


def richardson_derivative(f, x0, h=1e-2):
    """Two-level Richardson extrapolation of O(h^2) central differences."""
    d = lambda hh: (f(x0 + hh) - f(x0 - hh)) / (2.0 * hh)
    r1 = (4.0 * d(h / 2) - d(h)) / 3.0
    r2 = (4.0 * d(h / 4) - d(h / 2)) / 3.0
    return (16.0 * r2 - r1) / 15.0


def test_surrogate_center_reproduces_position():
    # a line returns its one live entry as a column (3, 1)
    for name, s in surfaces_under_test():
        pos, _ = theta_line(s, 0.6)(1.1)
        assert pos.shape == (3, 1), name
        assert np.real(pos[:, 0]) == pytest.approx(np.real(s.position(1.1, 0.6)), abs=1e-14), name
        pos, _ = phi_line(s, 1.1)(0.6)
        assert pos.shape == (3, 1), name
        assert np.real(pos[:, 0]) == pytest.approx(np.real(s.position(1.1, 0.6)), abs=1e-14), name


def test_surrogate_matches_sphere_within_taylor_remainder():
    # first-order model from the line derivative: the components are unit
    # trig products, so the remainder is at most off^2 / 2
    s = Sphere(1.0)
    for line, center in ((theta_line(s, 0.8), 1.2), (phi_line(s, 1.2), 0.8)):
        pos, dpos = line(center)
        for off in (-0.3, -0.15, 0.12, 0.3):
            exact, _ = line(center + off)
            model = np.real(pos) + off * np.real(dpos)
            assert np.max(np.abs(model - np.real(exact))) <= 0.5 * off * off


def test_surrogate_polynomial_reproduction():
    # Newton on a polynomial (straight) line reproduces the closed-form root
    # of |r + w d|^2 = 0
    p0 = np.array([1.0, -0.5, 2.0])
    d = np.array([0.3, 0.7, -1.1])
    x = np.array([0.2, 0.4, 1.0])
    r = p0 - x
    dd, rd = float(d @ d), float(r @ d)
    expected = complex(-rd / dd, math.sqrt(float(r @ r) * dd - rd * rd) / dd)
    # a line gets the iterates as an array and returns coordinate-first
    # vectors at the entries that are not NaN
    line = lambda w: (p0[:, None] + d[:, None] * w[~np.isnan(w)], d[:, None])
    root = newton_root(line, VAR_THETA, 0.0, x, 0.1j)
    assert root.value == pytest.approx(expected, abs=1e-12)


def test_blob_surrogate_derivatives_from_richardson():
    # analytic blob partials against Richardson-extrapolated differences
    b = paper_blob()
    _, dth, dph = b.eval_sph(1.0, 0.5)
    fd_th = richardson_derivative(lambda th: np.real(b.position(th, 0.5)), 1.0)
    fd_ph = richardson_derivative(lambda ph: np.real(b.position(1.0, ph)), 0.5)
    assert np.real(dth) == pytest.approx(fd_th, rel=1e-8, abs=1e-9)
    assert np.real(dph) == pytest.approx(fd_ph, rel=1e-8, abs=1e-9)


def test_surrogate_rejects_bad_order():
    # a line along which R^2 is constant has no root: Newton gives up
    # with a typed error instead of returning a value
    flat = lambda w: (np.array([[1.0], [0.0], [0.0]]) + 0.0 * w, np.zeros((3, 1)))
    with pytest.raises(NonConvergence):
        newton_root(flat, VAR_THETA, 0.0, np.array([0.0, 0.0, 2.0]), 0.1j)
