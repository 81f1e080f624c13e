import cmath
import math

import numpy as np
import pytest

from layerr.errors import NonConvergence
from layerr.roots import VAR_THETA, newton_root, phi_line, theta_line
from layerr.surfaces import (
    COSINE_MAP,
    LINEAR_MAP,
    Axisymmetric,
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


def test_area_element_sphere_cosine_constant():
    s = Sphere(1.0)
    for t in (-0.9, -0.2, 0.4, 0.8):
        for phi in (0.0, 2.0):
            assert s.area_element(t, phi) == pytest.approx(1.0, rel=1e-12)


def test_area_element_sphere_linear():
    s = Sphere(1.0, LINEAR_MAP)
    assert s.area_element(0.0, 0.0) == pytest.approx(math.pi / 2, rel=1e-13)


def test_area_element_scales_with_radius():
    s = Sphere(2.0)
    assert s.area_element(0.3, 1.0) == pytest.approx(4.0, rel=1e-12)


def test_grid_anisotropy_sphere():
    s = Sphere(1.0)
    assert s.grid_anisotropy(0.0, 0.0) == pytest.approx(1.0, rel=1e-12)
    s_lin = Sphere(1.0, LINEAR_MAP)
    assert s_lin.grid_anisotropy(0.0, 0.0) == pytest.approx(math.pi / 2, rel=1e-12)


def test_grid_anisotropy_off_equator_matches_finite_differences():
    s = Sphere(1.0)
    t, phi = 1.0 / math.sqrt(2.0), 0.4
    h = 1e-6
    d_t = (np.real(s.position(s.theta_map.theta(t + h), phi))
           - np.real(s.position(s.theta_map.theta(t - h), phi))) / (2 * h)
    d_p = (np.real(s.position(s.theta_map.theta(t), phi + h))
           - np.real(s.position(s.theta_map.theta(t), phi - h))) / (2 * h)
    expected = np.linalg.norm(d_t) / np.linalg.norm(d_p)
    assert s.grid_anisotropy(t, phi) == pytest.approx(expected, rel=1e-6)


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


def test_area_element_positive_interior_vanishes_at_poles():
    for name, s in surfaces_under_test():
        for t in np.linspace(-0.95, 0.95, 9):
            assert s.area_element(t, 0.7) > 0, name
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
    for name, s in surfaces_under_test():
        pos, _ = theta_line(s, 0.6)(1.1)
        assert np.real(pos) == pytest.approx(np.real(s.position(1.1, 0.6)), abs=1e-14), name
        pos, _ = phi_line(s, 1.1)(0.6)
        assert np.real(pos) == pytest.approx(np.real(s.position(1.1, 0.6)), abs=1e-14), name


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
    root = newton_root(lambda w: (p0 + w * d, d), VAR_THETA, 0.0, x, 0.1j)
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
    flat = lambda w: (np.array([1.0, 0.0, 0.0]) + 0.0 * w, np.zeros(3))
    with pytest.raises(NonConvergence):
        newton_root(flat, VAR_THETA, 0.0, np.array([0.0, 0.0, 2.0]), 0.1j)


def test_axisymmetric_with_callable_profiles():
    # gently modulated axisymmetric shape exercises the generic formulas
    a = lambda th: 1.0 + 0.1 * np.sin(th)
    da = lambda th: 0.1 * np.cos(th)
    b = lambda th: 1.2 + 0.0 * th
    db = lambda th: 0.0 * th
    s = Axisymmetric(a, da, b, db)
    h = 1e-6
    theta, phi = 0.9, 0.3
    _, dth, _ = s.eval_sph(theta, phi)
    fd = (np.real(s.position(theta + h, phi)) - np.real(s.position(theta - h, phi))) / (2 * h)
    assert np.real(dth) == pytest.approx(fd, rel=1e-8)
    assert s.profile_a(theta) == pytest.approx(1.0 + 0.1 * math.sin(theta))
