import cmath
import math

import numpy as np
import pytest

from layerr.errors import DegenerateModel, NoRootExists
from layerr.roots import (
    VAR_PHI,
    VAR_THETA,
    axisym_phi_root,
    azimuthal_sweep_model,
    circle_root,
    linear_root_model,
    newton_root,
    phi_line,
    sphere_theta_root,
    theta_line,
)
from layerr.surfaces import Sphere, Spheroid, paper_blob


def circle_r2(a, alpha, x):
    g = np.array([a * cmath.cos(alpha), a * cmath.sin(alpha), 0.0])
    return complex(np.sum((g - x) * (g - x)))


# ------------------------------------------------------------- closed forms


def test_circle_root_on_x_axis():
    x = np.array([2.0, 0.0, 0.0])
    r = circle_root(1.0, x)
    assert r.lam == pytest.approx(1.25)
    assert r.value == pytest.approx(complex(0.0, math.log(2.0)), abs=1e-14)
    assert abs(circle_r2(1.0, r.value, x)) < 1e-12


def test_circle_root_on_y_axis():
    x = np.array([0.0, 3.0, 0.0])
    r = circle_root(1.0, x)
    assert r.lam == pytest.approx(5.0 / 3.0)
    assert r.value == pytest.approx(complex(math.pi / 2, math.log(3.0)), abs=1e-14)
    assert abs(circle_r2(1.0, r.value, x)) < 1e-12


def test_circle_root_z_axis_has_no_root():
    with pytest.raises(NoRootExists):
        circle_root(1.0, np.array([0.0, 0.0, 1.0]))


def test_axisym_phi_root_reduces_to_circle():
    s = Sphere(1.0)
    r = axisym_phi_root(s, math.pi / 2, np.array([2.0, 0.0, 0.0]))
    assert r.value == pytest.approx(complex(0.0, math.log(2.0)), abs=1e-14)


def test_axisym_phi_root_spheroid_example():
    s = Spheroid(1.0, 3.0)
    x = np.array([0.0, 2.0, 0.0])
    r = axisym_phi_root(s, math.pi / 2, x)
    assert r.lam == pytest.approx(1.25)
    assert r.value == pytest.approx(complex(math.pi / 2, math.log(2.0)), abs=1e-13)
    assert r.residual < 1e-12


def test_axisym_phi_root_pole_rejected():
    s = Spheroid(1.0, 3.0)
    with pytest.raises(NoRootExists):
        axisym_phi_root(s, 0.0, np.array([1.0, 1.0, 0.0]))
    with pytest.raises(NoRootExists):
        axisym_phi_root(s, 1.0, np.array([0.0, 0.0, 2.0]))


def test_sphere_theta_root_axis_exterior():
    r = sphere_theta_root(1.0, 0.7, np.array([0.0, 0.0, 2.0]))
    assert r.value == pytest.approx(complex(0.0, math.log(2.0)), abs=1e-14)


def test_sphere_theta_root_axis_interior_mirror():
    r = sphere_theta_root(1.0, 1.9, np.array([0.0, 0.0, 0.5]))
    assert abs(r.value.imag) == pytest.approx(math.log(2.0), abs=1e-14)


def test_sphere_theta_root_equator():
    x = np.array([2.0, 0.0, 0.0])
    r = sphere_theta_root(1.0, 0.0, x)
    assert r.value == pytest.approx(complex(math.pi / 2, math.log(2.0)), abs=1e-13)
    assert r.residual < 1e-12


def test_sphere_theta_root_degenerate():
    # z = 0 and the target orthogonal to the meridian plane: R^2 is
    # independent of the polar angle
    with pytest.raises(NoRootExists):
        sphere_theta_root(1.0, 0.0, np.array([0.0, 2.0, 0.0]))


def test_closed_forms_give_real_root_for_target_on_slice():
    # lambda is 1 on the slice and rounds below 1 for these targets
    a, theta = 0.9391390515063975, 2.682695713167154
    r = sphere_theta_root(a, 0.0, np.real(Sphere(a).position(theta, 0.0)))
    assert abs(r.value.imag) < 1e-15 and r.value.real == pytest.approx(theta, rel=1e-12)
    a, alpha = 1.8590624786635572, 5.803941785105386
    r = circle_root(a, np.array([a * math.cos(alpha), a * math.sin(alpha), 0.0]))
    assert abs(r.value.imag) < 1e-15 and r.residual < 1e-12


# ------------------------------------------------------------------- Newton


def test_newton_matches_axis_closed_form():
    s = Sphere(1.0)
    r = newton_root(theta_line(s, 0.0), VAR_THETA, 0.0, np.array([0.0, 0.0, 2.0]), 0.1j)
    assert abs(r.value - complex(0.0, math.log(2.0))) < 1e-10


def test_newton_matches_lemma_on_spheroid():
    s = Spheroid(1.0, 3.0)
    x = np.array([0.0, 2.0, 0.0])
    ana = axisym_phi_root(s, math.pi / 2, x)
    newt = newton_root(phi_line(s, math.pi / 2), VAR_PHI, math.pi / 2, x,
                       complex(ana.value.real, 0.1), 3.0)
    assert abs(ana.value - newt.value) < 1e-10


def test_newton_on_blob_surrogate_residual():
    # the blob has no closed form: Newton on its analytic theta line, the
    # solve the estimate runs, must drive the residual below the bound
    b = paper_blob()
    scale = 1.2
    rng = np.random.default_rng(5)
    for _ in range(20):
        theta_star = 0.4 + 2.2 * rng.random()
        phi_star = 2 * math.pi * rng.random()
        x = (1.15 + 0.3 * rng.random()) * np.real(b.position(theta_star, phi_star))
        r = newton_root(theta_line(b, phi_star), VAR_THETA, phi_star, x,
                        complex(theta_star, 0.1), scale, nearest=True)
        assert r.residual < 1e-8 * scale * scale


def test_newton_analytic_agreement_random_sample():
    rng = np.random.default_rng(77)
    a = 1.0
    s = Sphere(a)
    for _ in range(200):
        phi_bar = 2 * math.pi * rng.random()
        zeta = a * (1.05 + 1.95 * rng.random())
        if rng.random() < 0.5:
            zeta = a * a / zeta  # interior mirror
        theta = math.acos(1 - 2 * rng.random())
        psi = 2 * math.pi * rng.random()
        x = zeta * np.array([math.sin(theta) * math.cos(psi),
                             math.sin(theta) * math.sin(psi),
                             math.cos(theta)])
        ana = sphere_theta_root(a, phi_bar, x)
        newt = newton_root(theta_line(s, phi_bar), VAR_THETA, phi_bar, x,
                           complex(ana.value.real, 0.1), a, nearest=True)
        assert abs(ana.value - newt.value) < 1e-10
        assert ana.lam > 1.0


# --------------------------------------------------------------- properties


def test_residual_property_all_methods():
    rng = np.random.default_rng(3)
    s = Spheroid(1.0, 3.0)
    scale = 3.0
    for _ in range(50):
        theta_bar = 0.1 + (math.pi - 0.2) * rng.random()
        x = (1.1 + rng.random()) * np.real(
            s.position(math.acos(1 - 2 * rng.random()), 2 * math.pi * rng.random())
        )
        r = axisym_phi_root(s, theta_bar, x)
        assert r.residual < 1e-10 * scale * scale
        assert r.lam > 1.0


def test_conjugate_root_has_equal_residual():
    s = Sphere(1.0)
    x = np.array([1.7, 0.4, 0.6])
    r = axisym_phi_root(s, 1.2, x)
    pos, _, _ = s.eval_sph(1.2, r.value.conjugate())
    res_conj = abs(complex(np.sum((pos - x) * (pos - x))))
    assert res_conj == pytest.approx(r.residual, abs=1e-12)
    assert r.value.imag >= 0  # canonical representative


def test_lambda_increases_with_distance():
    s = Sphere(1.0)
    lams = []
    for zeta in (1.1, 1.3, 1.7, 2.5, 4.0):
        r = sphere_theta_root(1.0, 0.0, np.array([zeta, 0.0, 0.0]))
        lams.append(r.lam)
    assert all(a < b for a, b in zip(lams, lams[1:]))


# --------------------------------------------------------------- root model


def test_linear_model_anchored_at_grid_point():
    s = Sphere(1.0)
    x = np.array([1.2, 0.1, 0.3])
    t_star, phi_star = 0.25, 0.3
    root = complex(0.21, 0.19)
    model = linear_root_model(s, t_star, phi_star, x, "t", root)
    assert model.model_root(phi_star) == pytest.approx(root, abs=1e-15)


def test_linear_model_normal_distance():
    # target along the outward normal: model imag part equals the distance
    s = Sphere(1.0)
    t_star, phi_star = 0.25, 0.3
    theta = s.theta_map.theta(t_star)
    normal = np.real(s.position(theta, phi_star))
    for d in (0.05, 0.1, 0.2):
        x = (1.0 + d) * normal
        ana = sphere_theta_root(1.0, phi_star, x)
        t0 = complex(s.theta_map.t(ana.value))
        model = linear_root_model(s, t_star, phi_star, x, "t", t0)
        lin = model.linear_root(phi_star)
        assert abs(lin.imag - d) / d < 0.1


def test_linear_model_imag_growth_rate():
    # away from the anchor the azimuthal root grows like kappa * offset
    s = Sphere(1.0)
    theta_star = math.pi / 2
    t_star, phi_star = s.theta_map.t(theta_star), 0.0
    x = np.array([1.1, 0.0, 0.0])
    phi0 = axisym_phi_root(s, theta_star, x).value
    model = linear_root_model(s, t_star, phi_star, x, "phi", phi0)
    kappa = s.grid_anisotropy(t_star, phi_star)
    n_phi = 60
    for k in (1, 2, 3):
        dt = k * math.pi / n_phi
        growth = model.model_root(t_star + dt).imag - model.model_root(t_star).imag
        # hyperbola growth approaches kappa * dt; allow the near-field lag
        assert growth <= kappa * dt * 1.15
        assert growth > 0


def test_linear_model_polar_root_slope_in_azimuth():
    # for targets close to the surface the polar-root trajectory grows
    # like |phi - phi*| / kappa over a few grid cells
    s = Sphere(1.0)
    theta_star = math.pi / 2
    t_star, phi_star = s.theta_map.t(theta_star), 0.0
    d = 0.02
    x = np.array([1.0 + d, 0.0, 0.0])
    t0 = complex(s.theta_map.t(sphere_theta_root(1.0, phi_star, x).value))
    model = linear_root_model(s, t_star, phi_star, x, "t", t0)
    kappa = s.grid_anisotropy(t_star, phi_star)
    n_phi = 60
    span = 3 * math.pi / n_phi
    secant = (model.model_root(phi_star + span).imag - model.model_root(phi_star).imag) / span
    assert abs(secant - 1.0 / kappa) / (1.0 / kappa) < 0.15


def test_linear_model_degenerate_in_tangent_plane():
    s = Sphere(1.0)
    t_star, phi_star = 0.0, 0.0
    theta = s.theta_map.theta(t_star)
    pos, d_theta, _ = s.eval_sph(theta, phi_star)
    d_t = np.real(d_theta) * s.theta_map.dtheta_dt_at(theta)
    x = np.real(pos) + 0.3 * d_t / np.linalg.norm(d_t)
    with pytest.raises(DegenerateModel):
        linear_root_model(s, t_star, phi_star, x, "t", 0.1j)


def test_azimuthal_sweep_model_matches_linear_near_anchor():
    s = Spheroid(1.0, 3.0)
    t_star, phi_star = 0.1, 0.5
    x = 1.2 * np.real(s.position(s.theta_map.theta(t_star), phi_star))
    lin = linear_root_model(s, t_star, phi_star, x, "t", 0.2j)
    rot = azimuthal_sweep_model(s, t_star, phi_star, x, 0.2j)
    assert rot.model_root(phi_star) == pytest.approx(lin.model_root(phi_star), abs=1e-14)
    small = 1e-4
    assert rot.model_root(phi_star + small).imag == pytest.approx(
        lin.model_root(phi_star + small).imag, rel=1e-4
    )


def test_azimuthal_sweep_model_clamps_at_half_turn():
    s = Spheroid(1.0, 3.0)
    t_star, phi_star = 0.1, 0.5
    x = 1.2 * np.real(s.position(s.theta_map.theta(t_star), phi_star))
    rot = azimuthal_sweep_model(s, t_star, phi_star, x, 0.2j)
    at_pi = rot.model_root(phi_star + math.pi)
    beyond = rot.model_root(phi_star + math.pi + 2.0)
    assert beyond == at_pi
