import cmath
import math
import warnings

import numpy as np
import pytest

from layerr.errors import EvaluationError, InfiniteGeometryFactor, NoRootExists
from layerr.estimates import (
    ConeParams,
    _build_frame,
    _in_cone,
    _log_fg,
    _root_terms,
    e_fac_tz_analytic,
    est_gl,
    est_tz,
    full_estimate,
    sphere_simplified,
)
from layerr.potentials import harmonic_single, measured_error, unit_density
from layerr.quadrature import grid
from layerr.roots import axisym_phi_root, sphere_theta_root
from layerr.surfaces import Sphere, Spheroid, paper_blob


SPHERE = Sphere(1.0)
KER = harmonic_single()
DEN = unit_density()


def dfac_ratio(n):
    """n!!/(n+1)!! computed by direct products."""
    num = 1.0
    for k in range(n, 1, -2):
        num *= k
    den = 1.0
    for k in range(n + 1, 1, -2):
        den *= k
    return num / den


# ------------------------------------------------------------- est kernels


def test_est_tz_collapses_at_p_one():
    for n in (10, 50):
        for im in (0.05, 0.3):
            assert est_tz(complex(1.0, im), n, 1.0) == pytest.approx(
                4 * math.pi * math.exp(-n * im), rel=1e-13
            )


def test_est_tz_decays_with_imaginary_part():
    vals = [est_tz(complex(0.0, im), 40, 0.5) for im in (0.1, 0.5, 2.0, 10.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-150


def test_est_tz_half_integer_high_precision_value():
    # frozen from a 50-digit evaluation of 4 pi / Gamma(1/2) * 100^(-1/2) * e^-10
    assert est_tz(complex(0.7, 0.1), 100, 0.5) == pytest.approx(
        3.2187712135342489884e-05, rel=1e-13
    )


def test_est_gl_real_root_joukowski():
    for delta in (1.3, 2.0):
        t0 = (delta + 1 / delta) / 2
        for n in (10, 25):
            assert est_gl(complex(t0, 0.0), n, 1.0) == pytest.approx(
                4 * math.pi * delta ** -(2 * n + 1), rel=1e-12
            )


def test_est_gl_imaginary_root_joukowski():
    delta = 1.8
    t0 = complex(0.0, (delta - 1 / delta) / 2)
    n, p = 12, 0.5
    s_abs = (delta + 1 / delta) / 2
    expected = (
        4 * math.pi / math.gamma(p) * ((2 * n + 1) / s_abs) ** (p - 1) * delta ** -(2 * n + 1)
    )
    assert est_gl(t0, n, p) == pytest.approx(expected, rel=1e-12)


def test_est_gl_rejects_root_on_interval():
    with pytest.raises(EvaluationError):
        est_gl(complex(0.5, 0.0), 10, 0.5)


def test_est_gl_exponential_bound_near_interval():
    # asymptotic bound est <= 4 pi / Gamma(p) (2n)^(p-1) exp(-2n |Im t0|),
    # valid while the root stays close to the interval
    rng = np.random.default_rng(19)
    n = 20
    for p in (0.5, 1.0, 1.5):
        bound_pref = 4 * math.pi / math.gamma(p) * (2 * n) ** (p - 1)
        for _ in range(100):
            t0 = complex(rng.uniform(-0.9, 0.9), rng.uniform(0.01, 0.3))
            assert est_gl(t0, n, p) <= bound_pref * math.exp(-2 * n * abs(t0.imag)) * (1 + 1e-12)


def test_est_kernels_conjugate_invariant():
    t0 = complex(0.4, 0.22)
    assert est_gl(t0, 15, 1.5) == est_gl(t0.conjugate(), 15, 1.5)
    assert est_tz(t0, 30, 0.5) == est_tz(t0.conjugate(), 30, 0.5)


# --------------------------------------------------------- geometry factors


def test_geometry_factor_2_matches_circle_closed_form():
    # equatorial slice of the unit sphere: |G2| = 1 / (rho (e^eta - e^-eta))
    rho, nu = 1.6, 0.7
    x = np.array([rho * math.cos(nu), rho * math.sin(nu), 0.0])
    root = axisym_phi_root(SPHERE, math.pi / 2, x)
    eta = root.value.imag
    frame = _build_frame(SPHERE, KER, DEN, grid(20, 40), x)
    g2 = 1.0 / _root_terms(frame, math.pi / 2, root.value)[2]
    assert abs(g2) == pytest.approx(1.0 / (rho * (math.exp(eta) - math.exp(-eta))), rel=1e-12)


def test_geometry_factor_2_infinite_on_axis():
    x = np.array([0.0, 0.0, 1.7])
    theta = SPHERE.theta_map.theta(0.3)
    frame = _build_frame(SPHERE, KER, DEN, grid(20, 40), x)
    assert _root_terms(frame, theta, 1.1)[2] == 0.0
    with pytest.raises(InfiniteGeometryFactor):
        _log_fg(frame, theta, 1.1, polar=False)


def test_geometry_factor_1_axis_magnitude():
    # polar factor on the axis has magnitude 1 / (2 a |z|)
    x = np.array([0.0, 0.0, 2.0])
    theta0 = sphere_theta_root(1.0, 0.0, x).value
    frame = _build_frame(SPHERE, KER, DEN, grid(20, 40), x)
    g1 = 1.0 / _root_terms(frame, theta0, 0.0)[1]
    assert abs(g1) == pytest.approx(1.0 / 4.0, rel=1e-12)


def test_root_terms_pole_and_overflow_vanish():
    # a polar root at the pole (infinite cosine-map Jacobian) and a root far
    # off the real axis (overflowing blob evaluation) both come back as
    # vanishing derivatives, without warnings
    frame = _build_frame(SPHERE, KER, DEN, grid(20, 40), np.array([0.0, 0.0, 1.0]))
    assert _root_terms(frame, 0j, 0.0)[1:] == (0j, 0j)
    blob_x = np.array([0.0, 0.0, -2.785283509481811])
    frame = _build_frame(paper_blob(), KER, DEN, grid(25, 25), blob_x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _root_terms(frame, frame.theta_star, 18.9j)[1:] == (0j, 0j)


# ------------------------------------------------------------- cone region


def in_cone(x, g):
    return _in_cone(_build_frame(SPHERE, KER, DEN, g, np.array(x)), ConeParams())


def test_cone_trivial_on_axis():
    assert in_cone([0.0, 0.0, 1.4], grid(30, 60))


def test_cone_examples_interior_exterior():
    g = grid(30, 60)
    assert in_cone([0.5, 0.0, 0.0], g)
    assert not in_cone([1.2, 0.0, 0.0], g)


# ----------------------------------------------------- analytic error factor


def test_e_fac_argmax_at_target_polar_angle():
    thetas = np.linspace(1e-3, math.pi - 1e-3, 400)
    spacing = thetas[1] - thetas[0]
    for m in (1.01, 1.05):
        for frac in (0.3, 0.5, 0.7):
            alpha = frac * math.pi
            x = m * np.array([math.sin(alpha), 0.0, math.cos(alpha)])
            vals = [e_fac_tz_analytic(SPHERE, x, th, 0.5, 20) for th in thetas]
            argmax = thetas[int(np.argmax(vals))]
            assert abs(argmax - alpha) <= spacing


def test_e_fac_bound_for_large_lambda():
    # uniform bound with lambda_0 = 2: C (denom)^-p (2 lambda)^-n
    p, n_phi, lam0 = 0.5, 20, 2.0
    C = (lam0 / (lam0 - 1)) ** p * (2 * lam0 / (2 * lam0 - 1)) ** n_phi
    rng = np.random.default_rng(4)
    checked = 0
    while checked < 50:
        theta = 0.2 + (math.pi - 0.4) * rng.random()
        x = np.array([0.2 * rng.random(), 0.1, 3.0 * (rng.random() - 0.5)])
        rho2 = x[0] ** 2 + x[1] ** 2
        a_t = math.sin(theta)
        b_t = math.cos(theta)
        denom = a_t**2 + rho2 + (b_t - x[2]) ** 2
        lam = denom / (2 * a_t * math.sqrt(rho2))
        if lam <= 2.0:
            continue
        val = e_fac_tz_analytic(SPHERE, x, theta, p, n_phi)
        assert val <= C * denom ** -p * (2 * lam) ** -n_phi * (1 + 1e-12)
        checked += 1


def test_e_fac_small_angle_slope():
    p, n_phi = 0.5, 20
    for m in (1.01, 1.05):
        als = np.geomspace(1e-4, 1e-3, 5)
        vals = [
            e_fac_tz_analytic(
                SPHERE, m * np.array([math.sin(a), 0.0, math.cos(a)]), a, p, n_phi
            )
            for a in als
        ]
        slope = (math.log(vals[-1]) - math.log(vals[0])) / (math.log(als[-1]) - math.log(als[0]))
        assert abs(slope - 2 * n_phi) / (2 * n_phi) < 0.05


def test_e_fac_rejects_axis():
    with pytest.raises(NoRootExists):
        e_fac_tz_analytic(SPHERE, np.array([0.0, 0.0, 1.5]), 1.0, 0.5, 20)


# ------------------------------------------------------- simplified estimate


def test_simplified_double_factorial_factor():
    assert dfac_ratio(4) == pytest.approx(8.0 / 15.0)
    # value with n=4 against a direct evaluation of the closed form
    expected = 8 * math.pi * 4 ** 0.0 * (8.0 / 15.0) * (1.0 / 3.0) * 0.5**4
    assert sphere_simplified(2.0, 1.0, 1.0, 4) == pytest.approx(expected, rel=1e-13)


def test_simplified_example_value():
    # frozen high-precision value of the closed form at zeta=2, a=1, p=1, n=2
    assert sphere_simplified(2.0, 1.0, 1.0, 2) == pytest.approx(
        1.3962634015954636615, rel=1e-13
    )
    assert sphere_simplified(2.0, 1.0, 1.0, 2) == pytest.approx(4 * math.pi / 9, rel=1e-13)


def test_simplified_interior_exterior_delta_symmetry():
    # delta is invariant under zeta -> a^2/zeta; only the algebraic
    # prefactor |zeta^2 - a^2|^p differs
    p, n, z = 0.5, 20, 1.37
    v_out = sphere_simplified(z, 1.0, p, n)
    v_in = sphere_simplified(1.0 / z, 1.0, p, n)
    lhs = v_out * abs(z**2 - 1) ** p
    rhs = v_in * abs(1.0 / z**2 - 1) ** p
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_simplified_rejects_bad_input():
    with pytest.raises(ValueError):
        sphere_simplified(1.0, 1.0, 0.5, 20)
    with pytest.raises(ValueError):
        sphere_simplified(2.0, 1.0, 0.5, 7)


# --------------------------------------------------------- TZ contribution


def test_tz_zero_on_axis():
    g = grid(20, 40)
    assert full_estimate(SPHERE, KER, DEN, g, np.array([0.0, 0.0, 1.5])).e_tz == 0.0


def test_tz_against_equator_closed_form():
    # the closed form integrates a widened kernel profile; the swept value
    # stays within a delta-dependent factor of it that tightens with d
    g = grid(30, 60)
    n, p = 60, 0.5
    factors = {}
    for d in (0.05, 0.1, 0.2):
        delta = 1 + d
        closed = (
            8 * math.pi / math.gamma(p) * n ** (p - 1) * dfac_ratio(n)
            / abs(delta**2 - 1) ** p * delta ** -float(n)
        )
        e_tz = full_estimate(SPHERE, KER, DEN, g, np.array([delta, 0.0, 0.0])).e_tz
        factors[d] = e_tz / closed
    assert 1.0 / 4.0 <= factors[0.1] <= 3.0
    assert 1.0 / 3.0 <= factors[0.2] <= 3.0
    assert 1.0 / 6.0 <= factors[0.05] <= 3.0


def test_tz_decay_slope_matches_root():
    # log-linear decay in the azimuthal count with slope |Im phi0| at the
    # anchor; large counts keep the algebraic prefactor corrections small
    d = 0.15
    x = np.array([1.0 + d, 0.0, 0.0])
    n_t = 30
    theta_star = SPHERE.theta_map.theta(grid(n_t, 10).t_rule.nodes[n_t // 2])
    im = axisym_phi_root(SPHERE, theta_star, x).value.imag
    ns = [120, 160, 200, 240]
    vals = [full_estimate(SPHERE, KER, DEN, grid(n_t, n), x).e_tz for n in ns]
    slope = -(math.log(vals[-1]) - math.log(vals[0])) / (ns[-1] - ns[0])
    assert abs(slope - im) / im < 0.10


# --------------------------------------------------------- GL contribution


def test_gl_axis_closed_form():
    p = 0.5
    for n_t in (20, 30):
        g = grid(n_t, 2 * n_t)
        for z in (1.2, 1.6):
            delta = z
            closed = (
                4 * math.pi / math.gamma(p)
                * (2 * n_t + 1) ** (p - 1)
                * (1 / (2 * z))
                * abs(z * z - 1) ** (1 - p)
                * delta ** -(2 * n_t + 1.0)
                * 2 * math.pi
            )
            e_gl = full_estimate(SPHERE, KER, DEN, g, np.array([0.0, 0.0, z])).e_gl
            assert 0.5 <= e_gl / closed <= 2.0


def test_gl_equator_ratio():
    p = 0.5
    for n in (40, 60):
        g = grid(n // 2, n)
        for delta in (1.1, 1.5):
            bd = full_estimate(SPHERE, KER, DEN, g, np.array([delta, 0.0, 0.0]))
            target = ((n + 1) / n) ** (p - 1) * (1 + 1 / delta**2)
            assert abs(bd.e_gl / bd.e_tz / target - 1) < 0.25


def test_gl_far_point_negligible():
    g = grid(16, 32)
    assert full_estimate(SPHERE, KER, DEN, g, np.array([3.0, 0.0, 0.0])).e_gl < 1e-12


# ------------------------------------------------------------ full estimate


def test_breakdown_additive_and_nonnegative():
    g = grid(20, 40)
    for x in ([1.3, 0.2, 0.4], [0.0, 0.0, 1.4], [0.3, 0.3, 0.3]):
        bd = full_estimate(SPHERE, KER, DEN, g, np.array(x))
        assert bd.e_tz >= 0 and bd.e_gl >= 0
        assert bd.total == bd.e_tz + bd.e_gl
        if bd.tz_skipped:
            assert bd.e_tz == 0.0


def test_full_estimate_tracks_plane_field():
    # the estimate encloses the oscillating measured error without
    # collapsing below it and overestimates more as the target recedes
    g = grid(30, 60)
    ratios = []
    for d in (0.08, 0.16, 0.32):
        x = (1 + d) * np.array([math.sin(1.1), 0.0, math.cos(1.1)])
        eq = measured_error(SPHERE, KER, DEN, g, x)
        bd = full_estimate(SPHERE, KER, DEN, g, x)
        ratios.append(bd.total / eq)
        assert 0.5 <= ratios[-1] <= 100.0
    assert ratios[-1] >= ratios[0]


def test_full_estimate_spheroid_smoke():
    s = Spheroid(1.0, 3.0)
    g = grid(30, 60)
    x = np.array([1.4, 0.3, 0.8])
    eq = measured_error(s, KER, DEN, g, x)
    bd = full_estimate(s, KER, DEN, g, x)
    assert 0.1 <= bd.total / eq <= 30.0


def test_tail_rule_insensitivity_spot():
    g = grid(30, 60)
    x = np.array([1.15, 0.07, 0.55])
    bd8 = full_estimate(SPHERE, KER, DEN, g, x, tail_n=8)
    bd64 = full_estimate(SPHERE, KER, DEN, g, x, tail_n=64)
    assert bd64.total > 0
    assert abs(bd8.total / bd64.total - 1) < 0.05


def test_cone_parameters_respected():
    # an enormous cone constant forces the trapezoidal skip everywhere
    g = grid(20, 40)
    x = np.array([1.2, 0.0, 0.0])
    bd_default = full_estimate(SPHERE, KER, DEN, g, x)
    assert not bd_default.tz_skipped
    bd_wide = full_estimate(SPHERE, KER, DEN, g, x, ConeParams(A=1.0, K_c=1e6))
    assert bd_wide.tz_skipped and bd_wide.e_tz == 0.0
