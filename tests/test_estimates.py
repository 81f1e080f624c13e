import cmath
import dataclasses
import math
import warnings

import numpy as np
import pytest

from layerr.errors import EvaluationError, InfiniteGeometryFactor, LayerrError, NoRootExists
from layerr import estimates, roots
from layerr.cli import preset_config
from layerr.estimates import (
    ConeParams,
    Estimates,
    _build_frame,
    _in_cone,
    _log_fg,
    _root,
    _root_terms,
    e_fac_tz_analytic,
    full_estimate,
    log_est_gl,
    log_est_tz,
    sphere_simplified,
)
from layerr import potentials
from layerr.potentials import (
    harmonic_double,
    harmonic_single,
    measured_error,
    mod_helmholtz_single,
    paper_density,
    unit_density,
)
from layerr.quadrature import gauss_laguerre, grid
from layerr.roots import (
    VAR_PHI,
    VAR_THETA,
    axisym_phi_root,
    azimuthal_sweep_model,
    linear_root_model,
    sphere_theta_root,
)
from layerr.surfaces import COSINE_MAP, LINEAR_MAP, Sphere, Spheroid, paper_blob


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
    im = np.array([0.05, 0.3])
    for n in (10, 50):
        np.testing.assert_allclose(
            np.exp(log_est_tz(im, n, 1.0)), 4 * math.pi * np.exp(-n * im), rtol=1e-13
        )


def test_est_tz_decays_with_imaginary_part():
    vals = np.exp(log_est_tz(np.array([0.1, 0.5, 2.0, 10.0]), 40, 0.5))
    assert np.all(vals[:-1] > vals[1:])
    assert vals[-1] < 1e-150


def test_est_tz_half_integer_high_precision_value():
    # frozen from a 50-digit evaluation of 4 pi / Gamma(1/2) * 100^(-1/2) * e^-10
    assert np.exp(log_est_tz(np.array([0.1]), 100, 0.5))[0] == pytest.approx(
        3.2187712135342489884e-05, rel=1e-13
    )


def test_est_gl_real_root_joukowski():
    delta = np.array([1.3, 2.0])
    t0 = (delta + 1 / delta) / 2 + 0j
    for n in (10, 25):
        log_val, undefined = log_est_gl(t0, n, 1.0)
        assert not undefined.any()
        np.testing.assert_allclose(
            np.exp(log_val), 4 * math.pi * delta ** -(2 * n + 1), rtol=1e-12
        )


def test_est_gl_imaginary_root_joukowski():
    delta = 1.8
    t0 = np.array([complex(0.0, (delta - 1 / delta) / 2)])
    n, p = 12, 0.5
    s_abs = (delta + 1 / delta) / 2
    expected = (
        4 * math.pi / math.gamma(p) * ((2 * n + 1) / s_abs) ** (p - 1) * delta ** -(2 * n + 1)
    )
    log_val, undefined = log_est_gl(t0, n, p)
    assert not undefined[0]
    assert math.exp(log_val[0]) == pytest.approx(expected, rel=1e-12)


def test_est_gl_rejects_root_on_interval():
    # on [-1, 1], end points included, the kernel is undefined; just off it,
    # or on the real axis beyond it, the kernel is finite
    t0 = np.array([0.5, -1.0, 1.0, 0.5 + 1e-3j, 1.5])
    log_val, undefined = log_est_gl(t0, 10, 0.5)
    assert undefined.tolist() == [True, True, True, False, False]
    assert np.all(np.isfinite(log_val[~undefined]))


def test_est_gl_exponential_bound_near_interval():
    # asymptotic bound est <= 4 pi / Gamma(p) (2n)^(p-1) exp(-2n |Im t0|),
    # valid while the root stays close to the interval
    rng = np.random.default_rng(19)
    n = 20
    for p in (0.5, 1.0, 1.5):
        t0 = rng.uniform(-0.9, 0.9, 100) + 1j * rng.uniform(0.01, 0.3, 100)
        bound_pref = 4 * math.pi / math.gamma(p) * (2 * n) ** (p - 1)
        log_val, undefined = log_est_gl(t0, n, p)
        assert not undefined.any()
        bound = bound_pref * np.exp(-2 * n * np.abs(t0.imag)) * (1 + 1e-12)
        assert np.all(np.exp(log_val) <= bound)


def test_est_kernels_conjugate_invariant():
    t0 = np.array([0.4 + 0.22j])
    assert log_est_gl(t0, 15, 1.5)[0] == log_est_gl(np.conj(t0), 15, 1.5)[0]


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
    # an infinite geometry factor: log |f G2^p| is +inf on that lane
    assert _log_fg(frame, theta, 1.1, polar=False) == math.inf


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


def _e_fac_from_own_lambda(surface, x, theta, p, n_phi):
    """The azimuthal error factor with lambda worked out from the slice circle."""
    rho2 = x[0] * x[0] + x[1] * x[1]
    a_t = surface.a * math.sin(theta)
    b_t = surface.b * math.cos(theta)
    denom = a_t * a_t + rho2 + (b_t - x[2]) ** 2
    lam = denom / (2.0 * a_t * math.sqrt(rho2))
    sq = math.sqrt(lam * lam - 1.0)
    return math.exp(-p * math.log(denom) + p * (math.log(lam) - math.log(sq)) - n_phi * math.log(lam + sq))


def test_e_fac_matches_lambda_worked_out_from_the_slice():
    rng = np.random.default_rng(11)
    for surface in (Sphere(1.0), Spheroid(1.0, 3.0), Spheroid(2.0, 0.5)):
        for _ in range(400):
            theta = 0.02 + (math.pi - 0.04) * rng.random()
            alpha = math.pi * rng.random()
            psi = 2.0 * math.pi * rng.random()
            x = (0.5 + 1.5 * rng.random()) * np.real(surface.position(alpha, psi))
            p = (0.5, 1.5)[rng.integers(2)]
            got = e_fac_tz_analytic(surface, x, theta, p, 40)
            want = _e_fac_from_own_lambda(surface, x, theta, p, 40)
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)


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


@pytest.mark.parametrize("tail_n", [200, 362])
@pytest.mark.parametrize("surface", [SPHERE, Spheroid(1.0, 3.0), paper_blob()],
                         ids=["sphere", "spheroid", "blob"])
def test_tail_rules_with_zero_weights_give_finite_estimates(surface, tail_n):
    # from 199 nodes the Gauss-Laguerre rule has weights that underflow to 0
    # (3 at 200, 69 at 362); such a node adds nothing to a sweep
    assert (gauss_laguerre(tail_n).weights == 0.0).any()
    x = 1.2 * np.real(surface.position(np.array([0.7, 2.4]), np.array([0.3, 4.5]))).T
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bd = full_estimate(surface, KER, DEN, grid(12, 24), x, tail_n=tail_n)
    assert bd.errors == (None, None)
    for f in ("e_tz", "e_gl", "total"):
        assert np.isfinite(getattr(bd, f)).all() and (getattr(bd, f) >= 0.0).all(), f


def test_cone_parameters_respected():
    # an enormous cone constant forces the trapezoidal skip everywhere
    g = grid(20, 40)
    x = np.array([1.2, 0.0, 0.0])
    bd_default = full_estimate(SPHERE, KER, DEN, g, x)
    assert not bd_default.tz_skipped
    bd_wide = full_estimate(SPHERE, KER, DEN, g, x, ConeParams(A=1.0, K_c=1e6))
    assert bd_wide.tz_skipped and bd_wide.e_tz == 0.0


# ------------------------------------------------- failed anchor solves


@pytest.mark.parametrize(
    "theta_map, kernel, n, z, stood_in",
    [
        # blob targets on the axis and at the centre (corpus cases 89 and 107)
        (COSINE_MAP, harmonic_double(), (59, 47), 0.1364181862398793, ("phi0", "t0")),
        (LINEAR_MAP, harmonic_double(), (63, 38), 0.0, ("t0",)),
        (COSINE_MAP, mod_helmholtz_single(3.0), (25, 25), -2.785283509481811, ("phi0",)),
    ],
    ids=["axis-near", "centre", "axis-far"],
)
def test_failed_anchor_solve_takes_the_model_anchor(theta_map, kernel, n, z, stood_in):
    # where Newton finds no anchor root, the breakdown reports the anchor
    # root of the direction's root model, bit for bit
    surface, g, x = paper_blob(theta_map), grid(*n), np.array([0.0, 0.0, z])
    frame = _build_frame(surface, kernel, paper_density(), g, x)
    with np.errstate(all="ignore"):
        solved = {
            "phi0": _root(frame, VAR_PHI, frame.theta_star, frame.phi_star, nearest=True),
            "t0": _root(frame, VAR_THETA, frame.phi_star, frame.theta_star, nearest=True),
        }
    bd = full_estimate(surface, kernel, paper_density(), g, x)
    pos, d_t, d_phi = (np.real(v) for v in surface.eval_t(bd.t_star, bd.phi_star))
    anchors = {
        "phi0": linear_root_model(bd.t_star, bd.phi_star, pos, d_t, d_phi, x).anchor,
        "t0": azimuthal_sweep_model(bd.t_star, bd.phi_star, pos, d_t, x).anchor,
    }
    for name in stood_in:
        assert np.isnan(solved[name]).all()
        assert getattr(bd, name) == anchors[name]


# ------------------------------------------------------ root-solve names


@pytest.mark.parametrize(
    "surface, want",
    [
        (SPHERE, {"sphere_theta_root": 2, "axisym_phi_root": 2}),
        (Spheroid(1.0, 1.0), {"sphere_theta_root": 2, "axisym_phi_root": 2}),
        (Spheroid(1.0, 3.0), {"axisym_phi_root": 2, "newton_root nearest": 1, "newton_root": 8}),
        (paper_blob(), {"newton_root nearest": 2, "newton_root": 16}),
    ],
    ids=["sphere", "round-spheroid", "spheroid", "blob"],
)
def test_root_solves_go_through_the_module_names(monkeypatch, surface, want):
    # a per-layer tracer counts root solves by wrapping these three names of
    # layerr.estimates and reading nearest by keyword: per direction, one
    # anchor solve, then one call for all 8 sweep nodes of a closed form at 3
    # lanes, or one per node for Newton, and no solve that bypasses them
    calls = {}

    def counted(name, solve):
        def wrapper(*args, **kwargs):
            key = f"{name} nearest" if kwargs.get("nearest") else name
            calls[key] = calls.get(key, 0) + 1
            return solve(*args, **kwargs)

        return wrapper

    for name in ("newton_root", "axisym_phi_root", "sphere_theta_root"):
        monkeypatch.setattr(estimates, name, counted(name, getattr(estimates, name)))
    theta, phi = np.array([0.7, 1.6, 2.4]), np.array([0.3, 2.0, 4.5])
    x = 1.2 * np.real(surface.position(theta, phi)).T
    bd = full_estimate(surface, KER, DEN, grid(12, 24), x)
    assert bd.errors == (None,) * 3 and np.isfinite(bd.total).all()
    assert calls == want


def test_blob_shell_estimate_makes_one_newton_run_per_solve(monkeypatch):
    # blob-shell's 1152 targets on half its grid, where 128 warm starts of the
    # sweep nodes fail: each direction runs its anchor's 7 ladder rungs, then
    # one run per sweep node from the chain's starts alone, and a lane whose
    # start fails takes the root model's value with no second run
    cfg = preset_config("blob-shell")
    runs, failed = [], []
    newton = roots._newton

    def counted(line, w, *args):
        out = newton(line, w, *args)
        runs.append(w.shape[0])
        failed.append(int((np.isfinite(w) & np.isnan(out[1])).sum()) if w.shape[0] == 1 else 0)
        return out

    monkeypatch.setattr(roots, "_newton", counted)
    bd = full_estimate(cfg.surface, cfg.kernel, cfg.density, grid(20, 40), cfg.targets)
    assert bd.errors == (None,) * len(cfg.targets)
    assert runs == ([7] + [1] * 8) * 2
    assert sum(failed) == 128


@pytest.mark.parametrize("theta_map", [COSINE_MAP, LINEAR_MAP], ids=["cosine", "linear"])
def test_round_spheroid_is_estimated_as_the_sphere(theta_map):
    # the closed forms are chosen from the geometry, not the class: a spheroid
    # with a = b gives the sphere's estimates bit for bit, near, on-axis, pole
    # and centre targets alike
    a, g = 1.5, grid(16, 32)
    near = 1.05 * np.real(Sphere(a).position(np.array([0.7, 2.2]), np.array([0.4, 3.9]))).T
    xs = np.vstack([near, [[0.0, 0.0, 1.3 * a], [0.0, 0.0, a], [0.0, 0.0, 0.0]]])
    fields = ("e_tz", "e_gl", "total", "tz_skipped", "phi0", "t0", "t_star", "phi_star",
              "grid_distance")
    for kernel in (harmonic_single(), harmonic_double(), mod_helmholtz_single(3.0)):
        for density in (unit_density(), paper_density()):
            want, got = (full_estimate(s, kernel, density, g, xs)
                         for s in (Sphere(a, theta_map), Spheroid(a, a, theta_map)))
            for f in fields:
                assert getattr(got, f).tobytes() == getattr(want, f).tobytes(), f
            assert [(type(e), str(e)) for e in got.errors] == [
                (type(e), str(e)) for e in want.errors]
            assert want.errors[:3] == (None,) * 3


def test_found_target_on_the_round_spheroid():
    # single layer, unit density, 30x60: the sphere's Gauss-Legendre estimate
    # and not half of it, which is what the cosine map's doubling keyed on the
    # class gave
    x = np.array([0.3, 0.5, 1.05])
    bd = full_estimate(Spheroid(1.0, 1.0), KER, DEN, grid(30, 60), x)
    assert bd.e_gl == pytest.approx(5.685439719241007e-06, rel=1e-10, abs=0.0)
    assert bd.e_gl.tobytes() == full_estimate(SPHERE, KER, DEN, grid(30, 60), x).e_gl.tobytes()


def test_gl_sweep_reads_the_rotated_model_within_a_quarter_turn(monkeypatch):
    # the polar sweep reads its rotated-slice model at the nearest node and on
    # live nodes, a quarter turn each way at most; on blob-shell's targets at
    # 20x40, where warm starts fail and the model stands in, a model clamped
    # at a quarter turn gives every estimate bit for bit
    cfg = preset_config("blob-shell")
    g = grid(20, 40)
    want = full_estimate(cfg.surface, cfg.kernel, cfg.density, g, cfg.targets)
    clamped, failed = [], []

    def quarter_turn_model(t_star, phi_star, position, d_t, x):
        def rotated(phi):
            dphi = np.clip(phi - phi_star, -math.pi / 2, math.pi / 2)
            clamped.append(bool((dphi != phi - phi_star).any()))
            return roots._turn(position, dphi) - x, roots._turn(d_t, dphi)

        return roots.RootModel(t_star, phi_star, rotated)

    root = estimates._root

    def counted(frame, var, fixed, initial, nearest=False):
        out = root(frame, var, fixed, initial, nearest)
        if var == VAR_THETA and not nearest:
            failed.append(int((np.isfinite(initial) & np.isnan(out)).sum()))
        return out

    monkeypatch.setattr(estimates, "azimuthal_sweep_model", quarter_turn_model)
    monkeypatch.setattr(estimates, "_root", counted)
    got = full_estimate(cfg.surface, cfg.kernel, cfg.density, g, cfg.targets)
    assert any(clamped) and sum(failed) > 0
    for f in ("e_tz", "e_gl", "total", "phi0", "t0"):
        assert getattr(got, f).tobytes() == getattr(want, f).tobytes(), f


# ------------------------------------------------------- batched estimates


def test_block_matches_its_batches_of_one():
    # one block per surface and grid mixes failing and ordinary targets; each
    # target's outcome must not depend on the block it is estimated in
    blocks = [
        (SPHERE, grid(20, 40), [[0, 0, 1], [1.0, 1e-9, 0], [math.nan, 0, 0], [1.3, 0.2, -0.4],
                                [0.2, 0.9, 0.1], [0.0, 0.0, 1.5]]),
        (paper_blob(), grid(25, 25), [[0, 0, -2.785283509481811], [1.2, -0.3, 0.5],
                                      [0.1, 0.2, 0.3], [math.nan, 1, 1]]),
        (Spheroid(1.0, 3.0), grid(16, 32), [[1.2, 0.1, 2.0], [0.5, -0.6, -3.1], [0.0, 0.0, 0.0]]),
    ]
    fields = ("e_tz", "e_gl", "total", "tz_skipped", "phi0", "t0", "t_star", "phi_star",
              "grid_distance")
    errors = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for surface, g, xs in blocks:
            for kernel in (harmonic_single(), harmonic_double(), mod_helmholtz_single(3.0)):
                block = full_estimate(surface, kernel, paper_density(), g, np.array(xs))
                assert len(block.errors) == len(xs)
                assert all(getattr(block, f).shape == (len(xs),) for f in fields)
                assert np.array_equal(block.total, block.e_tz + block.e_gl, equal_nan=True)
                for i, x in enumerate(xs):
                    got = {f: getattr(block, f)[i] for f in fields}
                    try:
                        want = full_estimate(surface, kernel, paper_density(), g, np.array(x))
                    except LayerrError as exc:
                        error = block.errors[i]
                        assert type(error) is type(exc) and str(error) == str(exc)
                        assert not got.pop("tz_skipped")
                        assert all(np.isnan(v) for v in got.values())
                        errors += 1
                        continue
                    assert block.errors[i] is None and want.errors == (None,)
                    assert all(getattr(want, f).shape == () for f in fields)
                    assert want.total == want.e_tz + want.e_gl
                    assert got["tz_skipped"] == want.tz_skipped
                    assert got["e_tz"] == pytest.approx(want.e_tz, rel=1e-12, abs=0.0)
                    assert got["e_gl"] == pytest.approx(want.e_gl, rel=1e-12, abs=0.0)
                    for f in ("t_star", "phi_star", "grid_distance"):
                        assert got[f].tobytes() == getattr(want, f).tobytes()
                    for f in ("phi0", "t0"):
                        if np.isnan(getattr(want, f)):
                            assert np.isnan(got[f])
                        else:
                            assert complex(got[f]) == pytest.approx(
                                complex(getattr(want, f)), rel=1e-12, abs=0.0)
    # the pole, on-surface and NaN targets fail with every kernel
    assert errors >= 4 * 3


def test_sweep_runs_keep_every_estimate_bit(monkeypatch):
    # sphere-cosine's closed-form sweeps take one node per call in the preset's
    # block of 1600 lanes and all 8 in blocks of 100; every field keeps its
    # bits, and no closed-form call sees more than one node tile of entries
    cfg = preset_config("sphere-cosine")
    g, fields = grid(cfg.n_t, cfg.n_phi), [f.name for f in dataclasses.fields(Estimates)]
    shapes = []

    def counted(solve):
        def wrapper(surface_or_radius, fixed, x):
            shapes.append(np.shape(x)[:-1])
            return solve(surface_or_radius, fixed, x)

        return wrapper

    for name in ("axisym_phi_root", "sphere_theta_root"):
        monkeypatch.setattr(estimates, name, counted(getattr(estimates, name)))

    def estimate(size):
        blocks = [full_estimate(cfg.surface, cfg.kernel, cfg.density, g, cfg.targets[i:i + size],
                                cfg.cone) for i in range(0, len(cfg.targets), size)]
        assert all(math.prod(s) <= max(potentials._TILE_NODES, 2 * s[-1]) for s in shapes)
        runs = {s[1] for s in shapes if len(s) == 3}
        shapes.clear()
        return runs, {f: [e for b in blocks for e in b.errors] if f == "errors" else
                      np.concatenate([getattr(b, f) for b in blocks]) for f in fields}

    (whole_runs, want), (runs, got) = estimate(len(cfg.targets)), estimate(100)
    assert whole_runs == {1} and runs == {8}
    for f in fields:
        if f == "errors":
            assert [(type(e), str(e)) for e in got[f]] == [(type(e), str(e)) for e in want[f]]
        else:
            assert got[f].tobytes() == want[f].tobytes(), f


@pytest.mark.parametrize("surface", [Sphere(1.0), Spheroid(1.0, 3.0), paper_blob()],
                         ids=["sphere", "spheroid", "blob"])
def test_each_nearest_node_is_evaluated_once(surface, monkeypatch):
    # kappa and both root models read the frame's one evaluation of the nodes;
    # eval_t is wrapped on the instance, as the benchmark's tracer wraps it
    calls = []
    eval_t = surface.eval_t

    def counted(t, phi):
        calls.append(np.shape(t))
        return eval_t(t, phi)

    monkeypatch.setattr(surface, "eval_t", counted)
    xs = np.array([[1.3, 0.1, 0.2], [-0.4, 0.9, 0.5]])
    block = full_estimate(surface, harmonic_single(), paper_density(), grid(12, 24), xs)
    assert block.errors == (None, None)
    assert calls == [(2,)]


@pytest.mark.parametrize("surface", [Sphere(1.0), Spheroid(1.0, 3.0), paper_blob()],
                         ids=["sphere", "spheroid", "blob"])
def test_each_estimate_scans_its_targets_once(surface, monkeypatch):
    # one nearest-node scan per full_estimate, of the whole block, through the
    # module attribute that the benchmark's tracer wraps
    calls = []
    scan = potentials.nearest_grid_node

    def counted(surface, g, x):
        calls.append(np.shape(x))
        return scan(surface, g, x)

    monkeypatch.setattr(potentials, "nearest_grid_node", counted)
    xs = np.array([[1.3, 0.1, 0.2], [-0.4, 0.9, 0.5], [math.nan, 0.0, 0.0]])
    full_estimate(surface, harmonic_single(), paper_density(), grid(12, 24), xs)
    full_estimate(surface, harmonic_single(), paper_density(), grid(12, 24), xs[0])
    assert calls == [(3, 3), (1, 3)]


def test_block_error_classes_and_messages():
    # each failing lane keeps its error class and message: frame errors first,
    # then an infinite geometry factor, then a polar root on [-1, 1] at the
    # anchor or, for the on-surface target at a sweep node's azimuth, at that node
    g = grid(20, 40)
    node = np.real(SPHERE.position(SPHERE.theta_map.theta(g.t_rule.nodes[4]), g.phi_rule.nodes[7]))
    xs = np.array([
        [0.0, 0.0, 1.0],
        [1.0, 1e-9, 0.0],
        [math.nan, 0.0, 0.0],
        node,
        [0.42769250072578185, 0.010850810589679743, 0.9038591620006261],
        [1.2, 0.3, 0.1],
        [0.2, -0.5, 0.6],
    ])
    expected = [
        (InfiniteGeometryFactor, "d R^2 / d t vanishes at the root"),
        (EvaluationError, "Gauss-Legendre kernel undefined for t0=(-6.123233995736766e-17+0j) on [-1, 1]"),
        (EvaluationError, "target [nan, 0.0, 0.0] is not finite"),
        (EvaluationError, f"target {node.tolist()} coincides with a surface grid node"),
        (EvaluationError, "Gauss-Legendre kernel undefined for t0=(-0.903859162000626+0j) on [-1, 1]"),
    ]
    for kernel in (harmonic_single(), harmonic_double(), mod_helmholtz_single(2.0)):
        block = full_estimate(SPHERE, kernel, unit_density(), g, xs)
        for (cls, message), got in zip(expected, block.errors):
            assert type(got) is cls and str(got) == message
        assert block.errors[len(expected):] == (None, None)
        for total in block.total[len(expected):]:
            assert math.isfinite(total) and total > 0.0
