import cmath
import math

import numpy as np
import pytest

from layerr import roots
from layerr.cli import preset_config
from layerr.errors import NoRootExists
from layerr.rounding import entrywise
from layerr.roots import (
    _RETRY_IMAG,
    VAR_PHI,
    VAR_THETA,
    _newton,
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


def _planar_circle_root(a, x):
    """The circle's own closed form: (root, residual, lam), NaN root on the z-axis."""
    x0, x1, x2 = np.moveaxis(np.asarray(x, dtype=float), -1, 0)
    rho2 = x0 * x0 + x1 * x1
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = (a * a + rho2 + x2 * x2) / (2.0 * a * np.sqrt(rho2))
        beta = lam + np.sqrt(np.maximum(lam * lam - 1.0, 0.0))
        log_beta = entrywise(math.log, np.where(beta > 0.0, beta, np.nan))
        root = np.where(rho2 == 0.0, np.nan, entrywise(math.atan2, x1, x0) + 1j * log_beta)
        root = np.where(np.imag(root) < 0, np.conj(root), root)
        residual = np.abs((a * np.cos(root) - x0) ** 2 + (a * np.sin(root) - x1) ** 2 + x2 * x2)
    return root, residual, lam


def _bitwise_equal(u, v):
    u, v = np.asarray(u), np.asarray(v)
    parts = (np.real, np.imag) if u.dtype.kind == "c" else (np.asarray,)
    return u.shape == v.shape and all(
        np.array_equal(part(u), part(v), equal_nan=True)
        and np.array_equal(np.signbit(part(u)), np.signbit(part(v)))
        for part in parts
    )


@pytest.mark.parametrize("a", [0.5, 1.0, 1.7])
def test_circle_root_is_bitwise_the_planar_closed_form(a):
    # the circle is the equator of a flat spheroid; that closed form must
    # round exactly as the circle's own, on lanes and for one target
    rng = np.random.default_rng(11)
    x = a * rng.uniform(-3.0, 3.0, (2000, 3))
    x[::97, :2] = 0.0  # on the z-axis: no root
    r = circle_root(a, x)
    for got, want in zip((r.value, r.residual, r.lam), _planar_circle_root(a, x)):
        assert _bitwise_equal(got, want)
    for xi in x[1:40]:
        r = circle_root(a, xi)
        root, residual, lam = _planar_circle_root(a, xi)
        assert (r.value, r.residual, r.lam) == (complex(root), float(residual), float(lam))
    with pytest.raises(NoRootExists):
        circle_root(a, x[0])


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


def _spied(line):
    """line, recording a copy of every array of iterates it is given."""
    calls = []

    def spy(w):
        calls.append(np.array(w))
        return line(w)

    return spy, calls


def _blob_shell_block():
    # 40 of the blob-shell preset's targets with their polar and azimuthal angles
    x = preset_config("blob-shell").targets[::29]
    theta = np.arccos(x[:, 2] / np.linalg.norm(x, axis=1))
    return x, theta, np.arctan2(x[:, 1], x[:, 0])


@pytest.mark.parametrize("direction", [VAR_THETA, VAR_PHI])
def test_newton_evaluates_only_live_entries(direction):
    # the anchor solve of the estimate, nearest=True: the ladder's 7 rungs,
    # the first of them at the start's Im 0.1, x 40 lanes
    blob = paper_blob()
    x, theta, phi = _blob_shell_block()
    make, fixed, start = (theta_line, phi, theta) if direction == VAR_THETA else (phi_line, theta, phi)
    w0 = start + 0.1j
    spy, calls = _spied(make(blob, fixed))
    root = newton_root(spy, direction, fixed, x, w0, 1.2, nearest=True)
    assert not np.isnan(root.value).any()
    assert calls[0].shape == (7, x.shape[0]) and not np.isnan(calls[0]).any()
    # an entry that stopped stays stopped: NaN in every later call
    stopped = [np.isnan(w) for w in calls]
    assert all((earlier <= later).all() for earlier, later in zip(stopped, stopped[1:]))
    evaluated = sum(int((~s).sum()) for s in stopped)
    lockstep = calls[0].size * len(calls)
    assert len(calls) > 15 and evaluated <= lockstep // 2, (evaluated, lockstep)

    # all 8 starts, duplicate included, on a line that evaluates every entry,
    # stopped or not, and the pick rule (smallest |Im|, first on a tie) give
    # the same bits
    def lockstep_line(w):
        live = ~np.isnan(w)
        pos, dpos = make(blob, fixed)(np.where(live, w, w0))
        return pos[:, live.ravel()], dpos[:, live.ravel()]

    starts = np.concatenate([w0[None], w0.real + 1j * np.reshape(_RETRY_IMAG, (-1, 1))])
    assert (starts[0] == starts[1]).all()
    with np.errstate(all="ignore"):
        w, residual = _newton(lockstep_line, starts, np.moveaxis(x, -1, 0)[:, None], 1.2 * 1.2)
    found = ~np.isnan(residual)
    pick = np.argmin(np.where(found, np.abs(w.imag), np.inf), 0)
    lanes = np.arange(x.shape[0])
    value = w[pick, lanes]
    np.testing.assert_array_equal(np.where(value.imag < 0, np.conj(value), value), root.value)
    np.testing.assert_array_equal(residual[pick, lanes], root.residual)


def test_newton_without_nearest_makes_one_run_from_its_starts(monkeypatch):
    # lanes 0 and 2 start at NaN, lane 1 converges from its start, and lane
    # 3's finite start fails, since the blob's position overflows at Im 800:
    # one _newton run from the starts alone, and no other start for lane 3
    blob = paper_blob()
    x, theta, phi = _blob_shell_block()
    runs = []

    def counted(line, w, *args):
        runs.append(w.shape)
        return _newton(line, w, *args)

    monkeypatch.setattr(roots, "_newton", counted)
    start = np.array([np.nan, theta[1] + 0.1j, np.nan, theta[3] + 800j])
    root = newton_root(theta_line(blob, phi[:4]), VAR_THETA, phi[:4], x[:4], start, 1.2)
    assert np.isfinite(root.value[1]) and np.isnan(root.value[[0, 2, 3]]).all()
    assert runs == [(1, 4)]


@pytest.mark.parametrize("nearest", [False, True])
def test_newton_nan_starts_never_reach_the_line(nearest):
    blob = paper_blob()
    x, theta, phi = _blob_shell_block()
    spy, calls = _spied(theta_line(blob, phi[:3]))
    root = newton_root(spy, VAR_THETA, phi[:3], x[:3], np.full(3, np.nan + 0j), 1.2, nearest=nearest)
    assert calls == []
    assert np.isnan(root.value).all() and np.isnan(root.residual).all()
    # mixed with finite starts, including the retry ladder of the NaN lanes
    start = np.array([np.nan, theta[1] + 0.1j, np.nan])
    spy, calls = _spied(theta_line(blob, phi[:3]))
    root = newton_root(spy, VAR_THETA, phi[:3], x[:3], start, 1.2, nearest=nearest)
    assert calls and all(np.isnan(w[:, [0, 2]]).all() for w in calls)
    assert np.isnan(root.value[[0, 2]]).all() and np.isfinite(root.value[1])


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


def node_vectors(s, t_star, phi_star):
    """The real position and (t, phi) partials of s at one grid point."""
    return [np.real(v) for v in s.eval_t(t_star, phi_star)]


def test_linear_model_anchored_at_grid_point():
    s = Sphere(1.0)
    x = np.array([1.2, 0.1, 0.3])
    t_star, phi_star = 0.25, 0.3
    root = complex(0.21, 0.19)
    pos, d_t, _ = node_vectors(s, t_star, phi_star)
    model = azimuthal_sweep_model(t_star, phi_star, pos, d_t, x)
    assert model.model_root(phi_star, root) == pytest.approx(root, abs=1e-15)


def test_linear_model_normal_distance():
    # target along the outward normal: model imag part equals the distance
    s = Sphere(1.0)
    t_star, phi_star = 0.25, 0.3
    # on the unit sphere the grid point is its own outward normal
    pos, d_t, _ = node_vectors(s, t_star, phi_star)
    for d in (0.05, 0.1, 0.2):
        model = azimuthal_sweep_model(t_star, phi_star, pos, d_t, (1.0 + d) * pos)
        assert abs(model.anchor.imag - d) / d < 0.1


def test_linear_model_imag_growth_rate():
    # away from the anchor the azimuthal root grows like kappa * offset
    s = Sphere(1.0)
    theta_star = math.pi / 2
    t_star, phi_star = s.theta_map.t(theta_star), 0.0
    x = np.array([1.1, 0.0, 0.0])
    phi0 = axisym_phi_root(s, theta_star, x).value
    pos, d_t, d_phi = node_vectors(s, t_star, phi_star)
    model = linear_root_model(t_star, phi_star, pos, d_t, d_phi, x)
    kappa = np.linalg.norm(d_t) / np.linalg.norm(d_phi)
    n_phi = 60
    for k in (1, 2, 3):
        dt = k * math.pi / n_phi
        growth = model.model_root(t_star + dt, phi0).imag - model.model_root(t_star, phi0).imag
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
    pos, d_t, d_phi = node_vectors(s, t_star, phi_star)
    model = azimuthal_sweep_model(t_star, phi_star, pos, d_t, x)
    kappa = np.linalg.norm(d_t) / np.linalg.norm(d_phi)
    n_phi = 60
    span = 3 * math.pi / n_phi
    rise = model.model_root(phi_star + span, t0).imag - model.model_root(phi_star, t0).imag
    assert abs(rise / span - 1.0 / kappa) / (1.0 / kappa) < 0.15


def test_linear_model_degenerate_in_tangent_plane():
    s = Sphere(1.0)
    t_star, phi_star = 0.0, 0.0
    pos, d_t, _ = node_vectors(s, t_star, phi_star)
    x = pos + 0.3 * d_t / np.linalg.norm(d_t)
    model = azimuthal_sweep_model(t_star, phi_star, pos, d_t, x)
    assert model.degenerate
    assert cmath.isnan(model.anchor)


def _tangent_line_root(s, t_star, phi_star, x, phi):
    """Polar root against the tangent plane at the grid point, translated to
    azimuth phi: the root in t of |r + (t - t_star) g_t|^2 with
    r = y + (phi - phi_star) g_phi - x."""
    pos, g_t, g_phi = node_vectors(s, t_star, phi_star)
    r = pos + (phi - phi_star) * g_phi - x
    gg, b = g_t @ g_t, 2.0 * (r @ g_t)
    return t_star - b / (2.0 * gg) + 1j * math.sqrt(4.0 * (r @ r) * gg - b * b) / (2.0 * gg)


def test_azimuthal_sweep_model_matches_linear_near_anchor():
    s = Spheroid(1.0, 3.0)
    t_star, phi_star = 0.1, 0.5
    pos, d_t, _ = node_vectors(s, t_star, phi_star)
    x = 1.2 * pos
    rot = azimuthal_sweep_model(t_star, phi_star, pos, d_t, x)
    lin = _tangent_line_root(s, t_star, phi_star, x, phi_star)
    assert rot.anchor == pytest.approx(lin, abs=1e-14)
    small = 1e-4
    lin_small = _tangent_line_root(s, t_star, phi_star, x, phi_star + small)
    assert rot.model_root(phi_star + small, 0.2j).imag == pytest.approx(
        (0.2j - lin + lin_small).imag, rel=1e-4
    )


def test_azimuthal_sweep_model_turns_by_the_whole_offset():
    # no clamp: past half a turn the slice turns on, as by the offset less a
    # whole turn
    s = Spheroid(1.0, 3.0)
    t_star, phi_star = 0.1, 0.5
    pos, d_t, _ = node_vectors(s, t_star, phi_star)
    x = 1.2 * pos
    rot = azimuthal_sweep_model(t_star, phi_star, pos, d_t, x)
    at_pi = rot.model_root(phi_star + math.pi, 0.2j)
    beyond = rot.model_root(phi_star + math.pi + 2.0, 0.2j)
    assert beyond == pytest.approx(rot.model_root(phi_star + 2.0 - math.pi, 0.2j), abs=1e-12)
    assert abs(beyond - at_pi) > 1e-3
