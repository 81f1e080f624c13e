"""A-priori quadrature-error estimates for nearly singular layer potentials.

For a target point x near the surface, the error of the tensor-product
rule splits into a trapezoidal part (azimuthal direction) and a
Gauss-Legendre part (polar direction). Each part is a per-rule error
kernel, evaluated at the complex root of the squared-distance function in
the matching variable, times the smooth numerator f and a geometry factor,
integrated along the other direction.

The kernels decay exponentially away from the grid point closest to x, so
the line integrals are mapped to the half line and evaluated with a small
Gauss-Laguerre rule. One root function per direction serves the anchor
solve at the nearest node and every sweep node: the closed form where one
exists (azimuthal roots of surfaces of revolution, polar roots of spheres),
else a Newton solve warm-started from the previous node, with a RootModel
where Newton fails. One surface evaluation per root gives f and the
geometry factors. All magnitude combinations happen in log space so that
estimates remain meaningful down to the underflow threshold.

Near the symmetry axis of an axisymmetric surface the azimuthal root does
not exist; a cone criterion detects that region, where the trapezoidal
part is negligible and the Gauss-Legendre part is nearly independent of
the azimuth and is integrated in closed form around the full circle.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import (
    DegenerateModel,
    EvaluationError,
    InfiniteGeometryFactor,
    NoRootExists,
    NonConvergence,
)
from .potentials import (
    DensitySpec,
    KernelSpec,
    EvalPoint,
    _dot_c,
    integrand_f_at,
    locate,
    surface_scale,
)
from .quadrature import QuadratureGrid, gauss_laguerre
from .roots import (
    VAR_PHI,
    VAR_T,
    VAR_THETA,
    axisym_phi_root,
    azimuthal_sweep_model,
    linear_root_model,
    newton_root,
    phi_line,
    sphere_theta_root,
    theta_line,
)
from .surfaces import COSINE, Sphere, Surface

_LOG_4PI = math.log(4.0 * math.pi)
_LOG_2PI = math.log(2.0 * math.pi)
_LOG_2 = math.log(2.0)
_G2_SKIP_EPS = 1e-12
_DEFAULT_TAIL_NODES = 8


@dataclass(frozen=True)
class ConeParams:
    """Near-axis cone criterion parameters: length scale A and constant K_c."""

    A: float = 1.0
    K_c: float = 10.0


@dataclass(frozen=True)
class EstimateBreakdown:
    """Per-point estimate split into its two contributions."""

    e_tz: float
    e_gl: float
    total: float
    tz_skipped: bool
    phi0: Optional[complex]
    t0: Optional[complex]
    t_star: float
    phi_star: float
    grid_distance: float


def _logsumexp(vals) -> float:
    m = max(vals)
    if m == -math.inf:
        return -math.inf
    return m + math.log(sum(math.exp(v - m) for v in vals))


def _log_abs(z) -> float:
    a = abs(z)
    return math.log(a) if a > 0.0 else -math.inf


def log_est_tz(im_abs: float, n: int, p: float) -> float:
    """log of the trapezoidal error kernel for root imaginary part im_abs."""
    return _LOG_4PI - math.lgamma(p) + (p - 1.0) * math.log(n) - n * im_abs


def est_tz(phi0: complex, n: int, p: float) -> float:
    """Trapezoidal-rule error kernel at the azimuthal root phi0.

    est = 4 pi / Gamma(p) * n^(p-1) * exp(-n |Im phi0|).
    """
    return math.exp(log_est_tz(abs(phi0.imag), n, p))


def _joukowski(t0: complex) -> Tuple[float, float]:
    """|sqrt(t0^2 - 1)| and |t0 + sqrt(t0^2 - 1)| on the branch
    sqrt(t0 + 1) * sqrt(t0 - 1) with principal square roots."""
    s = cmath.sqrt(t0 + 1.0) * cmath.sqrt(t0 - 1.0)
    return abs(s), abs(t0 + s)


def log_est_gl(t0: complex, n: int, p: float) -> float:
    """log of the Gauss-Legendre error kernel at the polar root t0."""
    abs_s, abs_w = _joukowski(complex(t0))
    if abs_s == 0.0 or abs_w <= 1.0:
        raise EvaluationError(f"Gauss-Legendre kernel undefined for t0={t0} on [-1, 1]")
    return (
        _LOG_4PI
        - math.lgamma(p)
        + (p - 1.0) * (math.log(2.0 * n + 1.0) - math.log(abs_s))
        - (2.0 * n + 1.0) * math.log(abs_w)
    )


def est_gl(t0: complex, n: int, p: float) -> float:
    """Gauss-Legendre error kernel at the polar root t0 (off [-1, 1]).

    est = 4 pi / Gamma(p) * |(2n+1)/sqrt(t0^2-1)|^(p-1) * |t0+sqrt(t0^2-1)|^-(2n+1).
    """
    return math.exp(log_est_gl(t0, n, p))


def e_fac_tz_analytic(surface, x, theta: float, p: float, n_phi: int) -> float:
    """Pointwise azimuthal error factor for an axisymmetric surface.

    Combines the geometry factor magnitude and the exponential root decay
    into the closed form driven by lambda of the analytic azimuthal root.
    """
    x = np.asarray(x, dtype=float)
    rho2 = x[0] * x[0] + x[1] * x[1]
    if rho2 == 0.0 or theta <= 0.0 or theta >= math.pi:
        raise NoRootExists("azimuthal error factor undefined on the axis")
    a_t = float(surface.profile_a(theta)) * math.sin(theta)
    b_t = float(surface.profile_b(theta)) * math.cos(theta)
    denom = a_t * a_t + rho2 + (b_t - x[2]) ** 2
    lam = denom / (2.0 * a_t * math.sqrt(rho2))
    sq = math.sqrt(lam * lam - 1.0)
    log_val = (
        -p * math.log(denom)
        + p * (math.log(lam) - math.log(sq))
        - n_phi * math.log(lam + sq)
    )
    return math.exp(log_val)


def _log_double_factorial(n: int) -> float:
    return sum(math.log(k) for k in range(n, 1, -2))


def sphere_simplified(zeta: float, a: float, p: float, n: int) -> float:
    """Closed-form error estimate for a sphere, cosine map, n_t = n/2.

    Depends only on the target radius zeta, the sphere radius a, the
    kernel power p and the (even) azimuthal point count n:

        8 pi / Gamma(p) * n^(p-1) * n!!/(n+1)!! * a^2 / |zeta^2-a^2|^p * delta^-n

    with delta = zeta/a outside and a/zeta inside.
    """
    if n < 2 or n % 2 != 0:
        raise ValueError("n must be an even integer >= 2")
    if zeta <= 0.0 or zeta == a:
        raise ValueError("zeta must be positive and different from the radius")
    delta = zeta / a if zeta > a else a / zeta
    log_val = (
        math.log(8.0 * math.pi)
        - math.lgamma(p)
        + (p - 1.0) * math.log(n)
        + _log_double_factorial(n)
        - _log_double_factorial(n + 1)
        + 2.0 * math.log(a)
        - p * math.log(abs(zeta * zeta - a * a))
        - n * math.log(delta)
    )
    return math.exp(log_val)


@dataclass(frozen=True, eq=False)
class _Frame:
    """Shared per-point context for the two estimate contributions."""

    surface: Surface
    kernel: KernelSpec
    density: DensitySpec
    grid: QuadratureGrid
    x: np.ndarray
    ep: EvalPoint
    theta_star: float
    kappa: float
    scale: float


def _build_frame(surface, kernel, density, g, x) -> _Frame:
    ep = locate(surface, g, x)
    theta_star = surface.theta_map.theta(ep.t_star)
    kappa = surface.grid_anisotropy(ep.t_star, ep.phi_star)
    scale = surface_scale(surface, g)
    return _Frame(surface, kernel, density, g, ep.x, ep, theta_star, kappa, scale)


def _theta_root(frame: _Frame, phi, initial: complex, nearest: bool = False) -> complex:
    """Polar root at phi: closed form on a sphere, else Newton on theta_line."""
    surf = frame.surface
    if isinstance(surf, Sphere):
        return sphere_theta_root(surf.radius, phi, frame.x).value
    line = theta_line(surf, phi)
    return newton_root(line, VAR_THETA, phi, frame.x, initial, frame.scale, nearest=nearest).value


def _phi_root(frame: _Frame, theta, initial: complex, nearest: bool = False) -> complex:
    """Azimuthal root at theta: closed form on an axisymmetric surface, else Newton on phi_line."""
    surf = frame.surface
    if surf.axisymmetric:
        return axisym_phi_root(surf, theta, frame.x).value
    line = phi_line(surf, theta)
    return newton_root(line, VAR_PHI, theta, frame.x, initial, frame.scale, nearest=nearest).value


def _tangent_root(frame: _Frame, primary: str):
    """Root against the tangent plane at the nearest node, the stand-in for an
    anchor solve that did not converge; None if the target lies in that plane."""
    try:
        model = linear_root_model(
            frame.surface, frame.ep.t_star, frame.ep.phi_star, frame.x, primary, 0.0
        )
    except DegenerateModel:
        return None
    return model.linear_root(model.v_star)


def _root_terms(frame: _Frame, theta, phi):
    """f, d R^2/dt and d R^2/dphi at (theta, phi) from one surface evaluation.

    The derivatives are the inverse geometry factors G1 (polar root) and G2
    (azimuthal root). The evaluation can overflow far off the real axis,
    and the cosine map's Jacobian is infinite at a pole; a non-finite f or
    derivative is returned as vanishing derivatives, so the root is handled
    like one at which R^2 has a double zero.
    """
    surf = frame.surface
    with np.errstate(over="ignore", invalid="ignore"):
        pos, d_theta, d_phi = surf.eval_sph(theta, phi)
        d_t = d_theta * surf.theta_map.dtheta_dt_at(theta)
        diff = pos - frame.x
        f_val = integrand_f_at(frame.kernel, frame.density, theta, phi, diff, d_t, d_phi)
        dr2_dt = complex(2.0 * _dot_c(diff, d_t))
        dr2_dphi = complex(2.0 * _dot_c(diff, d_phi))
    if not all(cmath.isfinite(v) for v in (f_val, dr2_dt, dr2_dphi)):
        return f_val, 0j, 0j
    return f_val, dr2_dt, dr2_dphi


def _log_fg(frame: _Frame, theta, phi, polar: bool) -> float:
    """log |f G^p| at a polar (G = G1) or azimuthal (G = G2) root."""
    f_val, dr2_dt, dr2_dphi = _root_terms(frame, theta, phi)
    den = dr2_dt if polar else dr2_dphi
    if den == 0.0:
        raise InfiniteGeometryFactor(f"d R^2 / d {'t' if polar else 'phi'} vanishes at the root")
    return _log_abs(f_val) - frame.kernel.p * _log_abs(den)


def _in_cone(frame: _Frame, cone: ConeParams) -> bool:
    """Cone test reusing the frame's nearest-grid distance."""
    rho = math.hypot(frame.x[0], frame.x[1])
    return rho / cone.A < (cone.K_c * math.pi / frame.grid.n_t) * frame.ep.grid_distance


def _log_sweep_integral(log_kernel_at, width: float, tail_n: int) -> float:
    """log of width times the Gauss-Laguerre sum of the kernel over both half
    lines, with log(w_i) + x_i + log kernel(x_i) per node.

    The kernel is evaluated in ascending node order per direction so that
    implementations can warm-start root chains from the previous node.
    """
    rule = gauss_laguerre(tail_n)
    terms = []
    for sign in (1.0, -1.0):
        for xi, wi in zip(rule.nodes, rule.weights):
            lk = log_kernel_at(sign * xi)
            terms.append(lk + xi + math.log(wi))
    return math.log(width) + _logsumexp(terms)


def _log_tz_sweep(frame: _Frame, phi0: complex, log_fg_anchor: float, tail_n: int) -> float:
    """log of the integral of |f G2^p| est along the polar sweep of the
    azimuthal root.

    Each in-range sweep node takes its root from _phi_root, warm-started
    from the previous node in the same direction, and re-evaluates the
    smooth and geometry factors there. The linearized model with the
    anchor weight covers the (negligible) tail beyond the parameter
    interval and any node where Newton fails.
    """
    surf, g = frame.surface, frame.grid
    p = frame.kernel.p
    width = 1.0 / (g.n_phi * frame.kappa)
    model = linear_root_model(surf, frame.ep.t_star, frame.ep.phi_star, frame.x, VAR_PHI, phi0)
    chain = {1.0: phi0, -1.0: phi0}

    def from_model(t_s):
        return log_fg_anchor + log_est_tz(abs(model.model_root(t_s).imag), g.n_phi, p)

    def log_kernel(offset):
        t_s = frame.ep.t_star + offset * width
        if not -1.0 < t_s < 1.0:
            return from_model(t_s)
        theta_s = surf.theta_map.theta(t_s)
        direction = 1.0 if offset >= 0 else -1.0
        try:
            root = _phi_root(frame, theta_s, chain[direction])
        except NoRootExists:
            return -math.inf
        except NonConvergence:
            return from_model(t_s)
        chain[direction] = root
        try:
            log_fg = _log_fg(frame, theta_s, root, polar=False)
        except InfiniteGeometryFactor:
            return -math.inf
        return log_fg + log_est_tz(abs(root.imag), g.n_phi, p)

    return _log_sweep_integral(log_kernel, width, tail_n)


def _tz_internal(frame: _Frame, cone: ConeParams, tail_n: int):
    """Trapezoidal contribution: (value, skipped, phi0 or None)."""
    g = frame.grid
    p = frame.kernel.p
    if frame.surface.axisymmetric and _in_cone(frame, cone):
        return 0.0, True, None
    try:
        initial = complex(frame.ep.phi_star, 0.1)
        phi0 = _phi_root(frame, frame.theta_star, initial, nearest=True)
    except NoRootExists:
        return 0.0, True, None
    except NonConvergence:
        phi0 = _tangent_root(frame, VAR_PHI)
        if phi0 is None:
            return 0.0, True, None
    # geometry factor at the root; huge values signal a near-axis target
    f_val, _, den = _root_terms(frame, frame.theta_star, phi0)
    if abs(den) < _G2_SKIP_EPS * frame.scale:
        return 0.0, True, phi0
    log_fg_anchor = _log_abs(f_val) - p * _log_abs(den)
    log_flat = log_fg_anchor + log_est_tz(abs(phi0.imag), g.n_phi, p)
    try:
        # the sweep can never contribute more measure than the whole
        # t-interval at its anchor value
        log_val = min(_log_tz_sweep(frame, phi0, log_fg_anchor, tail_n), math.log(2.0) + log_flat)
    except DegenerateModel:
        # target in the tangent plane at the node: integrate a flat kernel
        # over the whole t-interval (length 2) as a coarse stand-in
        log_val = math.log(2.0) + log_flat
    return math.exp(log_val), False, phi0


def _gl_internal(frame: _Frame, cone: ConeParams, tail_n: int):
    """Gauss-Legendre contribution: (value, t0 or None)."""
    surf, g = frame.surface, frame.grid
    p = frame.kernel.p
    try:
        initial = complex(frame.theta_star, 0.1)
        theta0 = _theta_root(frame, frame.ep.phi_star, initial, nearest=True)
        t0 = complex(surf.theta_map.t(theta0))
    except NoRootExists:
        return 0.0, None
    except NonConvergence:
        t0 = _tangent_root(frame, VAR_T)
        if t0 is None:
            return 0.0, None
        theta0 = surf.theta_map.theta(t0)
    if t0.imag < 0:
        t0 = t0.conjugate()
    log_fg = _log_fg(frame, theta0, frame.ep.phi_star, polar=True)
    log_flat = log_fg + log_est_gl(t0, g.n_t, p)
    if surf.axisymmetric and _in_cone(frame, cone):
        # near the axis the polar root barely depends on the azimuth:
        # integrate the flat kernel around the full circle
        return math.exp(_LOG_2PI + log_flat), t0
    try:
        log_val = _log_gl_sweep(frame, t0, theta0, log_fg, tail_n)
    except DegenerateModel:
        # coarse fallback: flat kernel over one azimuthal grid cell
        log_val = math.log(2.0 * math.pi / g.n_phi) + log_flat
    if isinstance(surf, Sphere) and surf.theta_map.kind == COSINE:
        # Full-circle convention: the closed forms for a cosine-mapped
        # sphere account the polar-root kernel profile around the whole
        # azimuthal circle with both of its symmetric peaks; double the
        # swept value so sphere results stay comparable with them.
        log_val += _LOG_2
    # azimuthal measure can never exceed the full circle at the anchor value
    log_val = min(log_val, _LOG_2PI + log_flat)
    return math.exp(log_val), t0


def _log_gl_sweep(frame: _Frame, t0: complex, theta0: complex, log_fg_anchor: float, tail_n: int):
    """log of the integral of |f G1^p| est along the azimuthal sweep of the
    polar root.

    Each sweep node takes its root from _theta_root, warm-started from the
    previous node in the same direction, and re-evaluates the smooth and
    geometry factors there. The rotated-slice model with the anchor
    weight, whose chord growth stays faithful at large azimuthal offsets,
    backs up any node where Newton fails; spheres, whose roots come in
    closed form, need none.
    """
    surf, g = frame.surface, frame.grid
    p = frame.kernel.p
    width = frame.kappa / (2.0 * g.n_t)
    model = None
    if not isinstance(surf, Sphere):
        model = azimuthal_sweep_model(surf, frame.ep.t_star, frame.ep.phi_star, frame.x, t0)
    chain = {1.0: theta0, -1.0: theta0}

    def log_kernel(offset):
        dphi = offset * width
        if abs(dphi) > math.pi / 2.0:
            # each direction owns a quarter turn: beyond it the sweep
            # enters the basin of the antipodal twin, which is covered
            # by the full-circle convention instead
            return -math.inf
        phi_s = frame.ep.phi_star + dphi
        direction = 1.0 if offset >= 0 else -1.0
        try:
            root = _theta_root(frame, phi_s, chain[direction])
        except NoRootExists:
            return -math.inf
        except NonConvergence:
            return log_fg_anchor + log_est_gl(model.model_root(phi_s), g.n_t, p)
        chain[direction] = root
        t_s = complex(surf.theta_map.t(root))
        try:
            log_fg = _log_fg(frame, root, phi_s, polar=True)
        except InfiniteGeometryFactor:
            return -math.inf
        return log_fg + log_est_gl(t_s, g.n_t, p)

    return _log_sweep_integral(log_kernel, width, tail_n)


def full_estimate(
    surface: Surface,
    kernel: KernelSpec,
    density: DensitySpec,
    g: QuadratureGrid,
    x,
    cone: ConeParams = ConeParams(),
    tail_n: int = _DEFAULT_TAIL_NODES,
) -> EstimateBreakdown:
    """Total quadrature-error estimate at x with its breakdown."""
    frame = _build_frame(surface, kernel, density, g, x)
    e_tz, skipped, phi0 = _tz_internal(frame, cone, tail_n)
    e_gl, t0 = _gl_internal(frame, cone, tail_n)
    return EstimateBreakdown(
        e_tz,
        e_gl,
        e_tz + e_gl,
        skipped,
        phi0,
        t0,
        frame.ep.t_star,
        frame.ep.phi_star,
        frame.ep.grid_distance,
    )
