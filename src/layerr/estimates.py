"""A-priori quadrature-error estimates for nearly singular layer potentials.

For a target point x near the surface, the error of the tensor-product
rule splits into a trapezoidal part (azimuthal direction) and a
Gauss-Legendre part (polar direction). Each part is a per-rule error
kernel, evaluated at the complex root of the squared-distance function in
the matching variable, times the smooth numerator f and a geometry factor,
integrated along the other direction.

The kernels decay exponentially away from the grid point closest to x, so
the line integrals are mapped to the half line and evaluated with a small
Gauss-Laguerre rule. One root function serves the anchor solve at the
nearest node and every sweep node in both directions: the closed form where
the geometry gives one (azimuthal roots of every surface of revolution, polar
roots where it also has a == b, a sphere whatever class built it), else a
Newton solve warm-started from the previous node. Where Newton fails, one
RootModel per direction, built once at the nearest node, stands in: its
anchor root for the anchor solve, and its variation, shifted onto the
anchor's root, for a sweep node. One surface evaluation per root gives f and
the geometry factors. All magnitude combinations happen in log space so that
estimates remain meaningful down to the underflow threshold.

A block of targets is estimated as arrays with one lane per target: each
anchor solve, and each sweep call in both directions, is one masked array
operation over all lanes. A closed-form sweep evaluates a run of nodes per
call, a Newton sweep one node per call from its warm-start chain. A lane
that has no root, or whose term vanishes, carries NaN or -inf from there on,
so the block runs under np.errstate and the masks decide each lane's
outcome; full_estimate scatters the lanes back to their targets, into one
array per field, NaN at a target that failed.

Near the symmetry axis of an axisymmetric surface the azimuthal root does
not exist; a cone criterion, tested once for both directions, detects that
region, where the trapezoidal part is negligible and the Gauss-Legendre part
is nearly independent of the azimuth and is integrated in closed form around
the full circle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError, InfiniteGeometryFactor
from . import potentials
from .potentials import (
    DensitySpec,
    KernelSpec,
    _dot_c,
    _not_located,
    integrand_f_at,
    surface_scale,
    target_block,
)
from .quadrature import QuadratureGrid, gauss_laguerre
from .roots import (
    VAR_PHI,
    VAR_THETA,
    _canonical,
    axisym_phi_root,
    azimuthal_sweep_model,
    linear_root_model,
    newton_root,
    phi_line,
    sphere_theta_root,
    theta_line,
)
from .rounding import dot3
from .surfaces import COSINE, Surface

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


@dataclass(frozen=True, eq=False)
class Estimates:
    """Estimates of targets, one entry per target in every array: total is
    e_tz + e_gl, phi0 and t0 are the anchor roots (NaN where there is none),
    and t_star, phi_star and grid_distance place the nearest grid node.
    errors holds None, or the LayerrError of a failed target (NaN elsewhere,
    False in tz_skipped)."""

    e_tz: np.ndarray
    e_gl: np.ndarray
    total: np.ndarray
    tz_skipped: np.ndarray
    phi0: np.ndarray
    t0: np.ndarray
    t_star: np.ndarray
    phi_star: np.ndarray
    grid_distance: np.ndarray
    errors: tuple


def _logsumexp(vals):
    """log sum exp over the first axis, -inf where every term is -inf.

    The terms are added in order, so that a lane's sum does not depend on
    how many lanes there are."""
    m = np.max(vals, axis=0)
    return np.where(m == -np.inf, -np.inf, m + np.log(sum(np.exp(v - m) for v in vals)))


def log_est_tz(im_abs: np.ndarray, n: int, p: float) -> np.ndarray:
    """log of the trapezoidal error kernel at azimuthal roots phi0 with
    |Im phi0| = im_abs.

    est = 4 pi / Gamma(p) * n^(p-1) * exp(-n |Im phi0|).
    """
    return _LOG_4PI - math.lgamma(p) + (p - 1.0) * math.log(n) - n * im_abs


def log_est_gl(t0: np.ndarray, n: int, p: float):
    """log of the Gauss-Legendre error kernel at the polar roots t0, and the
    mask of roots on [-1, 1], where it is undefined.

    est = 4 pi / Gamma(p) * |(2n+1)/sqrt(t0^2-1)|^(p-1) * |t0+sqrt(t0^2-1)|^-(2n+1),
    with sqrt(t0^2 - 1) on the branch sqrt(t0 + 1) * sqrt(t0 - 1) of
    principal square roots.
    """
    t0 = np.asarray(t0, dtype=complex)
    s = np.sqrt(t0 + 1.0) * np.sqrt(t0 - 1.0)
    abs_s, abs_w = np.abs(s), np.abs(t0 + s)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_val = (
            _LOG_4PI
            - math.lgamma(p)
            + (p - 1.0) * (math.log(2.0 * n + 1.0) - np.log(abs_s))
            - (2.0 * n + 1.0) * np.log(abs_w)
        )
    return log_val, (abs_s == 0.0) | (abs_w <= 1.0)


def e_fac_tz_analytic(surface, x, theta: float, p: float, n_phi: int) -> float:
    """Pointwise azimuthal error factor for an axisymmetric surface.

    Combines the geometry factor magnitude and the exponential root decay
    into the closed form driven by lambda of the analytic azimuthal root.
    """
    root = axisym_phi_root(surface, theta, x)
    # lambda cancels in (2 a sin(theta) rho lambda)^-p (lambda / sqrt(lambda^2 - 1))^p
    radii = 2.0 * surface.a * math.sin(theta) * math.hypot(x[0], x[1])
    log_val = -p * (math.log(radii) + 0.5 * math.log(root.lam**2 - 1.0)) - n_phi * root.value.imag
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
    """Shared context of a block of targets, with one lane per located target.

    located marks the targets with a lane; errors holds None for them and, for
    every other target, the EvaluationError that kept the block's one
    nearest-node scan from locating it. The arrays below hold one entry per
    lane; kappa and both root models read the nearest node's one evaluation.
    """

    surface: Surface
    kernel: KernelSpec
    density: DensitySpec
    grid: QuadratureGrid
    scale: float
    located: np.ndarray
    errors: list
    x: np.ndarray  # (lanes, 3)
    t_star: np.ndarray  # nearest grid node
    phi_star: np.ndarray
    grid_distance: np.ndarray
    theta_star: np.ndarray
    position: np.ndarray  # (lanes, 3), real; d_t and d_phi are the partials there
    d_t: np.ndarray
    d_phi: np.ndarray
    kappa: np.ndarray  # |d_t| / |d_phi|, the grid anisotropy


def _build_frame(surface, kernel, density, g, x) -> _Frame:
    """Frame of the targets x, of shape (3,) or (M, 3), located on the grid by
    one block scan; a target that is not finite, too far away or on a grid
    node gets an EvaluationError, every other target a lane."""
    scale = surface_scale(surface, g)
    block = target_block(x)
    # looked up on the module, so that a wrapper put there sees the block's scan
    _, _, t_star, phi_star, dist = potentials.nearest_grid_node(surface, g, block)
    on_lane = (dist < math.inf) & (dist > 1e-12 * scale)
    errors = [None] * len(block)
    for i in np.flatnonzero(~on_lane):
        message = f"target {block[i].tolist()} coincides with a surface grid node"
        errors[i] = EvaluationError(message) if dist[i] < math.inf else _not_located(block[i])
    t_star, phi_star, dist = t_star[on_lane], phi_star[on_lane], dist[on_lane]
    pos, d_t, d_phi = (np.moveaxis(np.real(v), 0, -1) for v in surface.eval_t(t_star, phi_star))
    # Gauss-Legendre nodes lie inside (-1, 1), off the poles where |d_phi| = 0
    kappa = np.sqrt(dot3(d_t, d_t)) / np.sqrt(dot3(d_phi, d_phi))
    return _Frame(surface, kernel, density, g, scale, on_lane, errors, block[on_lane], t_star,
                  phi_star, dist, surface.theta_map.theta(t_star), pos, d_t, d_phi, kappa)


def _targets(frame: _Frame, shape) -> np.ndarray:
    """The lanes' targets, broadcast to (*shape, 3) for roots of that shape."""
    return np.broadcast_to(frame.x, tuple(shape) + (3,))


def _closed_form(surface: Surface, var: str) -> bool:
    """Whether the roots in var have a closed form on surface: azimuthal roots
    on every surface of revolution, polar roots where it is also a sphere."""
    return surface.axisymmetric and (var == VAR_PHI or surface.a == surface.b)


def _root(frame: _Frame, var: str, fixed, initial, nearest: bool = False):
    """Roots in var (VAR_THETA or VAR_PHI) with the other coordinate fixed,
    NaN where there is none: the closed form where the geometry has one, else
    Newton along the line from initial."""
    surf = frame.surface
    x = _targets(frame, np.shape(initial))
    if not _closed_form(surf, var):
        line = (theta_line if var == VAR_THETA else phi_line)(surf, fixed)
        return newton_root(line, var, fixed, x, initial, frame.scale, nearest=nearest).value
    if var == VAR_THETA:
        return sphere_theta_root(surf.a, fixed, x).value
    return axisym_phi_root(surf, fixed, x).value


def _root_terms(frame: _Frame, theta, phi):
    """f, d R^2/dt and d R^2/dphi at (theta, phi) from one surface evaluation.

    theta and phi broadcast against the lanes. The derivatives are the
    inverse geometry factors G1 (polar root) and G2 (azimuthal root). The
    evaluation can overflow far off the real axis, and the cosine map's
    Jacobian is infinite at a pole; where f or a derivative is not finite
    both derivatives are returned as zero, so the root is handled like one
    at which R^2 has a double zero.
    """
    surf = frame.surface
    theta, phi = np.broadcast_arrays(theta, phi, frame.t_star)[:2]
    with np.errstate(over="ignore", invalid="ignore"):
        pos, d_theta, d_phi = surf.eval_sph(theta, phi)
        d_t = d_theta * surf.theta_map.dtheta_dt_at(theta)
        diff = pos - np.moveaxis(_targets(frame, theta.shape), -1, 0)
        f_val = integrand_f_at(frame.kernel, frame.density, theta, phi, diff, d_t, d_phi)
        dr2_dt = 2.0 * _dot_c(diff, d_t) + 0j
        dr2_dphi = 2.0 * _dot_c(diff, d_phi) + 0j
    finite = np.isfinite(f_val) & np.isfinite(dr2_dt) & np.isfinite(dr2_dphi)
    return f_val, np.where(finite, dr2_dt, 0j), np.where(finite, dr2_dphi, 0j)


def _log_fg(frame: _Frame, theta, phi, polar: bool):
    """log |f G^p| at polar (G = G1) or azimuthal (G = G2) roots; +inf where
    d R^2 vanishes there and the geometry factor is infinite."""
    f_val, dr2_dt, dr2_dphi = _root_terms(frame, theta, phi)
    den = dr2_dt if polar else dr2_dphi
    with np.errstate(divide="ignore", invalid="ignore"):
        log_fg = np.log(np.abs(f_val)) - frame.kernel.p * np.log(np.abs(den))
    return np.where(den == 0.0, np.inf, log_fg)


def _in_cone(frame: _Frame, cone: ConeParams):
    """Cone test per lane, reusing the nearest-grid distance."""
    rho = np.hypot(frame.x[:, 0], frame.x[:, 1])
    return rho / cone.A < (cone.K_c * math.pi / frame.grid.n_t) * frame.grid_distance


def _log_sweep_integral(node, start, width, tail_n: int, closed: bool):
    """log of width times the Gauss-Laguerre sum of the kernel over both half
    lines, with (log kernel(x_i) + x_i) + log(w_i) per node, -inf at w_i = 0.

    node(offsets, chain) takes the offsets of a run of k nodes in both
    directions, shape (2, k, 1), and each direction's warm start, shape
    (2, 1, lanes); it returns the roots there, NaN where none was found, and
    the log kernel, both (2, k, lanes). A closed form (closed) reads no start:
    a run is as many nodes as fit one tile of _TILE_NODES (node, lane) entries.
    A Newton run is one node, chained from start to each lane's latest root."""
    rule = gauss_laguerre(tail_n)
    run = max(1, potentials._TILE_NODES // (2 * max(1, len(start)))) if closed else 1
    chain, terms = np.array([start, start])[:, None], []
    for i in range(0, tail_n, run):
        xi = rule.nodes[i:i + run, None]
        root, log_kernel = node(np.array([xi, -xi]), chain)
        chain = np.where(np.isnan(root[:, -1:]), chain, root[:, -1:])
        log_w = [[math.log(w) if w > 0.0 else -math.inf] for w in rule.weights[i:i + run]]
        terms.append(log_kernel + xi + np.array(log_w))
    # the positive direction first, each in node order
    return np.log(width) + _logsumexp(np.concatenate(terms, axis=1).reshape(2 * tail_n, -1))


def _log_tz_sweep(frame: _Frame, phi0, log_fg_anchor, model, tail_n: int):
    """log of the integral of |f G2^p| est along the polar sweep of the
    azimuthal roots phi0 (NaN on lanes that do not sweep).

    Each in-range sweep node takes its root from _root, a run of nodes per
    call in closed form, else one node warm-started from the previous one in
    its direction, and re-evaluates the smooth and geometry factors there.
    The linearized model with the anchor weight covers the (negligible) tail
    beyond the parameter interval and any node where Newton fails.
    """
    surf, g = frame.surface, frame.grid
    p = frame.kernel.p
    width = 1.0 / (g.n_phi * frame.kappa)

    def node(offset, chain):
        t_s = frame.t_star + offset * width
        inside = (-1.0 < t_s) & (t_s < 1.0)
        model_phi0 = model.model_root(t_s, phi0)
        from_model = log_fg_anchor + log_est_tz(np.abs(model_phi0.imag), g.n_phi, p)
        theta_s = surf.theta_map.theta(np.where(inside, t_s, 0.0))
        root = _root(frame, VAR_PHI, theta_s, np.where(inside, chain, np.nan))
        found = inside & ~np.isnan(root)
        log_fg = _log_fg(frame, theta_s, root, polar=False)
        val = np.where(log_fg == np.inf, -np.inf, log_fg + log_est_tz(np.abs(root.imag), g.n_phi, p))
        return np.where(found, root, np.nan), np.where(found, val, from_model)

    return _log_sweep_integral(node, phi0, width, tail_n, _closed_form(surf, VAR_PHI))


def _tz_internal(frame: _Frame, near_axis, tail_n: int):
    """Trapezoidal contribution per lane: (value, skipped, phi0 or NaN)."""
    surf, g = frame.surface, frame.grid
    p = frame.kernel.p
    model = linear_root_model(frame.t_star, frame.phi_star, frame.position, frame.d_t,
                              frame.d_phi, frame.x)
    phi0 = _root(frame, VAR_PHI, frame.theta_star, frame.phi_star, nearest=True)
    if not _closed_form(surf, VAR_PHI):
        # the tangent-plane root stands in for a failed Newton solve
        phi0 = np.where(np.isnan(phi0), model.anchor, phi0)
    phi0 = np.where(near_axis, np.nan, phi0)
    # geometry factor at the root; huge values signal a near-axis target
    f_val, _, den = _root_terms(frame, frame.theta_star, phi0)
    sweeps = ~np.isnan(phi0) & (np.abs(den) >= _G2_SKIP_EPS * frame.scale)
    log_fg_anchor = np.log(np.abs(f_val)) - p * np.log(np.abs(den))
    # the sweep can never contribute more measure than the whole t-interval
    # at its anchor value
    log_full = _LOG_2 + log_fg_anchor + log_est_tz(np.abs(phi0.imag), g.n_phi, p)
    # a target in the tangent plane at the node has a degenerate model: it
    # integrates the flat kernel over the whole t-interval as a coarse stand-in
    sweep_phi0 = np.where(sweeps & ~model.degenerate, phi0, np.nan)
    log_sweep = _log_tz_sweep(frame, sweep_phi0, log_fg_anchor, model, tail_n)
    log_val = np.where(model.degenerate, log_full, np.minimum(log_sweep, log_full))
    return np.where(sweeps, np.exp(log_val), 0.0), ~sweeps, phi0


def _gl_internal(frame: _Frame, near_axis, tail_n: int):
    """Gauss-Legendre contribution per lane: (value, t0 or NaN, infinite, bad_t),
    with bad_t the anchor's or a sweep node's root on [-1, 1], else NaN."""
    surf, g = frame.surface, frame.grid
    p = frame.kernel.p
    closed = _closed_form(surf, VAR_THETA)
    model = None if closed else azimuthal_sweep_model(
        frame.t_star, frame.phi_star, frame.position, frame.d_t, frame.x
    )
    theta0 = _root(frame, VAR_THETA, frame.phi_star, frame.theta_star, nearest=True)
    t0 = surf.theta_map.t(theta0)
    if model is not None:
        # the tangent-plane root stands in for a failed Newton solve
        theta0 = np.where(np.isnan(t0), surf.theta_map.theta(model.anchor), theta0)
        t0 = np.where(np.isnan(t0), model.anchor, t0)
    t0 = _canonical(t0)
    found = ~np.isnan(t0)
    log_fg = _log_fg(frame, theta0, frame.phi_star, polar=True)
    log_kernel, undefined = log_est_gl(t0, g.n_t, p)
    infinite = found & (log_fg == np.inf)
    log_flat = log_fg + log_kernel
    # near the axis the polar root barely depends on the azimuth: integrate
    # the flat kernel around the full circle
    sweeps = found & ~near_axis & ~infinite & ~undefined
    degenerate = np.zeros(t0.shape, bool) if model is None else model.degenerate
    chain = np.where(sweeps & ~degenerate, theta0, np.nan)
    log_val, bad_t = _log_gl_sweep(frame, chain, t0, log_fg, model, tail_n)
    bad_t = np.where(found & ~infinite & undefined, t0, bad_t)
    # coarse fallback for a degenerate model: flat kernel over one azimuthal cell
    log_val = np.where(degenerate, math.log(2.0 * math.pi / g.n_phi) + log_flat, log_val)
    if closed and surf.theta_map.kind == COSINE:
        # Full-circle convention: the closed forms for a cosine-mapped
        # sphere account the polar-root kernel profile around the whole
        # azimuthal circle with both of its symmetric peaks; double the
        # swept value so sphere results stay comparable with them.
        log_val = log_val + _LOG_2
    # azimuthal measure can never exceed the full circle at the anchor value
    log_val = np.where(near_axis, _LOG_2PI + log_flat, np.minimum(log_val, _LOG_2PI + log_flat))
    return np.where(found, np.exp(log_val), 0.0), t0, infinite, bad_t


def _log_gl_sweep(frame: _Frame, theta0, t0, log_fg_anchor, model, tail_n: int):
    """log of the integral of |f G1^p| est along the azimuthal sweep of the
    polar roots theta0 (NaN on lanes that do not sweep), whose t-values are
    t0, and bad_t.

    Each sweep node takes its root from _root, a run of nodes per call in
    closed form, else one node warm-started from the previous one in its
    direction, and re-evaluates the smooth and geometry factors there. The
    rotated-slice model with the anchor weight, whose chord growth stays
    faithful at large azimuthal offsets, backs up a failed Newton node;
    closed-form polar roots need none. bad_t is a lane's first sweep root
    on [-1, 1] in the positive direction, else in the negative one, else NaN.
    """
    surf, g = frame.surface, frame.grid
    p = frame.kernel.p
    width = frame.kappa / (2.0 * g.n_t)
    sweeps = ~np.isnan(theta0)
    first_undefined = np.full((2,) + theta0.shape, np.nan, dtype=complex)

    def node(offset, chain):
        dphi = offset * width
        # each direction owns a quarter turn: beyond it the sweep enters the
        # basin of the antipodal twin, which is covered by the full-circle
        # convention instead
        live = sweeps & (np.abs(dphi) <= math.pi / 2.0)
        phi_s = frame.phi_star + dphi
        root = _root(frame, VAR_THETA, phi_s, np.where(live, chain, np.nan))
        found = live & ~np.isnan(root)
        log_fg = _log_fg(frame, root, phi_s, polar=True)
        t_s = surf.theta_map.t(root)
        fallback = live & ~found & (model is not None)
        if model is not None:
            t_s = np.where(fallback, model.model_root(phi_s, t0), t_s)
            log_fg = np.where(fallback, log_fg_anchor, log_fg)
        log_k, undefined = log_est_gl(t_s, g.n_t, p)
        used = (found & (log_fg != np.inf)) | fallback
        for t in np.swapaxes(np.where(used & undefined, t_s, np.nan), 0, 1):
            np.copyto(first_undefined, t, where=np.isnan(first_undefined))
        return np.where(found, root, np.nan), np.where(used, log_fg + log_k, -np.inf)

    log_val = _log_sweep_integral(node, theta0, width, tail_n, model is None)
    plus, minus = first_undefined
    return log_val, np.where(np.isnan(plus), minus, plus)


def full_estimate(
    surface: Surface,
    kernel: KernelSpec,
    density: DensitySpec,
    g: QuadratureGrid,
    x,
    cone: ConeParams = ConeParams(),
    tail_n: int = _DEFAULT_TAIL_NODES,
) -> Estimates:
    """Total quadrature-error estimate with its breakdown, at one target or a block.

    x of shape (M, 3) returns the Estimates of its M targets, each failed
    target's LayerrError in errors; the block's anchor solves and sweep nodes
    run as array operations over all its targets at once. x of shape (3,)
    raises its LayerrError, or returns its Estimates with 0-d arrays.
    """
    frame = _build_frame(surface, kernel, density, g, x)
    with np.errstate(all="ignore"):
        near_axis = surface.axisymmetric & _in_cone(frame, cone)
        e_tz, skipped, phi0 = _tz_internal(frame, near_axis, tail_n)
        e_gl, t0, infinite, bad_t = _gl_internal(frame, near_axis, tail_n)
    errors, lanes = frame.errors, np.flatnonzero(frame.located)
    good_lane = ~infinite & np.isnan(bad_t)
    for j in np.flatnonzero(~good_lane):
        if infinite[j]:
            errors[lanes[j]] = InfiniteGeometryFactor("d R^2 / d t vanishes at the root")
        else:
            message = f"Gauss-Legendre kernel undefined for t0={complex(bad_t[j])} on [-1, 1]"
            errors[lanes[j]] = EvaluationError(message)
    shape = np.shape(x)[:-1]
    if not shape and errors[0] is not None:
        raise errors[0]

    def scatter(lane_values, fill=math.nan):
        values = np.full(len(errors), fill, dtype=lane_values.dtype)
        values[lanes[good_lane]] = lane_values[good_lane]
        return values.reshape(shape)

    return Estimates(
        scatter(e_tz), scatter(e_gl), scatter(e_tz + e_gl), scatter(skipped, False),
        scatter(phi0), scatter(t0), scatter(frame.t_star), scatter(frame.phi_star),
        scatter(frame.grid_distance), tuple(errors),
    )
