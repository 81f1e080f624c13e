"""Complex roots of the squared-distance function.

For a parametrized curve or surface line gamma(w) and a target point x,
the squared distance R^2(w) = sum_i (gamma_i(w) - x_i)^2 is extended to
complex w as a plain sum of squares (no norm). Its complex-conjugate root
pair closest to the real parameter interval controls how fast quadrature
errors decay; this module finds that root.

Closed forms exist for a circle in a plane, for the azimuthal root of any
axisymmetric surface at fixed polar angle, and for the polar root of a
sphere at fixed azimuth. Everything else goes through a one-dimensional
complex Newton iteration on the analytic parametrization.

One RootModel type gives a cheap stand-in for a root swept along a grid
direction: the quadratic root of R^2 against a line through the grid
point, anchored to an accurate root there. Two slice functions move that
line with the secondary coordinate: linear_root_model translates it along
the surface tangent, azimuthal_sweep_model rotates it about the z-axis.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import DegenerateModel, NoRootExists, NonConvergence
from .surfaces import Surface

METHOD_ANALYTIC_CIRCLE = "analytic_circle"
METHOD_ANALYTIC_AXISYM_PHI = "analytic_axisym_phi"
METHOD_ANALYTIC_SPHERE_THETA = "analytic_sphere_theta"
METHOD_NEWTON = "newton"

VAR_THETA = "theta"
VAR_PHI = "phi"
VAR_T = "t"

_NEWTON_MAX_ITER = 30
# escalating imaginary parts for retries; slices far from the target
# (small circles near the poles) carry roots several units off the axis
_RETRY_IMAG = (0.1, 0.2, 0.5, 1.0, 2.0, 4.0, 8.0)


@dataclass(frozen=True)
class RootResult:
    """A canonical (Im >= 0) complex root with provenance.

    lam is the lambda parameter of the analytic formulas (always > 1 off
    the surface) and is absent for Newton roots. residual is |R^2| at the
    returned root on the evaluator that produced it.
    """

    value: complex
    variable: str
    fixed_coordinate: float
    method: str
    residual: float
    lam: Optional[float] = None


def _canonical(w: complex) -> complex:
    return w.conjugate() if w.imag < 0 else w


def _log_beta(lam: float) -> float:
    """ln(lambda + sqrt(lambda^2 - 1)), the imaginary part of analytic roots."""
    # lambda = 1 for a target on the slice, and may round below 1 there
    return math.log(lam + math.sqrt(max(lam * lam - 1.0, 0.0)))


LineEvaluator = Callable[[complex], Tuple[np.ndarray, np.ndarray]]


def theta_line(surface: Surface, phi_fixed: float) -> LineEvaluator:
    """Evaluator w -> (gamma, d gamma/d theta) along phi = phi_fixed."""

    def line(w):
        pos, d_theta, _ = surface.eval_sph(w, phi_fixed)
        return pos, d_theta

    return line


def phi_line(surface: Surface, theta_fixed: float) -> LineEvaluator:
    """Evaluator w -> (gamma, d gamma/d phi) along theta = theta_fixed."""

    def line(w):
        pos, _, d_phi = surface.eval_sph(theta_fixed, w)
        return pos, d_phi

    return line


def circle_root(a: float, x: np.ndarray) -> RootResult:
    """Azimuthal root of R^2 for the circle of radius a in the z = 0 plane."""
    x = np.asarray(x, dtype=float)
    rho2 = x[0] * x[0] + x[1] * x[1]
    if rho2 == 0.0:
        raise NoRootExists("R^2 is independent of the angle on the z-axis")
    lam = (a * a + float(np.dot(x, x))) / (2.0 * a * math.sqrt(rho2))
    root = _canonical(complex(math.atan2(x[1], x[0]), _log_beta(lam)))
    # residual check against the defining sum of squares
    g = np.array([a * cmath.cos(root), a * cmath.sin(root), 0.0])
    residual = abs(complex(np.sum((g - x) * (g - x))))
    return RootResult(root, VAR_PHI, 0.0, METHOD_ANALYTIC_CIRCLE, residual, lam)


def axisym_phi_root(surface, theta_bar: float, x: np.ndarray) -> RootResult:
    """Azimuthal root of R^2 for an axisymmetric surface at fixed theta.

    The theta-slice is a circle of radius a(theta) sin(theta) at height
    b(theta) cos(theta), so the circle formula applies with those values.
    """
    x = np.asarray(x, dtype=float)
    rho2 = x[0] * x[0] + x[1] * x[1]
    st = math.sin(theta_bar)
    if rho2 == 0.0 or st == 0.0 or theta_bar <= 0.0 or theta_bar >= math.pi:
        raise NoRootExists("R^2 is independent of phi here")
    a_t = float(surface.profile_a(theta_bar)) * st
    b_t = float(surface.profile_b(theta_bar)) * math.cos(theta_bar)
    lam = (a_t * a_t + rho2 + (b_t - x[2]) ** 2) / (2.0 * a_t * math.sqrt(rho2))
    root = _canonical(complex(math.atan2(x[1], x[0]), _log_beta(lam)))
    pos, _, _ = surface.eval_sph(theta_bar, root)
    residual = abs(complex(np.sum((pos - x) * (pos - x))))
    return RootResult(root, VAR_PHI, theta_bar, METHOD_ANALYTIC_AXISYM_PHI, residual, lam)


def sphere_theta_root(a: float, phi_bar: float, x: np.ndarray) -> RootResult:
    """Polar root of R^2 for the sphere of radius a at fixed azimuth."""
    x = np.asarray(x, dtype=float)
    u = x[0] * math.cos(phi_bar) + x[1] * math.sin(phi_bar)
    rho_t = math.hypot(u, x[2])
    if rho_t == 0.0:
        raise NoRootExists("R^2 is independent of theta here")
    lam = (a * a + float(np.dot(x, x))) / (2.0 * a * rho_t)
    root = _canonical(complex(math.atan2(u, x[2]), _log_beta(lam)))
    st, ct = cmath.sin(root), cmath.cos(root)
    g = np.array([a * st * math.cos(phi_bar), a * st * math.sin(phi_bar), a * ct])
    residual = abs(complex(np.sum((g - x) * (g - x))))
    return RootResult(root, VAR_THETA, phi_bar, METHOD_ANALYTIC_SPHERE_THETA, residual, lam)


def _newton_once(line, x, w0: complex, scale2: float):
    """Newton iterations from one starting point; None on failure.

    The convergence threshold scales with the magnitude of the summed
    squares: far off the real axis the individual terms grow like
    exp(2 Im w), so the achievable cancellation floor grows with them.
    """
    w = w0
    for _ in range(_NEWTON_MAX_ITER):
        pos, dpos = line(w)
        diff = pos - x
        r2 = complex(np.sum(diff * diff))
        if not (np.isfinite(r2.real) and np.isfinite(r2.imag)):
            return None
        magnitude = float(np.sum(np.abs(diff) ** 2))
        if abs(r2) < 1e-13 * (scale2 + magnitude):
            return w, abs(r2)
        dr2 = complex(2.0 * np.sum(diff * dpos))
        if dr2 == 0.0 or not (np.isfinite(dr2.real) and np.isfinite(dr2.imag)):
            return None
        w = w - r2 / dr2
        if not (np.isfinite(w.real) and np.isfinite(w.imag)) or abs(w) > 1e6:
            return None
    return None


def newton_root(
    line: LineEvaluator,
    variable: str,
    fixed_coordinate: float,
    x: np.ndarray,
    initial: complex,
    scale: float = 1.0,
    nearest: bool = False,
) -> RootResult:
    """Complex Newton iteration on R^2 along the given line.

    Converges when |R^2| drops to 1e-13 of the problem size (the square of
    scale plus the magnitude of the summed squares at the iterate). If the
    supplied initial guess fails, retries with an escalating ladder of
    imaginary parts above the real part of the initial guess. With
    nearest=True all starting points are tried and the converged root
    closest to the real axis is returned; the error-decay theory wants the
    root pair nearest the interval, and a single start can land on a
    farther branch.
    """
    x = np.asarray(x, dtype=float)
    scale2 = scale * scale
    guesses = [complex(initial)]
    for im in _RETRY_IMAG:
        g = complex(initial.real, im)
        if g != guesses[0]:
            guesses.append(g)
    best = None
    with np.errstate(over="ignore", invalid="ignore"):
        for w0 in guesses:
            hit = _newton_once(line, x, w0, scale2)
            if hit is not None and (best is None or abs(hit[0].imag) < abs(best[0].imag)):
                best = hit
                if not nearest:
                    break
    if best is None:
        raise NonConvergence(
            f"Newton failed to find a {variable} root near {initial!r} for x={x.tolist()}"
        )
    w, residual = best
    return RootResult(_canonical(w), variable, fixed_coordinate, METHOD_NEWTON, residual)


class RootModel:
    """Anchored quadratic root model of R^2 along one grid direction.

    Near the grid point the surface slice at secondary coordinate v is
    replaced by the line r(v) + (u - u_star) g(v) in the primary variable u,
    and the model root solves |r(v) + (u - u_star) g(v)|^2 = 0. slice_at(v)
    returns (r, g): the linearized slice translates the anchor along its
    tangent in v, the rotated slice turns it about the z-axis. An offset
    fixed at construction makes the model exact at v = v_star, where it
    returns the accurate root u0_star.
    """

    def __init__(self, u_star: float, v_star: float, slice_at, u0_star: complex):
        self.u_star = u_star
        self.v_star = v_star
        self.slice_at = slice_at
        _, g = slice_at(v_star)
        # both slices keep |g| fixed, so the anchor's norm scales every root
        self.gg = float(np.dot(g, g))
        self.u0_star = _canonical(complex(u0_star))
        self.offset = self.u0_star - self.linear_root(v_star)

    def linear_root(self, v: float) -> complex:
        """Root (Im >= 0) of the model R^2 at secondary coordinate v.

        A real double root at the anchor raises DegenerateModel; elsewhere
        it is returned with a zero imaginary part.
        """
        r, g = self.slice_at(v)
        a = float(np.dot(r, r))
        b = 2.0 * float(np.dot(r, g))
        disc = 4.0 * a * self.gg - b * b
        if disc <= 0.0:
            if v == self.v_star:
                raise DegenerateModel("no complex root of the model distance at the anchor")
            disc = 0.0
        return complex(self.u_star - b / (2.0 * self.gg), math.sqrt(disc) / (2.0 * self.gg))

    def model_root(self, v: float) -> complex:
        """Combined model: accurate at v_star, model variation in v."""
        return self.offset + self.linear_root(v)


def azimuthal_sweep_model(
    surface: Surface,
    t_star: float,
    phi_star: float,
    x: np.ndarray,
    t0_star: complex,
) -> RootModel:
    """Polar root at a grid point, swept in the azimuth by rotating the slice.

    The anchor point and its polar tangent turn about the z-axis instead of
    following the tangent line in phi. The chord growth this produces
    matches the way surfaces of spherical topology wrap around the axis, so
    the root trajectory stays faithful out to large azimuthal offsets where
    the linearized model decays far too slowly. Offsets are clamped at half
    a turn; beyond that the sweep would re-enter the antipodal region.
    """
    x = np.asarray(x, dtype=float)
    pos, g_t, _ = surface.eval_t(t_star, phi_star)
    y, g = np.real(pos), np.real(g_t)

    def rotated(phi):
        dphi = max(-math.pi, min(math.pi, phi - phi_star))
        c, s = math.cos(dphi), math.sin(dphi)
        r = np.array([c * y[0] - s * y[1], s * y[0] + c * y[1], y[2]]) - x
        return r, np.array([c * g[0] - s * g[1], s * g[0] + c * g[1], g[2]])

    return RootModel(t_star, phi_star, rotated, t0_star)


def linear_root_model(
    surface: Surface,
    t_star: float,
    phi_star: float,
    x: np.ndarray,
    primary: str,
    u0_star: complex,
) -> RootModel:
    """Root at a grid point against the linearized surface.

    primary is "t" for the polar-direction root swept in phi, or "phi"
    for the azimuthal root swept in t. u0_star is an accurate root in the
    primary variable at the grid point (from a closed form or Newton).
    """
    x = np.asarray(x, dtype=float)
    pos, g_t, g_phi = surface.eval_t(t_star, phi_star)
    r = np.real(pos) - x
    g_t, g_phi = np.real(g_t), np.real(g_phi)
    if primary == VAR_T:
        u_star, v_star, g_u, g_v = t_star, phi_star, g_t, g_phi
    elif primary == VAR_PHI:
        u_star, v_star, g_u, g_v = phi_star, t_star, g_phi, g_t
    else:
        raise ValueError(f"primary must be 't' or 'phi', got {primary!r}")
    return RootModel(u_star, v_star, lambda v: (r + g_v * (v - v_star), g_u), u0_star)
