"""Complex roots of the squared-distance function.

For a parametrized curve or surface line gamma(w) and a target point x,
the squared distance R^2(w) = sum_i (gamma_i(w) - x_i)^2 is extended to
complex w as a plain sum of squares (no norm). Its complex-conjugate root
pair closest to the real parameter interval controls how fast quadrature
errors decay; this module finds that root.

Closed forms exist for the azimuthal root of any axisymmetric surface at
fixed polar angle (a circle in a plane is the equator case) and for the
polar root of a sphere at fixed azimuth. Everything else goes through a
one-dimensional complex Newton iteration on the analytic parametrization,
evaluated along a line: each iteration passes the (start, lane) entries that
have stopped as NaN, and Surface.evaluate gives the position and the one
partial Newton reads only at the others, in C order as they come.

The closed forms, Newton and the root models take one target or a block of
them: x of shape (3,) or (*lanes, 3), with one root per lane. On lanes a
missing or unconverged root is NaN; for a single target the closed forms
and Newton raise instead, while a root model marks it degenerate.

One RootModel type gives a cheap stand-in for a root swept along a grid
direction: the quadratic root of R^2 against a line through the grid
point, shifted onto an accurate root there when evaluated. Two slice
functions move that line with the secondary coordinate: linear_root_model
translates it along the surface tangent, azimuthal_sweep_model rotates it
about the z-axis. Both take the grid point's real position and (t, phi)
partials, coordinate last, and evaluate no surface.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import NoRootExists, NonConvergence
from .rounding import cdiv, entrywise
from .surfaces import VAR_PHI, VAR_THETA, Spheroid, Surface

_NEWTON_MAX_ITER = 30
# escalating imaginary parts of the starts of a nearest=True solve; slices far
# from the target (small circles near the poles) carry roots several units off
# the axis
_RETRY_IMAG = (0.1, 0.2, 0.5, 1.0, 2.0, 4.0, 8.0)


@dataclass(frozen=True)
class RootResult:
    """A canonical (Im >= 0) complex root.

    lam is the lambda parameter of the analytic formulas (always > 1 off
    the surface) and is absent for Newton roots. residual is |R^2| at the
    returned root on the evaluator that produced it. On lanes, value,
    residual and lam are arrays.
    """

    value: complex
    residual: float
    lam: Optional[float] = None


def _canonical(w):
    return np.where(np.imag(w) < 0, np.conj(w), w)


def _log_beta(lam):
    """ln(lambda + sqrt(lambda^2 - 1)), the imaginary part of analytic roots."""
    # lambda = 1 for a target on the slice, and may round below 1 there
    beta = lam + np.sqrt(np.maximum(lam * lam - 1.0, 0.0))
    return entrywise(math.log, np.where(beta > 0.0, beta, np.nan))


def _coords(x):
    """Targets (..., 3) as their three coordinate arrays."""
    return np.moveaxis(np.asarray(x, dtype=float), -1, 0)


def _closed_form(root, residual, lam, no_root: str) -> RootResult:
    """The closed form's RootResult; a single target without a root raises."""
    if np.ndim(root) > 0:
        return RootResult(root, residual, lam)
    if np.isnan(root):
        raise NoRootExists(no_root)
    return RootResult(complex(root), float(residual), float(lam))


# A line maps the iterates w to (gamma, d gamma/dw) at the entries of w that
# are not NaN, in C order: two arrays (3, live entries). A NaN entry has
# stopped iterating, and the line evaluates nothing there.
LineEvaluator = Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]


def _line(surface: Surface, var: str, fixed) -> LineEvaluator:
    """surface.evaluate's position and partial along var at the live entries
    of w, the other coordinate fixed; the trailing axes of w are fixed's lanes."""

    def line(w):
        w = np.asarray(w)
        live = ~np.isnan(w)
        other = np.broadcast_to(fixed, w.shape)[live]
        theta, phi = (w[live], other) if var == VAR_THETA else (other, w[live])
        return surface.evaluate(theta, phi, (var,))

    return line


def theta_line(surface: Surface, phi_fixed) -> LineEvaluator:
    """Evaluator w -> (gamma, d gamma/d theta) along phi = phi_fixed."""
    return _line(surface, VAR_THETA, phi_fixed)


def phi_line(surface: Surface, theta_fixed) -> LineEvaluator:
    """Evaluator w -> (gamma, d gamma/d phi) along theta = theta_fixed."""
    return _line(surface, VAR_PHI, theta_fixed)


def circle_root(a: float, x: np.ndarray) -> RootResult:
    """Azimuthal root of R^2 for the circle of radius a in the z = 0 plane,
    the equator of a flat spheroid."""
    return axisym_phi_root(Spheroid(a, 0.0), math.pi / 2, x)


def axisym_phi_root(surface, theta_bar, x: np.ndarray) -> RootResult:
    """Azimuthal root of R^2 for an axisymmetric surface at fixed theta.

    The theta-slice is a circle of radius a sin(theta) at height
    b cos(theta), so the circle formula applies with those values.
    """
    x0, x1, x2 = _coords(x)
    rho2 = x0 * x0 + x1 * x1
    none = (rho2 == 0.0) | (theta_bar <= 0.0) | (theta_bar >= math.pi)
    with np.errstate(divide="ignore", invalid="ignore"):
        a_t = surface.a * np.sin(theta_bar)
        b_t = surface.b * np.cos(theta_bar)
        lam = (a_t * a_t + rho2 + (b_t - x2) ** 2) / (2.0 * a_t * np.sqrt(rho2))
        root = _canonical(np.where(none, np.nan, entrywise(math.atan2, x1, x0) + 1j * _log_beta(lam)))
        pos = surface.position(theta_bar, root)
        residual = np.abs((pos[0] - x0) ** 2 + (pos[1] - x1) ** 2 + (pos[2] - x2) ** 2)
    message = "R^2 is independent of phi here"
    return _closed_form(root, residual, lam, message)


def sphere_theta_root(a: float, phi_bar, x: np.ndarray) -> RootResult:
    """Polar root of R^2 for the sphere of radius a at fixed azimuth."""
    x0, x1, x2 = _coords(x)
    cp, sp = np.cos(phi_bar), np.sin(phi_bar)
    u = x0 * cp + x1 * sp
    rho_t = np.hypot(u, x2)
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = (a * a + (x0 * x0 + x1 * x1 + x2 * x2)) / (2.0 * a * rho_t)
        root = np.where(rho_t == 0.0, np.nan, entrywise(math.atan2, u, x2) + 1j * _log_beta(lam))
        root = _canonical(root)
        st, ct = np.sin(root), np.cos(root)
        residual = np.abs((a * st * cp - x0) ** 2 + (a * st * sp - x1) ** 2 + (a * ct - x2) ** 2)
    message = "R^2 is independent of theta here"
    return _closed_form(root, residual, lam, message)


def _newton(line, w, x, scale2: float):
    """Masked Newton iterations from the finite entries of w; returns the
    iterates and |R^2| at them, NaN where an entry did not converge.

    The convergence threshold scales with the magnitude of the summed
    squares: far off the real axis the individual terms grow like
    exp(2 Im w), so the achievable cancellation floor grows with them. An
    entry fails on a non-finite value, a vanishing derivative, an iterate
    beyond 1e6, or after _NEWTON_MAX_ITER evaluations.
    """
    residual = np.full(w.shape, np.nan)
    w = w.copy()
    active = np.isfinite(w)
    xs = np.broadcast_to(x, (3,) + w.shape)
    for _ in range(_NEWTON_MAX_ITER):
        live = active.copy()
        if not live.any():
            break
        pos, dpos = line(np.where(live, w, np.nan))
        diff = pos - xs[:, live]
        r2 = np.sum(diff * diff, axis=0)
        magnitude = np.sum(np.abs(diff) ** 2, axis=0)
        done = np.abs(r2) < 1e-13 * (scale2 + magnitude)
        residual[live] = np.where(done, np.abs(r2), np.nan)
        dr2 = 2.0 * np.sum(diff * dpos, axis=0)
        w_next = w[live] - cdiv(r2, dr2)
        go = ~done & np.isfinite(r2) & np.isfinite(dr2) & (dr2 != 0.0)
        go &= np.isfinite(w_next) & (np.abs(w_next) <= 1e6)
        w[live] = np.where(go, w_next, w[live])
        active[live] = go
    return w, residual


def newton_root(
    line: LineEvaluator,
    variable: str,
    fixed_coordinate,
    x: np.ndarray,
    initial,
    scale: float = 1.0,
    nearest: bool = False,
) -> RootResult:
    """Complex Newton iteration on R^2 along the given line.

    initial is one start, or an array of starts with one target per lane (x
    of shape initial.shape + (3,)) that iterate together; a lane without a
    root gets NaN. line gets the iterates as an array (start, *lanes) in
    which the entries that have stopped, and NaN starts, are NaN; it returns
    the other entries only, in C order. A NaN start is never iterated.

    Converges when |R^2| drops to 1e-13 of the problem size (the square of
    scale plus the magnitude of the summed squares at the iterate). Without
    nearest, each lane iterates its start once and gets NaN where that start
    fails. With nearest=True the start's imaginary part is not read: the seven
    rungs of _RETRY_IMAG above its real part iterate instead, and the
    converged root closest to the real axis is returned (the first in ladder
    order on a tie); the error-decay theory wants the root pair nearest the
    interval, and a single start can land on a farther branch. A single
    initial guess that finds no root raises NonConvergence.
    """
    w0 = np.asarray(initial, dtype=complex)
    starts = w0.real + 1j * np.reshape(_RETRY_IMAG, (-1,) + (1,) * w0.ndim) if nearest else w0[None]
    with np.errstate(all="ignore"):
        w, residual = _newton(line, starts, _coords(x)[:, None], scale * scale)
    found = ~np.isnan(residual)
    # per lane: the converged start with the smallest |Im|, the first on a tie
    pick = np.argmin(np.where(found, np.abs(w.imag), np.inf), 0)
    value = np.take_along_axis(w, pick[None], 0)[0]
    residual = np.take_along_axis(residual, pick[None], 0)[0]
    value = np.where(found.any(0), _canonical(value), np.nan)
    if w0.ndim > 0:
        return RootResult(value, residual)
    if np.isnan(value):
        raise NonConvergence(
            f"Newton failed to find a {variable} root near {initial!r} at fixed coordinate "
            f"{np.asarray(fixed_coordinate).tolist()} for x={np.asarray(x, dtype=float).tolist()}"
        )
    return RootResult(complex(value), float(residual))


class RootModel:
    """Quadratic root model of R^2 along one grid direction.

    Near the grid point the surface slice at secondary coordinate v is
    replaced by the line r(v) + (u - u_star) g(v) in the primary variable u,
    and the model root solves |r(v) + (u - u_star) g(v)|^2 = 0. slice_at(v)
    returns (r, g) with the coordinate last: the linearized slice translates
    the grid point along its tangent in v, the rotated slice turns it about
    the z-axis. anchor is the model root at v = v_star. degenerate marks
    the lanes with a real double root there, whose anchor is NaN; a single
    target is one lane and does not raise.
    """

    def __init__(self, u_star, v_star, slice_at):
        self.u_star = u_star
        self.v_star = v_star
        self.slice_at = slice_at
        _, g = slice_at(v_star)
        # both slices keep |g| fixed, so the anchor's norm scales every root
        self.gg = np.sum(g * g, axis=-1)
        self.anchor = self.linear_root(v_star)
        self.degenerate = np.isnan(self.anchor)

    def linear_root(self, v):
        """Root (Im >= 0) of the model R^2 at secondary coordinate v; a real
        double root is NaN at the anchor and real elsewhere."""
        r, g = self.slice_at(v)
        a = np.sum(r * r, axis=-1)
        b = 2.0 * np.sum(r * g, axis=-1)
        disc = 4.0 * a * self.gg - b * b
        im = np.sqrt(np.maximum(disc, 0.0)) / (2.0 * self.gg)
        im = np.where((disc <= 0.0) & (v == self.v_star), np.nan, im)
        return self.u_star - b / (2.0 * self.gg) + 1j * im

    def model_root(self, v, u0_star):
        """The model's variation in v, shifted so that it returns the
        accurate root u0_star at v_star."""
        return (_canonical(np.asarray(u0_star, dtype=complex)) - self.anchor) + self.linear_root(v)


def _turn(v, dphi):
    """Vectors v (..., 3) turned by dphi about the z-axis."""
    c, s = np.cos(dphi), np.sin(dphi)
    parts = (c * v[..., 0] - s * v[..., 1], s * v[..., 0] + c * v[..., 1], v[..., 2])
    return np.stack(np.broadcast_arrays(*parts), axis=-1)


def azimuthal_sweep_model(t_star, phi_star, position, d_t, x) -> RootModel:
    """Polar root at a grid point, swept in the azimuth by rotating the slice.

    The grid point and its polar tangent d_t turn about the z-axis instead
    of following the tangent line in phi. The chord growth this produces
    matches the way surfaces of spherical topology wrap around the axis, so
    the root trajectory stays faithful out to large azimuthal offsets where
    the linearized model decays far too slowly.
    """

    def rotated(phi):
        dphi = phi - phi_star
        return _turn(position, dphi) - x, _turn(d_t, dphi)

    return RootModel(t_star, phi_star, rotated)


def linear_root_model(t_star, phi_star, position, d_t, d_phi, x) -> RootModel:
    """Azimuthal root at a grid point, swept in t against the linearized
    surface: the azimuthal line d_phi translates along the polar tangent d_t."""
    r = position - np.asarray(x, dtype=float)
    return RootModel(phi_star, t_star, lambda t: (r + d_t * np.expand_dims(t - t_star, -1), d_phi))
