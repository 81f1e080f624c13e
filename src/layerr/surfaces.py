"""Analytic genus-0 surface parametrizations and their polar-angle maps.

A surface is described in spherical-style coordinates (theta, phi) on
[0, pi] x [0, 2*pi) together with analytic first partial derivatives.
A ThetaMap connects the Gauss-Legendre variable t in [-1, 1] to theta,
either linearly or through theta = pi - arccos(t); the latter places the
quadrature nodes so that a sphere has a constant area element.

All evaluators accept one complex argument (theta or phi, never both) and
continue the parametrization analytically; for real arguments the results
are real. theta and phi may also be arrays of one shape, with the coordinate
on the first axis of each returned vector. eval_sph evaluates arrays with
numpy ufuncs; for real arrays each entry equals the scalar call bitwise.
The ThetaMap methods take arrays entry by entry through their scalar branch.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .rounding import cmul, dot3, entrywise, power

LINEAR = "linear"
COSINE = "cosine"


def _is_complex(z) -> bool:
    return isinstance(z, complex) or isinstance(z, np.complexfloating)


@dataclass(frozen=True)
class ThetaMap:
    """Bijection between t in [-1, 1] and the polar angle theta in [0, pi]."""

    kind: str

    # The methods take an array entry by entry through their scalar branch,
    # so that a batch rounds as its single targets do.

    def theta(self, t):
        """Map t to theta; complex t is continued on the principal branch."""
        if self.kind == LINEAR:
            return (t + 1.0) * (math.pi / 2.0)
        if isinstance(t, np.ndarray):
            return entrywise(self.theta, t)
        if _is_complex(t):
            return math.pi - cmath.acos(t)
        if -1.0 <= t <= 1.0:
            return math.pi - math.acos(t)
        return math.pi - cmath.acos(complex(t))

    def t(self, theta):
        """Inverse map theta -> t."""
        if isinstance(theta, np.ndarray):
            return entrywise(self.t, theta)
        if not _is_complex(theta) and not 0.0 <= theta <= math.pi:
            raise ValueError(f"real theta must lie in [0, pi], got {theta}")
        if self.kind == LINEAR:
            return -1.0 + 2.0 * theta / math.pi
        if _is_complex(theta):
            return -cmath.cos(theta)
        return -math.cos(theta)

    def dtheta_dt_at(self, theta):
        """Jacobian d theta / d t expressed in theta; branch-safe for complex theta.

        For the cosine map d theta / d t = 1 / sin(theta), which agrees with
        the principal-branch value whenever Re(theta) lies in [0, pi]; it is
        infinite at the poles.
        """
        if self.kind == LINEAR:
            return math.pi / 2.0
        if isinstance(theta, np.ndarray):
            return entrywise(self.dtheta_dt_at, theta)
        s = cmath.sin(theta) if _is_complex(theta) else math.sin(theta)
        return 1.0 / s if s else math.inf


LINEAR_MAP = ThetaMap(LINEAR)
COSINE_MAP = ThetaMap(COSINE)


def theta_map_by_name(name: str) -> ThetaMap:
    try:
        return {LINEAR: LINEAR_MAP, COSINE: COSINE_MAP}[name.lower()]
    except KeyError:
        raise ValueError(f"unknown theta map {name!r}; use 'linear' or 'cosine'")


class Surface:
    """Base class: analytic parametrization with first partials.

    Subclasses implement eval_sph(theta, phi) returning the position and
    the two partial derivatives, valid for one complex argument.
    """

    theta_map: ThetaMap
    axisymmetric = False

    def eval_sph(self, theta, phi):
        raise NotImplementedError

    def position(self, theta, phi):
        return self.eval_sph(theta, phi)[0]

    def eval_t(self, t, phi):
        """Position and partials in the (t, phi) parametrization."""
        theta = self.theta_map.theta(t)
        pos, d_theta, d_phi = self.eval_sph(theta, phi)
        return pos, d_theta * self.theta_map.dtheta_dt_at(theta), d_phi

    def area_element(self, t: float, phi: float) -> float:
        """Norm of the cross product of the two (t, phi) partials."""
        _, d_t, d_phi = self.eval_t(t, phi)
        return float(np.linalg.norm(np.cross(np.real(d_t), np.real(d_phi))))

    def grid_anisotropy(self, t, phi):
        """Ratio |d gamma/d t| / |d gamma/d phi| at non-pole points (t, phi),
        which may be arrays of one shape."""
        _, d_t, d_phi = self.eval_t(t, phi)
        d_t, d_phi = (np.moveaxis(np.real(v), 0, -1) for v in (d_t, d_phi))
        denom = np.sqrt(dot3(d_phi, d_phi))
        if np.any(denom == 0.0):
            raise ValueError("grid anisotropy undefined at a parametrization pole")
        return np.sqrt(dot3(d_t, d_t)) / denom


class Axisymmetric(Surface):
    """Surface of revolution about the z-axis.

    gamma(theta, phi) = (a(theta) sin(theta) cos(phi),
                         a(theta) sin(theta) sin(phi),
                         b(theta) cos(theta))
    with positive smooth profiles a, b supplied with their derivatives.
    """

    axisymmetric = True

    def __init__(self, a, da, b, db, theta_map: ThetaMap = COSINE_MAP):
        self._a, self._da, self._b, self._db = a, da, b, db
        self.theta_map = theta_map

    def profile_a(self, theta):
        return self._a(theta)

    def profile_b(self, theta):
        return self._b(theta)

    def eval_sph(self, theta, phi):
        a = self._a(theta)
        da = self._da(theta)
        b = self._b(theta)
        db = self._db(theta)
        st, ct = np.sin(theta), np.cos(theta)
        sp, cp = np.sin(phi), np.cos(phi)
        pos = np.array([a * st * cp, a * st * sp, b * ct])
        mer = da * st + a * ct  # meridian factor d/d theta (a sin theta)
        d_theta = np.array([mer * cp, mer * sp, db * ct - b * st])
        d_phi = np.array([-a * st * sp, a * st * cp, 0.0 * sp])
        return pos, d_theta, d_phi


class Spheroid(Axisymmetric):
    """Axisymmetric surface with constant profiles (ellipsoid of revolution)."""

    def __init__(self, a: float, b: float, theta_map: ThetaMap = COSINE_MAP):
        self.a = float(a)
        self.b = float(b)
        zero = lambda theta: 0.0 * theta
        super().__init__(
            lambda theta: self.a + 0.0 * theta,
            zero,
            lambda theta: self.b + 0.0 * theta,
            zero,
            theta_map,
        )


class Sphere(Spheroid):
    """Sphere of radius a centered at the origin."""

    def __init__(self, a: float, theta_map: ThetaMap = COSINE_MAP):
        super().__init__(a, a, theta_map)

    @property
    def radius(self) -> float:
        return self.a


class AnalyticBlob(Surface):
    """Star-shaped surface gamma = rho(theta, phi) * (unit radial direction).

    rho must be positive and smooth; its first partials are supplied
    analytically.
    """

    def __init__(self, rho, drho_dtheta, drho_dphi, theta_map: ThetaMap = COSINE_MAP):
        self._rho = rho
        self._rho_th = drho_dtheta
        self._rho_ph = drho_dphi
        self.theta_map = theta_map

    def eval_sph(self, theta, phi):
        r = self._rho(theta, phi)
        r_th = self._rho_th(theta, phi)
        r_ph = self._rho_ph(theta, phi)
        st, ct = np.sin(theta), np.cos(theta)
        sp, cp = np.sin(phi), np.cos(phi)
        u = np.array([cp * st, sp * st, ct])
        du_th = np.array([cp * ct, sp * ct, -st])
        du_ph = np.array([-sp * st, cp * st, 0.0 * st])
        return r * u, r_th * u + r * du_th, r_ph * u + r * du_ph


# Real part of the degree-3 order-2 spherical harmonic, used by the
# reference non-axisymmetric shape.
_Y32_AMPL = 0.25 * math.sqrt(105.0 / (2.0 * math.pi))


def paper_blob(theta_map: ThetaMap = COSINE_MAP) -> AnalyticBlob:
    """The reference non-axisymmetric shape: a harmonic-perturbed ball.

    rho = 0.8 + 0.2 * exp(-3 * c * cos(2 phi) sin^2(theta) cos(theta))
    with c the real spherical-harmonic amplitude above.
    """

    def g(theta, phi):
        return cmul(_Y32_AMPL * np.cos(2.0 * phi) * power(np.sin(theta), 2), np.cos(theta))

    def rho(theta, phi):
        return 0.8 + 0.2 * np.exp(-3.0 * g(theta, phi))

    def rho_th(theta, phi):
        st, ct = np.sin(theta), np.cos(theta)
        dg = cmul(_Y32_AMPL * np.cos(2.0 * phi), cmul(cmul(2.0 * st, ct), ct) - power(st, 3))
        return cmul(0.2 * np.exp(-3.0 * g(theta, phi)), -3.0 * dg)

    def rho_ph(theta, phi):
        dg = cmul(_Y32_AMPL * (-2.0 * np.sin(2.0 * phi)), power(np.sin(theta), 2))
        dg = cmul(dg, np.cos(theta))
        return cmul(0.2 * np.exp(-3.0 * g(theta, phi)), -3.0 * dg)

    return AnalyticBlob(rho, rho_th, rho_ph, theta_map)
