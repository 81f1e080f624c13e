"""The three analytic genus-0 surfaces and their polar-angle maps.

The surfaces are the Sphere, the Spheroid (an ellipsoid of revolution) and
the reference Blob, a harmonic-perturbed ball built by paper_blob. Each is
described in spherical-style coordinates (theta, phi) on
[0, pi] x [0, 2*pi) together with analytic first partial derivatives.
A ThetaMap connects the Gauss-Legendre variable t in [-1, 1] to theta,
either linearly or through theta = pi - arccos(t); the latter places the
quadrature nodes so that a sphere has a constant area element.

Each surface implements one evaluator, evaluate(theta, phi, partials): the
position, then the partials named in partials (VAR_THETA, VAR_PHI), each with
the same bits whatever else is asked for. eval_sph asks for both, position for
none, a root line for its one. It accepts one complex argument (theta or phi,
never both) and continues the parametrization analytically; for real
arguments the results are real. theta and phi may be arrays that broadcast,
such as a grid's theta column against its phi row, with the coordinate first
in each returned vector; for real arrays each entry equals the scalar call bitwise.
The ThetaMap methods run one numpy path for scalars and arrays; only the real
arccosine on [-1, 1] goes entry by entry through the C library, as numpy's real
arccos rounds differently under its AVX512 and AVX2 code paths.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rounding import cmul

LINEAR = "linear"
COSINE = "cosine"

VAR_THETA = "theta"
VAR_PHI = "phi"


@dataclass(frozen=True)
class ThetaMap:
    """Bijection between t in [-1, 1] and the polar angle theta in [0, pi]: one
    numpy path for scalars and arrays; only the real arccosine is libm's, entrywise."""

    kind: str

    def theta(self, t):
        """Map t to theta; complex t or real t beyond [-1, 1] takes the principal branch."""
        if self.kind == LINEAR:
            return (t + 1.0) * (math.pi / 2.0)
        t = np.asarray(t)
        libm = (np.abs(t) <= 1.0) & (t.dtype.kind != "c")
        acos = np.empty(t.shape, float if libm.all() else complex)
        acos[libm] = [math.acos(v) for v in t[libm].tolist()]
        acos[~libm] = np.arccos(t[~libm].astype(complex))
        return math.pi - acos

    def t(self, theta):
        """Inverse map theta -> t."""
        theta = np.asarray(theta)
        real = theta.dtype.kind != "c"
        if real and not np.all((0.0 <= theta) & (theta <= math.pi)):
            raise ValueError(f"real theta must lie in [0, pi], got {theta}")
        if self.kind == LINEAR:
            return -1.0 + 2.0 * theta / math.pi
        return -np.cos(theta)

    def dtheta_dt_at(self, theta):
        """Jacobian d theta / d t expressed in theta; branch-safe for complex theta.

        For the cosine map d theta / d t = 1 / sin(theta), which agrees with
        the principal-branch value whenever Re(theta) lies in [0, pi]; it is
        infinite at the poles.
        """
        if self.kind == LINEAR:
            return math.pi / 2.0
        s = np.sin(theta)
        pole = s == 0.0
        s = np.where(pole, 1.0, s)
        with np.errstate(invalid="ignore"):  # numpy flags a complex NaN divisor
            return np.where(pole, math.inf, 1.0 / s)[()]


LINEAR_MAP = ThetaMap(LINEAR)
COSINE_MAP = ThetaMap(COSINE)


def theta_map_by_name(name: str) -> ThetaMap:
    try:
        return {LINEAR: LINEAR_MAP, COSINE: COSINE_MAP}[name.lower()]
    except KeyError:
        raise ValueError(f"unknown theta map {name!r}; use 'linear' or 'cosine'")


def _vector(x, y, z):
    """x, y and z stacked coordinate first, broadcast; np.array where their
    shapes agree, several times cheaper for the Newton lines' small calls."""
    if np.shape(x) == np.shape(y) == np.shape(z):
        return np.array([x, y, z])
    return np.stack(np.broadcast_arrays(x, y, z))


class Surface:
    """Base class: analytic parametrization with first partials.

    Subclasses implement evaluate(theta, phi, partials), returning the
    position and then the partials named in partials (VAR_THETA, VAR_PHI), each
    of shape (3, *theta and phi broadcast), valid for one complex argument.
    """

    theta_map: ThetaMap
    axisymmetric = False

    def evaluate(self, theta, phi, partials):
        raise NotImplementedError

    def eval_sph(self, theta, phi):
        """Position and both partials."""
        return self.evaluate(theta, phi, (VAR_THETA, VAR_PHI))

    def position(self, theta, phi):
        return self.evaluate(theta, phi, ())[0]

    def eval_t(self, t, phi):
        """Position and partials in the (t, phi) parametrization."""
        theta = self.theta_map.theta(t)
        pos, d_theta, d_phi = self.eval_sph(theta, phi)
        return pos, d_theta * self.theta_map.dtheta_dt_at(theta), d_phi


class Spheroid(Surface):
    """Ellipsoid of revolution about the z-axis with semi-axes a and b.

    gamma(theta, phi) = (a sin(theta) cos(phi), a sin(theta) sin(phi), b cos(theta))
    """

    axisymmetric = True

    def __init__(self, a: float, b: float, theta_map: ThetaMap = COSINE_MAP):
        self.a = float(a)
        self.b = float(b)
        self.theta_map = theta_map

    def evaluate(self, theta, phi, partials):
        a, b = self.a, self.b
        st, ct = np.sin(theta), np.cos(theta)
        sp, cp = np.sin(phi), np.cos(phi)
        out = [_vector(a * st * cp, a * st * sp, b * ct)]
        for var in partials:
            if var == VAR_THETA:
                out.append(_vector(a * ct * cp, a * ct * sp, -b * st))
            else:
                out.append(_vector(-a * st * sp, a * st * cp, 0.0 * sp))
        return tuple(out)


class Sphere(Spheroid):
    """Sphere of radius a centered at the origin."""

    def __init__(self, a: float, theta_map: ThetaMap = COSINE_MAP):
        super().__init__(a, a, theta_map)


# Real part of the degree-3 order-2 spherical harmonic, used by the
# reference non-axisymmetric shape.
_Y32_AMPL = 0.25 * math.sqrt(105.0 / (2.0 * math.pi))


class Blob(Surface):
    """The reference non-axisymmetric shape: a harmonic-perturbed ball.

    gamma = rho(theta, phi) * (unit radial direction) with
    rho = 0.8 + 0.2 * exp(-3 g), g = c * cos(2 phi) sin^2(theta) cos(theta)
    and c the real spherical-harmonic amplitude above.
    """

    def __init__(self, theta_map: ThetaMap = COSINE_MAP):
        self.theta_map = theta_map

    def evaluate(self, theta, phi, partials):
        st, ct = np.sin(theta), np.cos(theta)
        sp, cp = np.sin(phi), np.cos(phi)
        # rho = 0.8 + e; estimates depend on every bit, so keep the operand order
        c_cos2 = _Y32_AMPL * np.cos(2.0 * phi)
        st2 = cmul(st, st)
        e = 0.2 * np.exp(-3.0 * cmul(c_cos2 * st2, ct))
        r, u = 0.8 + e, _vector(cp * st, sp * st, ct)
        out = [r * u]
        for var in partials:
            if var == VAR_THETA:
                dg = cmul(c_cos2, cmul(cmul(2.0 * st, ct), ct) - cmul(st2, st))
                du = _vector(cp * ct, sp * ct, -st)
            else:
                dg = cmul(cmul(_Y32_AMPL * (-2.0 * np.sin(2.0 * phi)), st2), ct)
                du = _vector(-sp * st, cp * st, 0.0 * st)
            out.append(cmul(e, -3.0 * dg) * u + r * du)
        return tuple(out)


def paper_blob(theta_map: ThetaMap = COSINE_MAP) -> Blob:
    """The reference blob with the given polar map."""
    return Blob(theta_map)
