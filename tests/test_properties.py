"""Property: every target gets a finite, non-negative estimate or a typed error."""
import math
import warnings

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from layerr.errors import LayerrError
from layerr.estimates import full_estimate
from layerr.potentials import (
    harmonic_double,
    harmonic_single,
    mod_helmholtz_single,
    paper_density,
    unit_density,
)
from layerr.quadrature import grid
from layerr.surfaces import COSINE_MAP, LINEAR_MAP, Sphere, Spheroid, paper_blob

sizes = st.floats(0.5, 3.0)
angles = st.floats(0.0, math.pi)


@st.composite
def surfaces(draw):
    tmap = draw(st.sampled_from([COSINE_MAP, LINEAR_MAP]))
    shape = draw(st.sampled_from(["sphere", "spheroid", "blob"]))
    if shape == "sphere":
        return Sphere(draw(sizes), tmap)
    if shape == "spheroid":
        return Spheroid(draw(sizes), draw(sizes), tmap)
    return paper_blob(tmap)


@st.composite
def targets(draw, surface):
    kind = draw(st.sampled_from(["axis", "pole", "centre", "surface", "near", "shell"]))
    if kind == "axis":
        return np.array([0.0, 0.0, draw(st.floats(-4.0, 4.0))])
    if kind == "centre":
        return np.zeros(3)
    theta = draw(st.sampled_from([0.0, math.pi]) if kind == "pole" else angles)
    pos = np.real(surface.position(theta, 2.0 * draw(angles)))
    if kind in ("pole", "surface"):
        return pos
    if kind == "near":
        return pos * (1.0 + draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-9, -2)))
    return pos * draw(st.floats(0.2, 4.0))


@st.composite
def cases(draw):
    surface = draw(surfaces())
    kernel = draw(
        st.one_of(
            st.just(harmonic_single()),
            st.just(harmonic_double()),
            st.floats(0.5, 5.0).map(mod_helmholtz_single),
        )
    )
    density = draw(st.sampled_from([unit_density(), paper_density()]))
    g = grid(draw(st.integers(4, 64)), draw(st.integers(4, 64)))
    return surface, kernel, density, g, draw(targets(surface))


@settings(
    max_examples=60,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(cases())
def test_estimate_is_finite_nonnegative_or_typed_error(case):
    surface, kernel, density, g, x = case
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bd = full_estimate(surface, kernel, density, g, x)
    except LayerrError:
        return
    for value in (bd.e_tz, bd.e_gl, bd.total):
        assert math.isfinite(value) and value >= 0.0
