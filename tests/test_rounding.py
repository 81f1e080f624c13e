import math

import numpy as np
import pytest

from layerr.rounding import cdiv, dot3, entrywise


def _per_lane_dot(u, v):
    u, v = np.broadcast_arrays(u, v)
    out = [np.dot(p, q) for p, q in zip(u.reshape(-1, 3), v.reshape(-1, 3))]
    return np.array(out, dtype=float).reshape(u.shape[:-1])


_RNG = np.random.default_rng(4)
_U = _RNG.standard_normal((300, 3))
_V = _RNG.standard_normal((300, 3))
_STACKED = _RNG.standard_normal((2, 3, 40, 5))


@pytest.mark.parametrize(
    "u,v",
    [
        (_U, _V),
        (_U, _V[7]),  # stride-0 broadcast of one vector
        (_U[:, None, :], _V[None, :20, :]),  # both broadcast
        (np.moveaxis(_STACKED[0], 0, -1), np.moveaxis(_STACKED[1], 0, -1)),  # strided
        (_U[::3], _V[1::3]),
        (_U[5], _V[9]),  # one pair: a 0-d result
        (np.empty((0, 3)), np.empty((0, 3))),
    ],
    ids=["contiguous", "broadcast", "outer", "moveaxis", "sliced", "single", "empty"],
)
def test_dot3_is_bitwise_the_per_lane_dot(u, v):
    got, want = dot3(u, v), _per_lane_dot(u, v)
    assert isinstance(got, np.ndarray) and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _python_quotients(a, b):
    a, b = np.broadcast_arrays(a, b)
    out = [p / q for p, q in zip(a.ravel().tolist(), b.ravel().tolist())]
    return np.array(out, dtype=complex).reshape(a.shape)


def _complex_normal(rng, shape, scale=1.0):
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


_Q = np.random.default_rng(9)
_SIGNS = np.array([1.0, -1.0, 1.0, -1.0])
_TIES = np.array([2.5, 0.75, 1e-3, 4.0]) * (_SIGNS + 1j * _SIGNS[::-1])


@pytest.mark.parametrize(
    "a,b",
    [
        (_complex_normal(_Q, 400), _complex_normal(_Q, 400)),
        (_complex_normal(_Q, (20, 5)) * 10.0 ** _Q.uniform(-8, 8, (20, 5)),
         _complex_normal(_Q, (20, 5)) * 10.0 ** _Q.uniform(-8, 8, (20, 5))),
        (_complex_normal(_Q, 4), _TIES),  # |Re b| = |Im b|
        (np.array([0j, -0.0 - 0j, complex(0.0, -0.0), -0.0 + 0j]), _TIES),
        (_complex_normal(_Q, 30), math.pi),  # a real scalar divisor
        (_complex_normal(_Q, 30), np.float64(-2.5)),
        (_complex_normal(_Q, 30), _Q.standard_normal(30)),  # a real array divisor
        (_complex_normal(_Q, 50, 1e300), _complex_normal(_Q, 50, 1e300)),
        (_complex_normal(_Q, 50, 1e-300), _complex_normal(_Q, 50, 1e-300)),
        (_complex_normal(_Q, 50, 1e300), _complex_normal(_Q, 50, 1e290)),
        (_complex_normal(_Q, 50, 1e-300), _complex_normal(_Q, 50, 1e-290)),
        (_complex_normal(_Q, (3, 1)), _complex_normal(_Q, 4)),  # broadcast
        (np.array(0.3 - 2.0j), np.array(-1.5 + 0.25j)),  # 0-d arrays
        (np.empty(0, dtype=complex), np.empty(0, dtype=complex)),
    ],
    ids=["random", "magnitudes", "ties", "zero-numerators", "pi", "real-scalar",
         "real-array", "1e300", "1e-300", "1e300-over-1e290", "1e-300-over-1e-290",
         "broadcast", "0-d", "empty"],
)
def test_cdiv_is_bitwise_python_division(a, b):
    got, want = np.asarray(cdiv(a, b)), _python_quotients(a, b)
    assert got.dtype == complex and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_cdiv_of_scalars_is_a_scalar():
    for a, b in [(0.3 - 2.0j, -1.5 + 0.25j), (1.0, 2.0 - 2.0j), (-4.0 + 1e-9j, math.pi)]:
        got = cdiv(a, b)
        assert np.ndim(got) == 0
        assert np.array(got).tobytes() == np.array(complex(a) / b).tobytes()


def _frompyfunc_entrywise(fn, *args):
    """entrywise as np.frompyfunc forms it: an object array of fn's values,
    round-tripped through tolist(), or fn's one value for 0-d args."""
    out = np.frompyfunc(fn, len(args), 1)(*args)
    return np.array(out.tolist()) if isinstance(out, np.ndarray) else out


_E = np.random.default_rng(12)


@pytest.mark.parametrize(
    "fn,args",
    [
        (math.log, (_E.uniform(1e-3, 1e3, 200),)),
        (math.atan2, (_E.standard_normal((4, 1)), _E.standard_normal(6))),  # broadcast
        (math.atan2, (np.array([math.nan, 0.0, -0.0, 1.0]), np.array([-0.0, -1.0, 0.0, math.nan]))),
        (math.log, (np.array([math.nan, 1.0, 2.5]),)),
        (math.log, (2.5,)),  # a Python float
        (math.log, (np.array(0.75),)),  # 0-d array
        (math.atan2, (np.float64(-0.5), np.array(2.0))),
        (math.log, (np.empty(0),)),
        (math.atan2, (np.empty((2, 0)), np.empty(0))),
    ],
    ids=["log", "atan2-broadcast", "atan2-nan-and-zeros", "log-nan", "scalar", "0-d",
         "0-d-pair", "empty", "empty-broadcast"],
)
def test_entrywise_is_bitwise_the_frompyfunc_form(fn, args):
    got, want = entrywise(fn, *args), _frompyfunc_entrywise(fn, *args)
    assert type(got) is type(want) and np.shape(got) == np.shape(want)
    assert np.asarray(got).dtype == np.asarray(want).dtype
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
