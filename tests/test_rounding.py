import numpy as np
import pytest

from layerr.rounding import dot3


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
