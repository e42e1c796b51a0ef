import json

import numpy as np
import pytest


def v_quadratic(x):
    return np.sum(np.asarray(x, dtype=float) ** 2, axis=-1)


def v_zero(x):
    return np.zeros(np.asarray(x).shape[:-1])


def v_wall_from(cut):
    """|x|^2, and +inf where the first coordinate is cut or more."""
    return lambda x: np.where(np.asarray(x)[..., 0] >= cut, np.inf, v_quadratic(x))


def w_zero(x, y):
    shape = np.broadcast(np.asarray(x)[..., 0], np.asarray(y)[..., 0]).shape
    return np.zeros(shape)


def w_sqdist(x, y):
    diff = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    return np.sum(diff**2, axis=-1)


def w_nan_on_diagonal(x, y):
    """|x - y|^2 log |x - y|: finite off the diagonal and 0 * (-inf) = NaN on it."""
    sq = w_sqdist(x, y)
    with np.errstate(divide="ignore", invalid="ignore"):
        return 0.5 * sq * np.log(sq)


class CountingW:
    """W wrapper that counts its calls and, if asked, refuses a pair of two
    identical points (in density mode: a site paired with itself)."""

    def __init__(self, W, refuse_identical):
        self.W, self.refuse_identical, self.calls = W, refuse_identical, 0

    def __call__(self, x, y):
        self.calls += 1
        if self.refuse_identical:
            xb, yb = np.broadcast_arrays(x, y)
            if np.any(np.all(xb == yb, axis=-1)):
                raise AssertionError("W received a site paired with itself")
        return self.W(x, y)


def strict_json(text):
    """json.loads refusing the constants Infinity, -Infinity and NaN, which
    strict JSON does not have."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


def v_const(c):
    def V(x):
        return np.full(np.asarray(x).shape[:-1], float(c))
    return V


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
