"""The array Gauss-Kronrod engine: component shapes and the error contract."""

import math

import numpy as np
import pytest

from fairnoma import _quad
from fairnoma.errors import QuadratureError


def test_components_share_one_node_set():
    def f(x):
        return np.stack((np.exp(-x), x * np.exp(-x), np.exp(-x) / (1.0 + x)))

    value, est = _quad.integrate_semi_infinite(f, rel_tol=1e-12)
    assert value.shape == est.shape == (3,)
    # E1(1) e^1 for the last component
    np.testing.assert_allclose(value, [1.0, 1.0, 0.5963473623231940],
                               rtol=1e-12)
    assert np.all(est <= 1e-12 * np.abs(value))


def test_scalar_integrand_gives_scalar_results():
    value, est = _quad.integrate_interval(np.cos, 0.0, math.pi / 2.0)
    assert value.shape == est.shape == ()
    assert float(value) == pytest.approx(1.0, rel=1e-14)
    assert 0.0 < float(est) <= 1e-10


def test_round_cap_raises_with_value_and_estimate(monkeypatch):
    monkeypatch.setattr(_quad, "_START", np.array([0.0, 1.0]))
    monkeypatch.setattr(_quad, "_MAX_ROUNDS", 1)
    with pytest.raises(QuadratureError, match=r"bisection rounds: 1\)") as info:
        _quad.integrate_interval(np.sqrt, 0.0, 1.0, rel_tol=1e-14)
    assert abs(info.value.value - 2.0 / 3.0) < 1e-4
    assert info.value.estimate > 1e-14


def test_nan_integrand_raises_at_once():
    calls = []

    def f(x):
        calls.append(x.size)
        return np.full_like(x, np.nan)

    with pytest.raises(QuadratureError, match=r"bisection rounds: 0\)"):
        _quad.integrate_interval(f, 0.0, 1.0)
    assert len(calls) == 1
