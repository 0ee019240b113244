"""The array Gauss-Kronrod engine: component shapes and the error contract."""

import math
import sys

import numpy as np
import pytest

from fairnoma import _quad
from fairnoma.errors import QuadratureError
from helpers import run_probe


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
    value, est = _quad.integrate_unit_interval(np.cos)
    assert value.shape == est.shape == ()
    assert float(value) == pytest.approx(math.sin(1.0), rel=1e-14, abs=0.0)
    assert 0.0 < float(est) <= 1e-10


def test_round_cap_raises_with_value_and_estimate(monkeypatch):
    monkeypatch.setattr(_quad, "_FIRST_ROUND",
                        _quad._first_round(np.array([0.0, 1.0])))
    monkeypatch.setattr(_quad, "_MAX_ROUNDS", 1)
    with pytest.raises(QuadratureError, match=r"bisection rounds: 1\)") as info:
        _quad.integrate_unit_interval(np.sqrt, rel_tol=1e-14)
    assert abs(info.value.value - 2.0 / 3.0) < 1e-4
    assert info.value.estimate > 1e-14


def test_nan_integrand_raises_at_once():
    calls = []

    def f(x):
        calls.append(x.size)
        return np.full_like(x, np.nan)

    with pytest.raises(QuadratureError, match=r"bisection rounds: 0\)"):
        _quad.integrate_unit_interval(f)
    assert len(calls) == 1


def _qk21(f, lo, hi):
    """QUADPACK's qk21 on [lo, hi] in Python floats: (value, estimate).

    The Kronrod sum is the engine's exact einsum reduction, which every
    closed-form value is built on; the Gauss sum and the integrals of |f|
    and |f - mean| are correctly rounded (math.fsum)."""
    centr, hlgth = 0.5 * (lo + hi), 0.5 * (hi - lo)
    fv = np.asarray(f(np.array([centr + hlgth * t
                                for t in _quad._NODES.tolist()])))
    resk = float(np.einsum("n,n->", fv, _quad._KRONROD))
    fv = fv.tolist()
    wk, wg = _quad._KRONROD.tolist(), _quad._GAUSS.tolist()
    resg = math.fsum(w * v for w, v in zip(wg, fv))
    resabs = math.fsum(w * abs(v) for w, v in zip(wk, fv)) * hlgth
    resasc = math.fsum(w * abs(v - 0.5 * resk) for w, v in zip(wk, fv)) * hlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    eps = sys.float_info.epsilon
    if resabs > sys.float_info.min / (50.0 * eps):
        abserr = max(50.0 * eps * resabs, abserr)
    return resk * hlgth, abserr


@pytest.mark.parametrize("f", [
    lambda x: np.exp(-x),
    # K - G is 0 on some panels; on [2^-10, 2^-4] it is 1e-9 of K, so
    # there the estimate shows the last bit of the Gauss sum
    lambda x: 1.0 / (x + 1e-3),
    # resasc is 0 on every panel, and so is K - G
    lambda x: np.full_like(x, 0.75),
    # resabs, resasc and the estimate are all 0
    np.zeros_like,
], ids=["smooth", "peaked", "constant", "zero"])
def test_panel_estimates_match_qk21(f):
    lo, hi, x, half = _quad._FIRST_ROUND
    assert not any(a.flags.writeable for a in (lo, hi, x, half))
    _, res = _quad._gk21(f, x, half)
    for p, (a, b) in enumerate(zip(lo.tolist(), hi.tolist())):
        value, estimate = _qk21(f, a, b)
        assert res[0, 0, p] == value, p
        assert res[1, 0, p] == pytest.approx(estimate, rel=1e-12, abs=0.0), p


def test_blas_thread_count_cannot_change_closed_forms():
    # the Gauss sum and the integrals of |f| are BLAS products, and each
    # bisection decision reads them: the closed forms must not move with
    # the BLAS thread count
    probe = """
        from fairnoma.ergodic import ergodic_curve_point
        from fairnoma.outage import outage_point
        from fairnoma.pairing import expected_gain_asup
        from fairnoma.twouser import SystemParams
        for db in range(-10, 130, 10):
            xi = 10.0 ** (db / 10.0)
            e = ergodic_curve_point(SystemParams(xi=xi, beta=2.0))
            o = outage_point(SystemParams(xi=xi, r0=8.0))
            print(db, e.e_c1_noma_ainf.hex(), e.e_c2_noma_asup.hex(),
                  o.p_noma_weak_ainf.hex(), o.p_noma_strong_asup.hex())
        for k in (2, 30, 512):
            print(k, expected_gain_asup(k).hex())
        """
    outputs = [run_probe(probe, OPENBLAS_NUM_THREADS=threads)
               for threads in ("1", "2")]
    assert outputs[0].count("\n") == 14 + 3
    assert outputs[0] == outputs[1]
