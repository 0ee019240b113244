"""Properties of the outage probabilities over the whole input range, checked
on generated inputs (MacIver et al., "Hypothesis", JOSS 2019).

Skipped where hypothesis is not installed; CI installs it.
"""

import math

import pytest

from fairnoma import outage
from fairnoma.twouser import SystemParams

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

# r0 log-uniform in [1e-12, 500] b/s/Hz, xi in [-40, 160] dB, beta in [1/4, 4]
_R0 = st.floats(-12.0, math.log10(500.0)).map(lambda e: 10.0 ** e)
_XI_DB = st.floats(-40.0, 160.0)
_BETA = st.floats(0.25, 4.0)


@settings(max_examples=400, deadline=None, database=None)
@given(r0=_R0, xi_db=_XI_DB, beta=_BETA)
def test_probabilities_finite_and_fair_endpoints_never_worse(r0, xi_db, beta):
    pt = outage.outage_point(SystemParams(xi=10.0 ** (xi_db / 10.0),
                                          beta=beta, r0=r0))
    for p in (pt.p_oma_weak, pt.p_oma_strong, pt.p_noma_weak_ainf,
              pt.p_noma_strong_asup):
        assert math.isfinite(p) and 0.0 <= p <= 1.0
    assert pt.p_noma_weak_ainf <= pt.p_oma_weak * (1.0 + 1e-9)
    assert pt.p_noma_strong_asup <= pt.p_oma_strong * (1.0 + 1e-9)
