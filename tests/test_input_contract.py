"""One input contract for every public entry point that takes a count or a
real: a numpy scalar is accepted and gives the same bits as the Python
number it equals, while a bool, a numeric string or an integer beyond a
double's range raises DomainError."""

import numpy as np
import pytest

from fairnoma import multiuser, pairing, specfun, twouser
from fairnoma.errors import DomainError

CHANNELS = multiuser.ChannelSet(gains=(0.5, 1.5))

# name: (call of the one argument under test, a good Python value, the
# error a bad one raises); the good reals are exact in float32
ENTRY_POINTS = {
    "pool size": (pairing.expected_gain_asup, 5, DomainError),
    "pool size of the joint cdf":
        (lambda k: pairing.minmax_joint_cdf(0.5, 1.0, k), 3, DomainError),
    "share a of the weak user":
        (lambda a: twouser.noma_capacity_weak(10.0, 0.5, a), 0.25,
         DomainError),
    "share a of the strong user":
        (lambda a: twouser.noma_capacity_strong(10.0, 1.5, a), 0.25,
         DomainError),
    "FairRegion endpoints":
        (lambda a: twouser.FairRegion(a_inf=a, a_sup=0.375).a_inf, 0.25,
         DomainError),
    "E1 argument": (specfun.exp_integral_e1_scaled, 0.5, DomainError),
    "ChannelSet gains":
        (lambda g: multiuser.ChannelSet(gains=(g, 2.0)).gains, 0.5,
         DomainError),
    "allocation coefficients":
        (lambda c: multiuser.noma_capacity_k(10.0, CHANNELS, (c, 0.25)),
         0.5, DomainError),
    "AllocationVector coefficients":
        (lambda c: multiuser.AllocationVector(coeffs=(c, 0.25), residual=0.25,
                                              kind="b_min").coeffs, 0.5,
         DomainError),
    "x0": (lambda x: pairing.minmax_joint_cdf(x, 1.0, 3), 0.5, DomainError),
    "xm": (lambda x: pairing.minmax_joint_pdf(0.5, x, 3), 1.5, DomainError),
}


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_one_contract_for_counts_and_reals(name):
    call, good, error = ENTRY_POINTS[name]
    # a bool is an int to Python, but True is no count, share or gain
    for bad in (True, str(good)):
        with pytest.raises(error):
            call(bad)
    numpy_scalar = (np.int64 if type(good) is int else np.float32)(good)
    # repr tells float from np.float64 and gives every bit of a double
    assert repr(call(numpy_scalar)) == repr(call(good))


@pytest.mark.parametrize("call", [
    lambda x: twouser.SystemParams(xi=x),
    lambda x: twouser.oma_capacity(x, 1.0)],
    ids=["SystemParams", "oma_capacity"])
def test_integer_beyond_a_double_is_a_domain_error(call):
    # float(10**400) raises OverflowError; the check turns it into the
    # contract's error, naming the argument
    with pytest.raises(DomainError, match="xi must be within a double's range"):
        call(10 ** 400)
