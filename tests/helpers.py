"""Shared oracle helpers for the test suite.

The oracles here deliberately avoid the package's own special functions:
E1 and erfc are integrated from their defining integrals with adaptive
quadrature, digamma identities come from harmonic sums, and region
probabilities come from 2-D quadrature. Keeping the oracles independent is
what gives the closed-form comparisons teeth. ``engine_minmax`` is not an
oracle: it is the engine's own pool sampler, which the order-statistic tests
check.
"""

import math

import numpy as np
from scipy import integrate

from fairnoma import mcsim


def e1_oracle(x: float) -> float:
    """E1(x) by adaptive quadrature of the defining integral on [x, inf)."""
    val, _ = integrate.quad(lambda t: math.exp(-t) / t, x, np.inf,
                            epsabs=1e-300, epsrel=1e-13, limit=400)
    return val


def erfc_oracle(z: float) -> float:
    """erfc(z) by quadrature of the Gaussian integral on [z, inf).

    Works for negative z directly, so the oracle does not share the
    implementation's reflection trick.
    """
    val, _ = integrate.quad(lambda t: math.exp(-t * t), z, np.inf,
                            epsabs=1e-300, epsrel=1e-13, limit=400)
    return 2.0 / math.sqrt(math.pi) * val


def engine_minmax(k: int, beta: float, rng: np.random.Generator,
                  n: int) -> tuple[np.ndarray, np.ndarray]:
    """(min, max) gains of n pools of k i.i.d. Exp(beta) users, drawn the way
    the Monte Carlo engine draws them: its row blocks of uniforms and its
    pair order statistic, at xi = 1."""
    out = (np.empty(n), np.empty(n))
    # one scratch vector, the fewest a workspace takes; only its block buffer
    # is used
    blocks = mcsim._Workspace(k, 1).blocks(rng, n, k)
    return mcsim._pair_snrs(blocks, 1.0, beta, out)


def harmonic_number(k: int) -> float:
    """H_k as an exactly-rounded sum of reciprocals."""
    return math.fsum(1.0 / i for i in range(1, k + 1))


def three_sigma(mean_a, se_a, mean_b, se_b=0.0) -> bool:
    """True when two estimates agree within 3 combined standard errors."""
    return abs(mean_a - mean_b) <= 3.0 * math.hypot(se_a, se_b) + 1e-15
