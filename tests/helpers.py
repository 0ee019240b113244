"""Shared oracle helpers for the test suite.

The oracles here deliberately avoid the package's own special functions:
E1 is integrated from its defining integral with adaptive quadrature,
harmonic numbers are exactly rounded sums, and region probabilities come
from 2-D quadrature. Keeping the oracles independent is what gives the
closed-form comparisons teeth. ``engine_minmax`` is not an
oracle: it is the engine's own pool sampler, which the order-statistic tests
check. ``run_probe`` runs a snippet in a fresh interpreter, for checks that
need their own environment.
"""

import math
import os
import subprocess
import sys
import textwrap

import numpy as np
from scipy import integrate

from fairnoma import mcsim, pairing


def e1_oracle(x: float) -> float:
    """E1(x) by adaptive quadrature of the defining integral on [x, inf)."""
    val, _ = integrate.quad(lambda t: math.exp(-t) / t, x, np.inf,
                            epsabs=1e-300, epsrel=1e-13, limit=400)
    return val


def run_probe(probe: str, **env) -> str:
    """stdout of ``probe`` run in a fresh interpreter that imports this
    checkout's fairnoma, with ``env`` added to the environment."""
    src = os.path.dirname(os.path.dirname(mcsim.__file__))
    env = dict(os.environ, **env,
               PYTHONPATH=os.pathsep.join(
                   filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(probe)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def engine_minmax(k: int, beta: float, rng: np.random.Generator,
                  n: int) -> tuple[np.ndarray, np.ndarray]:
    """(min, max) gains of n pools of k i.i.d. Exp(beta) users, drawn the way
    the Monte Carlo engine draws them: its pair sampler at a single K."""
    out = np.empty((2, n))
    mn, mx = next(mcsim._minmax_gains(rng, (k,), beta, out, out))
    return mn, mx


def oma_max_oracle(k: int, xi: float, beta: float) -> float:
    """Mean OMA capacity 0.5*log2(1 + xi*g) of the strongest of k i.i.d.
    Exp(beta) users, by quadrature against the density of their maximum,
    (k/beta) exp(-x/beta) (1 - exp(-x/beta))**(k-1), on [0, inf)."""
    def f(x):
        return (0.5 * math.log2(1.0 + xi * x) * (k / beta) * math.exp(-x / beta)
                * (-math.expm1(-x / beta)) ** (k - 1))
    val, _ = integrate.quad(f, 0.0, np.inf, epsabs=0.0, epsrel=1e-12,
                            limit=400)
    return val


def noma_endpoint_oracle(k: int, xi: float) -> tuple[float, float]:
    """Mean NOMA capacities of the weakest (at a_inf) and the strongest (at
    a_sup) of k i.i.d. Exp(1) users, by 2-D quadrature against their joint
    density ``pairing.minmax_joint_pdf`` over the wedge g1 < g2. With
    a(x) = (sqrt(1 + x) - 1)/x, the weak user's rate at a_inf = a(xi*g2) is
    log2((1 + xi*g1)/(1 + a_inf*xi*g1)), and the strong user's at
    a_sup = a(xi*g1) is log2(1 + a_sup*xi*g2). The minimum is cut at 40/k
    and the maximum 60 above it, where the mass left is below 1e-17."""
    def share(w):
        return (math.sqrt(1.0 + w) - 1.0) / w

    def weak(g2, g1):
        w1 = xi * g1
        return (math.log2((1.0 + w1) / (1.0 + share(xi * g2) * w1))
                * pairing.minmax_joint_pdf(g1, g2, k))

    def strong(g2, g1):
        return (math.log2(1.0 + share(xi * g1) * xi * g2)
                * pairing.minmax_joint_pdf(g1, g2, k))

    return tuple(integrate.dblquad(f, 0.0, 40.0 / k, lambda g1: g1,
                                   lambda g1: g1 + 60.0, epsabs=1e-10,
                                   epsrel=1e-10)[0]
                 for f in (weak, strong))


def noma_fixed_sum_oracle(k: int, xi: float, a: float) -> float:
    """Mean NOMA sum rate of the weakest and the strongest of k i.i.d. Exp(1)
    users at the fixed strong-user share a, as two 1-D quadratures: the weak
    user's log2(1 + xi*g1) - log2(1 + a*xi*g1) against the minimum's
    density k exp(-k x), and the strong user's log2(1 + a*xi*g2) against
    the maximum's, k exp(-x) (1 - exp(-x))**(k-1), both on [0, inf)."""
    def weak(x):
        w = xi * x
        return ((math.log1p(w) - math.log1p(a * w)) / math.log(2.0)
                * k * math.exp(-k * x))

    def strong(x):
        return (math.log2(1.0 + a * xi * x) * k * math.exp(-x)
                * (-math.expm1(-x)) ** (k - 1))

    return math.fsum(integrate.quad(f, 0.0, np.inf, epsabs=0.0,
                                    epsrel=1e-12, limit=400)[0]
                     for f in (weak, strong))


def min_power_sum(xi: float, gains) -> float:
    """Total of the minimum NOMA power shares that give each of K users,
    gains ascending, exactly its 1/K orthogonal rate. From the strongest
    user down, user k's share b_k = ((1 + w_k)**(1/K) - 1)(1 + w_k B)/w_k,
    with w_k = xi*g_k and B the stronger users' total, solves
    log2(1 + b_k w_k/(1 + w_k B)) = log2(1 + w_k)/K."""
    k = len(gains)
    total = 0.0
    for g in reversed(gains):
        w = xi * g
        total += ((1.0 + w) ** (1.0 / k) - 1.0) * (1.0 + w * total) / w
    return total


def min_power_sum_oracle(xi: float) -> float:
    """Mean of ``min_power_sum`` over the ordered gains of 2 i.i.d. Exp(1)
    users, whose density is 2 exp(-(g_1 + g_2)), by ``dblquad``. The
    minimum is g_1 = exp(s), so the quadrature resolves it near 0 at any
    SNR, and the gap g_2 - g_1 is at most 40; each range leaves out a mass
    of exp(-40)."""
    def f(gap, s):
        g1 = math.exp(s)
        g2 = g1 + gap
        return min_power_sum(xi, (g1, g2)) * 2.0 * math.exp(s - (g1 + g2))

    return integrate.dblquad(f, -40.0, math.log(20.0), 0.0, 40.0,
                             epsabs=1e-6, epsrel=0.0)[0]


def harmonic_number(k: int) -> float:
    """H_k as an exactly-rounded sum of reciprocals."""
    return math.fsum(1.0 / i for i in range(1, k + 1))


def three_sigma(mean_a, se_a, mean_b, se_b=0.0) -> bool:
    """True when two estimates agree within 3 combined standard errors."""
    return abs(mean_a - mean_b) <= 3.0 * math.hypot(se_a, se_b) + 1e-15
