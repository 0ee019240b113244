"""Fair power allocation for downlink NOMA.

Closed-form capacities, outage probabilities, pairing gains, and K-user
allocation vectors for the fair power-allocation region, each cross-checked
against a deterministic Monte Carlo engine.
"""

__version__ = "0.1.0"

from .errors import DomainError, QuadratureError
from .specfun import (
    EULER_GAMMA,
    digamma,
    erfc,
    erfcx,
    exp_integral_e1,
    exp_integral_e1_scaled,
)
from .twouser import (
    ChannelPair,
    FairRegion,
    SystemParams,
    allocation_bound,
    fair_region,
    high_snr_capacities,
    noma_capacity_strong,
    noma_capacity_weak,
    oma_capacity,
    sum_rate,
    sum_rate_oma,
)
from .ergodic import (
    ErgodicCurvePoint,
    ergodic_curve_point,
    ergodic_noma_strong_asup,
    ergodic_noma_weak_ainf,
    ergodic_oma,
    expected_gain,
    high_snr_ergodic_approx,
)
from .outage import (
    AlphaPair,
    OutagePoint,
    alpha_pair,
    noma_outage_strong_asup,
    noma_outage_weak_ainf,
    oma_outage_strong,
    oma_outage_weak,
    outage_point,
)
from .pairing import (
    expected_gain_ainf_approx,
    expected_gain_asup,
    minmax_joint_cdf,
    minmax_joint_pdf,
)
from .multiuser import (
    AllocationVector,
    ChannelSet,
    InterferenceLadder,
    full_alloc_a,
    interference_ladder,
    min_alloc_b,
    noma_capacity_k,
    oma_capacity_k,
    verify_fairness,
    with_residual_to_strongest,
)
from .mcsim import (
    GridPoint,
    SimConfig,
    SimResult,
    noma_outage_empirical,
    run_ergodic_pair,
    run_multiuser_power,
    run_outage,
    run_pairing,
)

__all__ = [
    "AllocationVector",
    "AlphaPair",
    "ChannelPair",
    "ChannelSet",
    "DomainError",
    "ErgodicCurvePoint",
    "EULER_GAMMA",
    "FairRegion",
    "GridPoint",
    "InterferenceLadder",
    "OutagePoint",
    "QuadratureError",
    "SimConfig",
    "SimResult",
    "SystemParams",
    "allocation_bound",
    "alpha_pair",
    "digamma",
    "erfc",
    "erfcx",
    "ergodic_curve_point",
    "ergodic_noma_strong_asup",
    "ergodic_noma_weak_ainf",
    "ergodic_oma",
    "exp_integral_e1",
    "exp_integral_e1_scaled",
    "expected_gain",
    "expected_gain_ainf_approx",
    "expected_gain_asup",
    "fair_region",
    "full_alloc_a",
    "high_snr_capacities",
    "high_snr_ergodic_approx",
    "interference_ladder",
    "min_alloc_b",
    "minmax_joint_cdf",
    "minmax_joint_pdf",
    "noma_capacity_k",
    "noma_capacity_strong",
    "noma_capacity_weak",
    "noma_outage_empirical",
    "noma_outage_strong_asup",
    "noma_outage_weak_ainf",
    "oma_capacity",
    "oma_capacity_k",
    "oma_outage_strong",
    "oma_outage_weak",
    "outage_point",
    "run_ergodic_pair",
    "run_multiuser_power",
    "run_outage",
    "run_pairing",
    "sum_rate",
    "sum_rate_oma",
    "verify_fairness",
    "with_residual_to_strongest",
    "__version__",
]
