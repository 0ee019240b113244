"""Fair power allocation for downlink NOMA.

Closed-form capacities, outage probabilities, pairing gains, and K-user
allocation vectors for the fair power-allocation region, each cross-checked
against a deterministic Monte Carlo engine.
"""

__version__ = "0.1.0"

from .errors import DomainError, QuadratureError
from .specfun import EULER_GAMMA, exp_integral_e1_scaled
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
)
from .ergodic import (
    ErgodicCurvePoint,
    ergodic_curve_point,
    ergodic_oma,
    high_snr_ergodic_approx,
)
from .outage import OutagePoint, outage_point
from .pairing import (
    expected_gain_ainf_approx,
    expected_gain_asup,
    minmax_joint_cdf,
    minmax_joint_pdf,
)
from .multiuser import (
    AllocationVector,
    ChannelSet,
    full_alloc_a,
    min_alloc_b,
    noma_capacity_k,
    oma_capacity_k,
    verify_fairness,
)
from .mcsim import (
    GridPoint,
    SimConfig,
    SimResult,
    simulate,
)

__all__ = [
    "AllocationVector",
    "ChannelPair",
    "ChannelSet",
    "DomainError",
    "ErgodicCurvePoint",
    "EULER_GAMMA",
    "FairRegion",
    "GridPoint",
    "OutagePoint",
    "QuadratureError",
    "SimConfig",
    "SimResult",
    "SystemParams",
    "allocation_bound",
    "ergodic_curve_point",
    "ergodic_oma",
    "exp_integral_e1_scaled",
    "expected_gain_ainf_approx",
    "expected_gain_asup",
    "fair_region",
    "full_alloc_a",
    "high_snr_capacities",
    "high_snr_ergodic_approx",
    "min_alloc_b",
    "minmax_joint_cdf",
    "minmax_joint_pdf",
    "noma_capacity_k",
    "noma_capacity_strong",
    "noma_capacity_weak",
    "oma_capacity",
    "oma_capacity_k",
    "outage_point",
    "simulate",
    "sum_rate",
    "verify_fairness",
    "__version__",
]
