"""Procurement-VCG auction toolkit.

Surplus-maximizing acceptance of producer bids, pivot payments plus
report-independent adjustments, learned adjustment functions, and empirical
verification of truthfulness, individual rationality, weak budget balance and
surplus monotonicity.
"""

from .model import (
    BidProfile,
    CustomCost,
    CustomValuation,
    Economy,
    EconomyView,
    LinearCost,
    SqrtSumSquaresValuation,
    SqrtSumValuation,
    check_assumptions,
    economy_from_dict,
    economy_to_dict,
    load_economy,
    save_economy,
    social_surplus,
)
from .allocation import (
    AllocationResult,
    analytic_waterfill,
    optimize_acceptance,
)
from .payments import (
    PaymentBreakdown,
    ZeroAdjustment,
    payments_batch,
    total_payment,
    vcg_tau,
)
from .adjustment import (
    AnalyticAdjustment,
    PriorSupport,
    analytic_adjustment,
    marginal_gains_check,
    existence_check,
)
from .learner import (
    MLP,
    LearnedAdjustment,
    TrainingConfig,
    TrainingTrace,
    train,
)
from .verification import (
    ProbeReport,
    check_ir,
    check_surplus_monotonicity,
    check_wbb,
    draw_deviations,
    loss_components,
    mixed_deviation_sampler,
    probe_dsic,
    uniform_economy_sampler,
)
from .experiment import (
    ExperimentConfig,
    SurfaceGrid,
    SurfaceRecord,
    payment_surface,
    run_experiment,
)

__version__ = "0.1.0"
