"""Sparse linear regression under Gaussian random design: estimators, design
diagnostics, proof-event checks, tail-bound verification, and Monte Carlo risk
experiments around the 2*sigma^2*k*log(p/k)/n scale.
"""

from types import ModuleType as _ModuleType

from .rng import CapacityError, SeedSpec, worker_count
from .design import GaussianDesign, NoiseVector, SparseSignal, Instance
from .design import gen_design, make_signal, synthesize
from .estimators import (
    BacktrackingError,
    EstimatorResult,
    GramBlock,
    LassoConfig,
    SlopeConfig,
    soft_threshold,
    lambda_eps,
    lasso_fit,
    lasso_kkt_residual,
    slope_lambda_seq,
    slope_fit,
    prox_sorted_l1,
    mle_best_subset,
    oracle_estimator,
    aggregated_estimate,
)
from .diagnostics import (
    SreEstimate,
    EventAReport,
    max_column_norm,
    delta_consts,
    c0_general,
    sparse_min_eig,
    sre_theta_estimate,
    event_a_check,
    gram_eig_window,
)
from .events import (
    ResolventReport,
    StochasticErrorParams,
    StochasticErrorCheck,
    GapCheck,
    resolvent_set,
    b_delta_check,
    oracle_lasso_gap_check,
    h_func,
    g_func,
    stochastic_u_samples,
    stochastic_error_event_check,
    lasso_l2_constants,
    lasso_l2_bound,
    lasso_moment_bound,
)
from .risk import (
    ESTIMATOR_IDS,
    ExperimentConfig,
    RiskReport,
    StRiskBoundsReport,
    st_risk_exact,
    st_risk_bounds_check,
    oracle_risk_prediction,
    minimax_denominator,
    predicted_ratio,
    empirical_risk,
    empirical_risks,
    slope_highprob_check,
    mle_moment_estimate,
)
from .tails import (
    LemmaSpec,
    TailReport,
    TailRow,
    REGISTRY,
    check_tail_bound,
    binom_bound_check,
    sup_xtz_exact,
    sup_xtz_brute,
)

__version__ = "0.1.9"

# every public name imported above, and the version
__all__ = [name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, _ModuleType)]
__all__.append("__version__")
