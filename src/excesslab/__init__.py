"""Certified block-mutual-information toolkit for heavy-tailed hidden Markov processes.

Three countable-hidden-state constructions (two nonergodic cycle mixtures and
one ergodic copy process) share the stationary level law
P(N = n) = C / (n * log2(n)**alpha), alpha in (1, 2].  The package computes
their block mutual information E(n) exactly with certified truncation error,
estimates it from seeded samples, and fits the growth laws the constructions
are designed to exhibit.
"""

__version__ = "0.1.0"

from .analysis import (
    RateFitReport,
    block_mi_upper_bound,
    default_regressor,
    fit_rate,
    predicted_rate_class,
    write_series_csv,
)
from .decoders import (
    DecompositionCheck,
    decoded_level_entropy,
    future_decoder,
    mi_decomposition_residual,
    past_decoder,
)
from .exact import (
    BudgetExceededError,
    JointBlockTable,
    LabelDisagreementError,
    block_mi,
    enumerate_joint,
)
from .intervals import Enclosure, Interval, binary_entropy
from .models import (
    ALPHABETS,
    DEFAULT_SERIES_CUTOFF,
    Kind,
    ProcessModel,
    StateId,
    binary_length,
    phase_count,
)
from .sampling import (
    EstimatorReport,
    Trajectories,
    Trajectory,
    estimate_block_mi,
    sample_trajectories,
    sample_trajectory,
)
from .series import (
    level_weight,
    level_weight_sums,
    normalization_sum,
    partial_sum_bracket,
    squared_level_tail,
    tail_sum_bracket,
)
from .verify import VerificationLedger, run_verification

__all__ = [
    "ALPHABETS",
    "BudgetExceededError",
    "DEFAULT_SERIES_CUTOFF",
    "DecompositionCheck",
    "Enclosure",
    "EstimatorReport",
    "Interval",
    "JointBlockTable",
    "Kind",
    "LabelDisagreementError",
    "ProcessModel",
    "RateFitReport",
    "StateId",
    "Trajectories",
    "Trajectory",
    "VerificationLedger",
    "binary_entropy",
    "binary_length",
    "block_mi",
    "block_mi_upper_bound",
    "decoded_level_entropy",
    "default_regressor",
    "enumerate_joint",
    "estimate_block_mi",
    "fit_rate",
    "future_decoder",
    "level_weight",
    "level_weight_sums",
    "mi_decomposition_residual",
    "normalization_sum",
    "partial_sum_bracket",
    "past_decoder",
    "phase_count",
    "predicted_rate_class",
    "run_verification",
    "sample_trajectories",
    "sample_trajectory",
    "squared_level_tail",
    "tail_sum_bracket",
    "write_series_csv",
    "__version__",
]
