"""Mining overlapping permission-request patterns from binary app-permission
matrices: noisy-OR/Bernoulli mixture factorization fitted by annealed EM,
instability-based selection of the pattern count, and the accompanying
residual, conditional-probability, divergence, and simulation analyses."""

__version__ = "0.1.0"

from .core import (
    BinaryMatrix,
    ConfigError,
    DimensionError,
    Factorization,
    FitConfig,
    hamming_distance,
    matrix_from_rows,
)
from .engine import (
    FitState,
    assign_matrix,
    assign_patterns,
    binarize,
    boolean_product,
    em_step,
    fit,
    log_likelihood,
    signal_bernoulli_param,
    tempered_log_likelihood,
)
from .selection import (
    InstabilityRecord,
    InstabilityReport,
    disagreement_score,
    instability,
    match_patterns,
    match_patterns_exhaustive,
    select_k,
    split_dataset,
)
from .evaluation import (
    ErrorRates,
    UndefinedDivergenceError,
    average_pcp,
    category_divergence,
    error_rates,
    pattern_frequencies,
    pcp_matrix,
)
from .simulate import (
    PcpHistogram,
    marginal_probs,
    pcp_histogram,
    plant_factorization,
    simulate_independent,
)
from .dataset import (
    Dataset,
    DatasetError,
    ReputationCriteria,
    filter_reputation,
    load_dataset,
    summary_stats,
)
