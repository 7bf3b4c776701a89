"""Mining overlapping permission-request patterns from binary app-permission
matrices: noisy-OR/Bernoulli mixture factorization fitted by annealed EM,
instability-based selection of the pattern count, and the accompanying
residual, conditional-probability, divergence, and simulation analyses."""

__version__ = "0.1.0"

# The package root exports what callers outside the package import from it:
# the names the README's Library section uses and the types they return or
# raise, plus the comparison and scoring helpers the benchmark and the
# acceptance checks call.  Everything else is imported from its module.
from .core import (
    BinaryMatrix,
    ConfigError,
    DimensionError,
    Factorization,
    FitConfig,
    hamming_distance,
)
from .engine import (
    assign_matrix,
    assign_patterns,
    boolean_product,
    fit,
    log_likelihood,
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
)
from .evaluation import (
    ErrorRates,
    average_pcp,
    error_rates,
    pcp_matrix,
)
from .simulate import (
    marginal_probs,
    plant_factorization,
    simulate_independent,
)
from .dataset import (
    Dataset,
    DatasetError,
    ReputationCriteria,
    filter_reputation,
    load_dataset,
)
