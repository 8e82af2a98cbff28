"""Sequential-measurement statistics and von Neumann entropy verification.

The package realises an abstract model of two sequential measurements
(``stat_model``), its finite-dimensional quantum realisation (``quantum``),
entropy functionals and theorem checkers (``entropy``), and a seeded
verification harness with a CLI (``harness``, ``cli``).
"""

from .errors import (
    AssumptionError,
    ConfigError,
    InconsistentModelError,
    InputError,
    InvalidOperatorError,
    SeqMeasError,
    ShapeError,
)
from .stat_model import (
    ChainEntropies,
    ConstraintViolation,
    MarginalSet,
    RatioObservable,
    SequentialModel,
    degeneracy_marginals,
    entropy_chain,
    expectation_regularized,
    j_equation_residual,
    j_equation_reverse_residual,
    marginal_set,
    minimal_x_tilde,
    model_from_json,
    model_to_json,
    modified_shannon_entropy,
    validate_model,
    with_x,
    with_x_tilde,
)
from .quantum import (
    AssumptionReport,
    DensityOperator,
    DilationResult,
    ProjectorFamily,
    SpectralDecomposition,
    Unitary,
    WorkProtocolResult,
    assumption_holds,
    build_sequential_model,
    dilation_analysis,
    hermitian_eigendecomposition,
    identity_unitary,
    luders_channel,
    matrix_from_json,
    matrix_to_json,
    outcome_probabilities,
    partial_trace,
    spectral_projectors,
    tensor_product,
    two_point_work_protocol,
)
from .entropy import (
    EntropyReport,
    MinimalityResult,
    counterexample_pair,
    entropy_report,
    is_minimal_pair,
    minimal_identity_check,
    relative_entropy,
    von_neumann_entropy,
)
from .harness import (
    CheckOutcome,
    ExperimentConfig,
    ExperimentReport,
    acceptance_config,
    random_density,
    random_pvm,
    random_state_vector,
    random_unitary,
    replay_failure,
    run_check,
    run_suite,
    trial_rng,
)

__version__ = "0.1.0"
