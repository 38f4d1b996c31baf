"""Spectral state space models: fixed Hankel filter banks, STU sequence
layers, exact LDS representation checks, and convex training experiments."""

from .filterbank import (
    FilterBank,
    HankelVariant,
    compute_filterbank,
    eigenvalue_decay_bound,
    hankel_entry,
    hankel_matrix,
    hankel_matvec,
    load_filterbank,
    mu_vector,
    projection_residual,
    save_filterbank,
)
from .lds import (
    LdsParams,
    load_lds_json,
    marginal_fixture,
    markov_params,
    random_marginal_system,
    random_symmetric_system,
    save_lds_json,
    simulate_lds,
)
from .stu import (
    SpectralFeatures,
    StuParams,
    featurize,
    load_stu_params,
    naive_featurize,
    save_stu_params,
)
from .theory import (
    ApproximationReport,
    ArRepresentation,
    TheoremBoundInputs,
    approximation_report,
    ar_coefficients,
    stu_from_lds,
    theorem_bound,
)
from .trainer import (
    LruOptions,
    LruParams,
    TrainConfig,
    TrainReport,
    TrainingDiverged,
    fit_lru,
    fit_stu,
    fit_stu_least_squares,
    init_lru_params,
    k_sweep,
    lru_forward,
)
from .stack import (
    StackConfig,
    StackModel,
    init_stack,
    load_stack,
    make_task_dataset,
    save_stack,
    stack_forward,
    stack_gradients,
    train_stack,
)

__version__ = "0.1.0"
