"""Streaming stochastic optimization with implicit updates and averaging."""

import numpy as _np

# np.vecdot, which the pilots and the loss evaluator use, arrived in NumPy 2.0.
if _np.lib.NumpyVersion(_np.__version__) < "2.0.0":
    raise ImportError(f"aisgd needs NumPy >= 2.0; found NumPy {_np.__version__}")

from .datagen import (
    Dataset,
    LibsvmFormatError,
    SyntheticSpec,
    covariance,
    excess_risk,
    harmonic_eigenvalues,
    make_normal_design,
    mean_loss,
    orthogonal_factor,
    read_libsvm,
    shuffle_dataset,
    split_dataset,
    trace_radius,
    write_libsvm,
)
from .experiments import (
    ConfigError,
    ExperimentConfig,
    SweepResult,
    build_config,
    calibrate_eta0,
    classification_error,
    fit_loglog_slope,
    load_config,
    parse_config_text,
    run_benchmark,
    sensitivity_sweep,
    write_trace_csv,
)
from .losses import (
    GlmLoss,
    LogisticLoss,
    PoissonLoss,
    SmoothedHingeLoss,
    SquaredLoss,
    loss_from_name,
)
from .rates import (
    ConstantRate,
    LearningRate,
    PolynomialRate,
    XuRate,
    rate_at,
    rate_from_spec,
)
from .solvers import (
    ALGORITHMS,
    AVERAGED,
    IMPLICIT,
    BracketError,
    ConvergenceError,
    FixedPointResult,
    OptimizerState,
    RunResult,
    TracePoint,
    adagrad_step,
    explicit_step,
    implicit_step,
    init_state,
    is_diverged,
    reported_estimate,
    run_stream,
    solve_fixed_point,
    update_average,
)
from .vectors import Sample, SparseVector, add_scaled, dot, sq_norm

__version__ = "0.1.0"
