"""Sequential-pseudorange localization toolkit.

A user device in a time-division broadcast positioning system collects
one pseudorange per slot while it moves and its clock drifts.  This
package provides the short-window measurement model, four weighted
least-squares estimators (known velocity, joint velocity, Gaussian-prior
MAP velocity, and the drift-only baseline), their closed-form error
theory (Fisher information, CRLB, movement/deviation biases), a scenario
simulator and a deterministic Monte Carlo experiment harness.
"""

from .analysis import (
    BiasLowerBound,
    ErrorBudget,
    OrderingCheck,
    bias_deviated_velocity,
    bias_drift_only,
    bias_linear_lower_bound,
    check_crlb_ordering,
    crlb,
    fim,
    theoretical_rmse,
)
from .errors import (
    ConfigError,
    DegenerateGeometry,
    DimensionMismatch,
    Diverged,
    EmptyInput,
    RankDeficient,
    SeqlocError,
)
from .experiments import (
    EXPERIMENT_NAMES,
    ExperimentResult,
    ExperimentSpec,
    ResultRow,
    default_scenario,
    default_spec,
    empirical_rmse,
    error_cdf,
    rmse_standard_error,
    run_experiment,
    write_experiment,
)
from .model import (
    BsConstellation,
    FullParams,
    KvdParams,
    MeasurementBatch,
    VelocityPrior,
    build_design_kvd,
    build_design_pvd,
    build_design_uvd,
    predict_batch,
    residual,
)
from .simulate import (
    Circular,
    ClockModel,
    ConstantVelocity,
    EstimatorSpec,
    RandomPlacement,
    ScenarioConfig,
    TdmaSchedule,
    TrialCell,
    TrialRecord,
    run_monte_carlo,
    synthesize_batch,
    trial_rng,
    truth_state,
)
from .solvers import (
    EstimateReport,
    SolverConfig,
    solve_drift_only,
    solve_joint_velocity,
    solve_known_velocity,
    solve_prior_velocity,
    wls_step,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
