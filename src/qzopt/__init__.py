"""Query-complexity simulator for non-smooth stochastic optimization.

Finds (delta, eps)-Goldstein stationary points of Lipschitz non-convex
objectives with randomized-smoothing gradient estimators, charges every
oracle call to a ledger under a quantum or classical cost model, and
fits the measured query counts against the theoretical scaling
exponents.  A small circuit module emulates the sampling oracle and the
reversible arithmetic pipeline behind the estimator.
"""
from numpy import __version__ as _numpy_version

# circuit measurement needs np.bitwise_count (numpy 2); fail here, not mid-run
if int(_numpy_version.split(".")[0]) < 2:
    raise ImportError(f"qzopt needs numpy>=2.0; found numpy {_numpy_version}")

from .objectives import (
    CATALOG_NAMES,
    GENERIC_EST_VAR_COEFF,
    NOISE_KINDS,
    ObjectiveSpec,
    XiSample,
    catalog_make,
    eval_F,
    eval_f,
    sample_xi,
)
from .smoothing import (
    SmoothingParams,
    f_delta,
    g_delta,
    grad_f_delta_ref,
    sample_sphere,
)
from .oracles import (
    CostModel,
    GradEstimate,
    QueryLedger,
    estimate_grad,
    estimate_grad_diff,
    estimate_sgrad,
    estimate_sgrad_diff,
    quantum_mean_cost,
)
from .stationarity import (
    ResidualReport,
    exact_goldstein_distance,
    goldstein_residual,
    verify_stationary,
)
from .algorithms import (
    DEFAULT_BUDGET,
    QgfmParams,
    QgfmPlusParams,
    RunResult,
    TraceRecord,
    derive_params_qgfm,
    derive_params_qgfm_plus,
    derive_params_qgm_plus,
    qgfm,
    qgfm_plus,
    qgm_plus,
)
from .circuit import (
    RegisterLayout,
    SampleOutcome,
    StageTape,
    StateVector,
    emulate_U_g,
    emulate_V_g,
    fixed_point_quantize,
    h_standardize,
    invalid_probability,
    measure_sample,
    measure_sample_batch,
    pipeline_sample,
    pipeline_sample_batch,
    statevector_apply_h_and_norm,
    statevector_prepare,
)
from .harness import (
    CSV_COLUMNS,
    ConfigError,
    ExperimentConfig,
    RunRow,
    SlopeFit,
    apply_overrides,
    build_spec,
    config_from_mapping,
    fit_loglog,
    parse_config,
    primary_queries,
    rows_to_csv,
    run_experiment,
    run_one,
    scaling_sweep,
    write_csv,
)
from .rng import substream

__version__ = "0.1.0"
