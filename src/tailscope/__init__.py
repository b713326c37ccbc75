"""tailscope: mean excess plot diagnostics for heavy-tailed data.

A library and command line tool for reading extreme-value shape off mean
excess plots, with normalized plot constructions whose set-valued limits
distinguish finite-mean heavy tails, infinite-mean tails, bounded tails
and thin tails; tail index estimators; seeded set-convergence
experiments; and a daily time-series pipeline (seasonal scale profile,
autoregression, residual diagnostics).
"""

__version__ = "0.1.0"

from .dist import (  # noqa: E402,F401
    GPD,
    Beta,
    DistributionModel,
    Exponential,
    LambertWTail,
    LogNormal,
    Pareto,
    PositiveStable,
    QuantileDefined,
    RandomSeed,
    ShapeScale,
    SkewedUnitIndex,
    StableSkewed,
    excess_cdf,
    gpd_cdf,
    gpd_quantile,
    gpd_tail,
    lambert_w,
    nonstd_quantile,
    nonstd_tail,
    quantile_b,
    skewed_unit_drift,
    theoretical_me,
    truncated_mean,
)
from .empirics import (  # noqa: F401
    OrderedSample,
    PointSet2D,
    centering_cnk,
    default_k,
    default_trim,
    empirical_me,
    me_plot,
    normalize_heavy,
    normalize_negative,
    normalize_positive,
    normalize_xi1,
    normalize_zero,
    order_statistics,
    tail_measure,
)
from .errors import (  # noqa: F401
    ConfigError,
    DegenerateDataError,
    DegenerateRangeError,
    DomainError,
    EmptyExceedanceError,
    EmptyWindowError,
    IndexRangeError,
    InfiniteMeanError,
    InsufficientDataError,
    NormalizationError,
    ParameterError,
    ParseError,
    SingularDesignError,
    TailscopeError,
)
from .estimators import (  # noqa: F401
    EstimatorTrace,
    FitResult,
    hill,
    ls_fit,
    moment,
    pickands,
    qq_points_neg,
    qq_points_pos,
    trace,
)
from .pipeline import (  # noqa: F401
    ARModel,
    SeasonalProfile,
    SeriesAnalysis,
    TimeSeries,
    acf,
    aic_table,
    analyze_series,
    deseasonalize,
    load_csv,
    residuals,
    select_order_aic,
    synthetic_composite,
    yule_walker,
)
from .randset import (  # noqa: F401
    EXPERIMENT_MANIFEST,
    ConvergenceReport,
    HeavyCurve,
    InterceptResult,
    NegativeSegment,
    PositiveLine,
    Window,
    Xi1Curve,
    ZeroLine,
    default_window,
    discretize,
    hausdorff_window,
    intercept_experiment,
    ks_two_sample,
    run_convergence,
)
