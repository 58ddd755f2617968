"""zenosim: survival statistics under randomly timed projective measurements.

A small library plus CLI that evolves a finite-dimensional quantum system
between projective measurements applied at random times, and provides the
matching closed-form statistics: survival probabilities per sequence,
rate functions of the log-survival, most probable vs mean survival,
frequent-measurement limits, and reproducible Monte Carlo ensembles.
"""

__version__ = "0.10.0"

from .dynamics import (
    DimensionMismatchError,
    EmptySpectrumError,
    Hamiltonian,
    NotNormalizedError,
    PureState,
    SequenceResult,
    UnderflowWarning,
    ZeroVarianceError,
    build_chain_hamiltonian,
    delta_of_mu,
    energy_variance,
    entangled_initial_state,
    evolve_sequence,
    log_survival_factor,
    log_survival_factors,
    survival_factor,
    survival_trace,
    zeno_time,
)
from .intervals import (
    DegenerateInterval,
    DiscreteIntervals,
    InfiniteMeanError,
    InfiniteSecondMomentError,
    IntervalDistribution,
    PowerLawIntervals,
    QuadratureNoConvergenceError,
)
from .ldstats import (
    DisorderGain,
    EquallySpacedResult,
    FixedTimeSolution,
    InconsistentConstraintsError,
    InvalidMeanError,
    LdProblem,
    OutOfRangeError,
    QzeCondition,
    RateCurve,
    RootBracketFailureError,
    SurvivalStats,
    contracted_rate,
    cramer_rate,
    disorder_gain,
    equally_spaced_survival,
    explicit_domain,
    fixed_time_solve_m,
    joint_rate_function,
    qze_condition,
    rate_curve,
    rate_function_I,
    rate_function_J,
    survival_stats_for,
)
from .linalg import (
    NotHermitianError,
    SpectralDecomposition,
    hermitian_eig,
    propagator,
)
from .montecarlo import (
    EmpiricalRate,
    EnsembleConfig,
    EnsembleSummary,
    InsufficientSamplesError,
    NonFiniteRecordsError,
    SurvivalEnsemble,
    empirical_rate,
    ensemble_summary,
    run_ensemble,
    run_ensembles,
)
from .rng import substream
