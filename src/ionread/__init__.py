"""Simulation and discrimination of fluorescence readout for two-state ions.

The package models an ion whose hidden bright/dark state follows a two-state
Markov process while photons are counted in sub-bins, and benchmarks five
ways of deciding the initial state from the counts: a single count threshold,
a double threshold with an abstention band, a single-change time-resolved
likelihood, the generalized hidden-Markov likelihood, and a two-detection
composition separated by a population-inverting pulse.

Layout:

``photon_model``
    Rates, dwell statistics, per-bin count distributions and the 2x2
    observation matrices O(n) whose ordered product gives state likelihoods.
``trajectory``
    Reproducible Monte Carlo sampling of hidden trajectories and photon
    counts, plus the CSV interchange formats.
``classifiers``
    The five discrimination methods and the pulse-pair error algebra.
``estimation``
    Decay-curve fitting and lifetime extraction from measured count series.
``harness``
    Classifier specs resolved into :class:`Classifier` objects, sweeps,
    threshold optimization, efficiency scaling, method comparison,
    configuration documents and tabular output; the CLI lives in ``cli``.
"""

import types as _types

from .photon_model import (
    DEFAULT_PARAMS,
    DegenerateModelError,
    IonState,
    ObservationTable,
    RateParams,
    build_observation_table,
    count_pmf,
    mixed_pmf,
    stay_prob,
)
from .trajectory import (
    DataFormatError,
    Ensemble,
    SimConfig,
    n_bins,
    read_counts_csv,
    simulate_ensemble,
    write_change_times_csv,
    write_ensemble_csv,
)
from .classifiers import (
    Decision,
    PiPulseResult,
    PulseChannel,
    decide_from_logs,
    double_threshold_classify,
    estimate_transfer_matrices,
    general_loglik,
    generalized_time_resolved_classify,
    pi_pulse_classify,
    pi_pulse_combine,
    pi_pulse_error,
    simple_loglik,
    simple_time_resolved_classify,
    threshold_classify,
)
from .estimation import (
    DecayFit,
    FitConvergenceError,
    LaserPhysics,
    LifetimeEstimate,
    derive_lifetimes,
    fit_decay_curves,
    fit_report,
    fluorescence_rate,
    mean_count_series,
    mean_count_window,
    population_dynamics,
    steady_state_population,
)
from .harness import (
    Classifier,
    ConfigError,
    ErrorReport,
    SweepSpec,
    ThresholdOptimum,
    compare_methods,
    efficiency_sweep,
    evaluate,
    load_config,
    optimize_threshold,
    pi_pulse_sweep,
    rate_params_from_config,
    report_rows_to_csv,
    resolve_classifier,
    sweep,
    sweep_spec_from_config,
)

__version__ = "0.1.0"

# Every public name imported above, and nothing else.
__all__ = sorted(name for name, value in vars().items()
                 if not name.startswith("_") and not isinstance(value, _types.ModuleType))
