"""Hostile numbers at the library's numeric arguments.

Each numeric argument of the threshold rules, ``_deterministic_uniforms``,
the population dynamics, the fluorescence formula, ``mean_count_series``
(its counts and initial states too), ``RateParams`` and its ``scaled``,
``SimConfig`` and ``n_bins``, ``simple_loglik``'s counts, ``pi_pulse_error``,
``pi_pulse_sweep``, ``count_pmf``, ``stay_prob``, ``mean_count_window``,
``SweepSpec``'s efficiency factors and ``compare_methods`` gets NaN, both
infinities, a Python and a numpy bool, a negative value, 1.5 and numpy
scalars.  A call
must raise ValueError naming the argument (ConfigError is one) or return a
finite result; it must never raise TypeError or hand back NaN, and never
run on a bool as the number 1.
"""

import dataclasses
import math

import numpy as np
import pytest

from ionread import (
    DEFAULT_PARAMS,
    ConfigError,
    IonState,
    LaserPhysics,
    SimConfig,
    SweepSpec,
    compare_methods,
    count_pmf,
    double_threshold_classify,
    fluorescence_rate,
    mean_count_series,
    mean_count_window,
    n_bins,
    pi_pulse_error,
    pi_pulse_sweep,
    population_dynamics,
    simple_loglik,
    stay_prob,
    threshold_classify,
)
from ionread.classifiers import double_threshold_decide
from ionread.trajectory import _deterministic_uniforms

HOSTILE = [math.nan, math.inf, -math.inf, True, np.True_, -1, 1.5, np.int64(3),
           np.float32(math.nan)]
HOSTILE_IDS = ["nan", "inf", "-inf", "bool", "np.bool", "negative", "1.5", "np.int64",
               "np.float32_nan"]

PHYSICS = {"eta": 3.1e-3, "gamma": 2.0, "Omega": 1.5, "Delta": 0.3, "delta": 0.8}
COUNTS = np.array([[0, 1, 3], [2, 0, 0], [5, 4, 6]])
SPEC = SweepSpec(t_b_values=(0.1, 0.2), n_trials=64, seed=3, params=DEFAULT_PARAMS)
M_B, M_D = [[0.9, 0.02], [0.03, 0.01]], [[0.05, 0.04], [0.02, 0.93]]

# (name of the argument, the call with ``value`` in its place)
CALLS = [
    ("n_c", lambda v: threshold_classify([0, 1], n_c=v)),
    ("n_D", lambda v: double_threshold_classify([0, 1], n_D=v, n_B=4)),
    ("n_B", lambda v: double_threshold_classify([0, 1], n_D=0, n_B=v)),
    ("n_D", lambda v: double_threshold_decide(np.arange(6), v, 4)),
    ("n_B", lambda v: double_threshold_decide(np.arange(6), 0, v)),
    ("seed", lambda v: _deterministic_uniforms(v, (), 2)),
    ("n", lambda v: _deterministic_uniforms(1, (), v)),
    ("t", lambda v: population_dynamics(v, IonState.BRIGHT, 4.9, 53.0)),
    ("tau_B", lambda v: population_dynamics(1.0, IonState.BRIGHT, v, 53.0)),
    ("tau_D", lambda v: population_dynamics(1.0, IonState.BRIGHT, 4.9, v)),
    *((name, lambda v, name=name: fluorescence_rate(LaserPhysics(**{**PHYSICS, name: v})))
      for name in PHYSICS),
    ("t_s", lambda v: mean_count_series([0, 1, 0], COUNTS, v)),
    ("r", lambda v: DEFAULT_PARAMS.scaled(v)),
    *((name, lambda v, name=name: dataclasses.replace(DEFAULT_PARAMS, **{name: v}))
      for name in ("R_B", "R_D", "t_s")),     # the lifetimes may be inf
    ("t_b", lambda v: SimConfig(n_trials=4, t_b=v, seed=1, params=DEFAULT_PARAMS)),
    ("t_b", lambda v: n_bins(v, 0.1)),
    ("t_s", lambda v: n_bins(1.0, v)),
    ("photon count", lambda v: mean_count_series([0, 1], [[v, 2], [1, 0]], 0.1)),
    ("epsilon_pi", lambda v: pi_pulse_error(M_B, M_D, v)),
    ("photon count", lambda v: count_pmf(IonState.BRIGHT, v, DEFAULT_PARAMS)),
    ("t0", lambda v: mean_count_window(v, 0.5, DEFAULT_PARAMS, IonState.BRIGHT)),
    ("dt", lambda v: mean_count_window(1.0, v, DEFAULT_PARAMS, IonState.BRIGHT)),
    ("repetitions", lambda v: compare_methods(SPEC, repetitions=v)),
    ("threads", lambda v: compare_methods(SPEC, threads=v)),
    ("photon count", lambda v: count_pmf(IonState.BRIGHT, [v, 2], DEFAULT_PARAMS)),
    ("photon count", lambda v: simple_loglik([[v, 2]], DEFAULT_PARAMS)),
    ("t", lambda v: stay_prob(IonState.BRIGHT, v, dataclasses.replace(DEFAULT_PARAMS, t_s=2.0))),
    ("efficiency factor", lambda v: dataclasses.replace(SPEC, efficiency_factors=(v,))),
    ("epsilon_pi", lambda v: pi_pulse_sweep(SPEC, {"method": "threshold", "n_c": 1}, v)),
    ("initial states", lambda v: mean_count_series([v, 1], [[0, 2], [1, 0]], 0.1)),
    ("t", lambda v: population_dynamics([v, 2.0], IonState.BRIGHT, 4.9, 53.0)),
]


def _numbers(result):
    """Every number in a result, as floats."""
    if isinstance(result, (str, bool)) or result is None:
        return []
    if isinstance(result, (int, float, np.number)):     # a Decision too
        return [float(result)]
    if isinstance(result, np.ndarray):
        return result.astype(float).ravel().tolist()
    if dataclasses.is_dataclass(result):
        return _numbers([getattr(result, f.name) for f in dataclasses.fields(result)])
    if isinstance(result, dict):
        return _numbers(list(result.values()))
    return [x for item in result for x in _numbers(item)]


@pytest.mark.parametrize("value", HOSTILE, ids=HOSTILE_IDS)
@pytest.mark.parametrize("name, call", CALLS, ids=[f"{i}-{name}" for i, (name, _) in
                                                   enumerate(CALLS)])
def test_refused_by_name_or_finite(name, call, value):
    try:
        result = call(value)
    except ValueError as exc:
        assert name in str(exc)
        return
    assert not isinstance(value, (bool, np.bool_)), f"{name}={value!r} ran as a number"
    numbers = _numbers(result)
    assert numbers and all(math.isfinite(x) for x in numbers)


@pytest.mark.parametrize("value", [math.nan, math.inf, True, 1.5])
def test_threshold_rules_never_abstain_on_a_bad_cut(value):
    # A single cut never gives Inconclusive; a cut that is no integer is refused.
    with pytest.raises(ValueError, match="^n_c must be an integer, got "):
        threshold_classify([0, 1], n_c=value)


def test_a_bool_repetition_count_is_refused():
    for bad in (True, 1.5):
        with pytest.raises(ConfigError, match=f"^repetitions must be an integer, got {bad}"):
            compare_methods(SPEC, repetitions=bad)
    rows, _ = compare_methods(SPEC, repetitions=np.int64(2))
    assert {row.r for row in rows} == {1.0, 2.0}


# Each function of an ion state, with the state in its place.
STATE_CALLS = [
    lambda s: stay_prob(s, 0.05, DEFAULT_PARAMS),
    lambda s: count_pmf(s, np.arange(4), DEFAULT_PARAMS),
    lambda s: population_dynamics([0.5, 2.0], s, 4.9, 53.0),
    lambda s: mean_count_window(1.0, 0.5, DEFAULT_PARAMS, s),
]


@pytest.mark.parametrize("call", STATE_CALLS, ids=["stay_prob", "count_pmf",
                                                   "population_dynamics", "mean_count_window"])
def test_a_state_code_reads_as_its_state(call):
    # The bright code as a plain or numpy int is bright, not dark; no other code is a state.
    want = np.asarray(call(IonState.BRIGHT))
    assert not np.array_equal(want, np.asarray(call(IonState.DARK)))
    for code in (0, np.int8(0)):
        got = np.asarray(call(code))
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    with pytest.raises(ValueError, match="2 is not a valid IonState"):
        call(2)
