"""Hostile numbers and arrays at the library's numeric arguments.

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

Arrays follow one rule, ``photon_model._check_array``: integer, unsigned
and float dtypes are numbers, an object array is read item by item as a
list is, and every other dtype (bool, complex, str, bytes, datetime,
timedelta, void) is refused.  A hypothesis strategy draws such arrays (a
dtype, a shape, a strided view and one hostile cell: NaN, an infinity, -1,
1.5 or True) for every array argument that is read as numbers: counts,
initial states, log-likelihoods, decision codes, transfer matrices, decay
series, times and an observation table's arrays.  A call must raise
ValueError naming the argument, or return a finite result bit-equal to
the one on the array's native int64, uint64 or float64 copy.
"""

import dataclasses
import functools
import math
import warnings

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ionread import (
    DEFAULT_PARAMS,
    ConfigError,
    DecayFit,
    Ensemble,
    IonState,
    LaserPhysics,
    ObservationTable,
    SimConfig,
    SweepSpec,
    build_observation_table,
    compare_methods,
    count_pmf,
    decide_from_logs,
    double_threshold_classify,
    estimate_transfer_matrices,
    evaluate,
    fit_decay_curves,
    fluorescence_rate,
    general_loglik,
    generalized_time_resolved_classify,
    mean_count_series,
    mean_count_window,
    n_bins,
    pi_pulse_combine,
    pi_pulse_error,
    pi_pulse_sweep,
    population_dynamics,
    simple_loglik,
    simple_time_resolved_classify,
    simulate_ensemble,
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


# ---------------------------------------------------------------------------
# Generated hostile arrays

#: A fixed profile: tier-1 draws the same arrays on every run.
HOSTILE_ARRAYS = settings(derandomize=True, database=None, deadline=None)

#: Numbers, each drawn for every argument, then the dtypes that are no numbers,
#: one at a time: every argument meets each of them.
NUMERIC_DTYPES = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32,
                  np.uint64, np.float16, np.float32, np.float64, ">i4", ">f8"]
ARRAY_DTYPES = [NUMERIC_DTYPES, *([dtype] for dtype in (bool, object, complex, "U8", "S8",
                                                         "datetime64[s]", "V8"))]
CELLS = [None, math.nan, math.inf, -math.inf, -1, 1.5, True]


def _grid(shapes, values):
    """float64 arrays of the drawn shapes with elements drawn from ``values``."""
    return shapes.flatmap(lambda shape: hnp.arrays(np.float64, shape,
                                                   elements=st.sampled_from(values)))


def _shapes(min_dims, max_dims, max_side=4):
    return hnp.array_shapes(min_dims=min_dims, max_dims=max_dims, min_side=1, max_side=max_side)


@st.composite
def hostile_arrays(draw, base, dtypes, step=1):
    """An array of a dtype drawn from ``dtypes`` holding the values of a
    drawn ``base`` array (float64), one cell of it, a multiple of ``step``
    in flat order, replaced by a drawn hostile value (or none), as a
    strided view or not.  An object array keeps the hostile value as
    the Python object it is, True included; every other dtype holds the
    values cast to it, whatever the cast makes of them."""
    values = draw(base).astype(object)
    cell = draw(st.sampled_from(CELLS))
    if cell is not None:
        values.flat[step * draw(st.integers(0, (values.size - 1) // step))] = cell
    dtype = draw(st.sampled_from(dtypes))
    if dtype is not object:
        with np.errstate(invalid="ignore"):     # NaN and infinities cast to integers
            numbers = values.astype(np.float64)
            values = (numbers.view(dtype) if dtype == "V8" else
                      numbers.astype(np.int64).astype(dtype) if dtype == "datetime64[s]" else
                      numbers.astype(dtype))
    return np.stack([values, values], axis=-1)[..., 0] if draw(st.booleans()) else values


def _native(values):
    """The int64, uint64 or float64 copy of a numeric array; None for any
    other dtype and for an object array holding a bool."""
    if values.dtype == object:
        if any(isinstance(x, (bool, np.bool_)) for x in values.ravel().tolist()):
            return None
        values = np.array(values.tolist())
    native = {"i": np.int64, "u": np.uint64, "f": np.float64}.get(values.dtype.kind)
    return None if native is None else values.astype(native)


def _parts(result):
    """The arrays a result is compared by, and whether each must be finite."""
    if isinstance(result, Ensemble):     # change times are NaN-padded, or None
        return [(result.counts, True), (result.initial, True),
                (np.asarray(result.change_times, dtype=float), False)]
    if isinstance(result, ObservationTable):
        return [(result.entries, True), (result.truncation_mass, True)]
    return [(np.array(_numbers(result), dtype=float), True)]


_table = functools.cache(lambda: build_observation_table(DEFAULT_PARAMS))


def _ensemble(n):
    """n bright trials of one bin without a state change."""
    return Ensemble(IonState.BRIGHT, np.zeros((n, 1), np.int8), np.full((n, 1), np.nan), 0.1, 0.1)


COUNTS_2D = _grid(_shapes(2, 2), [0.0, 1.0, 2.0, 5.0])
COUNTS_1D = _grid(_shapes(1, 1, 6), [0.0, 1.0, 2.0, 5.0])
COUNTS_ANY = _grid(_shapes(0, 2), [0.0, 1.0, 2.0, 5.0])
STATES = _grid(_shapes(1, 1), [0.0, 1.0])
LOGS = _grid(_shapes(0, 2), [-30.0, -2.5, 0.0])
TIMES = _grid(_shapes(0, 2), [0.0, 0.5, 3.0, 40.0])
SERIES = st.integers(3, 5).map(lambda k: np.column_stack([np.arange(1.0, k + 1),
                                                          [9.0, 6.0, 4.0, 3.0, 3.0][:k]]))
DARK_SERIES = np.column_stack([np.arange(1.0, 6.0), [1.0, 2.0, 2.0, 3.0, 3.0]])
# Entries of 0 and 1 fit every integer dtype, and ions stay retained
# whichever one entry a hostile cell turns to 0 or 1.
BINARY_M_B, BINARY_M_D = np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([[0.0, 1.0], [1.0, 1.0]])

# (name in the message, base values, the call with the array in their place)
ARRAY_CALLS = [
    ("photon count", COUNTS_2D, lambda a: simple_loglik(a, DEFAULT_PARAMS)),
    ("photon count", COUNTS_2D, lambda a: general_loglik(a, _table())),
    ("photon count", COUNTS_1D, lambda a: threshold_classify(a, 2)),
    ("photon count", COUNTS_1D, lambda a: double_threshold_classify(a, 1, 3)),
    ("photon count", COUNTS_1D,
     lambda a: simple_time_resolved_classify(a, DEFAULT_PARAMS, decaying=IonState.BRIGHT)),
    ("photon count", COUNTS_1D, lambda a: generalized_time_resolved_classify(a, _table())),
    ("photon count", COUNTS_ANY, lambda a: count_pmf(IonState.DARK, a, DEFAULT_PARAMS)),
    ("photon count", COUNTS_2D, lambda a: mean_count_series(np.arange(len(a)) % 2, a, 0.1)),
    ("photon count", COUNTS_2D, lambda a: evaluate(
        Ensemble(IonState.BRIGHT, a, None, 0.1 * a.shape[1], 0.1, DEFAULT_PARAMS),
        Ensemble(IonState.DARK, np.zeros((1, a.shape[1]), np.int8), None, 0.1 * a.shape[1], 0.1,
                 DEFAULT_PARAMS), {"method": "simple"})),
    ("initial states", STATES,
     lambda a: mean_count_series(a, np.ones((len(a), 3), np.int8), 0.1)),
    ("initial states", STATES, lambda a: simulate_ensemble(
        SimConfig(n_trials=len(a), t_b=0.3, seed=1, params=DEFAULT_PARAMS), a)),
    ("initial states", STATES,
     lambda a: Ensemble(a, np.ones((len(a), 3), np.int8), None, 0.3, 0.1)),
    ("log_pb", LOGS, lambda a: decide_from_logs(a, np.full(np.shape(a), -2.5))),
    ("log_pd", LOGS, lambda a: decide_from_logs(np.full(np.shape(a), -2.5), a)),
    ("in first", STATES, lambda a: pi_pulse_combine(a, np.zeros(len(a), np.int8))),
    ("in second", STATES, lambda a: pi_pulse_combine(np.ones(len(a), np.int8), a)),
    ("decisions_bright", STATES, lambda a: estimate_transfer_matrices(
        _ensemble(len(a)), _ensemble(2), a, [0, 1])),
    ("decisions_dark", STATES, lambda a: estimate_transfer_matrices(
        _ensemble(2), _ensemble(len(a)), [0, 1], a)),
    ("M_B", st.just(BINARY_M_B), lambda a: pi_pulse_error(a, BINARY_M_D, 0.1)),
    ("M_D", st.just(BINARY_M_D), lambda a: pi_pulse_error(BINARY_M_B, a, 0.1)),
    ("mean_bright", SERIES, lambda a: fit_decay_curves(a, DARK_SERIES)),
    ("mean_dark", SERIES, lambda a: fit_decay_curves(DARK_SERIES, a)),
    ("t", TIMES, lambda a: population_dynamics(a, IonState.DARK, 4.9, 53.0)),
    ("t", TIMES, lambda a: DecayFit(2.0, 7.0, 1.5, 3.0, 0.0, 1).bright_curve(a)),
    ("t", TIMES, lambda a: DecayFit(2.0, 7.0, 1.5, 3.0, 0.0, 1).dark_curve(a)),
    ("entries", st.builds(lambda: _table().entries),
     lambda a: ObservationTable(DEFAULT_PARAMS, _table().n_max, a, _table().truncation_mass)),
    ("truncation_mass", st.builds(lambda: _table().truncation_mass),
     lambda a: ObservationTable(DEFAULT_PARAMS, _table().n_max, _table().entries, a)),
]


@pytest.mark.parametrize("dtypes", ARRAY_DTYPES,
                         ids=["numeric", *(str(np.dtype(d)) for [d] in ARRAY_DTYPES[1:])])
@pytest.mark.parametrize("name, base, call", ARRAY_CALLS,
                         ids=[f"{i}-{name}" for i, (name, *_) in enumerate(ARRAY_CALLS)])
def test_hostile_arrays_refused_by_name_or_scored_as_native(name, base, call, dtypes):
    # A dtype that is no number is refused whatever the values, so a few draws
    # do; a fit takes 50 ms.  A hostile mean tests the fitter, not the dtype
    # rule, so a series' hostile cell is one of its times.
    examples = 3 if dtypes is not NUMERIC_DTYPES else 6 if base is SERIES else 20

    @settings(HOSTILE_ARRAYS, max_examples=examples)
    @given(values=hostile_arrays(base, dtypes, 2 if base is SERIES else 1))
    def check(values):
        with warnings.catch_warnings():     # huge counts exceed the table: a warning, no fault
            warnings.filterwarnings("ignore", ".*counts exceed the table", RuntimeWarning)
            try:
                got = call(values)
            except ValueError as exc:
                assert name in str(exc)
                return
            native = _native(values)
            assert native is not None, f"a {values.dtype} array ran as numbers"
            want = call(native)
        for (g, finite), (w, _) in zip(_parts(got), _parts(want), strict=True):
            assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()
            assert not finite or np.isfinite(g).all()

    check()
