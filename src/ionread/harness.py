"""Experiment orchestration: error evaluation, threshold optimization,
measurement-time and collection-efficiency sweeps, pulse-pair experiments
and the method comparison.

Every reported error rate is the average of the per-preparation error rates
over conclusive decisions, carries a binomial standard error, and is a pure
function of (configuration, seed).  Sweeps over the measurement time t_b
classify every leading prefix of one simulated ensemble instead of
re-simulating per point; the restriction of the hidden process to a shorter
window has exactly the distribution of a shorter simulation, so prefix rows
are statistically identical to per-point runs while sharing trajectories
across t_b values.

Each call (a sweep, ``evaluate``, ``optimize_threshold``, ``decisions_for``,
a ``classify``) prepares each state's counts once for all its classifiers:
they are validated, clamped (warning once), grouped and histogrammed at most
once.  A sweep tallies each column's errors without building decision or
per-prefix arrays.  Count rules read the optimum and the tallies of every
column from one histogram of prefix totals per state, built bin by bin.
Likelihood rules score each distinct count record once: equal rows get
equal log-likelihoods, so the kernel runs on one row per record (grouped
by its bytes, zero-padded to unsigned integer words and sorted with
``np.lexsort``).  A sweep runs the kernel's filter once, to its last
column, and tallies one Bright mask on those rows per column, weighted by
how many trials hold each record.  The general method's mask compares the
exact pair; the simple method's is decided from a cheap pass outside a
proven relative band and from the exact pair inside it (see
:mod:`classifiers`), so the counts are those of the exact pairs.  ``score``
decides on the exact pairs of those rows and gathers codes and logs back to
every trial with one index.  Grouping is skipped where it cannot pay,
below 1024 rows or when over half of the first 1024 rows are distinct, as
in bright windows of many bins; every row is then its own record, counted
without weights, and the kernel gets the state's own validated (or
clamped) array, not a copy.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import warnings
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from . import classifiers as cl
from .classifiers import Decision
from .photon_model import (IonState, RateParams, _check_int, _check_number, _check_seed,
                           _check_state, build_observation_table)
from .trajectory import (
    Ensemble,
    SimConfig,
    _deterministic_uniforms,
    _labels,
    _narrowest,
    _row_blocks,
    _write_csv,
    n_bins,
    simulate_ensemble,
)

CONFIG_FORMAT = "ionread_config"
CONFIG_VERSION = 1

# Stream namespaces: keep every orchestrated experiment on its own child
# streams so adding one never perturbs another.
_CTX_SWEEP = 4
_CTX_PI = 5
_CTX_COMPARE = 6
_PI_WINDOW_ONE, _PI_WINDOW_TWO, _PI_PULSE = 1, 2, 3

_METHOD_KEYS = {"threshold": ("method", "n_c"), "double_threshold": ("method", "n_D", "n_B"),
                "simple": ("method", "decaying"), "general": ("method",)}
# The paper's headline pair: optimized count threshold against the
# generalized likelihood.
_HEADLINE_CLASSIFIERS = (
    {"method": "threshold", "n_c": "optimize"},
    {"method": "general"},
)


class ConfigError(ValueError):
    """Invalid configuration document or classifier specification."""


@functools.lru_cache(maxsize=64)
def observation_table_for(params: RateParams):
    return build_observation_table(params)


def _rtag(r: float) -> int:
    """Stable integer stream tag for an efficiency factor."""
    return int(round(r * 1e9))


# ---------------------------------------------------------------------------
# Classifiers


def _require(condition, message):
    if not condition:
        raise ConfigError(message)


def config_number(value, name: str):
    """``value`` if an int or a float: JSON ``"7"`` and ``true`` are no numbers."""
    _require(type(value) in (int, float),
             f"{name} must be a number, got {json.dumps(value, default=repr)}")
    return value


def config_int(value, name: str) -> int:
    """``int(value)``, refusing a boolean and a non-integral float, not truncating it."""
    _require(not isinstance(config_number(value, name), float) or value.is_integer(),
             f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class Classifier:
    """A classifier specification, validated and resolved once.

    Built by :func:`resolve_classifier`, the one place that maps a method
    name to its rule.  ``score`` gives (decision codes, (log_p_B, log_p_D)
    or None for count rules) per row; ``column_tallies`` gives one
    (classifier, tally_bright, tally_dark) triple per prefix column, the
    classifier carrying any threshold optimized on that column and each
    tally the (n, retained, wrong) trial counts of one preparation.  These
    methods take count arrays or :class:`_PreparedCounts`, so one call
    prepares each state once and all its classifiers share it.  Reports
    carry ``label`` as the classifier name, ``detail`` for its parameters
    and ``n_c`` as the count cutoff (None for likelihood rules).
    """

    label: ClassVar[str]
    detail: ClassVar[str] = ""

    def fixed(self) -> "Classifier":
        """This classifier, refused if a threshold is left to optimize."""
        return self

    def column_reports(self, counts_bright, counts_dark, t_bs, cols, params, r=1.0):
        """One report per prefix column, at the matching t_b."""
        tallies = self.column_tallies(counts_bright, counts_dark, cols, params)
        return [report_from_tallies(bright, dark, classifier=rule.label, detail=rule.detail,
                                    t_b=t_b, r=r, n_c=rule.n_c)
                for t_b, (rule, bright, dark) in zip(t_bs, tallies, strict=True)]


@dataclass(frozen=True)
class _CountRule(Classifier):
    """A rule on the total count: Dark at or below ``n_D``, Bright above
    ``n_c`` (the spec's n_B for a double threshold), else Inconclusive.
    ``n_c`` "optimize" leaves the cut to be chosen per window from the
    error landscape."""

    n_c: int | str

    def fixed(self):
        _require(self.n_c != "optimize",
                 f"{self.label} with {self.detail} needs optimize_threshold "
                 "or a sweep, not a direct evaluation")
        return self

    def score(self, counts, params=None):
        totals = cl._count_totals(_prepare(counts).counts)
        return cl.double_threshold_decide(totals, self.fixed().n_D, self.n_c), None

    def optimum(self, cdf_b, cdf_d):
        """(classifier at the error-minimizing cutoff, grid, mean error at
        each grid value) from the cumulative total histograms of one window;
        ties resolve to the smaller cutoff."""
        values, eps = self._landscape(cdf_b, cdf_d)
        return replace(self, n_c=int(values[np.argmin(eps)])), values, eps

    def column_tallies(self, counts_bright, counts_dark, cols, params=None):
        # A grid wider than a column's largest total only repeats the error
        # at that total, so histograms as wide as the whole window leave
        # every optimum as it is.
        cdfs = [_prepare(counts).cdfs[cols] for counts in (counts_bright, counts_dark)]
        out = []
        for cdf_b, cdf_d in zip(*cdfs):
            rule = self.optimum(cdf_b, cdf_d)[0] if self.n_c == "optimize" else self
            out.append((rule, *rule._tallies(cdf_b, cdf_d)))
        return out

    def _tallies(self, cdf_b, cdf_d):
        """(n, retained, wrong) per state from its cumulative histogram."""
        out = []
        for cdf, wrong_is_bright in ((cdf_b, False), (cdf_d, True)):
            n, dark, not_bright = int(cdf[-1]), int(_at(cdf, self.n_D)), int(_at(cdf, self.n_c))
            out.append((n, n - (not_bright - dark), n - not_bright if wrong_is_bright else dark))
        return out


@dataclass(frozen=True)
class ThresholdClassifier(_CountRule):
    label = "threshold"

    @property
    def detail(self):
        return f"n_c={self.n_c}"

    @property
    def n_D(self):          # a single cut: nothing is Inconclusive
        return self.n_c

    def _landscape(self, cdf_b, cdf_d):
        """Mean error of the single-threshold rule at every total up to the
        larger state's largest."""
        grid = np.arange(max(cdf_b.size, cdf_d.size) - 1)
        eps_b = _at(cdf_b, grid) / cdf_b[-1]          # bright decided dark
        eps_d = 1.0 - _at(cdf_d, grid) / cdf_d[-1]    # dark decided bright
        return grid, 0.5 * (eps_b + eps_d)


@dataclass(frozen=True)
class DoubleThresholdClassifier(_CountRule):
    n_D: int
    label = "double_threshold"

    @property
    def detail(self):
        return f"n_D={self.n_D};n_B={self.n_c}"

    def _landscape(self, cdf_b, cdf_d):
        """Mean relative error of the two-threshold rule at every n_B from n_D
        up to the larger state's largest total (n_D alone if that is less)."""
        n_d = self.n_D
        grid = np.arange(n_d, max(max(cdf_b.size, cdf_d.size) - 2, n_d) + 1)
        wrong_b = _at(cdf_b, n_d)
        kept_b = cdf_b[-1] - (_at(cdf_b, grid) - wrong_b)
        wrong_d = cdf_d[-1] - _at(cdf_d, grid)
        kept_d = cdf_d[-1] - (_at(cdf_d, grid) - _at(cdf_d, n_d))
        with np.errstate(invalid="ignore", divide="ignore"):
            eps = 0.5 * (wrong_b / kept_b + wrong_d / kept_d)
        return grid, np.where((kept_b > 0) & (kept_d > 0), eps, np.inf)


_GROUP_SAMPLE = 1024


def _distinct_records(counts):
    """(index of one row per distinct record, index gathering them back to
    every row), both the same ``np.arange(n)`` where the module docstring's
    rule skips grouping.  Keys are row bytes at the :func:`_narrowest` width
    (uint64: its own), zero-padded to one unsigned integer of 1, 2, 4 or 8
    bytes, or to uint64 words."""
    n = counts.shape[0]
    if n >= _GROUP_SAMPLE:
        rows = np.ascontiguousarray(counts if counts.dtype == np.uint64 else _narrowest(counts))
        width = rows[0].nbytes
        size = min(8, 1 << (width - 1).bit_length())
        keys = np.zeros((n, -(-width // size)), f"u{size}")
        keys.view(np.uint8)[:, :width] = rows.view(np.uint8)
        if _groups(keys[:_GROUP_SAMPLE])[0].size <= _GROUP_SAMPLE // 2:
            return _groups(keys)
    every = np.arange(n)
    return every, every


def _groups(keys):
    """(first row of each group of equal rows, group of every row), by ``np.lexsort``."""
    order = np.lexsort(keys.T)
    ranked, starts = keys[order], np.ones(len(keys), bool)
    np.any(ranked[1:] != ranked[:-1], axis=1, out=starts[1:])
    inverse = np.empty(len(keys), np.intp)
    inverse[order] = np.cumsum(starts) - 1
    return order[starts], inverse


class _PreparedCounts:
    """One state's counts, prepared for every classifier of one call.  Each
    view is built on first use: ``counts`` validated at their own integer
    width, their ``records`` (:func:`_distinct_records`, two index arrays),
    the copy clamped to a table and the cumulative histograms of its prefix
    totals, summed in int64."""

    def __init__(self, counts):
        self._raw, self._clamped = counts, {}

    @functools.cached_property
    def counts(self):
        return cl._as_count_matrix(self._raw)

    @functools.cached_property
    def records(self):
        return _distinct_records(self.counts)

    def distinct(self, counts):
        """``counts`` (``self.counts`` or a clamped copy) at one row per
        record; the array itself where every row is one."""
        first, inverse = self.records
        return counts if first is inverse else counts[first]

    def clamped(self, table):
        """Counts clamped to the table's n_max, once per table, which tallies
        and warns about each clamped count once.  Equal rows stay equal when
        clamped, so ``records`` group the clamped rows too."""
        if table not in self._clamped:
            self._clamped[table] = table.clamp_counts(self.counts)
        return self._clamped[table]

    @functools.cached_property
    def cdfs(self):
        """Cumulative histograms of the prefix totals, (n_bins, width): row k
        over the totals 0..width-1 of bins 0..k; the width, the largest total
        + 2, leaves each row's last entry at n.  Built bin by bin from one
        running int64 total per trial."""
        width = int(cl._count_totals(self.counts).max(initial=0)) + 2
        hist = np.empty((self.counts.shape[1], width), np.int64)
        totals = np.zeros(self.counts.shape[0], np.int64)
        for k in range(len(hist)):
            totals += self.counts[:, k].astype(np.int64)
            hist[k] = np.bincount(totals, minlength=width)
        return np.cumsum(hist, axis=1, out=hist)


def _prepare(counts) -> _PreparedCounts:
    """Prepared counts; prepared counts pass through unchanged."""
    return counts if isinstance(counts, _PreparedCounts) else _PreparedCounts(counts)


def _at(cdf, index):
    """A cumulative histogram at ``index``, constant past its last entry."""
    return cdf[np.minimum(index, cdf.size - 1)]


@dataclass(frozen=True)
class _LikelihoodRule(Classifier):
    """Bright iff the bright initial-state likelihood is larger.  Each rule
    has ``_loglik``, the kernel's final pair on the distinct rows, and
    ``_masks``, the Bright mask on those rows at each bin asked for."""

    n_c = None

    def score(self, counts, params):
        _require(params is not None, f"{self.label} requires rate parameters")
        state = _prepare(counts)
        logs, inverse = self._loglik(state, params), state.records[1]
        return cl.decide_from_logs(*logs)[inverse], tuple(log[inverse] for log in logs)

    def column_tallies(self, counts_bright, counts_dark, cols, params):
        # One Bright mask on the distinct rows per column, sorted and without
        # repeats; weighted by the trials holding each record, or counted
        # where every row is one, it tallies the column.
        _require(params is not None, f"{self.label} requires rate parameters")
        bins = sorted(set(cols))
        tallies = []
        for state, wrong_is_bright in ((_prepare(counts_bright), False),
                                       (_prepare(counts_dark), True)):
            first, inverse = state.records
            weights = None if first.size == inverse.size else np.bincount(inverse)
            brighter = {k: int(np.count_nonzero(mask) if weights is None else mask @ weights)
                        for k, mask in zip(bins, self._masks(state, params, bins))}
            n = inverse.size
            tallies.append([(n, n, brighter[k] if wrong_is_bright else n - brighter[k])
                            for k in cols])
        return [(self, bright, dark) for bright, dark in zip(*tallies)]


@dataclass(frozen=True)
class SimpleClassifier(_LikelihoodRule):
    """The single-change formula, its change weighted by the decaying state's
    lifetime in the rate parameters.  A longer window clamps the no-change
    prefactor to 0, and :func:`classifiers.simple_loglik` warns."""

    decaying: IonState = IonState.DARK
    label = "simple_time_resolved"

    def __post_init__(self):
        object.__setattr__(self, "decaying", _check_state(self.decaying, "decaying"))

    @property
    def detail(self):
        return f"decaying={self.decaying.name.lower()};tau=tau_{self.decaying.label}"

    def _loglik(self, state, params):
        return cl.simple_loglik(state.distinct(state.counts), params, decaying=self.decaying)

    def _masks(self, state, params, bins):
        """A cheap pass and a band (:func:`classifiers._single_change_brighter`)."""
        return cl._single_change_brighter(state.distinct(state.counts), params, self.decaying, bins)


@dataclass(frozen=True)
class GeneralClassifier(_LikelihoodRule):
    """The generalized hidden-Markov likelihood.  Counts above the table's
    n_max are scored as n_max, and the table warns once per state."""

    label = "generalized_time_resolved"

    def _loglik(self, state, params):
        table = observation_table_for(params)
        return cl.general_loglik(state.distinct(state.clamped(table)), table)

    def _masks(self, state, params, bins):
        """The exact pair of :func:`classifiers._forward_logs`, compared in place."""
        table = observation_table_for(params)
        pairs = cl._forward_logs(state.distinct(state.clamped(table)), table, bins)
        return (np.greater(log_b, log_d) for log_b, log_d in pairs)


def resolve_classifier(spec) -> Classifier:
    """Validate a classifier spec dict and resolve it into its classifier.

    Omitted keys take their defaults (``n_c`` "optimize", ``decaying``
    "dark"); a key the method does not take is refused.  A
    :class:`Classifier` passes through unchanged.
    """
    if isinstance(spec, Classifier):
        return spec
    _require(isinstance(spec, dict), "classifier spec must be a mapping")
    method = spec.get("method")
    _require(isinstance(method, str) and method in _METHOD_KEYS,
             f"unknown method {method!r}; expected one of {tuple(_METHOD_KEYS)}")
    _known_keys(spec, _METHOD_KEYS[method], f"the {method} spec")
    if method == "threshold":
        n_c = spec.get("n_c", "optimize")
        n_c = n_c if n_c == "optimize" else config_int(n_c, "n_c")
        _require(n_c == "optimize" or n_c >= 0, "n_c must be a non-negative integer or 'optimize'")
        return ThresholdClassifier(n_c)
    if method == "double_threshold":
        n_d, n_b = config_int(spec.get("n_D"), "n_D"), spec.get("n_B")
        n_b = n_b if n_b == "optimize" else config_int(n_b, "n_B")
        _require(n_d >= 0, "n_D must be a non-negative integer")
        _require(n_b == "optimize" or n_b >= n_d, "n_B must be an integer >= n_D or 'optimize'")
        return DoubleThresholdClassifier(n_b, n_d)
    if method == "simple":
        decaying = spec.get("decaying", "dark")
        _require(decaying in ("dark", "bright"), "decaying must be 'dark' or 'bright'")
        return SimpleClassifier(IonState.BRIGHT if decaying == "bright" else IonState.DARK)
    return GeneralClassifier()


def decisions_for(counts: np.ndarray, spec, params: RateParams | None):
    """The decision codes of :meth:`Classifier.score` under one classifier.

    ``spec`` is a spec dict or a resolved :class:`Classifier`.  Likelihood
    methods need the rate parameters; threshold methods do not.
    """
    return resolve_classifier(spec).fixed().score(counts, params)[0]


# ---------------------------------------------------------------------------
# Error reports


@dataclass(frozen=True)
class ErrorReport:
    """One evaluated operating point.

    Error rates are fractions of conclusive decisions per preparation;
    ``epsilon`` averages the two preparations and ``stderr`` is its binomial
    standard error.  ``N_R`` is the conclusive fraction over all trials
    (1.0 for methods that never abstain).  ``defined`` is False when either
    preparation retained no trials, in which case the epsilon fields are NaN.
    Pulse-pair rows also carry the analytic transfer-matrix cross-check.
    """

    classifier: str
    detail: str
    t_b: float
    r: float
    n_bright: int
    n_dark: int
    retained_bright: int
    retained_dark: int
    wrong_bright: int
    wrong_dark: int
    epsilon_bright: float
    epsilon_dark: float
    epsilon: float
    stderr: float
    N_R: float
    defined: bool
    n_c: int | None = None
    epsilon_analytic: float | None = None
    N_R_analytic: float | None = None

    def to_json_dict(self) -> dict:
        """The fields in declaration order, ``t_b`` as ``t_b_ms``; ``n_c`` and
        the analytic pair only when set."""
        out = {"t_b_ms" if name == "t_b" else name: value
               for name, value in vars(self).items()}
        if self.n_c is None:
            del out["n_c"]
        if self.epsilon_analytic is None:
            del out["epsilon_analytic"], out["N_R_analytic"]
        return out


def report_from_decisions(decisions_bright, decisions_dark, *, classifier, detail, t_b,
                          n_c=None, epsilon_analytic=None, N_R_analytic=None) -> ErrorReport:
    """Assemble an ErrorReport (r = 1) from per-trial decision codes."""
    tallies = [(codes.size, int(np.count_nonzero(codes != Decision.INCONCLUSIVE)),
                int(np.count_nonzero(codes == wrong_code)))
               for codes, wrong_code in ((np.asarray(decisions_bright), Decision.DARK),
                                         (np.asarray(decisions_dark), Decision.BRIGHT))]
    return report_from_tallies(
        *tallies, classifier=classifier, detail=detail, t_b=t_b, n_c=n_c,
        epsilon_analytic=epsilon_analytic, N_R_analytic=N_R_analytic)


def report_from_tallies(bright, dark, *, classifier, detail, t_b, r=1.0, n_c=None,
                        epsilon_analytic=None, N_R_analytic=None) -> ErrorReport:
    """Assemble an ErrorReport from the (n, retained, wrong) trial counts of
    each preparation."""
    (n_b, ret_b, wrong_b), (n_d, ret_d, wrong_d) = bright, dark
    eps_b, eps_d = (wrong / ret if ret else float("nan")
                    for ret, wrong in ((ret_b, wrong_b), (ret_d, wrong_d)))
    defined = ret_b > 0 and ret_d > 0
    if defined:
        epsilon = 0.5 * (eps_b + eps_d)
        stderr = 0.5 * math.sqrt(eps_b * (1 - eps_b) / ret_b
                                 + eps_d * (1 - eps_d) / ret_d)
    else:
        epsilon = stderr = float("nan")
    return ErrorReport(
        classifier=classifier, detail=detail, t_b=t_b, r=r,
        n_bright=n_b, n_dark=n_d,
        retained_bright=ret_b, retained_dark=ret_d,
        wrong_bright=wrong_b, wrong_dark=wrong_d,
        epsilon_bright=eps_b, epsilon_dark=eps_d,
        epsilon=epsilon, stderr=stderr,
        N_R=(ret_b + ret_d) / (n_b + n_d),
        defined=defined, n_c=n_c,
        epsilon_analytic=epsilon_analytic, N_R_analytic=N_R_analytic,
    )


def evaluate(ensemble_bright: Ensemble, ensemble_dark: Ensemble, classifier) -> ErrorReport:
    """Evaluate one classifier (spec dict or :class:`Classifier`) on a bright
    and a dark ensemble, with their rate parameters: the last prefix column."""
    t_bs, cols, params, *states = _window(ensemble_bright, ensemble_dark)
    (report,) = resolve_classifier(classifier).fixed().column_reports(*states, t_bs, cols, params)
    return report


def _window(ensemble_bright, ensemble_dark, params=None, t_bs=None):
    """Sorted ``t_bs`` (default: the window's t_b), their last columns, the one
    model that scores both ensembles (their shared params, else the caller's
    ``params``, which set t_s and must match theirs) and their prepared counts."""
    t_b, t_s, own = ensemble_bright.t_b, ensemble_bright.t_s, ensemble_bright.params
    if (t_b, t_s, own) != (ensemble_dark.t_b, ensemble_dark.t_s, ensemble_dark.params):
        raise ValueError("ensembles must share (t_b, t_s, params)")
    t_bs, bin_t_s = t_bs or [t_b], t_s if params is None else params.t_s
    cols = [n_bins(t, bin_t_s) - 1 for t in t_bs]
    if bin_t_s != t_s or cols[-1] >= ensemble_bright.n_bins:
        raise ValueError(f"t_b up to {t_bs[-1]} ms at t_s = {bin_t_s} ms does not fit ensembles "
                         f"of t_b = {t_b} ms at t_s = {t_s} ms")
    if None not in (own, params) and own != params:
        raise ValueError(f"ensembles drawn with {own} cannot be scored with {params}")
    return t_bs, cols, own or params, *(_prepare(e.counts) for e in (ensemble_bright, ensemble_dark))


# ---------------------------------------------------------------------------
# Threshold optimization


@dataclass(frozen=True)
class ThresholdOptimum:
    """Grid-search result: the minimizing threshold, its report and the full
    (threshold value, epsilon) landscape."""

    best: int
    report: ErrorReport
    landscape: tuple


def optimize_threshold(ensemble_bright: Ensemble, ensemble_dark: Ensemble,
                       classifier={"method": "threshold"}) -> ThresholdOptimum:
    """Exhaustive search for the error-minimizing threshold.

    ``classifier`` (a spec dict or resolved) is a threshold, optimizing n_c,
    or a double threshold, optimizing n_B at its n_D, with that cutoff
    "optimize"; anything else raises :class:`ConfigError`.  The search runs
    over every total either ensemble reaches, from n_D up; ties resolve low.
    """
    rule = resolve_classifier(classifier)
    _require(isinstance(rule, _CountRule) and rule.n_c == "optimize", "optimize_threshold needs "
             f"a count rule whose cutoff is 'optimize', got {rule.label}({rule.detail})")
    t_bs, cols, _, *states = _window(ensemble_bright, ensemble_dark)
    best, values, eps = rule.optimum(*(state.cdfs[-1] for state in states))
    (report,) = best.column_reports(*states, t_bs, cols, None)
    return ThresholdOptimum(best=best.n_c, report=report,
                            landscape=tuple(zip(values.tolist(), eps.tolist())))


# ---------------------------------------------------------------------------
# Sweeps


@dataclass(frozen=True)
class SweepSpec:
    """A sweep over measurement times (and optionally efficiency factors).

    ``classifiers`` holds classifier spec dicts (or resolved
    :class:`Classifier` objects); thresholds may say "optimize".  Photon
    rates scale linearly with the efficiency factor r; lifetimes do not
    depend on the collection efficiency.
    """

    t_b_values: tuple
    n_trials: int
    seed: int
    params: RateParams
    classifiers: tuple = _HEADLINE_CLASSIFIERS
    efficiency_factors: tuple = (1.0,)

    def __post_init__(self):
        _require(len(self.t_b_values) > 0, "t_b_values must be non-empty")
        for t_b in self.t_b_values:
            n_bins(t_b, self.params.t_s)
        _check_int(self.n_trials, "n_trials", 1, ConfigError)
        _check_seed(self.seed, ConfigError)
        _require(len(self.classifiers) > 0, "classifiers must be non-empty")
        for spec in self.classifiers:
            resolve_classifier(spec)
        for r in self.efficiency_factors:
            _check_number(r, "efficiency factors", lambda v: 0 < v < math.inf, "finite and > 0",
                          error=ConfigError)
        _require(len({_rtag(r) for r in self.efficiency_factors}) == len(self.efficiency_factors),
                 "efficiency factors must differ by at least 1e-9: each draws its own ensembles")
        object.__setattr__(self, "t_b_values", tuple(sorted(self.t_b_values)))
        object.__setattr__(self, "classifiers", tuple(self.classifiers))
        object.__setattr__(self, "efficiency_factors", tuple(self.efficiency_factors))

    @property
    def t_s(self) -> float:
        return self.params.t_s


def sweep(spec: SweepSpec, *, threads: int = 1) -> list:
    """Evaluate every configured classifier at every (t_b, r) grid point."""
    rows = []
    for r in spec.efficiency_factors:
        rows.extend(_sweep_on_streams(spec, r, threads, context=(_CTX_SWEEP, _rtag(r))))
    return rows


@dataclass(frozen=True)
class EfficiencyPoint:
    """Best-over-t_b errors of the threshold and generalized methods at one
    efficiency factor, and their difference."""

    r: float
    epsilon_threshold: float
    epsilon_time_resolved: float
    delta: float
    t_b_threshold: float
    t_b_time_resolved: float
    n_c: int


def efficiency_sweep(spec: SweepSpec, *, threads: int = 1):
    """Scale photon rates by each efficiency factor and compare the two
    headline methods at their per-factor optimal measurement time.

    Returns (rows, points): all sweep rows, plus one summary point per
    factor with the minimal threshold error (n_c re-optimized per t_b),
    the minimal generalized time-resolved error and their difference.
    """
    base = replace(spec, classifiers=_HEADLINE_CLASSIFIERS)
    rows = sweep(base, threads=threads)
    points = []
    for r in base.efficiency_factors:
        best_t, best_g = (min((row for row in rows if row.r == r and row.classifier == label),
                              key=lambda row: row.epsilon)
                          for label in ("threshold", "generalized_time_resolved"))
        points.append(EfficiencyPoint(
            r=r,
            epsilon_threshold=best_t.epsilon,
            epsilon_time_resolved=best_g.epsilon,
            delta=best_t.epsilon - best_g.epsilon,
            t_b_threshold=best_t.t_b,
            t_b_time_resolved=best_g.t_b,
            n_c=best_t.n_c,
        ))
    return rows, points


# ---------------------------------------------------------------------------
# Pulse-pair experiments


def _pi_pulse_point(spec: SweepSpec, detector: Classifier, epsilon_pi: float,
                    t_b: float, index: int, threads: int) -> ErrorReport:
    params = spec.params
    cfg = SimConfig(n_trials=spec.n_trials, t_b=t_b, seed=spec.seed, params=params)
    window1, dec1, combined = {}, {}, {}
    for state in (IonState.BRIGHT, IonState.DARK):
        ens1 = simulate_ensemble(cfg, state,
                                 context=(_CTX_PI, _PI_WINDOW_ONE, index),
                                 threads=threads)
        d1 = decisions_for(ens1.counts, detector, params)
        finals = ens1.final_states()
        u = _deterministic_uniforms(spec.seed, (_CTX_PI, _PI_PULSE, index, int(state)),
                                    spec.n_trials)
        flipped = np.where(u < 1.0 - epsilon_pi, 1 - finals, finals).astype(np.int8)
        ens2 = simulate_ensemble(cfg, flipped, threads=threads,
                                 context=(_CTX_PI, _PI_WINDOW_TWO, index, int(state)))
        d2 = decisions_for(ens2.counts, detector, params)
        window1[state], dec1[state] = ens1, d1
        combined[state] = cl.pi_pulse_combine(d1, d2)
    # Analytic cross-check: transfer matrices estimated from window one feed
    # the matrix pipeline; window two obeys the same homogeneous law.
    m_b, m_d = cl.estimate_transfer_matrices(
        window1[IonState.BRIGHT], window1[IonState.DARK],
        dec1[IonState.BRIGHT], dec1[IonState.DARK])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        analytic = cl.pi_pulse_error(m_b, m_d, epsilon_pi)
    return report_from_decisions(
        combined[IonState.BRIGHT], combined[IonState.DARK],
        classifier=f"pi_pulse+{detector.label}",
        detail=detector.detail, t_b=t_b,
        epsilon_analytic=analytic.epsilon_rel, N_R_analytic=analytic.N_R)


def pi_pulse_sweep(spec: SweepSpec, detector, epsilon_pi: float,
                   *, threads: int = 1) -> list:
    """Simulate detection, inverting pulse, detection at every t_b.

    The hidden state evolves continuously through both windows; the pulse is
    instantaneous and flips the window-one final state with probability
    1 - epsilon_pi.  Each row carries the empirical relative error and
    efficiency plus the analytic cross-check from estimated transfer
    matrices.  Rows with no retained trials come back flagged (NaN epsilon,
    defined False).
    """
    detector = resolve_classifier(detector)
    _require(not isinstance(detector, DoubleThresholdClassifier),
             "pulse pairs need a non-abstaining single-detection method")
    detector = detector.fixed()
    _check_number(epsilon_pi, "epsilon_pi", lambda v: 0 <= v <= 1, "in [0, 1]", error=ConfigError)
    return [_pi_pulse_point(spec, detector, epsilon_pi, t_b, i, threads)
            for i, t_b in enumerate(spec.t_b_values)]


# ---------------------------------------------------------------------------
# Method comparison


def compare_methods(spec: SweepSpec, *, repetitions: int = 1, threads: int = 1):
    """Compare threshold, simple and generalized methods over repetitions.

    Each repetition simulates fresh ensembles (child streams keyed by the
    repetition index), evaluates all three methods across the t_b grid and
    records each method's minimum error over t_b.  Returns (rows, summary):
    all rows of every repetition (rows carry r = repetition index + 1), and
    per-method {mean, std, values} of the per-repetition minima.
    """
    _check_int(repetitions, "repetitions", 1, ConfigError)
    # The single-change reference method is pointed at the dominant change
    # channel of this qubit family (bright to dark), matching how the
    # original method is applied when benchmarked against the generalized
    # one; the generalized method needs no such choice.
    methods = tuple(map(resolve_classifier, (
        {"method": "threshold", "n_c": "optimize"},
        {"method": "simple", "decaying": "bright"},
        {"method": "general"},
    )))
    rep_spec = replace(spec, classifiers=methods, efficiency_factors=(1.0,))
    all_rows = []
    minima = {m.label: [] for m in methods}
    for rep in range(repetitions):
        rep_rows = _sweep_on_streams(rep_spec, 1.0, threads,
                                     context=(_CTX_COMPARE, rep))
        all_rows.extend(replace(row, r=float(rep + 1)) for row in rep_rows)
        for label, values in minima.items():
            values.append(min(row.epsilon for row in rep_rows if row.classifier == label))
    summary = {
        label: {
            "mean": float(np.mean(values)),
            "std": float(np.std(values, ddof=1)) if len(values) > 1 else 0.0,
            "values": [float(v) for v in values],
        }
        for label, values in minima.items()
    }
    return all_rows, summary


def _sweep_on_streams(spec: SweepSpec, r: float, threads: int, context: tuple):
    """Simulate the longest window at efficiency factor r on the given
    random streams and evaluate every t_b prefix."""
    params_r = spec.params.scaled(r)
    cfg = SimConfig(n_trials=spec.n_trials, t_b=spec.t_b_values[-1],
                    seed=spec.seed, params=params_r)
    ens_b = simulate_ensemble(cfg, IonState.BRIGHT, context=context, threads=threads)
    ens_d = simulate_ensemble(cfg, IonState.DARK, context=context, threads=threads)
    return evaluate_prefixes(spec, ens_b, ens_d, r=r)


def evaluate_prefixes(spec: SweepSpec, ens_b: Ensemble, ens_d: Ensemble,
                      *, r: float = 1.0) -> list:
    """Evaluate the configured classifiers at every t_b on existing ensembles
    binned at the spec's t_s, spanning its longest t_b and drawn with its
    rate parameters scaled by r (or ingested, without any)."""
    t_bs, cols, params, *states = _window(ens_b, ens_d, spec.params.scaled(r), spec.t_b_values)
    return [row for clf in map(resolve_classifier, spec.classifiers)
            for row in clf.column_reports(*states, t_bs, cols, params, r)]


# ---------------------------------------------------------------------------
# Configuration documents


def load_config(path) -> dict:
    """Read and structurally validate a configuration document."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from None
    _require(isinstance(cfg, dict), "config root must be an object")
    _require(cfg.get("format") == CONFIG_FORMAT,
             f"config 'format' must be {CONFIG_FORMAT!r}")
    _require(config_number(cfg.get("version"), "version") == CONFIG_VERSION,
             f"config 'version' must be {CONFIG_VERSION}")
    _require(isinstance(cfg.get("params"), dict), "config needs a 'params' object")
    return cfg


def _known_keys(mapping: dict, keys: tuple, name: str) -> dict:
    """``mapping``, refused if it holds a key outside ``keys``."""
    for key in mapping:
        _require(key in keys, f"unknown key {key!r} in {name}; expected one of {keys}")
    return mapping


def _section(cfg: dict, name: str, keys: tuple) -> dict:
    """The config's ``name`` object, whose keys must all lie in ``keys``."""
    section = cfg.get(name)
    _require(isinstance(section, dict), f"config needs a {name!r} object")
    return _known_keys(section, keys, repr(name))


def rate_params_from_config(cfg: dict) -> RateParams:
    section = _section(cfg, "params", RateParams._JSON_KEYS)
    try:
        return RateParams.from_json_dict({k: config_number(v, k) for k, v in section.items()})
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid params: {exc}") from None


def sweep_spec_from_config(cfg: dict, *, seed=None) -> SweepSpec:
    params = rate_params_from_config(cfg)
    sweep_cfg = _section(cfg, "sweep", ("t_b_ms", "n_trials", "seed", "classifiers",
                                        "efficiency_factors", "pi_pulse"))
    try:
        return SweepSpec(
            t_b_values=tuple(config_number(t_b, "t_b_ms") for t_b in sweep_cfg["t_b_ms"]),
            n_trials=config_int(sweep_cfg["n_trials"], "n_trials"),
            seed=config_int(seed if seed is not None else sweep_cfg["seed"], "seed"),
            params=params,
            classifiers=tuple(sweep_cfg.get("classifiers", _HEADLINE_CLASSIFIERS)),
            efficiency_factors=tuple(config_number(r, "efficiency_factors")
                                     for r in sweep_cfg.get("efficiency_factors", (1.0,))),
        )
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"invalid sweep section: {exc}") from None


# ---------------------------------------------------------------------------
# Tabular output


def _fmt(value) -> str:
    if value is None:
        return ""
    return f"{value:.6g}" if isinstance(value, float) else str(value)


REPORT_COLUMNS = (
    "classifier", "detail", "r", "t_b_ms", "n_c",
    "epsilon_bright", "epsilon_dark", "epsilon", "stderr", "N_R",
    "retained_bright", "retained_dark", "n_bright", "n_dark",
    "epsilon_analytic", "N_R_analytic",
)


def report_rows_to_csv(rows, path, *, comments=()) -> None:
    """Write ErrorReport rows as a plot-ready CSV (6 significant digits)."""
    records = [row.to_json_dict() for row in rows]
    blocks = ([[_fmt(record.get(c)) for record in records[block]] for c in REPORT_COLUMNS]
              for block in _row_blocks(len(records)))
    _write_csv(path, REPORT_COLUMNS, blocks, comments=comments)


def decisions_to_csv(path, trial_ids, initials, decisions, logs=None, *, comments=()) -> None:
    """Per-trial decision export.  ``logs`` is the (log_p_B, log_p_D) pair of
    :meth:`Classifier.score`, written as the ``p_B`` and ``p_D`` columns;
    without it (count rules) those columns stay empty."""
    ids, states, codes = (np.asarray(c) for c in (trial_ids, initials, decisions))
    logs = (None, None) if logs is None else [np.asarray(log) for log in logs]
    if len(logs) != 2 or any(c is not None and c.shape != (codes.size,)
                             for c in (ids, states, codes, *logs)):
        raise ValueError("decisions_to_csv needs one value per trial in every column")
    # Without logs, p_B and p_D are empty cells: the writer stops at the shortest column.
    blocks = ((ids[rows].tolist(), _labels(states[rows]), _labels(codes[rows], Decision),
               *(itertools.repeat("") if log is None
                 else ["%.6g" % x for x in log[rows].tolist()] for log in logs))
              for rows in _row_blocks(codes.size))
    _write_csv(path, ("trial", "initial", "decision", "p_B", "p_D"), blocks,
               comments=comments, newline="\n")
