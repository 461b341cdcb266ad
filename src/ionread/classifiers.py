"""State discrimination methods for photon count sequences.

Five methods are provided.  Two ignore arrival times (single and double
count threshold), two exploit the time structure of the counts (the
single-change likelihood formula, and the full two-state hidden-Markov
matrix product), and one composes any single-detection method with an
inverting pulse between two detection windows.

All classifiers are pure functions.  The batch entry points operate on
(n_trials, n_bins) count arrays in the log domain and return each trial's
pair for the whole window.  They reject negative and fractional counts.  The
scalar classifiers wrap them on one row; the likelihood ones return
(Decision, log_p_B, log_p_D), bit for bit the batch row and its
:func:`decide_from_logs` decision.  Inside, both kernel families are
filters with one per-bin contract: each generator (``_forward_logs`` and
``_single_change_logs``) takes (n_trials, n_bins) counts, copies them
bin-major once and, one step per bin updating a few length-n_trials rows,
yields each prefix's (log_p_B, log_p_D) at the bins asked for, on two rows
valid until the next step.  The batch entry points read the last bin; the
sweep harness reads the columns it tallies, so a sweep holds O(n_trials)
scratch.  The single-change formula gathers each bin's two Poisson
log-pmfs (numpy and ``math.log`` only) with one take from a (2, max count
+ 1) array, and carries its running sums with one elementwise add or
logaddexp per bin, the operations of ``ufunc.accumulate`` in its order, on
rows allocated once per call; the changeable state's log-likelihood is the
logaddexp of two terms, the no-change and the change term.  The
hidden-Markov product is a scaled forward filter (Rabiner, Proc. IEEE
77:257, 1989) in structure-of-arrays layout: four length-n_trials arrays
hold the entries of every trial's accumulated 2x2 product, each bin updates
them elementwise from four gathered columns of the observation table, and a
per-bin renormalisation, tallied in a log scale, keeps windows of any
length in floating range.

A sweep needs only each column's Bright mask.  The general one compares
the exact pair.  :func:`_single_change_brighter` decides a row from a cheap
pass where log_p_B and log_p_D lie more than a relative band of 2**-20
apart, else (NaN and infinities too) from the exact pair: the cheap pass
runs logaddexp as max(x, y) + log1p(exp(-|x - y|)) on numpy's vector exp
and log1p.  A step of either form is within 2**-50 (8 + |result|) of the
truth, and ``inner`` rises from 0 to below |stable| + log(k + 1) (log-pmfs
are <= 0), so below 2**20 bins the two changeable log-likelihoods differ by
under 2**-24 (1 + |stable| + |mixed|).  It needs no NaN check: the
single-change formula refuses a stable state of mean count 0, so its terms
are finite or -inf, and the vector logaddexp's NaN on two -inf leaves the
row to the exact pass.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .photon_model import (IonState, ObservationTable, RateParams, _check_array,
                           _check_counts, _check_number, _poisson_logpmf, _warn)
from .trajectory import _check_int


class Decision(enum.IntEnum):
    """Outcome of one classification. Integer values match IonState where
    applicable so decision arrays compare directly against true states."""

    BRIGHT = 0
    DARK = 1
    INCONCLUSIVE = 2

    @property
    def label(self) -> str:
        return {0: "B", 1: "D", 2: "I"}[int(self)]


def _as_count_matrix(counts) -> np.ndarray:
    """(n_trials, n_bins) counts with at least one bin, as :func:`_check_counts`
    returns them; counts above a table's n_max pass, for the table to clamp."""
    counts2d = np.atleast_2d(_check_counts(counts))
    if counts2d.ndim != 2 or counts2d.shape[1] == 0:
        raise ValueError("counts must be a 2-d array with at least one bin")
    return counts2d


class _CountTotalError(ValueError):
    """Counts whose totals int64 cannot hold: a fault of the data, not of the model."""


def _count_totals(counts2d: np.ndarray) -> np.ndarray:
    """Row totals of checked (n_trials, n_bins) counts in int64, refusing one
    too large for the two bins a threshold landscape adds past it: where the
    largest count times n_bins could pass that, a float64 sum tells a wrap."""
    totals = counts2d.sum(axis=1, dtype=np.int64)
    if int(counts2d.max(initial=0)) * counts2d.shape[1] > 2**63 - 3 and not np.all(
            (totals <= 2**63 - 3) & (counts2d.sum(axis=1, dtype=np.float64) - totals < 2.0**62)):
        raise _CountTotalError("photon count totals must be at most 2**63 - 3 to be summed in int64")
    return totals


def _as_counts(counts) -> np.ndarray:
    """One record, as the (1, n_bins) count matrix of the batch entry points."""
    if np.ndim(counts) != 1 or np.size(counts) == 0:
        raise ValueError("counts must be a non-empty 1-d sequence")
    return _as_count_matrix(counts)


# ---------------------------------------------------------------------------
# Threshold methods


def threshold_classify(counts, n_c: int) -> Decision:
    """Bright iff strictly more than n_c photons arrived in total."""
    _check_int(n_c, "n_c", 0)
    return Decision(int(double_threshold_decide(_count_totals(_as_counts(counts))[0], n_c, n_c)))


def double_threshold_classify(counts, n_D: int, n_B: int) -> Decision:
    """Dark if the total is <= n_D, Bright if > n_B, else Inconclusive."""
    return Decision(int(double_threshold_decide(_count_totals(_as_counts(counts))[0], n_D, n_B)))


def double_threshold_decide(totals: np.ndarray, n_D: int, n_B: int) -> np.ndarray:
    """Count-rule decisions from total counts; n_D = n_B is a single threshold.
    Each threshold is an integer >= 0: NaN, infinities, bools and 1.5 raise
    ValueError."""
    _check_int(n_D, "n_D", 0)
    _check_int(n_B, "n_B", 0)
    if n_D > n_B:
        raise ValueError(f"n_D={n_D} must not exceed n_B={n_B}")
    totals = np.asarray(totals)
    out = np.full(totals.shape, Decision.INCONCLUSIVE, dtype=np.int8)
    out[totals <= n_D] = Decision.DARK
    out[totals > n_B] = Decision.BRIGHT
    return out


# ---------------------------------------------------------------------------
# Simple time-resolved method (single dark->bright change)


def simple_loglik(counts: np.ndarray, params: RateParams, *, decaying: IonState = IonState.DARK):
    """Log-likelihoods of the single-change formula, vectorized.

    One designated state may change exactly once inside the window; the other
    is taken as stable.  With ``decaying=DARK`` the dark hypothesis reads
    p_D = (1 - t_b/tau) prod_k P_D(n_k)
        + (t_s/tau) sum_k prod_{j<k} P_D(n_j) prod_{j>=k} P_B(n_j)
    while p_B = prod_k P_B(n_k); ``decaying=BRIGHT`` mirrors the roles (a
    bright prefix that may drop to dark once), which is the variant suited to
    qubits whose dominant change is bright-to-dark.  tau is the decaying
    state's lifetime in ``params`` (tau_D, or tau_B when bright decays).

    Returns (log_p_B, log_p_D) of shape (n_trials,); a window longer than
    tau clamps the linear-in-t_b prefactor to zero, with a RuntimeWarning.
    """
    counts2d = _as_count_matrix(counts)
    [logs] = _single_change_logs(counts2d, params, decaying, (counts2d.shape[1] - 1,))
    return logs


def _single_change_logs(counts2d, params: RateParams, decaying, bins, logaddexp=None, *,
                        warn=True):
    """Per-bin (log_p_B, log_p_D) of the single-change formula on (n_trials,
    n_bins) counts, at each bin in ``bins``, valid until the next step: the
    stable state's log-likelihood, and the changeable state's, ``logaddexp``
    (None: ``np.logaddexp``) of its no-change term p and its change term q,
    written over p.  The running log-pmf sums of the changeable (``stay``)
    and the stable state (``after``), the running ``logaddexp`` ``inner`` of
    the change terms, the per-bin gathers and p and q are n_trials rows,
    allocated once and updated in place.  tau is the decaying state's
    lifetime (inf: a stable state).  A negative linear-in-t_b prefactor is
    clamped to zero, which warns (RuntimeWarning) once per call unless
    ``warn`` is False.
    """
    decaying, logaddexp = IonState(decaying), logaddexp or np.logaddexp
    tau, (n, m) = (params.tau_B, params.tau_D)[decaying], counts2d.shape
    means = (params.dark_mean, params.bright_mean)[::1 if decaying is IonState.DARK else -1]
    if means[1] == 0:   # its log-pmf is -inf at every count > 0: inf - inf below
        raise ValueError(f"R_D={params.R_D}, R_B={params.R_B}: the single-change formula's "
                         f"stable {IonState(1 - decaying).name.lower()} state never emits; "
                         "use the general method")
    # Gather from (2, max + 1) log-pmf vectors unless they outgrow the counts.
    hi = int(counts2d.max(initial=0))
    vectors = (np.array([_poisson_logpmf(np.arange(hi + 1), mean) for mean in means])
               if hi < counts2d.size else None)
    prefac = 1.0 - np.arange(1, m + 1) * params.t_s / tau
    if prefac[-1] < 0 and warn:
        _warn("t_b >= tau: single-change prefactor clamped to 0")
    log_prefac = np.where(prefac > 0, np.log(np.maximum(prefac, 1e-300)), -np.inf)
    with np.errstate(divide="ignore"):  # tau = inf gives a vanishing change term
        log_rate = np.log(params.t_s / tau)
    sums, gathered, (p, q) = np.empty((3, 2, n))
    (stay, after), inner = sums, np.zeros(n)
    # A change during bin i contributes exp(stay[i-1] + after[k] - after[i-1])
    # to the k-bin prefix; exp(after[k]) is factored out of the inner sum.
    for k, row in enumerate(np.ascontiguousarray(counts2d.T)):
        out = gathered if k else sums
        if vectors is None:
            out[...] = [_poisson_logpmf(row, mean) for mean in means]
        else:           # "clip" writes straight to out; every count is in range
            np.take(vectors, row, axis=1, out=out, mode="clip")
        if k:
            logaddexp(inner, np.subtract(stay, after, out=p), out=inner)
            sums += gathered
        if k in bins:
            np.add(stay, log_prefac[k], out=p)
            np.add(inner, np.add(after, log_rate, out=q), out=q)
            mixed = logaddexp(p, q, out=p)
            yield (after, mixed) if decaying is IonState.DARK else (mixed, after)


_BAND = 2.0 ** -20      # the relative band of the single-change mask (see the module docstring)


def _single_change_brighter(counts2d, params: RateParams, decaying, bins):
    """The Bright mask of the single-change pair at each bin in ``bins``,
    valid until the next: from the vector-logaddexp pass outside the band,
    and inside it from the exact kernel, rerun on the first k + 1 bins."""
    n = len(counts2d)
    gap, bound, (brighter, decided) = np.empty(n), np.empty(n), np.empty((2, n), bool)

    def logaddexp(x, y, out):
        with np.errstate(invalid="ignore"):     # inf - inf: NaN, and the row stays open
            np.abs(np.subtract(x, y, out=gap), out=gap)
        np.log1p(np.exp(np.negative(gap, out=gap), out=gap), out=gap)
        return np.add(np.maximum(x, y, out=out), gap, out=out)

    steps = _single_change_logs(counts2d, params, decaying, bins, logaddexp)
    for k, logs in zip(bins, steps):
        with np.errstate(invalid="ignore"):
            np.subtract(*logs, out=gap)
        np.greater(gap, 0.0, out=brighter)
        # logs[1 - decaying] is the stable state's log-likelihood:
        # |gap| > 2 _BAND (1 + 2 |stable|) implies |gap| > _BAND (1 + |stable| + |mixed|).
        band = 2.0 * _BAND if k < 2 ** 20 else np.inf
        np.multiply(np.abs(logs[1 - decaying], out=bound), 2.0 * band, out=bound)
        np.greater(np.abs(gap, out=gap), np.add(bound, band, out=bound), out=decided)
        rows = np.flatnonzero(np.logical_not(decided, out=decided))
        if rows.size:
            [(log_b, log_d)] = _single_change_logs(counts2d[rows, :k + 1], params, decaying,
                                                   (k,), warn=False)
            brighter[rows] = log_b > log_d
        yield brighter


def simple_time_resolved_classify(counts, params: RateParams, *,
                                  decaying: IonState = IonState.DARK):
    """Classify one count sequence with the single-change formula.

    Returns (Decision, log_p_B, log_p_D): the record's row of
    :func:`simple_loglik` and the :func:`decide_from_logs` decision on it
    (a tie is Dark), so one record and one batch row agree bit for bit.
    A window longer than the decaying state's lifetime warns, as there.
    """
    return _decided(simple_loglik(_as_counts(counts), params, decaying=decaying))


# ---------------------------------------------------------------------------
# Generalized time-resolved method (full two-state hidden Markov model)


def _forward_product(counts2d: np.ndarray, table: ObservationTable):
    """Left product of the per-bin observation matrices in sequence order,
    yielded bin by bin.

    The product is kept as four length-n_trials arrays (a00, a01, a10, a11),
    entry [i, j] of each trial's 2x2 matrix: rows are the state after the
    window, columns the initial state.  Each bin gathers the four entry
    columns of ``table.entries`` at its row of the clamped counts, copied
    bin-major at the narrowest dtype that holds n_max, and forms the matrix
    product step x acc, [i, j] = s_i0 a_0j + s_i1 a_1j, on scratch rows made
    once per call, then divides the four arrays by their sum (1 where not
    > 0) and adds its log to ``log_scale``, so arbitrarily long windows stay
    in range.  Yields ((a00, a01, a10, a11), log_scale) after each bin,
    valid until the next step; the column sums a00 + a10 and a01 + a11 are
    the initial-state likelihoods of that prefix over ``exp(log_scale)``.
    """
    n, m = counts2d.shape
    rows = np.ascontiguousarray(table.clamp_counts(counts2d).T,
                                dtype=np.min_scalar_type(table.n_max))
    columns = table.entries.reshape(-1, 4).T[[0, 2, 1, 3]]    # rows: s00, s10, s01, s11
    step, buffers = np.empty((4, n)), np.zeros((2, 2, 2, n))
    norm, positive, log_scale = np.empty(n), np.empty(n, bool), np.zeros(n)
    buffers[0, 0, 0] = buffers[0, 1, 1] = 1.0
    s_0, (s_01, s_11) = step[:2, None], step[2:]       # s_0[i] = s_i0
    views = [(b, *b, tuple(b.reshape(4, n))) for b in buffers]     # each made once
    for k in range(m):
        (_, a_0, a_1, _), (new, new_0, new_1, entries) = views[k % 2], views[1 - k % 2]
        np.take(columns, rows[k], axis=1, out=step, mode="clip")    # counts are in range
        np.multiply(s_0, a_0, out=new)                  # new[i, j] = s_i0 a_0j
        new_0 += np.multiply(s_01, a_1, out=a_0)        # a_0 is read: scratch now
        new_1 += np.multiply(s_11, a_1, out=a_0)
        a00, a01, a10, a11 = entries
        np.add(np.add(np.add(a00, a01, out=norm), a10, out=norm), a11, out=norm)
        np.copyto(norm, 1.0, where=~np.greater(norm, 0.0, out=positive))    # NaN too
        new /= norm
        log_scale += np.log(norm, out=norm)
        yield entries, log_scale


def _forward_logs(counts2d: np.ndarray, table: ObservationTable, bins):
    """(log_p_B, log_p_D) of :func:`_forward_product` at each bin in ``bins``,
    valid until the next step: the logs of its column sums plus its log
    scale, written into two rows made once per call."""
    log_b, log_d = np.empty((2, len(counts2d)))
    for k, ((a00, a01, a10, a11), log_scale) in enumerate(_forward_product(counts2d, table)):
        if k in bins:
            with np.errstate(divide="ignore"):      # a zero column sum
                for log, (x, y) in ((log_b, (a00, a10)), (log_d, (a01, a11))):
                    np.add(np.log(np.add(x, y, out=log), out=log), log_scale, out=log)
            yield log_b, log_d


def general_loglik(counts: np.ndarray, table: ObservationTable):
    """Log initial-state likelihoods under the full hidden-Markov model.

    Returns (log_p_B, log_p_D) of shape (n_trials,).  Counts above the
    table's n_max are scored as n_max, with a warning.
    """
    counts2d = _as_count_matrix(counts)
    [logs] = _forward_logs(counts2d, table, (counts2d.shape[1] - 1,))
    return logs


def generalized_time_resolved_classify(counts, table: ObservationTable):
    """Classify one count sequence with the hidden-Markov matrix product.

    Returns (Decision, log_p_B, log_p_D), the record's row of
    :func:`general_loglik` and its :func:`decide_from_logs` decision.
    Counts above n_max warn, as in general_loglik.
    """
    return _decided(general_loglik(_as_counts(counts), table))


def decide_from_logs(log_pb: np.ndarray, log_pd: np.ndarray) -> np.ndarray:
    """Vectorized Bright/Dark decisions from log-likelihoods (tie -> Dark, NaN -> ValueError)."""
    log_pb, log_pd = _check_array(log_pb, "log_pb", "real"), _check_array(log_pd, "log_pd", "real")
    if np.isnan(log_pb).any() or np.isnan(log_pd).any():
        raise ValueError("log_pb and log_pd must not be NaN")
    return np.where(log_pb > log_pd, Decision.BRIGHT, Decision.DARK).astype(np.int8)


def _decided(logs) -> tuple:
    """(Decision, log_p_B, log_p_D) of a one-row kernel result."""
    log_pb, log_pd = logs
    return Decision(int(decide_from_logs(log_pb, log_pd)[0])), float(log_pb[0]), float(log_pd[0])


# ---------------------------------------------------------------------------
# Pulse-composed detection


def pi_pulse_combine(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Combine the two detections of each pulse pair (decision code arrays).

    The pulse inverts the state between windows, so a kept (different
    outcomes) pair is reported as the first detection's outcome, which names
    the pre-pulse state.  Equal outcomes are physically inconsistent with a
    perfect inversion and are discarded as Inconclusive.  A code other than
    Bright or Dark (Inconclusive, another number, NaN) raises ValueError.
    """
    first, second = (_check_array(codes, "single detections feeding a pulse pair never abstain: "
                                  "every code", f"Bright (0) or Dark (1) in {name}", integer=True,
                                  ok=lambda c: np.isin(c, (Decision.BRIGHT, Decision.DARK)))
                     for codes, name in ((first, "first"), (second, "second")))
    return np.where(first == second, Decision.INCONCLUSIVE, first).astype(np.int8)


def pi_pulse_classify(first: Decision, second: Decision) -> Decision:
    """Combine the two detections of one pulse pair."""
    return Decision(int(pi_pulse_combine(first, second)))


# ---------------------------------------------------------------------------
# Transfer matrices and analytic pulse-pair error propagation


def estimate_transfer_matrices(ensemble_bright, ensemble_dark,
                               decisions_bright, decisions_dark):
    """Empirical transfer matrices of one detection window.

    ``decisions_bright`` and ``decisions_dark`` hold one Bright/Dark decision
    code per trial of the matching ensemble.  Entry [y, z] of M_B is the
    fraction of initially-z ions that were detected bright and ended the
    window in state y; M_D likewise for detected dark.  Columns of
    (M_B + M_D) sum to 1 exactly because every trial lands in exactly one of
    the four cells.
    """
    m_b, m_d = np.zeros((2, 2, 2))
    for col, ens, decisions, name in ((0, ensemble_bright, decisions_bright, "decisions_bright"),
                                      (1, ensemble_dark, decisions_dark, "decisions_dark")):
        if ens is None or len(ens) == 0:
            raise ValueError("transfer matrix estimation needs non-empty ensembles")
        decisions = _check_array(decisions, name, "Bright (0) or Dark (1)", integer=True,
                                 ok=lambda d: np.isin(d, (Decision.BRIGHT, Decision.DARK)))
        if decisions.shape != (len(ens),):
            raise ValueError(f"transfer matrix estimation needs one decision per trial in {name}")
        cells = np.bincount(2 * decisions.astype(np.intp) + ens.final_states(), minlength=4)
        m_b[:, col], m_d[:, col] = cells[:2] / len(ens), cells[2:] / len(ens)
    return m_b, m_d


def _check_transfer_matrix(m, name: str):
    m = _check_array(m, name, "a 2x2 matrix")
    if m.shape != (2, 2):
        raise ValueError(f"{name} must be 2x2")
    if not np.all((m >= 0) & (m <= 1)):     # NaN too
        raise ValueError(f"{name} entries must lie in [0, 1]")
    return m


@dataclass(frozen=True)
class PulseChannel:
    """Detection-pair outcome masses for one initial state."""

    f: np.ndarray            # misdetected-and-kept mass, by final state
    r: np.ndarray            # correctly-detected-and-kept mass, by final state
    @property
    def retained(self) -> float:
        return float(self.f.sum() + self.r.sum())

    @property
    def epsilon_rel(self) -> float:
        kept = self.retained
        return float(self.f.sum() / kept) if kept > 0 else np.nan


@dataclass(frozen=True)
class PiPulseResult:
    """Analytic pulse-pair figures for both initial states.

    ``epsilon_rel`` averages the two per-state relative errors; ``N_R`` is
    the retained fraction averaging the two preparations.  When an initial
    state retains no ions its relative error is undefined: ``defined`` goes
    False and the epsilon fields are NaN (every pair was discarded).
    """

    bright: PulseChannel
    dark: PulseChannel
    epsilon_rel: float
    N_R: float
    defined: bool


def pi_pulse_error(m_b, m_d, epsilon_pi: float) -> PiPulseResult:
    """Propagate transfer matrices through an imperfect inverting pulse.

    The pulse acts as M_pi = [[eps, 1-eps], [1-eps, eps]].  For initially
    bright ions the kept-but-wrong chain is detect-dark, pulse, detect-bright
    (f_B = M_B M_pi M_D v_B) and the kept-and-right chain is detect-bright,
    pulse, detect-dark (r_B = M_D M_pi M_B v_B); initially dark ions mirror
    the roles.  Relative errors are per kept mass.
    """
    m_b = _check_transfer_matrix(m_b, "M_B")
    m_d = _check_transfer_matrix(m_d, "M_D")
    _check_number(epsilon_pi, "epsilon_pi", lambda v: 0 <= v <= 1, "in [0, 1]")
    m_pi = np.array([[epsilon_pi, 1.0 - epsilon_pi],
                     [1.0 - epsilon_pi, epsilon_pi]])
    v_b = np.array([1.0, 0.0])
    v_d = np.array([0.0, 1.0])
    bright = PulseChannel(f=m_b @ m_pi @ m_d @ v_b, r=m_d @ m_pi @ m_b @ v_b)
    dark = PulseChannel(f=m_d @ m_pi @ m_b @ v_d, r=m_b @ m_pi @ m_d @ v_d)
    defined = bright.retained > 0 and dark.retained > 0
    if defined:
        eps = 0.5 * (bright.epsilon_rel + dark.epsilon_rel)
    else:
        _warn("no ions retained: relative error undefined")
        eps = np.nan
    n_r = 0.5 * (bright.retained + dark.retained)
    return PiPulseResult(bright=bright, dark=dark, epsilon_rel=eps,
                         N_R=n_r, defined=defined)
