"""State discrimination methods for photon count sequences.

Five methods are provided.  Two ignore arrival times (single and double
count threshold), two exploit the time structure of the counts (the
single-change likelihood formula, and the full two-state hidden-Markov
matrix product), and one composes any single-detection method with an
inverting pulse between two detection windows.

All classifiers are pure functions.  The batch entry points operate on
(n_trials, n_bins) count arrays in the log domain and can evaluate every
prefix of the window in one pass, which is what the sweep harness uses.
They reject negative and fractional counts.  The scalar classifiers wrap
them on one row; the likelihood ones return (Decision, log_p_B, log_p_D),
bit for bit the batch row and its :func:`decide_from_logs` decision.
Inside, both kernels run bin-major, on (n_bins,
n_trials) arrays, so each bin reads and writes contiguous rows; prefix
results come back as transposed views.  The single-change formula gathers
each bin's Poisson log-pmf from a vector over 0..max count instead of
evaluating it per cell, and forms its running sums with one elementwise
add or logaddexp per bin, the operations of ``ufunc.accumulate`` in its
order.  The hidden-Markov product is a scaled forward filter
(Rabiner, Proc. IEEE 77:257, 1989) in structure-of-arrays layout: four
length-n_trials arrays hold the entries of every trial's accumulated 2x2
product, each bin updates them elementwise from four gathered columns of
the observation table, and a per-bin renormalisation, tallied in a log
scale, keeps windows of any length in floating range.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass

import numpy as np

from .photon_model import (IonState, ObservationTable, RateParams, _check_counts,
                           _poisson_logpmf)


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
    """(n_trials, n_bins) counts with at least one bin, integer input at its
    own width and anything else as int64.

    Negative and fractional counts raise ValueError; counts above a table's
    n_max pass, for the table to clamp and tally.
    """
    counts2d = np.atleast_2d(_check_counts(counts))
    if counts2d.ndim != 2 or counts2d.shape[1] == 0:
        raise ValueError("counts must be a 2-d array with at least one bin")
    return counts2d if counts2d.dtype.kind in "iu" else counts2d.astype(np.int64)


def _as_counts(counts) -> np.ndarray:
    """One record, as the (1, n_bins) count matrix of the batch entry points."""
    arr = np.asarray(counts)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("counts must be a non-empty 1-d sequence")
    return _as_count_matrix(arr)


# ---------------------------------------------------------------------------
# Threshold methods


def threshold_classify(counts, n_c: int) -> Decision:
    """Bright iff strictly more than n_c photons arrived in total."""
    return Decision(int(double_threshold_decide(_as_counts(counts).sum(), n_c, n_c)))


def double_threshold_classify(counts, n_D: int, n_B: int) -> Decision:
    """Dark if the total is <= n_D, Bright if > n_B, else Inconclusive."""
    return Decision(int(double_threshold_decide(_as_counts(counts).sum(), n_D, n_B)))


def double_threshold_decide(totals: np.ndarray, n_D: int, n_B: int) -> np.ndarray:
    """Count-rule decisions from total counts; n_D = n_B is a single threshold."""
    if n_D > n_B:
        raise ValueError(f"n_D={n_D} must not exceed n_B={n_B}")
    totals = np.asarray(totals)
    out = np.full(totals.shape, Decision.INCONCLUSIVE, dtype=np.int8)
    out[totals <= n_D] = Decision.DARK
    out[totals > n_B] = Decision.BRIGHT
    return out


# ---------------------------------------------------------------------------
# Simple time-resolved method (single dark->bright change)


def simple_loglik(counts: np.ndarray, params: RateParams, tau: float | None = None,
                  *, decaying: IonState = IonState.DARK, prefixes: bool = False):
    """Log-likelihoods of the single-change formula, vectorized.

    One designated state may change exactly once inside the window; the other
    is taken as stable.  With ``decaying=DARK`` the dark hypothesis reads
    p_D = (1 - t_b/tau) prod_k P_D(n_k)
        + (t_s/tau) sum_k prod_{j<k} P_D(n_j) prod_{j>=k} P_B(n_j)
    while p_B = prod_k P_B(n_k); ``decaying=BRIGHT`` mirrors the roles (a
    bright prefix that may drop to dark once), which is the variant suited to
    qubits whose dominant change is bright-to-dark.  ``tau`` defaults to the
    decaying state's lifetime.  With ``prefixes`` the formula is evaluated
    for every leading sub-window length in one pass.

    Returns (log_p_B, log_p_D), as :func:`general_loglik` does, of shape
    (n_trials,) or, with prefixes, (n_trials, n_bins).  A window longer than
    tau clamps the linear-in-t_b prefactor to zero, with a RuntimeWarning.
    """
    decaying = IonState(decaying)
    log_pure, log_stay, log_change = _single_change_terms(counts, params, tau, decaying)
    log_mixed = np.logaddexp(log_stay, log_change)
    if decaying is IonState.DARK:
        log_pb, log_pd = log_pure, log_mixed
    else:
        log_pb, log_pd = log_mixed, log_pure
    if prefixes:
        return log_pb.T, log_pd.T
    return log_pb[-1], log_pd[-1]


def _running(ufunc, rows: np.ndarray) -> np.ndarray:
    """``ufunc.accumulate(rows, axis=0)`` in place and bit for bit, one
    contiguous elementwise call per row."""
    for k in range(1, len(rows)):
        ufunc(rows[k - 1], rows[k], out=rows[k])
    return rows


def _single_change_terms(counts, params: RateParams, tau: float | None,
                         decaying: IonState):
    """Every-prefix log terms of the single-change formula, bin-major.

    Returns (log_pure, log_stay, log_change), each (n_bins, n_trials): the
    stable hypothesis, then the no-change and the changed term of the
    changeable one, whose sum is its likelihood.  A negative linear-in-t_b
    prefactor is clamped to zero, which warns once per call (RuntimeWarning).
    """
    if tau is None:
        tau = params.tau_D if decaying is IonState.DARK else params.tau_B
    if tau <= 0:
        raise ValueError("tau must be > 0")
    counts_t = np.ascontiguousarray(_as_count_matrix(counts).T)
    m, n = counts_t.shape
    # Gather from a log-pmf vector over 0..max count unless it outgrows counts.
    hi = int(counts_t.max(initial=0))
    cells, index = (np.arange(hi + 1), counts_t) if hi < counts_t.size else (counts_t, ...)
    cum_b = _running(np.add, _poisson_logpmf(cells, params.bright_mean)[index])
    cum_d = _running(np.add, _poisson_logpmf(cells, params.dark_mean)[index])
    if decaying is IonState.DARK:
        cum_stay, cum_after = cum_d, cum_b
    else:
        cum_stay, cum_after = cum_b, cum_d
    # Change during bin i contributes exp(cum_stay[i-1] + cum_after[k]
    # - cum_after[i-1]) to the k-bin prefix; factor exp(cum_after[k]) out of
    # the inner sum.
    inner = np.zeros((m, n))
    np.subtract(cum_stay[:-1], cum_after[:-1], out=inner[1:])
    _running(np.logaddexp, inner)
    k = np.arange(1, m + 1)
    prefac = 1.0 - k * params.t_s / tau
    if prefac[-1] < 0:
        warnings.warn("t_b >= tau: single-change prefactor clamped to 0",
                      RuntimeWarning, stacklevel=3)
    log_prefac = np.where(prefac > 0, np.log(np.maximum(prefac, 1e-300)), -np.inf)
    with np.errstate(divide="ignore"):  # tau = inf gives a vanishing change term
        log_rate = np.log(params.t_s / tau)
    return cum_after, log_prefac[:, None] + cum_stay, log_rate + cum_after + inner


def simple_time_resolved_classify(counts, params: RateParams,
                                  tau: float | None = None,
                                  *, decaying: IonState = IonState.DARK):
    """Classify one count sequence with the single-change formula.

    Returns (Decision, log_p_B, log_p_D): the record's row of
    :func:`simple_loglik` and the :func:`decide_from_logs` decision on it
    (a tie is Dark), so one record and one batch row agree bit for bit.
    A window longer than tau clamps the prefactor with a RuntimeWarning.
    """
    return _decided(simple_loglik(_as_counts(counts), params, tau, decaying=decaying))


# ---------------------------------------------------------------------------
# Generalized time-resolved method (full two-state hidden Markov model)


def _forward_product(counts2d: np.ndarray, table: ObservationTable,
                     prefix_logs=None):
    """Left product of the per-bin observation matrices in sequence order.

    The product is kept as four length-n_trials arrays (a00, a01, a10, a11),
    entry [i, j] of each trial's 2x2 matrix: rows are the state after the
    window, columns the initial state.  Each bin gathers the four entry
    columns of ``table.entries`` at its row of the clamped counts, copied
    bin-major at the narrowest dtype that holds n_max (s00 .. s11), and
    forms the matrix product step x acc with eight elementwise multiplies
    and four adds, then divides the four arrays by their sum and adds its
    log to ``log_scale``, so arbitrarily long windows stay in range.
    Returns ((a00, a01, a10, a11), log_scale); the column sums a00 + a10
    and a01 + a11 are the initial-state likelihoods over
    ``exp(log_scale)``.  ``prefix_logs``, a pair of (n_bins, n_trials)
    arrays, receives every prefix's initial-state log-likelihoods when given.
    """
    n, m = counts2d.shape
    rows = np.ascontiguousarray(table.clamp_counts(counts2d).T,
                                dtype=np.min_scalar_type(table.n_max))
    columns = table.entries.reshape(-1, 4).T.copy()    # rows: s00, s01, s10, s11
    step = np.empty((4, n))
    a00, a01, a10, a11 = np.ones(n), np.zeros(n), np.zeros(n), np.ones(n)
    log_scale = np.zeros(n)
    with np.errstate(divide="ignore"):
        for k in range(m):
            s00, s01, s10, s11 = np.take(columns, rows[k], axis=1, out=step)
            a00, a01, a10, a11 = (s00 * a00 + s01 * a10, s00 * a01 + s01 * a11,
                                  s10 * a00 + s11 * a10, s10 * a01 + s11 * a11)
            norm = a00 + a01 + a10 + a11
            norm = np.where(norm > 0, norm, 1.0)
            for a in (a00, a01, a10, a11):
                a /= norm
            log_scale += np.log(norm)
            if prefix_logs is not None:
                prefix_logs[0][k] = np.log(a00 + a10) + log_scale
                prefix_logs[1][k] = np.log(a01 + a11) + log_scale
    return (a00, a01, a10, a11), log_scale


def general_loglik(counts: np.ndarray, table: ObservationTable,
                   *, prefixes: bool = False):
    """Log initial-state likelihoods under the full hidden-Markov model.

    Returns (log_p_B, log_p_D) of shape (n_trials,) or (n_trials, n_bins)
    with ``prefixes``, the latter as transposed views of bin-major arrays.
    Counts above the table's n_max are scored as n_max, with a warning.
    """
    counts2d = _as_count_matrix(counts)
    if prefixes:
        out = (np.empty(counts2d.shape[::-1]), np.empty(counts2d.shape[::-1]))
        _forward_product(counts2d, table, out)
        return out[0].T, out[1].T
    (a00, a01, a10, a11), log_scale = _forward_product(counts2d, table)
    with np.errstate(divide="ignore"):
        return np.log(a00 + a10) + log_scale, np.log(a01 + a11) + log_scale


def generalized_time_resolved_classify(counts, table: ObservationTable):
    """Classify one count sequence with the hidden-Markov matrix product.

    Returns (Decision, log_p_B, log_p_D), the record's row of
    :func:`general_loglik` and its :func:`decide_from_logs` decision.
    Counts above n_max warn, as in general_loglik.
    """
    return _decided(general_loglik(_as_counts(counts), table))


def decide_from_logs(log_pb: np.ndarray, log_pd: np.ndarray) -> np.ndarray:
    """Vectorized Bright/Dark decisions from log-likelihoods (tie -> Dark)."""
    return np.where(np.asarray(log_pb) > np.asarray(log_pd),
                    Decision.BRIGHT, Decision.DARK).astype(np.int8)


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
    perfect inversion and are discarded as Inconclusive.
    """
    first = np.asarray(first)
    second = np.asarray(second)
    if np.any(first == Decision.INCONCLUSIVE) or np.any(second == Decision.INCONCLUSIVE):
        raise ValueError("single detections feeding a pulse pair never abstain")
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
    m_b = np.zeros((2, 2))
    m_d = np.zeros((2, 2))
    for col, ens, decisions in ((0, ensemble_bright, decisions_bright),
                                (1, ensemble_dark, decisions_dark)):
        if ens is None or len(ens) == 0:
            raise ValueError("transfer matrix estimation needs non-empty ensembles")
        decisions = np.asarray(decisions)
        if decisions.shape != (len(ens),):
            raise ValueError("transfer matrix estimation needs one decision per trial")
        if np.any(decisions == Decision.INCONCLUSIVE):
            raise ValueError("detector must return Bright or Dark for every trial")
        finals = ens.final_states()
        n = len(ens)
        for y in (0, 1):
            m_b[y, col] = np.count_nonzero((decisions == Decision.BRIGHT) & (finals == y)) / n
            m_d[y, col] = np.count_nonzero((decisions == Decision.DARK) & (finals == y)) / n
    return m_b, m_d


def _check_transfer_matrix(m, name: str):
    m = np.asarray(m, dtype=float)
    if m.shape != (2, 2):
        raise ValueError(f"{name} must be 2x2")
    if np.any(m < 0) or np.any(m > 1):
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
    if not 0.0 <= epsilon_pi <= 1.0:
        raise ValueError("epsilon_pi must lie in [0, 1]")
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
        warnings.warn("no ions retained: relative error undefined",
                      RuntimeWarning, stacklevel=2)
        eps = np.nan
    n_r = 0.5 * (bright.retained + dark.retained)
    return PiPulseResult(bright=bright, dark=dark, epsilon_rel=eps,
                         N_R=n_r, defined=defined)
