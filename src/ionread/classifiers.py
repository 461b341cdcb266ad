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
Inside, both kernels are filters: one step per bin on bin-major counts
updates a few length-n_trials rows, and one generator per kernel yields
each prefix's pair, or its operands, at the bins a caller asks for, so a
sweep holds O(n_trials) scratch.  The single-change formula gathers each
bin's Poisson log-pmf (numpy and ``math.log`` only) from a vector over
0..max count instead of evaluating it per cell, and carries its running
sums with one elementwise add or logaddexp per bin, the operations of
``ufunc.accumulate`` in its order, on rows allocated once per call.  Each
bin yields the stable state's log-likelihood and the two terms p and q
whose logaddexp is the changeable state's; :func:`simple_loglik` combines
them, while a sweep's tally decides from them directly
(:func:`_single_change_brighter`): logaddexp(p, q) lies in [max(p, q),
max(p, q) + ln 2], so below |max(p, q)| = 2**40 a stable log-likelihood
more than 0.7 above max(p, q) or 2**-9 below it compares the same way with
any logaddexp accurate to a few ulps, and only the rows in between (and
NaN, infinities and larger terms) get the exact logaddexp.  The
hidden-Markov product is a scaled forward filter (Rabiner, Proc. IEEE
77:257, 1989) in structure-of-arrays layout: four length-n_trials arrays
hold the entries of every trial's accumulated 2x2 product, each bin
updates them elementwise from four gathered columns of the observation
table, and a per-bin renormalisation, tallied in a log scale, keeps
windows of any length in floating range.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass

import numpy as np

from .photon_model import (IonState, ObservationTable, RateParams, _check_counts,
                           _poisson_logpmf)
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
    _check_int(n_c, "n_c", 0)
    return Decision(int(double_threshold_decide(_as_counts(counts).sum(), n_c, n_c)))


def double_threshold_classify(counts, n_D: int, n_B: int) -> Decision:
    """Dark if the total is <= n_D, Bright if > n_B, else Inconclusive."""
    return Decision(int(double_threshold_decide(_as_counts(counts).sum(), n_D, n_B)))


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


def simple_loglik(counts: np.ndarray, params: RateParams, tau: float | None = None,
                  *, decaying: IonState = IonState.DARK, prefixes=False):
    """Log-likelihoods of the single-change formula, vectorized.

    One designated state may change exactly once inside the window; the other
    is taken as stable.  With ``decaying=DARK`` the dark hypothesis reads
    p_D = (1 - t_b/tau) prod_k P_D(n_k)
        + (t_s/tau) sum_k prod_{j<k} P_D(n_j) prod_{j>=k} P_B(n_j)
    while p_B = prod_k P_B(n_k); ``decaying=BRIGHT`` mirrors the roles (a
    bright prefix that may drop to dark once), which is the variant suited to
    qubits whose dominant change is bright-to-dark.  ``tau`` defaults to the
    decaying state's lifetime.  ``prefixes`` is as in :func:`general_loglik`.

    Returns (log_p_B, log_p_D); a window longer than tau clamps the
    linear-in-t_b prefactor to zero, with a RuntimeWarning.
    """
    counts_t = np.ascontiguousarray(_as_count_matrix(counts).T)
    m = counts_t.shape[0]
    steps = _single_change_steps(counts_t, params, tau, decaying,
                                 range(m) if prefixes else (m - 1,))
    return _prefix_logs(_single_change_logs(steps, decaying), counts_t.shape, prefixes)


def _single_change_steps(counts_t, params: RateParams, tau: float | None, decaying,
                         bins):
    """Per-bin (stable, p, q) of the single-change formula on bin-major
    counts, at each bin in ``bins``: the stable state's log-likelihood and
    the two terms whose logaddexp is the changeable state's.  Each triple
    holds until the next step.  The running log-pmf
    sums of the changeable (``stay``) and the stable state (``after``), the
    running logaddexp ``inner`` of the change terms, the per-bin gathers and
    p and q are rows of n_trials each, allocated once and updated in place.
    ``tau`` None takes the decaying state's lifetime.  A negative
    linear-in-t_b prefactor is clamped to zero, which warns once per call
    (RuntimeWarning).
    """
    decaying = IonState(decaying)
    if tau is None:
        tau = params.tau_D if decaying is IonState.DARK else params.tau_B
    if not tau > 0:     # NaN too; tau = inf is a stable state
        raise ValueError(f"tau must be > 0, got {tau}")
    m, n = counts_t.shape
    means = (params.dark_mean, params.bright_mean)[::1 if decaying is IonState.DARK else -1]
    # Gather from a log-pmf vector over 0..max count unless it outgrows counts.
    hi = int(counts_t.max(initial=0))
    vectors = ([_poisson_logpmf(np.arange(hi + 1), mean) for mean in means]
               if hi < counts_t.size else (None, None))
    prefac = 1.0 - np.arange(1, m + 1) * params.t_s / tau
    if prefac[-1] < 0:      # level 5: the caller of simple_loglik
        warnings.warn("t_b >= tau: single-change prefactor clamped to 0",
                      RuntimeWarning, stacklevel=5)
    log_prefac = np.where(prefac > 0, np.log(np.maximum(prefac, 1e-300)), -np.inf)
    with np.errstate(divide="ignore"):  # tau = inf gives a vanishing change term
        log_rate = np.log(params.t_s / tau)
    stay, after, stay_k, after_k, p, q = (np.empty(n) for _ in range(6))
    inner = np.zeros(n)
    # A change during bin i contributes exp(stay[i-1] + after[k] - after[i-1])
    # to the k-bin prefix; exp(after[k]) is factored out of the inner sum.
    for k, row in enumerate(counts_t):
        for out, mean, vector in zip((stay_k, after_k) if k else (stay, after), means, vectors):
            if vector is None:
                out[...] = _poisson_logpmf(row, mean)
            else:       # "clip" writes straight to out; every count is in range
                np.take(vector, row, out=out, mode="clip")
        if k:
            np.logaddexp(inner, np.subtract(stay, after, out=p), out=inner)
            stay += stay_k
            after += after_k
        if k in bins:
            np.add(stay, log_prefac[k], out=p)
            np.add(inner, np.add(after, log_rate, out=q), out=q)
            yield after, p, q


def _single_change_logs(steps, decaying):
    """(log_p_B, log_p_D) of each single-change step: the changeable state's
    log-likelihood is logaddexp(p, q), written over p."""
    dark = IonState(decaying) is IonState.DARK
    for stable, p, q in steps:
        mixed = np.logaddexp(p, q, out=p)
        yield (stable, mixed) if dark else (mixed, stable)


# numpy's logaddexp(p, q) is max(p, q) + log1p(exp(-|p - q|)), which lies in
# [max(p, q), max(p, q) + ln 2].  Below |max(p, q)| = 2**40 an ulp is at most
# 2**-12, so a stable log-likelihood more than 0.7 (ln 2 + 28 ulps) above
# max(p, q), or more than 2**-9 (8 ulps) below it, is on the same side of any
# logaddexp accurate to a few ulps.
_ABOVE_MIXED, _BELOW_MIXED, _MIXED_SCALE = 0.7, 2.0 ** -9, 2.0 ** 40


def _single_change_brighter(steps, decaying):
    """The Bright mask (log_p_B > log_p_D) of each single-change step, equal
    to :func:`decide_from_logs` of :func:`simple_loglik`'s pair, without the
    mixed logaddexp where its bound decides.  Only rows that the bound leaves
    open, and every row of a step whose max(p, q) is not finite or reaches
    2**40 in size, get logaddexp(p, q).  NaN leaves a row open.  Each mask
    holds until the next step."""
    dark = IonState(decaying) is IonState.DARK
    gap = None
    for stable, p, q in steps:
        if gap is None:
            gap, above, below = np.empty(p.size), np.empty(p.size, bool), np.empty(p.size, bool)
        np.maximum(p, q, out=gap)
        bounded = -_MIXED_SCALE < gap.min(initial=0.0) and gap.max(initial=0.0) < _MIXED_SCALE
        with np.errstate(invalid="ignore"):     # -inf - -inf: the row stays open
            np.subtract(stable, gap, out=gap)   # stable - max(p, q)
        np.greater(gap, _ABOVE_MIXED, out=above)
        np.less(gap, -_BELOW_MIXED, out=below)
        brighter = above if dark else below
        rows = np.flatnonzero(~(above | below)) if bounded else slice(None)
        mixed = np.logaddexp(p[rows], q[rows])
        brighter[rows] = stable[rows] > mixed if dark else mixed > stable[rows]
        yield brighter


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


def _forward_product(counts2d: np.ndarray, table: ObservationTable):
    """Left product of the per-bin observation matrices in sequence order,
    yielded bin by bin.

    The product is kept as four length-n_trials arrays (a00, a01, a10, a11),
    entry [i, j] of each trial's 2x2 matrix: rows are the state after the
    window, columns the initial state.  Each bin gathers the four entry
    columns of ``table.entries`` at its row of the clamped counts, copied
    bin-major at the narrowest dtype that holds n_max (s00 .. s11), and
    forms the matrix product step x acc with eight elementwise multiplies
    and four adds, then divides the four arrays by their sum and adds its
    log to ``log_scale``, so arbitrarily long windows stay in range.
    Yields ((a00, a01, a10, a11), log_scale) after each bin, valid until the
    next step; the column sums a00 + a10 and a01 + a11 are the initial-state
    likelihoods of that prefix over ``exp(log_scale)``.
    """
    n, m = counts2d.shape
    rows = np.ascontiguousarray(table.clamp_counts(counts2d).T,
                                dtype=np.min_scalar_type(table.n_max))
    columns = table.entries.reshape(-1, 4).T.copy()    # rows: s00, s01, s10, s11
    step = np.empty((4, n))
    a00, a01, a10, a11 = np.ones(n), np.zeros(n), np.zeros(n), np.ones(n)
    log_scale = np.zeros(n)
    for k in range(m):
        s00, s01, s10, s11 = np.take(columns, rows[k], axis=1, out=step)
        a00, a01, a10, a11 = (s00 * a00 + s01 * a10, s00 * a01 + s01 * a11,
                              s10 * a00 + s11 * a10, s10 * a01 + s11 * a11)
        norm = a00 + a01 + a10 + a11
        norm = np.where(norm > 0, norm, 1.0)
        for a in (a00, a01, a10, a11):
            a /= norm
        log_scale += np.log(norm)
        yield (a00, a01, a10, a11), log_scale


def _forward_logs(counts2d: np.ndarray, table: ObservationTable, bins):
    """(log_p_B, log_p_D) of :func:`_forward_product` at each bin in ``bins``:
    the logs of its column sums plus its log scale."""
    for k, ((a00, a01, a10, a11), log_scale) in enumerate(_forward_product(counts2d, table)):
        if k in bins:
            with np.errstate(divide="ignore"):      # a zero column sum
                logs = np.log(a00 + a10) + log_scale, np.log(a01 + a11) + log_scale
            yield logs


def _prefix_logs(steps, shape, prefixes):
    """Consume per-bin (log_p_B, log_p_D) steps.  ``prefixes`` False returns
    the last pair; True every pair, as (n_trials, n_bins) views of bin-major
    ``shape`` arrays.  Anything else raises ValueError before a step runs."""
    if not isinstance(prefixes, (bool, np.bool_)):
        raise ValueError(f"prefixes must be True or False, got {prefixes!r}")
    stacked = (np.empty(shape), np.empty(shape)) if prefixes else ()
    for k, logs in enumerate(steps):
        for rows, log in zip(stacked, logs):
            rows[k] = log
    return (stacked[0].T, stacked[1].T) if stacked else logs


def general_loglik(counts: np.ndarray, table: ObservationTable, *, prefixes=False):
    """Log initial-state likelihoods under the full hidden-Markov model.

    Returns (log_p_B, log_p_D) of shape (n_trials,); ``prefixes`` True gives
    every leading sub-window's, of shape (n_trials, n_bins).  Counts above
    the table's n_max are scored as n_max, with a warning.
    """
    counts2d = _as_count_matrix(counts)
    m = counts2d.shape[1]
    return _prefix_logs(_forward_logs(counts2d, table, range(m) if prefixes else (m - 1,)),
                        counts2d.shape[::-1], prefixes)


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
        if not np.isin(decisions, (Decision.BRIGHT, Decision.DARK)).all():
            raise ValueError("detector must return Bright or Dark for every trial")
        cells = np.bincount(2 * decisions.astype(np.intp) + ens.final_states(), minlength=4)
        m_b[:, col], m_d[:, col] = cells[:2] / len(ens), cells[2:] / len(ens)
    return m_b, m_d


def _check_transfer_matrix(m, name: str):
    m = np.asarray(m, dtype=float)
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
