"""Tests for the discrimination methods.

The generalized method is checked against brute-force enumeration of all
2^(M+1) hidden state sequences, and the single-change formula against a
naive direct evaluation; both oracles are also frozen into constants so a
regression cannot hide inside a shared helper.
"""

import collections
import contextlib
import inspect
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ionread import classifiers, harness
from ionread.classifiers import (
    Decision,
    _forward_product,
    decide_from_logs,
    double_threshold_classify,
    double_threshold_decide,
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
from ionread.photon_model import (
    DEFAULT_PARAMS,
    IonState,
    ObservationTable,
    RateParams,
    _poisson_logpmf,
    build_observation_table,
    count_pmf,
    mixed_pmf,
    stay_prob,
)
from ionread.trajectory import SimConfig, simulate_ensemble

P = DEFAULT_PARAMS


@pytest.fixture(scope="module")
def table():
    return build_observation_table(P)


def enumeration_factor(post, pre, n, params):
    """One per-bin factor assembled from first-principles building blocks."""
    if pre == 0 and post == 0:
        return stay_prob(IonState.BRIGHT, params.t_s, params) * count_pmf(IonState.BRIGHT, n, params)
    if pre == 1 and post == 1:
        return stay_prob(IonState.DARK, params.t_s, params) * count_pmf(IonState.DARK, n, params)
    if pre == 0 and post == 1:
        return mixed_pmf("BD", n, params)
    return mixed_pmf("DB", n, params)


def path_sum(counts, params):
    """Exact likelihoods by summing over every hidden state sequence."""
    m = len(counts)
    p_b = p_d = 0.0
    for path in itertools.product((0, 1), repeat=m + 1):
        w = 1.0
        for k in range(m):
            w *= enumeration_factor(path[k + 1], path[k], counts[k], params)
        if path[0] == 0:
            p_b += w
        else:
            p_d += w
    return p_b, p_d


def naive_single_change(counts, params, tau):
    """Direct evaluation of the single-change formula, linear floats."""
    m = len(counts)
    pb = [count_pmf(IonState.BRIGHT, n, params) for n in counts]
    pd = [count_pmf(IonState.DARK, n, params) for n in counts]
    p_b = np.prod(pb)
    p_d = max(0.0, 1.0 - m * params.t_s / tau) * np.prod(pd)
    for k in range(m):
        p_d += (params.t_s / tau) * np.prod(pd[:k]) * np.prod(pb[k:])
    return p_b, p_d


def naive_single_change_bright(counts, params, tau):
    """Mirror of naive_single_change: one bright-to-dark change allowed."""
    m = len(counts)
    pb = [count_pmf(IonState.BRIGHT, n, params) for n in counts]
    pd = [count_pmf(IonState.DARK, n, params) for n in counts]
    p_d = np.prod(pd)
    p_b = max(0.0, 1.0 - m * params.t_s / tau) * np.prod(pb)
    for k in range(m):
        p_b += (params.t_s / tau) * np.prod(pb[:k]) * np.prod(pd[k:])
    return p_b, p_d



def matmul_reference(counts, table):
    """Every prefix's initial-state log-likelihoods from each row's product
    of ``table.entries[n]`` matrices with plain ``@``, renormalised per bin."""
    counts = np.minimum(np.asarray(counts), table.n_max)
    n, m = counts.shape
    acc = np.broadcast_to(np.eye(2), (n, 2, 2)).copy()
    log_scale = np.zeros(n)
    log_b, log_d = np.empty((n, m)), np.empty((n, m))
    for k in range(m):
        acc = table.entries[counts[:, k]] @ acc
        norm = acc.sum(axis=(1, 2))
        acc /= norm[:, None, None]
        log_scale += np.log(norm)
        log_b[:, k] = np.log(acc[:, 0, 0] + acc[:, 1, 0]) + log_scale
        log_d[:, k] = np.log(acc[:, 0, 1] + acc[:, 1, 1]) + log_scale
    return log_b, log_d


@pytest.fixture(scope="module")
def long_window_counts():
    """2 x 4096 simulated trials over 300 bins (t_b = 30 ms)."""
    cfg = SimConfig(n_trials=4096, t_b=30.0, seed=12, params=P)
    return np.vstack([simulate_ensemble(cfg, s).counts
                      for s in (IonState.BRIGHT, IonState.DARK)])


@pytest.fixture(scope="module")
def wide_records():
    """200 random 30-bin records whose counts reach above the table's n_max."""
    return np.random.default_rng(26).integers(0, 40, size=(200, 30))


@pytest.fixture(scope="module")
def records(wide_records):
    """2 x 3,000 simulated 30-bin records (t_b = 3 ms), then the wide ones."""
    cfg = SimConfig(n_trials=3000, t_b=3.0, seed=5, params=P)
    return np.vstack([*(simulate_ensemble(cfg, s).counts for s in IonState), wide_records])


def assert_scalar_is_batch_row(scalar, batch, records):
    """Each record's (decision, log_p_B, log_p_D) from the one-record
    classifier is its batch row, bit for bit, decided by decide_from_logs."""
    log_b, log_d = batch(records)
    decisions = decide_from_logs(log_b, log_d)
    for i, record in enumerate(records):
        decision, log_p_b, log_p_d = scalar(record)
        assert (log_p_b, log_p_d) == (log_b[i], log_d[i])
        assert decision is Decision(decisions[i])
        assert decision == decide_from_logs(log_p_b, log_p_d)


def _stacked(steps):
    """Copies of every (log_p_B, log_p_D) step, as (n_trials, n_bins) arrays."""
    columns = [tuple(map(np.copy, logs)) for logs in steps]
    return tuple(np.stack(logs, axis=1) for logs in zip(*columns))


def general_columns(counts, table):
    """Every prefix's (log_p_B, log_p_D) of the hidden-Markov kernel: its
    per-bin generator, ``_forward_logs``, read at each bin."""
    counts = np.asarray(counts)
    return _stacked(classifiers._forward_logs(counts, table, range(counts.shape[1])))


def simple_columns(counts, params, tau=None, *, decaying=IonState.DARK):
    """Every prefix's (log_p_B, log_p_D) of the single-change formula:
    ``_single_change_logs`` of ``_single_change_steps`` read at each bin."""
    counts_t = np.ascontiguousarray(np.asarray(counts).T)
    steps = classifiers._single_change_steps(counts_t, params, tau, decaying,
                                             range(len(counts_t)))
    return _stacked(classifiers._single_change_logs(steps, decaying))


def _refused_for_a_silent_stable_state(params, decaying, *calls) -> bool:
    """Whether ``params`` give the single-change formula a stable state with
    a mean count of 0 (no dark counts, a decaying bright state); then each
    of ``calls`` must refuse them by R_D."""
    if params.R_D > 0 or IonState(decaying) is IonState.DARK:
        return False
    for call in calls:
        with pytest.raises(ValueError, match="^R_D=0.0, .* stable dark state never emits"):
            call()
    return True


class TestThreshold:
    def test_all_zeros_is_dark(self):
        assert threshold_classify([0, 0, 0], n_c=1) is Decision.DARK

    def test_strictly_above_threshold_is_bright(self):
        assert threshold_classify([1, 1], n_c=1) is Decision.BRIGHT

    def test_boundary_total_is_dark(self):
        assert threshold_classify([1, 0], n_c=1) is Decision.DARK

    def test_never_inconclusive(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            counts = rng.integers(0, 5, size=10)
            assert threshold_classify(counts, 3) in (Decision.BRIGHT, Decision.DARK)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            threshold_classify([], 1)

    def test_batch_agrees_with_scalar(self):
        rng = np.random.default_rng(1)
        counts = rng.integers(0, 6, size=(50, 8))
        batch = double_threshold_decide(counts.sum(axis=1), 4, 4)
        for i in range(50):
            assert batch[i] == int(threshold_classify(counts[i], 4))


class TestDoubleThreshold:
    def test_paper_thresholds(self):
        assert double_threshold_classify([0], n_D=0, n_B=4) is Decision.DARK
        assert double_threshold_classify([3], n_D=0, n_B=4) is Decision.INCONCLUSIVE
        assert double_threshold_classify([5], n_D=0, n_B=4) is Decision.BRIGHT

    def test_gap_boundaries(self):
        assert double_threshold_classify([1], n_D=1, n_B=4) is Decision.DARK
        assert double_threshold_classify([4], n_D=1, n_B=4) is Decision.INCONCLUSIVE

    def test_crossed_thresholds_rejected(self):
        with pytest.raises(ValueError):
            double_threshold_classify([1], n_D=5, n_B=4)
        with pytest.raises(ValueError):
            double_threshold_decide(np.array([1]), 5, 4)

    def test_batch_agrees_with_scalar(self):
        totals = np.arange(0, 10)
        batch = double_threshold_decide(totals, 1, 4)
        for i, total in enumerate(totals):
            assert batch[i] == int(double_threshold_classify([total], 1, 4))


class TestSimpleTimeResolved:
    # Frozen from the naive direct evaluation of the single-change formula
    # at the default parameter set with tau = tau_D.
    FROZEN = {
        (3, 0, 0): (5.428896303218276e-03, 1.378689785585869e-05),
        (0, 0, 4): (2.212275243561447e-03, 1.204636361383316e-04),
        (1,): (3.193652058268622e-01, 2.963167286327741e-02),
        (0, 2, 0, 1, 3): (4.512781983388572e-04, 4.840216234977068e-06),
    }

    @pytest.mark.parametrize("counts", sorted(FROZEN))
    def test_frozen_values(self, counts):
        p_b, p_d = self.FROZEN[counts]
        _, log_b, log_d = simple_time_resolved_classify(list(counts), P)
        assert math.exp(log_b) == pytest.approx(p_b, rel=1e-12)
        assert math.exp(log_d) == pytest.approx(p_d, rel=1e-12)

    def test_matches_naive_evaluation(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            counts = rng.integers(0, 6, size=rng.integers(1, 12)).tolist()
            expect_b, expect_d = naive_single_change(counts, P, P.tau_D)
            _, log_b, log_d = simple_time_resolved_classify(counts, P)
            assert math.exp(log_b) == pytest.approx(expect_b, rel=1e-10)
            assert math.exp(log_d) == pytest.approx(expect_d, rel=1e-10)

    def test_batch_matches_scalar_and_prefixes(self, records, wide_records):
        assert_scalar_is_batch_row(lambda c: simple_time_resolved_classify(c, P),
                                   lambda c: simple_loglik(c, P), records)
        with pytest.warns(RuntimeWarning, match="prefactor clamped"):   # 3 ms > tau
            assert_scalar_is_batch_row(lambda c: simple_time_resolved_classify(c, P, 0.5),
                                       lambda c: simple_loglik(c, P, 0.5), wide_records)
        rng = np.random.default_rng(3)
        counts = rng.integers(0, 6, size=(20, 9))
        log_b_pref, log_d_pref = simple_columns(counts, P)
        for i in range(20):
            for k in (1, 5, 9):
                lb_k, ld_k = simple_loglik(counts[i:i + 1, :k], P)
                assert log_b_pref[i, k - 1] == pytest.approx(lb_k[0], abs=1e-12)
                assert log_d_pref[i, k - 1] == pytest.approx(ld_k[0], abs=1e-12)

    def test_single_bin_collapse(self):
        """For M=1 the formula reduces to a two-term mixture."""
        for n in range(5):
            _, log_b, log_d = simple_time_resolved_classify([n], P)
            expect = ((1 - P.t_s / P.tau_D) * count_pmf(IonState.DARK, n, P)
                      + (P.t_s / P.tau_D) * count_pmf(IonState.BRIGHT, n, P))
            assert math.exp(log_d) == pytest.approx(expect, rel=1e-12)
            assert math.exp(log_b) == pytest.approx(count_pmf(IonState.BRIGHT, n, P),
                                                    rel=1e-12)

    def test_bright_mean_counts_decide_bright(self):
        counts = [round(P.bright_mean)] * 10
        decision, _, _ = simple_time_resolved_classify(counts, P)
        assert decision is Decision.BRIGHT

    def test_dark_then_bright_ranks_above_reverse(self):
        """A trailing burst fits a dark-to-bright change; a leading one
        cannot be produced by the single-change model."""
        tail = [0, 0, 0, 0, 0, 2, 3, 4, 3, 2]
        head = list(reversed(tail))
        _, _, log_d_tail = simple_time_resolved_classify(tail, P)
        _, _, log_d_head = simple_time_resolved_classify(head, P)
        assert log_d_tail > log_d_head

    def test_long_window_clamps_prefactor_and_warns(self):
        # The warning is the one signal of a clamped prefactor: the kernels
        # return the likelihood pair alone.  The clamped no-change term is
        # zero, so log_p_D is the change term's log, as in the direct
        # evaluation, and the batch row's.
        counts = [0] * 10
        with pytest.warns(RuntimeWarning, match="clamped"):
            result = simple_time_resolved_classify(counts, P, tau=0.5)
            log_b, log_d = simple_loglik([counts], P, tau=0.5)
        change_only = naive_single_change(counts, P, 0.5)[1]     # max(0, 1 - t_b/tau) = 0
        assert log_d[0] == pytest.approx(math.log(change_only), rel=1e-12)
        assert result[1:] == (log_b[0], log_d[0])
        with pytest.warns(RuntimeWarning, match="^t_b >= tau: single-change prefactor "
                                                "clamped to 0$"):
            logs = simple_loglik(np.array([counts]), P, tau=0.5)
        assert len(logs) == 2 and all(log.shape == (1,) for log in logs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert len(simple_loglik(np.array([counts[:5]]), P, tau=0.5)) == 2

    def test_prefactor_warning_names_the_caller(self, table):
        # The warning points at the line that called simple_loglik, not at
        # the kernel's own frames.  So do the one-record classifier's, the
        # general kernel's clamp warning and a sweep's, once per state, and
        # the coarse sub-bin warning of the table a sweep builds.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            line = inspect.currentframe().f_lineno + 1
            simple_loglik([[0] * 10], P, tau=0.5)
        assert [(w.filename, w.lineno) for w in caught] == [(__file__, line)]
        spec = harness.SweepSpec(t_b_values=(0.5, 1.0), n_trials=64, seed=1, params=P,
                                 classifiers=({"method": "simple", "tau_ms": 0.5},))
        coarse = harness.SweepSpec(t_b_values=(0.5,), n_trials=64, seed=1,
                                   params=RateParams(16.0, 0.3, 0.61, 56.0, 0.1),
                                   classifiers=({"method": "general"},))
        for call, times in ((lambda: simple_time_resolved_classify([0] * 10, P, tau=0.5), 1),
                            (lambda: general_loglik([[0, 99]], table), 1),
                            (lambda: harness.sweep(spec), 2),
                            (lambda: harness.sweep(coarse), 1)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                call()
            assert [w.filename for w in caught] == [__file__] * times

    def test_default_tau_is_dark_lifetime(self):
        counts = [0, 1, 2]
        default = simple_time_resolved_classify(counts, P)
        assert default == simple_time_resolved_classify(counts, P, tau=P.tau_D)
        assert default != simple_time_resolved_classify(counts, P, tau=P.tau_B)

    def test_bad_tau_rejected(self):
        with pytest.raises(ValueError):
            simple_loglik(np.array([[1]]), P, tau=0.0)

    def test_nan_tau_rejected(self):
        # NaN once passed ``tau <= 0`` and gave log_p_D = NaN, decided Dark.
        for bad in (math.nan, -math.inf, -1.0):
            with pytest.raises(ValueError, match="tau must be > 0"):
                simple_loglik(np.array([[1]]), P, tau=bad)
        assert np.isfinite(simple_loglik(np.array([[1, 0]]), P, tau=math.inf)).all()

    @pytest.mark.parametrize("bad", [[[-1, 2]], [[1.7, 2]], np.array([[2.0, 0.5]])])
    @pytest.mark.parametrize("decaying", [IonState.DARK, IonState.BRIGHT])
    def test_negative_and_fractional_counts_rejected(self, bad, decaying):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="photon count"):
                simple_loglik(bad, P, decaying=decaying)
            with pytest.raises(ValueError, match="photon count"):
                simple_time_resolved_classify(bad[0], P, decaying=decaying)

    def test_integer_valued_floats_accepted(self):
        as_float = simple_loglik([[1.0, 2.0, 0.0]], P)
        as_int = simple_loglik([[1, 2, 0]], P)
        for got, expect in zip(as_float, as_int):
            assert np.array_equal(got, expect)

    def test_gathered_log_pmf_is_per_cell_log_pmf(self):
        counts = np.random.default_rng(8).integers(0, 14, size=(400, 7))
        log_b, _ = simple_columns(counts, P)
        _, log_d = simple_columns(counts, P, decaying=IonState.BRIGHT)
        assert np.array_equal(log_b, np.cumsum(_poisson_logpmf(counts, P.bright_mean), axis=1))
        assert np.array_equal(log_d, np.cumsum(_poisson_logpmf(counts, P.dark_mean), axis=1))

    def test_huge_count_evaluated_per_cell(self):
        # A log-pmf vector over 0..10^12 would not fit in memory; the values
        # are those of the per-cell evaluation.
        log_b, log_d = simple_columns([[10**12, 0]], P)
        assert log_b.tolist() == [[-26142441101126.242, -26142441101127.87]]
        assert log_d.tolist() == [[-26142441101132.57, -26142441101134.2]]


class TestSimpleBrightDecay:
    """The mirrored single-change variant: a bright prefix may drop to dark
    once, suited to qubits whose dominant change is bright to dark."""

    # Frozen from naive_single_change_bright at the default parameter set
    # with tau = tau_B.
    FROZEN = {
        (3, 0, 0): (8.363416419440224e-03, 4.112690333720534e-06),
        (0, 0, 4): (2.076830602731743e-03, 3.084517750290391e-08),
        (1,): (3.134416988917519e-01, 2.911336600645525e-02),
        (0, 2, 0, 1, 3): (4.052298426011760e-04, 5.228800956782231e-11),
    }

    @pytest.mark.parametrize("counts", sorted(FROZEN))
    def test_frozen_values(self, counts):
        p_b, p_d = self.FROZEN[counts]
        _, log_b, log_d = simple_time_resolved_classify(list(counts), P,
                                                        decaying=IonState.BRIGHT)
        assert math.exp(log_b) == pytest.approx(p_b, rel=1e-12)
        assert math.exp(log_d) == pytest.approx(p_d, rel=1e-12)

    def test_matches_naive_evaluation(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            counts = rng.integers(0, 6, size=rng.integers(1, 12)).tolist()
            expect_b, expect_d = naive_single_change_bright(counts, P, P.tau_B)
            _, log_b, log_d = simple_time_resolved_classify(counts, P,
                                                            decaying=IonState.BRIGHT)
            assert math.exp(log_b) == pytest.approx(expect_b, rel=1e-10)
            assert math.exp(log_d) == pytest.approx(expect_d, rel=1e-10)

    def test_batch_matches_scalar(self, records, wide_records):
        for tau, counts in ((None, records), (0.5, wide_records)):
            with (pytest.warns(RuntimeWarning, match="prefactor clamped") if tau
                  else contextlib.nullcontext()):
                assert_scalar_is_batch_row(
                    lambda c: simple_time_resolved_classify(c, P, tau, decaying=IonState.BRIGHT),
                    lambda c: simple_loglik(c, P, tau, decaying=IonState.BRIGHT), counts)

    def test_single_bin_collapse(self):
        for n in range(5):
            _, log_b, log_d = simple_time_resolved_classify([n], P,
                                                            decaying=IonState.BRIGHT)
            expect = ((1 - P.t_s / P.tau_B) * count_pmf(IonState.BRIGHT, n, P)
                      + (P.t_s / P.tau_B) * count_pmf(IonState.DARK, n, P))
            assert math.exp(log_b) == pytest.approx(expect, rel=1e-12)
            assert math.exp(log_d) == pytest.approx(count_pmf(IonState.DARK, n, P),
                                                    rel=1e-12)

    def test_bright_then_dark_ranks_above_reverse(self):
        """A leading burst fits a bright-to-dark change; a trailing one
        cannot be produced by this direction of the single-change model."""
        head = [2, 3, 4, 3, 2, 0, 0, 0, 0, 0]
        tail = list(reversed(head))
        _, log_b_head, _ = simple_time_resolved_classify(head, P,
                                                         decaying=IonState.BRIGHT)
        _, log_b_tail, _ = simple_time_resolved_classify(tail, P,
                                                         decaying=IonState.BRIGHT)
        assert log_b_head > log_b_tail

    def test_decayed_sequence_still_detected_bright(self):
        """An early drop to dark keeps a higher bright than dark likelihood,
        unlike under the dark-decay direction where bin one decides."""
        counts = [2, 2, 0, 0, 0, 0, 0, 0, 0, 0]
        decision, _, _ = simple_time_resolved_classify(counts, P,
                                                       decaying=IonState.BRIGHT)
        assert decision is Decision.BRIGHT

    def test_default_tau_is_bright_lifetime(self):
        counts = [2, 1, 0]
        default = simple_time_resolved_classify(counts, P, decaying=IonState.BRIGHT)
        assert default == simple_time_resolved_classify(counts, P, tau=P.tau_B,
                                                        decaying=IonState.BRIGHT)
        assert default != simple_time_resolved_classify(counts, P, tau=P.tau_D,
                                                        decaying=IonState.BRIGHT)


class TestGeneralizedTimeResolved:
    # Frozen from the hidden-path enumeration oracle at default parameters.
    FROZEN = {
        (3, 0, 0): (7.664049455963867e-03, 8.562009907341315e-06),
        (0, 0, 4): (2.093431944980880e-03, 8.350295683570868e-05),
        (1,): (3.190202713798981e-01, 2.960147366467376e-02),
        (0, 2, 0, 1, 3): (4.106931512401844e-04, 3.928820147814282e-06),
    }

    @pytest.mark.parametrize("counts", sorted(FROZEN))
    def test_frozen_values(self, counts, table):
        p_b, p_d = self.FROZEN[counts]
        _, log_b, log_d = generalized_time_resolved_classify(list(counts), table)
        assert math.exp(log_b) == pytest.approx(p_b, rel=1e-12)
        assert math.exp(log_d) == pytest.approx(p_d, rel=1e-12)

    def test_matches_path_enumeration(self, table):
        """Matrix product == exact sum over all hidden state sequences."""
        rng = np.random.default_rng(4)
        for _ in range(25):
            m = int(rng.integers(1, 9))
            counts = rng.integers(0, 7, size=m).tolist()
            expect_b, expect_d = path_sum(counts, P)
            _, log_b, log_d = generalized_time_resolved_classify(counts, table)
            assert math.exp(log_b) == pytest.approx(expect_b, rel=1e-10)
            assert math.exp(log_d) == pytest.approx(expect_d, rel=1e-10)

    def test_single_matrix_collapse(self, table):
        for n in range(4):
            _, log_b, log_d = generalized_time_resolved_classify([n], table)
            expect_b = (stay_prob(IonState.BRIGHT, P.t_s, P) * count_pmf(IonState.BRIGHT, n, P)
                        + mixed_pmf("BD", n, P))
            expect_d = (stay_prob(IonState.DARK, P.t_s, P) * count_pmf(IonState.DARK, n, P)
                        + mixed_pmf("DB", n, P))
            assert math.exp(log_b) == pytest.approx(expect_b, rel=1e-10)
            assert math.exp(log_d) == pytest.approx(expect_d, rel=1e-10)

    def test_batch_matches_scalar_and_prefixes(self, table, records):
        assert (records > table.n_max).any()
        with pytest.warns(RuntimeWarning, match="counts exceed the table's n_max"):
            assert_scalar_is_batch_row(lambda c: generalized_time_resolved_classify(c, table),
                                       lambda c: general_loglik(c, table), records)
        rng = np.random.default_rng(5)
        counts = rng.integers(0, 8, size=(20, 7))
        log_b_pref, log_d_pref = general_columns(counts, table)
        for k in (1, 3, 7):
            lb_k, ld_k = general_loglik(counts[:, :k], table)
            assert np.allclose(log_b_pref[:, k - 1], lb_k, atol=1e-12)
            assert np.allclose(log_d_pref[:, k - 1], ld_k, atol=1e-12)

    def test_long_window_stays_finite(self, table):
        counts = np.zeros((1, 5000), dtype=int)
        log_b, log_d = general_loglik(counts, table)
        assert np.isfinite(log_b).all() and np.isfinite(log_d).all()
        assert log_d[0] > log_b[0]

    def test_empty_sequence_rejected(self, table):
        with pytest.raises(ValueError):
            generalized_time_resolved_classify([], table)
        with pytest.raises(ValueError):
            general_loglik(np.zeros((3, 0), dtype=int), table)

    def test_degenerate_lifetimes_reduce_to_poisson_ratio(self):
        """With transitions off, the decision is the pure Poisson
        likelihood ratio, and the single-change formula agrees."""
        frozen = RateParams(P.R_B, P.R_D, 1e9, 1e9, P.t_s)
        frozen_table = build_observation_table(frozen)
        rng = np.random.default_rng(6)
        for _ in range(60):
            counts = rng.integers(0, 5, size=10)
            log_b, log_d = general_loglik(counts[None, :], frozen_table)
            ratio_b = _log_poisson_product(counts, frozen.bright_mean)
            ratio_d = _log_poisson_product(counts, frozen.dark_mean)
            expect = Decision.BRIGHT if ratio_b > ratio_d else Decision.DARK
            assert decide_from_logs(log_b, log_d)[0] == int(expect)
            lb_s, ld_s = simple_loglik(counts[None, :], frozen, tau=np.inf)
            assert decide_from_logs(lb_s, ld_s)[0] == int(expect)

    def test_monotone_sufficiency_without_transitions(self):
        """Transitions off: the decision depends on the total count only and
        flips from Dark to Bright at a unique total."""
        frozen = RateParams(P.R_B, P.R_D, 1e9, 1e9, P.t_s)
        frozen_table = build_observation_table(frozen)
        m = 10
        rng = np.random.default_rng(7)
        decisions_by_total = {}
        for total in range(0, 30):
            seen = set()
            for _ in range(5):
                counts = np.bincount(rng.integers(0, m, size=total), minlength=m)
                log_b, log_d = general_loglik(counts[None, :], frozen_table)
                seen.add(int(decide_from_logs(log_b, log_d)[0]))
            assert len(seen) == 1, f"decision not a function of the total at {total}"
            decisions_by_total[total] = seen.pop()
        codes = [decisions_by_total[t] for t in range(0, 30)]
        flips = sum(1 for a, b in zip(codes, codes[1:]) if a != b)
        assert flips == 1
        assert codes[0] == int(Decision.DARK) and codes[-1] == int(Decision.BRIGHT)

    def test_count_above_table_range_is_clamped(self, table):
        with pytest.warns(RuntimeWarning, match=f"^1 counts exceed the table's n_max = "
                          f"{table.n_max} \\(largest 10000\\); they are scored as {table.n_max}$"):
            decision, _, _ = generalized_time_resolved_classify([10_000], table)
        assert decision is Decision.BRIGHT
        assert table.clamped_lookups > 0

    def test_clamp_tally_counts_each_count_above_table(self, table):
        counts = np.array([[0, table.n_max, table.n_max + 1],
                           [10_000, 3, table.n_max + 5],
                           [1, 2, 3]])
        before = table.clamped_lookups
        text = (f"^{{}} counts exceed the table's n_max = {table.n_max} \\(largest 10000\\); "
                f"they are scored as {table.n_max}$")
        with pytest.warns(RuntimeWarning, match=text.format(3)):
            general_loglik(counts, table)
        assert table.clamped_lookups - before == 3
        with pytest.warns(RuntimeWarning, match=text.format(3)):
            general_columns(counts, table)
        assert table.clamped_lookups - before == 6
        with pytest.warns(RuntimeWarning, match=text.format(2)):
            generalized_time_resolved_classify(counts[1], table)
        assert table.clamped_lookups - before == 8

    @pytest.mark.parametrize("bad", [[[-1, 2]], [[1.7, 2]], np.array([[2.0, 0.5]])])
    def test_negative_and_fractional_counts_rejected(self, table, bad):
        before = table.clamped_lookups
        with pytest.raises(ValueError, match="photon count"):
            general_loglik(bad, table)
        with pytest.raises(ValueError, match="photon count"):
            generalized_time_resolved_classify(bad[0], table)
        assert table.clamped_lookups == before

    def test_integer_valued_floats_accepted(self, table):
        as_float = general_loglik([[1.0, 2.0, 0.0]], table)
        as_int = general_loglik([[1, 2, 0]], table)
        for got, expect in zip(as_float, as_int):
            assert np.array_equal(got, expect)


class TestForwardFilterReference:
    """The forward filter against a test-local product of table matrices."""

    def _check(self, counts, table):
        ref_b, ref_d = matmul_reference(counts, table)
        pref_b, pref_d = general_columns(counts, table)
        final_b, final_d = general_loglik(counts, table)
        np.testing.assert_allclose(pref_b, ref_b, rtol=1e-12, atol=0)
        np.testing.assert_allclose(pref_d, ref_d, rtol=1e-12, atol=0)
        np.testing.assert_allclose(final_b, ref_b[:, -1], rtol=1e-12, atol=0)
        np.testing.assert_allclose(final_d, ref_d[:, -1], rtol=1e-12, atol=0)
        assert np.array_equal(decide_from_logs(pref_b, pref_d),
                              decide_from_logs(ref_b, ref_d))
        assert np.array_equal(decide_from_logs(final_b, final_d),
                              decide_from_logs(ref_b[:, -1], ref_d[:, -1]))

    def test_random_counts_beyond_table(self, table):
        rng = np.random.default_rng(21)
        counts = rng.integers(0, table.n_max + 8, size=(500, 40))
        assert (counts > table.n_max).any()
        with pytest.warns(RuntimeWarning, match="counts exceed the table's n_max"):
            self._check(counts, table)

    def test_simulated_long_window(self, table, long_window_counts):
        assert long_window_counts.shape == (8192, 300)
        self._check(long_window_counts, table)

    def test_scalar_matrix_matches_reference(self, table):
        rng = np.random.default_rng(22)
        counts = rng.integers(0, table.n_max + 3, size=25)
        acc = np.eye(2)
        for n in np.minimum(counts, table.n_max):
            acc = table.entries[n] @ acc
        with pytest.warns(RuntimeWarning, match="counts exceed the table's n_max"):
            [(entries, log_scale)] = collections.deque(_forward_product(counts[None, :], table),
                                                       maxlen=1)
        got = np.reshape(entries, (2, 2)) * np.exp(log_scale[0])     # (a00, a01, a10, a11)
        np.testing.assert_allclose(got, acc, rtol=1e-12, atol=0)


def _same_bits(a, b) -> bool:
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestPrefixColumnsExact:
    """Bin k of either kernel's per-bin generator is the final-only result on
    the first k + 1 bins, bit for bit: the bin-major layout and the per-bin
    running sums change no operation and no order of operations."""

    # R_D = 0 gives -inf dark log-pmfs, so the running logaddexp sees -inf.
    NO_DARK = RateParams(R_B=16.0, R_D=0.0, tau_B=4.9, tau_D=56.0, t_s=0.1)

    @pytest.fixture(scope="class")
    def counts(self):
        cfg = SimConfig(n_trials=512, t_b=3.0, seed=23, params=P)
        simulated = [simulate_ensemble(cfg, s).counts for s in IonState]
        wide = np.random.default_rng(24).integers(0, 40, size=(256, 30))
        return np.vstack([*simulated, wide])

    def test_general(self, counts, table):
        assert (counts > table.n_max).any()
        with pytest.warns(RuntimeWarning, match="counts exceed the table's n_max"):
            prefix = general_columns(counts, table)
            finals = [general_loglik(counts[:, :k + 1], table) for k in range(counts.shape[1])]
        for k, final in enumerate(finals):
            assert all(_same_bits(p[:, k], f) for p, f in zip(prefix, final, strict=True))

    @pytest.mark.parametrize("params", [P, NO_DARK], ids=["default", "no_dark"])
    @pytest.mark.parametrize("tau", [None, 0.5, math.inf])
    @pytest.mark.parametrize("decaying", list(IonState))
    def test_simple(self, counts, params, tau, decaying, monkeypatch):
        # With no dark counts and a decaying bright state, [3, 2, 1, 0, 0, 0]
        # once gave log_p_B = NaN and was decided Dark.
        if _refused_for_a_silent_stable_state(
                params, decaying, lambda: simple_columns(counts, params, tau, decaying=decaying),
                lambda: simple_loglik(counts, params, tau, decaying=decaying),
                lambda: simple_time_resolved_classify([3, 2, 1, 0, 0, 0], params, tau,
                                                      decaying=decaying)):
            return
        # tau = 0.5 ms against a 3 ms window clamps the prefactor.
        with (pytest.warns(RuntimeWarning, match="prefactor clamped") if tau == 0.5
              else contextlib.nullcontext()):
            if tau is not None or params is self.NO_DARK:     # -inf terms are covered
                assert any(np.isneginf(term).any()
                           for term in _logaddexp_operands(monkeypatch, simple_columns, counts,
                                                           params, tau, decaying=decaying))
            prefix = simple_columns(counts, params, tau, decaying=decaying)
            finals = [simple_loglik(counts[:, :k + 1], params, tau, decaying=decaying)
                      for k in range(counts.shape[1])]
        for k, final in enumerate(finals):
            assert all(_same_bits(p[:, k], f) for p, f in zip(prefix, final, strict=True))


    # No signal above the background: with tau = inf both simple hypotheses
    # are one Poisson product, so every log_p_B ties its log_p_D bit for bit.
    TIES = RateParams(R_B=0.0, R_D=0.3, tau_B=4.9, tau_D=56.0, t_s=0.1)

    # Sorted, without repeats and with gaps, as a sweep hands its columns on.
    BINS = (0, 1, 4, 17, 29)

    @staticmethod
    def _equal_at_bins(steps, stacked, bins):
        """Copies of each (log_p_B, log_p_D) step, checked against the
        columns read at every bin, at ``bins``, bit for bit."""
        steps = [tuple(map(np.copy, logs)) for logs in steps]
        assert len(steps) == len(bins)
        for k, logs in zip(bins, steps):
            assert all(_same_bits(log, column[:, k]) for log, column in zip(logs, stacked, strict=True))
        return steps

    @staticmethod
    def _warns_per_call(kernels, counts, *args, text, times, **kwargs):
        """The final-only kernel and the run over every bin each warn
        ``text`` ``times`` times."""
        for kernel in kernels:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                kernel(counts, *args, **kwargs)
            assert sum(text in str(w.message) for w in caught) == times

    @pytest.mark.parametrize("params", [P, NO_DARK], ids=["default", "no_dark"])
    def test_forward_logs_at_bins(self, counts, params):
        table = build_observation_table(params)
        assert (counts > table.n_max).any()
        if params is self.NO_DARK:      # zero entries: the filter meets log(0)
            assert (table.entries == 0).any()
        with pytest.warns(RuntimeWarning, match="counts exceed the table's n_max"):
            stacked = general_columns(counts, table)
            self._equal_at_bins(classifiers._forward_logs(counts, table, self.BINS), stacked,
                                self.BINS)
        self._warns_per_call((general_loglik, general_columns), counts, table,
                             text="counts exceed the table's n_max", times=1)

    @pytest.mark.parametrize("params", [P, NO_DARK, TIES], ids=["default", "no_dark", "ties"])
    @pytest.mark.parametrize("tau", [None, 0.5, math.inf])
    @pytest.mark.parametrize("decaying", list(IonState))
    def test_single_change_steps_at_bins(self, counts, params, tau, decaying):
        if _refused_for_a_silent_stable_state(
                params, decaying, lambda: simple_columns(counts, params, tau, decaying=decaying)):
            return
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            stacked = simple_columns(counts, params, tau, decaying=decaying)
            steps = classifiers._single_change_steps(np.ascontiguousarray(counts.T), params, tau,
                                                     decaying, self.BINS)
            steps = self._equal_at_bins(classifiers._single_change_logs(steps, decaying),
                                        stacked, self.BINS)
        # tau = 0.5 ms against a 3 ms window clamps the prefactor.
        self._warns_per_call((simple_loglik, simple_columns), counts, params, tau,
                             decaying=decaying,
                             text="t_b >= tau: single-change prefactor clamped to 0",
                             times=int(tau == 0.5))
        if params is self.NO_DARK:      # -inf dark log-pmfs enter the running sums
            assert np.isneginf(_poisson_logpmf(counts, params.dark_mean)).any()
        if params is self.TIES and tau == math.inf:
            assert all(_same_bits(log_b, log_d) for log_b, log_d in steps)

    @pytest.mark.parametrize("params", [P, NO_DARK, TIES], ids=["default", "no_dark", "ties"])
    @pytest.mark.parametrize("tau", [None, 0.5, math.inf])
    @pytest.mark.parametrize("decaying", list(IonState))
    def test_simple_column_tallies_equal_prefix_comparisons(self, counts, params, tau, decaying):
        # A sweep decides the simple method's columns from the filter's
        # operands, opening logaddexp only where its bound leaves the
        # comparison open; the tallies must equal those of the exact prefix
        # pairs, on a grouped and an ungrouped state alike.
        grouped = np.repeat(counts, 2, axis=0)
        for rows, distinct in ((grouped, False), (counts, True)):
            first, inverse = harness._distinct_records(rows)
            assert (first is inverse) is distinct
        clf = harness.resolve_classifier({"method": "simple", "decaying": decaying.name.lower(),
                                          "tau_ms": tau})
        if _refused_for_a_silent_stable_state(
                params, decaying, lambda: clf.column_tallies(grouped, counts, [0], params)):
            return
        warns = "t_b >= tau: single-change prefactor clamped to 0" if tau == 0.5 else None
        cols = list(range(counts.shape[1]))
        texts = []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            tallies = clf.column_tallies(grouped, counts, cols, params)
        texts.append([str(w.message) for w in caught])
        brighter = []
        for rows in (grouped, counts):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                log_b, log_d = simple_columns(rows, params, tau, decaying=decaying)
            texts.append([str(w.message) for w in caught])
            brighter.append(np.count_nonzero(log_b > log_d, axis=0).tolist())
        n_b, n_d = len(grouped), len(counts)
        assert tallies == [(clf, (n_b, n_b, n_b - b), (n_d, n_d, d))
                           for b, d in zip(*brighter, strict=True)]
        # The prefactor warning comes once per kernel run: once per state.
        assert [[text for text in call if text == warns] for call in texts] == (
            [[warns] * 2, [warns], [warns]] if warns else [[], [], []])


@pytest.fixture(scope="module")
def band_tables(table):
    """The tables the banded general masks meet: the default one, one
    without dark counts (zero entries), one whose count-2 matrix is zero (a
    record holding a 2 has a zero-norm product from there on), one whose
    two initial-state columns are equal (every column sum ties), and one
    whose bright column is an ulp above that (column sums an ulp or so
    apart, whose logs may still tie)."""
    zero, tie, near = (table.entries.copy() for _ in range(3))
    zero[2] = 0.0
    tie[:, :, 1] = near[:, :, 1] = tie[:, :, 0]
    near[:, :, 0] = np.nextafter(tie[:, :, 0], 1.0)
    return {"default": table, "no_dark": build_observation_table(TestPrefixColumnsExact.NO_DARK),
            **{name: ObservationTable(P, table.n_max, entries, table.truncation_mass)
               for name, entries in (("zero_norm", zero), ("ties", tie), ("near_ties", near))}}


class TestBandedMasks:
    """A sweep decides each Bright mask from a cheap pass and a band, and
    from the exact pair inside the band: the column tallies of both
    likelihood rules equal those of decide_from_logs on the exact kernels
    at every prefix, on grouped and ungrouped states, with the vector
    log1p off by a few ulps, and with the band at inf, where every row
    takes the exact path."""

    PARAMS = {"default": P, "no_dark": TestPrefixColumnsExact.NO_DARK,
              "ties": TestPrefixColumnsExact.TIES}

    @staticmethod
    def _counts(data):
        """A drawn record block, and the same records repeated past the
        grouping sample (grouped, with weights)."""
        n_rows = data.draw(st.integers(1, 24), label="rows")
        n_bins = data.draw(st.sampled_from([1, 2, 7, 30, 300]), label="bins")
        high = data.draw(st.sampled_from([1, 3, 16, 40]), label="largest count")
        seed = data.draw(st.integers(0, 2 ** 32 - 1), label="seed")
        counts = np.random.default_rng(seed).integers(0, high + 1, size=(n_rows, n_bins))
        return counts, np.tile(counts, (-(-harness._GROUP_SAMPLE // n_rows), 1))

    @staticmethod
    def _exact_tallies(clf, columns, bright, dark):
        """Tallies of ``decide_from_logs`` on every prefix's exact pair."""
        codes = [decide_from_logs(*columns(rows)) for rows in (bright, dark)]
        n_b, n_d = len(bright), len(dark)
        return [(clf, (n_b, n_b, int(np.count_nonzero(b == Decision.DARK))),
                 (n_d, n_d, int(np.count_nonzero(d == Decision.BRIGHT))))
                for b, d in zip(codes[0].T, codes[1].T, strict=True)]

    @staticmethod
    def _log1p_off_by(ulps):
        log1p = np.log1p
        return lambda x, out: np.add(log1p(x, out=out), ulps * np.spacing(out), out=out)

    @pytest.mark.parametrize("band", [classifiers._BAND, math.inf], ids=["band", "inf"])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_simple(self, band, data):
        params = self.PARAMS[data.draw(st.sampled_from(sorted(self.PARAMS)), label="params")]
        tau = data.draw(st.sampled_from([None, 0.5, math.inf]), label="tau")
        decaying = data.draw(st.sampled_from(list(IonState)), label="decaying")
        ulps = data.draw(st.sampled_from([0, 4, -4]), label="log1p ulps")
        counts, grouped = self._counts(data)
        clf = harness.SimpleClassifier(decaying, tau)
        if _refused_for_a_silent_stable_state(
                params, decaying, lambda: clf.column_tallies(counts, grouped, [0], params)):
            return
        with warnings.catch_warnings(), pytest.MonkeyPatch.context() as patch:
            warnings.simplefilter("ignore", RuntimeWarning)     # a clamped prefactor
            want = self._exact_tallies(
                clf, lambda rows: simple_columns(rows, params, tau, decaying=decaying),
                counts, grouped)
            patch.setattr(classifiers, "_BAND", band)
            patch.setattr(np, "log1p", self._log1p_off_by(ulps))
            cols = list(range(counts.shape[1]))
            assert clf.column_tallies(counts, grouped, cols, params) == want

    @pytest.mark.parametrize("band", [classifiers._BAND, math.inf], ids=["band", "inf"])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_general(self, band_tables, band, data):
        table = band_tables[data.draw(st.sampled_from(sorted(band_tables)), label="table")]
        counts, grouped = self._counts(data)
        clf = harness.GeneralClassifier()
        with warnings.catch_warnings(), pytest.MonkeyPatch.context() as patch:
            warnings.simplefilter("ignore", RuntimeWarning)     # counts above n_max
            want = self._exact_tallies(clf, lambda rows: general_columns(rows, table),
                                       counts, grouped)
            patch.setattr(classifiers, "_BAND", band)
            patch.setattr(harness, "observation_table_for", lambda params: table)
            cols = list(range(counts.shape[1]))
            assert clf.column_tallies(counts, grouped, cols, P) == want


def _logaddexp_operands(monkeypatch, kernel, *args, **kwargs):
    """Copies of every operand of the logaddexp calls of one run of
    ``kernel``: the single-change terms, as each bin's step meets them."""
    operands, logaddexp = [], np.logaddexp

    def recording(a, b, **out):
        operands.extend((np.copy(a), np.copy(b)))
        return logaddexp(a, b, **out)

    with monkeypatch.context() as patch:
        patch.setattr(np, "logaddexp", recording)
        kernel(*args, **kwargs)
    return operands


class TestPiPulseClassify:
    def test_opposite_outcomes_keep_first(self):
        assert pi_pulse_classify(Decision.BRIGHT, Decision.DARK) is Decision.BRIGHT
        assert pi_pulse_classify(Decision.DARK, Decision.BRIGHT) is Decision.DARK

    def test_equal_outcomes_discarded(self):
        assert pi_pulse_classify(Decision.BRIGHT, Decision.BRIGHT) is Decision.INCONCLUSIVE
        assert pi_pulse_classify(Decision.DARK, Decision.DARK) is Decision.INCONCLUSIVE

    def test_abstaining_input_rejected(self):
        with pytest.raises(ValueError, match="never abstain"):
            pi_pulse_classify(Decision.INCONCLUSIVE, Decision.BRIGHT)

    @pytest.mark.parametrize("bad", [Decision.INCONCLUSIVE, 5, -1, math.nan, 0.5])
    def test_any_code_but_bright_or_dark_rejected(self, bad):
        # 5 once passed through as a kept outcome, and NaN was cast to int8.
        for first, second in (([0, bad, 1], [1, 0, 0]), ([0, 1, 0], [1, bad, 0])):
            with pytest.raises(ValueError, match="^single detections feeding a pulse pair "
                                                 "never abstain: every code must be Bright"):
                pi_pulse_combine(np.array(first), np.array(second))

    def test_vectorized_combination(self):
        first = np.array([0, 0, 1, 1], dtype=np.int8)
        second = np.array([0, 1, 0, 1], dtype=np.int8)
        out = pi_pulse_combine(first, second)
        assert out.tolist() == [2, 0, 1, 2]
        for f, s, o in zip(first, second, out):
            assert o == int(pi_pulse_classify(Decision(int(f)), Decision(int(s))))


class TestTransferMatrices:
    def test_frozen_ion_perfect_detector(self):
        """No transitions plus an error-free detector gives pure projectors."""
        frozen = RateParams(P.R_B, P.R_D, 1e9, 1e9, P.t_s)
        cfg = SimConfig(n_trials=2000, t_b=1.0, seed=11, params=frozen)
        ens_b = simulate_ensemble(cfg, IonState.BRIGHT)
        ens_d = simulate_ensemble(cfg, IonState.DARK)

        def near_perfect(counts):
            # both Poisson tails beyond n_c=4 are < 1e-3 at these means
            return double_threshold_decide(counts.sum(axis=1), 4, 4)

        m_b, m_d = estimate_transfer_matrices(ens_b, ens_d, near_perfect(ens_b.counts),
                                              near_perfect(ens_d.counts))
        assert np.allclose(m_b, [[1.0, 0.0], [0.0, 0.0]], atol=4e-3)
        assert np.allclose(m_d, [[0.0, 0.0], [0.0, 1.0]], atol=4e-3)

    def test_columns_of_sum_are_exactly_one(self):
        cfg = SimConfig(n_trials=5000, t_b=1.0, seed=12, params=P)
        ens_b = simulate_ensemble(cfg, IonState.BRIGHT)
        ens_d = simulate_ensemble(cfg, IonState.DARK)
        m_b, m_d = estimate_transfer_matrices(
            ens_b, ens_d, double_threshold_decide(ens_b.counts.sum(axis=1), 1, 1),
            double_threshold_decide(ens_d.counts.sum(axis=1), 1, 1))
        sums = (m_b + m_d).sum(axis=0)
        assert sums[0] == 1.0 and sums[1] == 1.0

    def test_empty_ensemble_rejected(self):
        cfg = SimConfig(n_trials=10, t_b=1.0, seed=13, params=P)
        ens = simulate_ensemble(cfg, IonState.BRIGHT)
        with pytest.raises(ValueError):
            estimate_transfer_matrices(
                ens, None, double_threshold_decide(ens.counts.sum(axis=1), 1, 1), None)

    def test_one_decision_per_trial_required(self):
        cfg = SimConfig(n_trials=100, t_b=1.0, seed=14, params=P)
        ens_b = simulate_ensemble(cfg, IonState.BRIGHT)
        ens_d = simulate_ensemble(cfg, IonState.DARK)
        decisions = double_threshold_decide(ens_b.counts.sum(axis=1), 1, 1)
        with pytest.raises(ValueError, match="one decision per trial"):
            estimate_transfer_matrices(ens_b, ens_d, decisions, decisions[:-1])

    def test_abstaining_detector_rejected(self):
        cfg = SimConfig(n_trials=100, t_b=1.0, seed=14, params=P)
        ens_b = simulate_ensemble(cfg, IonState.BRIGHT)
        ens_d = simulate_ensemble(cfg, IonState.DARK)
        with pytest.raises(ValueError):
            estimate_transfer_matrices(
                ens_b, ens_d, double_threshold_decide(ens_b.counts.sum(axis=1), 0, 4),
                double_threshold_decide(ens_d.counts.sum(axis=1), 0, 4))


def _log_poisson_product(counts, mean):
    from scipy.special import gammaln, xlogy

    counts = np.asarray(counts, dtype=float)
    return float(np.sum(-mean + xlogy(counts, mean) - gammaln(counts + 1)))


def _random_detection_split(rng):
    """Random column-stochastic (M_B, M_D) pair: each initial state's four
    outcome masses are a Dirichlet draw split between the two matrices."""
    m_b = np.empty((2, 2))
    m_d = np.empty((2, 2))
    for col in (0, 1):
        masses = rng.dirichlet(np.ones(4))
        m_b[:, col] = masses[:2]
        m_d[:, col] = masses[2:]
    return m_b, m_d


class TestPiPulseError:
    def test_ideal_pulse_ideal_detector(self):
        m_b = np.array([[1.0, 0.0], [0.0, 0.0]])
        m_d = np.array([[0.0, 0.0], [0.0, 1.0]])
        res = pi_pulse_error(m_b, m_d, 0.0)
        assert res.epsilon_rel == 0.0
        assert res.N_R == 1.0
        assert res.defined

    def test_failed_pulse_retains_nothing(self):
        """epsilon_pi = 1 leaves the state alone, so an ideal no-change
        detector always repeats itself and every pair is discarded."""
        m_b = np.array([[1.0, 0.0], [0.0, 0.0]])
        m_d = np.array([[0.0, 0.0], [0.0, 1.0]])
        with pytest.warns(RuntimeWarning, match="retained"):
            res = pi_pulse_error(m_b, m_d, 1.0)
        assert res.N_R == 0.0
        assert not res.defined
        assert np.isnan(res.epsilon_rel)

    def test_mass_accounting(self):
        """Kept plus ignored mass is the whole ensemble for each initial
        state: (M_B + M_D) M_pi (M_B + M_D) is column-stochastic."""
        rng = np.random.default_rng(15)
        for _ in range(200):
            m_b, m_d = _random_detection_split(rng)
            eps_pi = rng.random()
            res = pi_pulse_error(m_b, m_d, eps_pi)
            m_pi = np.array([[eps_pi, 1 - eps_pi], [1 - eps_pi, eps_pi]])
            ignored_b = (m_b @ m_pi @ m_b + m_d @ m_pi @ m_d) @ np.array([1.0, 0.0])
            ignored_d = (m_b @ m_pi @ m_b + m_d @ m_pi @ m_d) @ np.array([0.0, 1.0])
            assert res.bright.retained + ignored_b.sum() == pytest.approx(1.0, abs=1e-12)
            assert res.dark.retained + ignored_d.sum() == pytest.approx(1.0, abs=1e-12)
            if res.defined:
                assert 0.0 <= res.epsilon_rel <= 1.0
            assert 0.0 <= res.N_R <= 1.0

    def test_bad_epsilon_rejected(self):
        m_b = np.array([[1.0, 0.0], [0.0, 0.0]])
        m_d = np.array([[0.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            pi_pulse_error(m_b, m_d, 1.5)

    def test_bad_matrix_rejected(self):
        with pytest.raises(ValueError):
            pi_pulse_error(np.array([[1.2, 0.0], [0.0, 0.0]]), np.zeros((2, 2)), 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_matrix_entry_rejected(self, bad):
        # A NaN entry failed both range tests, and the pair reported NaN
        # after a "no ions retained" warning.
        m = np.array([[0.5, bad], [0.1, 0.2]])
        with pytest.raises(ValueError, match=r"^M_B entries must lie in \[0, 1\]$"):
            pi_pulse_error(m, np.zeros((2, 2)), 0.0)
        with pytest.raises(ValueError, match=r"^M_D entries must lie in \[0, 1\]$"):
            pi_pulse_error(np.zeros((2, 2)), m, 0.0)


class TestDecisionEnum:
    def test_codes_align_with_ion_states(self):
        assert int(Decision.BRIGHT) == int(IonState.BRIGHT)
        assert int(Decision.DARK) == int(IonState.DARK)

    def test_decide_from_logs_tie_is_dark(self):
        out = decide_from_logs(np.array([-1.0, -1.0]), np.array([-1.0, -2.0]))
        assert out.tolist() == [int(Decision.DARK), int(Decision.BRIGHT)]

    @pytest.mark.parametrize("pair", [(math.nan, 0.0), (0.0, math.nan),
                                      ([-1.0, math.nan], [-2.0, -1.0])])
    def test_decide_from_logs_refuses_nan(self, pair):
        # NaN fails every comparison, so it once decided Dark.
        with pytest.raises(ValueError, match="^log_pb and log_pd must not be NaN$"):
            decide_from_logs(*pair)


class TestCountWidths:
    """Both kernels score counts at their own integer width: int8 and int64
    inputs of the same values give the same bits."""

    @pytest.fixture(scope="class")
    def narrow(self, records):
        assert records.max() <= 127
        return records.astype(np.int8)

    def test_general(self, narrow, table):
        for kernel in (general_loglik, general_columns):
            with pytest.warns(RuntimeWarning, match="counts exceed the table's n_max"):
                got = kernel(narrow, table)
            with pytest.warns(RuntimeWarning, match="counts exceed the table's n_max"):
                want = kernel(narrow.astype(np.int64), table)
            assert all(_same_bits(g, w) for g, w in zip(got, want, strict=True))

    @pytest.mark.parametrize("decaying", list(IonState))
    def test_simple(self, narrow, decaying):
        # The 1 x 3 record holding 127 scores its counts without the gather.
        for counts in (narrow, np.array([[127, 0, 1]], np.int8)):
            for kernel in (simple_loglik, simple_columns):
                got = kernel(counts, P, decaying=decaying)
                want = kernel(counts.astype(np.int64), P, decaying=decaying)
                assert all(_same_bits(g, w) for g, w in zip(got, want, strict=True))
                assert np.isfinite(got).all()


class TestLargestCount:
    """The log-pmf takes counts as floats, so the int64 maximum, which the
    CSV reader accepts, cannot wrap in n + 1."""

    def test_log_pmf_at_int64_max(self):
        got = _poisson_logpmf(np.array([2**63 - 1]), P.bright_mean)
        assert _same_bits(got, _poisson_logpmf(np.array([2.0**63]), P.bright_mean))
        assert np.isfinite(got).all()

    @pytest.mark.parametrize("decaying", list(IonState))
    def test_simple_loglik_finite(self, decaying):
        logs = simple_loglik(np.array([[2**63 - 1, 0, 1]]), P, decaying=decaying)
        assert np.isfinite(logs).all()
