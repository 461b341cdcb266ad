"""Harness tests: error reports, threshold optimization, sweeps, pulse-pair
experiments, configuration documents and tabular output.

The statistical checks are anchored by an exact count-space recursion: the
distribution of the total photon count (jointly with the final hidden state)
follows from convolving the per-bin observation matrices, with no sampling
involved.  Frozen values from that recursion pin the threshold-error
landscape and the pulse-pair transfer matrices; the Monte Carlo pipeline
must agree within a few binomial standard errors.
"""

import contextlib
import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from ionread import classifiers, harness
from ionread.classifiers import (
    Decision,
    decide_from_logs,
    double_threshold_decide,
    general_loglik,
    pi_pulse_error,
    simple_loglik,
)
from ionread.harness import (
    REPORT_COLUMNS,
    ConfigError,
    ErrorReport,
    SweepSpec,
    compare_methods,
    decisions_for,
    decisions_to_csv,
    efficiency_sweep,
    evaluate,
    evaluate_prefixes,
    load_config,
    optimize_threshold,
    pi_pulse_sweep,
    rate_params_from_config,
    report_from_decisions,
    report_rows_to_csv,
    resolve_classifier,
    sweep,
    sweep_spec_from_config,
)
from ionread.photon_model import (
    DEFAULT_PARAMS,
    IonState,
    RateParams,
    build_observation_table,
)
from ionread.trajectory import (
    Ensemble,
    SimConfig,
    ensembles_from_counts,
    n_bins,
    simulate_ensemble,
)


# ---------------------------------------------------------------------------
# Exact count-space recursion (oracle)


def exact_joint_count_dist(params, t_b, initial):
    """P(total count = N, final state = y | initial state) as an (N+1, 2)
    array, by count-space convolution of the observation matrices."""
    entries = build_observation_table(params, tol=1e-12).entries
    m = n_bins(t_b, params.t_s)
    n_max = entries.shape[0] - 1
    cap = n_max * m
    dp = np.zeros((cap + 1, 2))
    dp[0, int(initial)] = 1.0
    for _ in range(m):
        new = np.zeros_like(dp)
        for n in range(n_max + 1):
            new[n:] += dp[: cap + 1 - n] @ entries[n].T
        dp = new
    return dp


def exact_threshold_errors(params, t_b):
    """Mean threshold error at every cutoff value, exactly."""
    pb = exact_joint_count_dist(params, t_b, IonState.BRIGHT).sum(axis=1)
    pd = exact_joint_count_dist(params, t_b, IonState.DARK).sum(axis=1)
    return 0.5 * (np.cumsum(pb) + 1.0 - np.cumsum(pd))


def exact_transfer_matrices(params, t_b, n_c):
    """Exact threshold-detector transfer matrices M_B, M_D with
    M[y, z] summing the joint (total, final-state) mass on either side of
    the cutoff."""
    m_b = np.zeros((2, 2))
    m_d = np.zeros((2, 2))
    for z in (IonState.BRIGHT, IonState.DARK):
        dp = exact_joint_count_dist(params, t_b, z)
        m_b[:, int(z)] = dp[n_c + 1:].sum(axis=0)
        m_d[:, int(z)] = dp[:n_c + 1].sum(axis=0)
    return m_b, m_d


# Frozen values of the recursion at the default parameter set (table
# tolerance 1e-12): {t_b: (argmin cutoff, minimal error, spot checks)}.
EXACT_LANDSCAPE = {
    0.5: (1, 0.021138781976848986,
          {0: 0.07849802301615028, 2: 0.02617205413933138,
           4: 0.07194698145219924}),
    0.7: (2, 0.022832428266297666, {1: 0.025822918686340457}),
    1.0: (2, 0.025583823481158507,
          {1: 0.036490879474884275, 4: 0.03474229976171028}),
    3.0: (4, 0.04824927875975943, {2: 0.06690332005440303}),
}

# Pulse-pair operating points at t_s = 0.1/3 ms, pulse error 0.02:
# (bins, cutoff) -> (relative error, retained fraction) plus the exact
# transfer matrices feeding pi_pulse_error.
PULSE_PARAMS = RateParams(tau_B=4.9, tau_D=56.0, R_B=16.0, R_D=0.3,
                          t_s=0.1 / 3.0)
EXACT_PULSE_POINTS = {
    (1, 1): {
        "epsilon_rel": 0.012465780073211403,
        "N_R": 0.10330363801406957,
        "M_B": [[0.10291562915466695, 2.2902631407135756e-05],
                [0.0002604869608088032, 4.96383579032685e-05]],
        "M_D": [[0.8903047358840097, 0.0005721583447803197],
                [0.00651914799968218, 0.9993553006659093]],
    },
    (9, 0): {
        "epsilon_rel": 0.010811040900023152,
        "N_R": 0.8647913529582216,
        "M_B": [[0.9336658773630608, 0.004202056296360285],
                [0.0478710486737193, 0.0857165006259988]],
        "M_D": [[0.007086694631697557, 0.0009981989602299434],
                [0.011376379324230745, 0.9090832441173929]],
    },
}


class TestExactRecursion:
    def test_total_mass_is_one(self):
        dp = exact_joint_count_dist(DEFAULT_PARAMS, 0.5, IonState.BRIGHT)
        assert dp.sum() == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("t_b", sorted(EXACT_LANDSCAPE))
    def test_frozen_landscape(self, t_b):
        best, eps_min, spots = EXACT_LANDSCAPE[t_b]
        eps = exact_threshold_errors(DEFAULT_PARAMS, t_b)
        assert int(np.argmin(eps)) == best
        assert eps[best] == pytest.approx(eps_min, rel=1e-10)
        for n_c, value in spots.items():
            assert eps[n_c] == pytest.approx(value, rel=1e-10)

    @pytest.mark.parametrize("point", sorted(EXACT_PULSE_POINTS))
    def test_frozen_transfer_matrices(self, point):
        bins, n_c = point
        frozen = EXACT_PULSE_POINTS[point]
        m_b, m_d = exact_transfer_matrices(PULSE_PARAMS,
                                           bins * PULSE_PARAMS.t_s, n_c)
        np.testing.assert_allclose(m_b, frozen["M_B"], rtol=1e-9)
        np.testing.assert_allclose(m_d, frozen["M_D"], rtol=1e-9)
        result = pi_pulse_error(m_b, m_d, 0.02)
        assert result.epsilon_rel == pytest.approx(frozen["epsilon_rel"],
                                                   rel=1e-10)
        assert result.N_R == pytest.approx(frozen["N_R"], rel=1e-10)


# ---------------------------------------------------------------------------
# Error reports


def _sim_pair(params, t_b, n, seed, context=()):
    cfg = SimConfig(n_trials=n, t_b=t_b, seed=seed, params=params)
    return (simulate_ensemble(cfg, IonState.BRIGHT, context=context),
            simulate_ensemble(cfg, IonState.DARK, context=context))


class TestEvaluate:
    def test_perfect_separability(self):
        # No dark counts, no transitions: cutting at zero cannot err.
        params = RateParams(tau_B=1e9, tau_D=1e9, R_B=40.0, R_D=0.0, t_s=0.1)
        ens_b, ens_d = _sim_pair(params, 0.5, 20000, seed=3)
        assert ens_b.counts.sum(axis=1).min() >= 1
        report = evaluate(ens_b, ens_d, {"method": "threshold", "n_c": 0})
        assert report.epsilon == 0.0
        assert report.N_R == 1.0
        assert report.defined

    def test_zero_conclusive_reported_undefined(self):
        counts = np.full((10, 5), 2)
        initials = np.array([0] * 5 + [1] * 5, dtype=np.int8)
        pair = ensembles_from_counts(initials, counts, 0.5, 0.1)
        report = evaluate(pair[IonState.BRIGHT], pair[IonState.DARK],
                          {"method": "double_threshold", "n_D": 0, "n_B": 100},
                          DEFAULT_PARAMS)
        assert not report.defined
        assert math.isnan(report.epsilon)
        assert math.isnan(report.stderr)
        assert report.N_R == 0.0

    def test_mismatched_windows_rejected(self):
        params = DEFAULT_PARAMS
        ens_a, _ = _sim_pair(params, 0.5, 10, seed=0)
        _, ens_b = _sim_pair(params, 0.6, 10, seed=0)
        with pytest.raises(ValueError, match="share"):
            evaluate(ens_a, ens_b, {"method": "threshold", "n_c": 1})

    def test_abstention_accounting_exact(self):
        totals_b = np.array([0, 1, 2, 3, 10])
        totals_d = np.array([0, 2, 2, 5, 0, 1])
        counts_b = np.column_stack([totals_b, np.zeros(5, dtype=int)])
        counts_d = np.column_stack([totals_d, np.zeros(6, dtype=int)])
        pair = ensembles_from_counts(
            np.array([0] * 5 + [1] * 6, dtype=np.int8),
            np.vstack([counts_b, counts_d]), 0.2, 0.1)
        report = evaluate(pair[IonState.BRIGHT], pair[IonState.DARK],
                          {"method": "double_threshold", "n_D": 1, "n_B": 3},
                          DEFAULT_PARAMS)
        # Bright totals [0,1] decided dark, [2,3] abstain, [10] decided
        # bright; dark totals [0,0,1] dark, [2,2] abstain, [5] bright.
        assert (report.wrong_bright, report.retained_bright) == (2, 3)
        assert (report.wrong_dark, report.retained_dark) == (1, 4)
        ignored_b = report.n_bright - report.retained_bright
        ignored_d = report.n_dark - report.retained_dark
        assert (ignored_b, ignored_d) == (2, 2)
        assert report.epsilon == pytest.approx(0.5 * (2 / 3 + 1 / 4))
        assert report.N_R == pytest.approx(7 / 11)

    def test_double_threshold_report_carries_n_B(self):
        # Every path reports a double threshold's n_c as its n_B.
        ens_b, ens_d = _sim_pair(DEFAULT_PARAMS, 0.5, 500, seed=4)
        report = evaluate(ens_b, ens_d,
                          {"method": "double_threshold", "n_D": 0, "n_B": 4})
        assert report.n_c == 4
        assert report.to_json_dict()["n_c"] == 4

    def test_json_dict_fields(self):
        row = report_from_decisions(
            np.array([Decision.BRIGHT, Decision.DARK]),
            np.array([Decision.DARK, Decision.DARK]),
            classifier="threshold", detail="n_c=1", t_b=0.5, n_c=1)
        doc = row.to_json_dict()
        assert doc["n_c"] == 1
        assert "epsilon_analytic" not in doc
        assert doc["epsilon"] == pytest.approx(0.25)
        assert json.dumps(doc)  # serializable


# ---------------------------------------------------------------------------
# Threshold optimization


class TestOptimizeThreshold:
    def test_poisson_crossover(self):
        # Without transitions the totals are Poisson; the optimal cutoff is
        # the floor of the likelihood-ratio crossover
        # (lam_B - lam_D) / log(lam_B / lam_D).
        params = RateParams(tau_B=1e9, tau_D=1e9, R_B=16.0, R_D=0.3, t_s=0.1)
        t_b = 0.7
        lam_b, lam_d = params.R_B * t_b, params.R_D * t_b
        crossover = math.floor((lam_b - lam_d) / math.log(lam_b / lam_d))
        ens_b, ens_d = _sim_pair(params, t_b, 40000, seed=17)
        out = optimize_threshold(ens_b, ens_d)
        assert out.best == crossover == 2

    @pytest.mark.parametrize("t_b", [0.5, 1.0])
    def test_matches_exact_landscape(self, t_b):
        best, eps_min, _ = EXACT_LANDSCAPE[t_b]
        ens_b, ens_d = _sim_pair(DEFAULT_PARAMS, t_b, 30000, seed=23)
        out = optimize_threshold(ens_b, ens_d)
        assert out.best == best
        assert abs(out.report.epsilon - eps_min) < 4 * out.report.stderr

    def test_double_threshold_family(self):
        ens_b, ens_d = _sim_pair(DEFAULT_PARAMS, 0.5, 100000, seed=29)
        out = optimize_threshold(ens_b, ens_d,
                                 {"method": "double_threshold", "n_D": 0, "n_B": "optimize"})
        assert out.best == 4
        assert out.report.N_R == pytest.approx(0.86, abs=0.02)
        assert out.report.epsilon < 0.011

    def test_landscape_matches_direct_evaluation(self):
        ens_b, ens_d = _sim_pair(DEFAULT_PARAMS, 0.5, 5000, seed=5)
        out = optimize_threshold(ens_b, ens_d)
        assert [n_c for n_c, _ in out.landscape[:3]] == [0, 1, 2]
        for n_c, eps in out.landscape[:3]:
            direct = evaluate(ens_b, ens_d,
                              {"method": "threshold", "n_c": int(n_c)})
            assert eps == pytest.approx(direct.epsilon, abs=1e-12)

    def test_unknown_family_rejected(self):
        # Only a count rule whose cutoff is "optimize" has a threshold to search.
        ens_b, ens_d = _sim_pair(DEFAULT_PARAMS, 0.5, 100, seed=1)
        with pytest.raises(ConfigError, match="unknown method 'triple'"):
            optimize_threshold(ens_b, ens_d, {"method": "triple"})
        for spec in ({"method": "threshold", "n_c": 3},
                     {"method": "double_threshold", "n_D": 0, "n_B": 4},
                     {"method": "simple"}, {"method": "general"},
                     resolve_classifier({"method": "general"})):
            with pytest.raises(ConfigError, match="^optimize_threshold needs a count rule "
                                                  "whose cutoff is 'optimize', got "):
                optimize_threshold(ens_b, ens_d, spec)

    def test_spec_default_and_resolved_spec_agree(self):
        ens_b, ens_d = _sim_pair(DEFAULT_PARAMS, 0.5, 3000, seed=3)
        expected = optimize_threshold(ens_b, ens_d)
        for spec in ({"method": "threshold"}, {"method": "threshold", "n_c": "optimize"},
                     resolve_classifier({"method": "threshold"})):
            assert optimize_threshold(ens_b, ens_d, spec) == expected
        double = {"method": "double_threshold", "n_D": 1, "n_B": "optimize"}
        assert (optimize_threshold(ens_b, ens_d, double)
                == optimize_threshold(ens_b, ens_d, resolve_classifier(double)))
        assert optimize_threshold(ens_b, ens_d, double).report.detail.startswith("n_D=1;")


# ---------------------------------------------------------------------------
# Sweeps


def _spec(**kwargs):
    base = dict(t_b_values=(0.3, 0.5), n_trials=4000, seed=7,
                params=DEFAULT_PARAMS)
    base.update(kwargs)
    return SweepSpec(**base)


class TestSweep:
    def test_rows_cover_grid(self):
        spec = _spec()
        rows = sweep(spec)
        assert len(rows) == len(spec.t_b_values) * len(spec.classifiers)
        assert {row.t_b for row in rows} == set(spec.t_b_values)

    def test_deterministic_in_seed(self):
        first = [row.epsilon for row in sweep(_spec())]
        second = [row.epsilon for row in sweep(_spec())]
        assert first == second
        other = [row.epsilon for row in sweep(_spec(seed=8))]
        assert first != other

    def test_prefix_rows_match_direct_evaluation(self):
        # A sweep row at a shorter window equals classifying that window's
        # prefix of the longest simulation.
        spec = _spec(classifiers=({"method": "threshold", "n_c": 1},))
        rows = sweep(spec)
        cfg = SimConfig(n_trials=spec.n_trials, t_b=0.5, seed=spec.seed,
                        params=spec.params)
        from ionread.harness import _CTX_SWEEP, _rtag
        ctx = (_CTX_SWEEP, _rtag(1.0))
        ens_b = simulate_ensemble(cfg, IonState.BRIGHT, context=ctx)
        ens_d = simulate_ensemble(cfg, IonState.DARK, context=ctx)
        m = n_bins(0.3, spec.t_s)
        tot_b = ens_b.counts[:, :m].sum(axis=1)
        tot_d = ens_d.counts[:, :m].sum(axis=1)
        eps_b = np.mean(tot_b <= 1)
        eps_d = np.mean(tot_d > 1)
        short = next(row for row in rows if row.t_b == 0.3)
        assert short.epsilon == pytest.approx(0.5 * (eps_b + eps_d), abs=1e-12)

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            _spec(t_b_values=(0.35,))  # not a multiple of t_s
        with pytest.raises(ConfigError):
            _spec(classifiers=({"method": "mystery"},))
        with pytest.raises(ConfigError):
            _spec(efficiency_factors=(0.0,))
        with pytest.raises(ConfigError):
            _spec(n_trials=0)

    @pytest.mark.parametrize("seed, ok", [(-1, False), (0, True), (2**64 - 1, True),
                                          (2**64, False)])
    def test_seed_range(self, seed, ok):
        if ok:
            assert _spec(seed=seed).seed == seed
        else:
            with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
                _spec(seed=seed)

    @pytest.mark.parametrize("spec", [
        # Read at the ensembles' 0.1 ms bins, the row labelled 0.5 ms would
        # hold the 1.0 ms result.
        _spec(t_b_values=(0.5,), params=replace(DEFAULT_PARAMS, t_s=0.05)),
        _spec(t_b_values=(0.5, 1.5)),        # beyond the 1.0 ms window
    ], ids=["finer_t_s", "longer_t_b"])
    def test_evaluate_prefixes_refuses_a_mismatched_window(self, spec):
        ens_b, ens_d = _sim_pair(DEFAULT_PARAMS, 1.0, 200, seed=1)
        with pytest.raises(ValueError, match="does not fit ensembles of t_b = 1.0 ms"):
            evaluate_prefixes(spec, ens_b, ens_d)


class TestEfficiencySweep:
    def test_points_summarize_rows(self):
        spec = _spec(t_b_values=(0.3, 0.5, 1.0), efficiency_factors=(1.0, 2.0))
        rows, points = efficiency_sweep(spec)
        assert [p.r for p in points] == [1.0, 2.0]
        for point in points:
            thresh = [r.epsilon for r in rows
                      if r.r == point.r and r.classifier == "threshold"]
            general = [r.epsilon for r in rows if r.r == point.r
                       and r.classifier == "generalized_time_resolved"]
            assert point.epsilon_threshold == min(thresh)
            assert point.epsilon_time_resolved == min(general)
            assert point.delta == pytest.approx(
                point.epsilon_threshold - point.epsilon_time_resolved)

    def test_higher_efficiency_reduces_error(self):
        spec = _spec(t_b_values=(0.3, 0.5, 1.0), n_trials=20000,
                     efficiency_factors=(1.0, 4.0))
        _, points = efficiency_sweep(spec)
        assert points[1].epsilon_threshold < points[0].epsilon_threshold
        assert points[1].epsilon_time_resolved < points[0].epsilon_time_resolved


class TestCompareMethods:
    def test_summary_tracks_row_minima(self):
        spec = _spec(t_b_values=(0.5, 1.0), n_trials=3000)
        rows, summary = compare_methods(spec, repetitions=2)
        assert set(summary) == {"threshold", "simple_time_resolved",
                                "generalized_time_resolved"}
        for label, stats in summary.items():
            assert len(stats["values"]) == 2
            for rep in (1, 2):
                rep_rows = [r.epsilon for r in rows
                            if r.classifier == label and r.r == rep]
                assert min(rep_rows) == pytest.approx(stats["values"][rep - 1])
            assert stats["mean"] == pytest.approx(np.mean(stats["values"]))

    def test_zero_repetitions_rejected(self):
        with pytest.raises(ConfigError, match="repetitions must be >= 1"):
            compare_methods(_spec(t_b_values=(0.5,), n_trials=100), repetitions=0)

    def test_repetitions_use_distinct_streams(self):
        spec = _spec(t_b_values=(0.5,), n_trials=3000)
        rows, _ = compare_methods(spec, repetitions=2)
        by_rep = {}
        for row in rows:
            by_rep.setdefault(row.r, []).append(row.epsilon)
        assert by_rep[1.0] != by_rep[2.0]


class TestEntryPointsAgree:
    """evaluate, the last row of a prefix evaluation and a report built from
    decisions_for on the stacked counts count the same errors."""

    @pytest.mark.parametrize("method", [
        {"method": "threshold", "n_c": 1},
        {"method": "double_threshold", "n_D": 0, "n_B": 4},
        {"method": "simple", "decaying": "bright", "tau_ms": 5.0},
        {"method": "general"},
    ])
    def test_same_counts_and_epsilon(self, method):
        ens_b, ens_d = _sim_pair(DEFAULT_PARAMS, 0.5, 3000, seed=31)
        direct = evaluate(ens_b, ens_d, method)
        spec = _spec(t_b_values=(0.3, 0.5), classifiers=(method,))
        last = evaluate_prefixes(spec, ens_b, ens_d)[-1]
        assert last.t_b == 0.5
        stacked = decisions_for(np.vstack([ens_b.counts, ens_d.counts]), method,
                                DEFAULT_PARAMS)
        split = report_from_decisions(stacked[:3000], stacked[3000:],
                                      classifier=direct.classifier,
                                      detail=direct.detail, t_b=0.5)

        def key(row):
            return (row.retained_bright, row.retained_dark, row.wrong_bright,
                    row.wrong_dark, row.epsilon)

        assert key(direct) == key(last) == key(split)
        assert (direct.classifier, direct.detail, direct.n_c) == (
            last.classifier, last.detail, last.n_c)


class TestPrefixTallies:
    """``evaluate_prefixes`` tallies each column's errors instead of building
    decision arrays.  Every row equals, field by field, a report built here
    with ``report_from_decisions`` from the per-trial decisions of direct
    rule and kernel calls on the truncated window."""

    CLASSIFIERS = (
        {"method": "threshold", "n_c": "optimize"},
        {"method": "threshold", "n_c": 2},
        {"method": "double_threshold", "n_D": 0, "n_B": "optimize"},
        {"method": "double_threshold", "n_D": 1, "n_B": 6},
        {"method": "double_threshold", "n_D": 0, "n_B": 1000},
        {"method": "simple", "decaying": "bright"},
        {"method": "simple", "tau_ms": 0.5},        # prefactor clamped past 0.5 ms
        {"method": "simple", "tau_ms": math.inf},
        {"method": "general"},
    )
    # R_B = 0 makes both states emit alike: the single-change formula with
    # tau = inf then ties exactly on every record, and with 5 dark counts
    # per bin no trial keeps a zero total past one bin, so the n_B = 1000
    # double threshold retains nothing there.  The generalized method
    # refuses a table without signal, so it sits this case out.
    EDGE_PARAMS = RateParams(R_B=0.0, R_D=50.0, tau_B=4.9, tau_D=56.0, t_s=0.1)

    @staticmethod
    def _reference(clf, counts_b, counts_d, t_b, params, r):
        m = n_bins(t_b, params.t_s)
        counts_b, counts_d = counts_b[:, :m], counts_d[:, :m]
        if getattr(clf, "n_c", None) == "optimize":
            best = optimize_threshold(Ensemble(IonState.BRIGHT, counts_b, None, t_b, params.t_s),
                                      Ensemble(IonState.DARK, counts_d, None, t_b, params.t_s),
                                      clf).best
            clf = replace(clf, n_c=best)

        def decide(counts):
            if clf.label in ("threshold", "double_threshold"):   # a threshold's n_D is its n_c
                return double_threshold_decide(counts.sum(axis=1), clf.n_D, clf.n_c)
            if clf.label == "generalized_time_resolved":
                return decide_from_logs(*general_loglik(counts, harness.observation_table_for(params)))
            return decide_from_logs(*simple_loglik(counts, params, clf.tau_ms,
                                                   decaying=clf.decaying))

        return replace(report_from_decisions(decide(counts_b), decide(counts_d),
                                             classifier=clf.label, detail=clf.detail,
                                             t_b=t_b, n_c=clf.n_c), r=r)

    def _check(self, params, t_b_values, r, seed, classifiers=CLASSIFIERS):
        spec = SweepSpec(t_b_values=t_b_values, n_trials=2048, seed=seed, params=params,
                         classifiers=classifiers)
        ens_b, ens_d = _sim_pair(params.scaled(r), t_b_values[-1], 2048, seed=seed)
        rows = evaluate_prefixes(spec, ens_b, ens_d, r=r)
        expect = [self._reference(resolve_classifier(c), ens_b.counts, ens_d.counts, t_b,
                                  params.scaled(r), r)
                  for c in classifiers for t_b in t_b_values]
        assert len(rows) == len(expect)
        for got, ref in zip(rows, expect):
            assert repr(got) == repr(ref)
        return rows, ens_b, ens_d

    @pytest.mark.parametrize("r", [1.0, 0.5])
    def test_rows_equal_decision_reference(self, r):
        with pytest.warns(RuntimeWarning, match="prefactor clamped"):    # tau_ms 0.5 at 1 ms
            self._check(DEFAULT_PARAMS, (0.1, 0.2, 0.5, 1.0), r, seed=61)

    def test_undefined_column_and_exact_tie(self):
        rows, ens_b, _ = self._check(self.EDGE_PARAMS, (0.1, 0.3), 1.0, seed=62,
                                     classifiers=self.CLASSIFIERS[:-1])
        wide = [row for row in rows if row.detail == "n_D=0;n_B=1000"]
        assert wide[0].defined and not wide[1].defined
        assert math.isnan(wide[1].epsilon) and wide[1].retained_bright == 0
        log_b, log_d = simple_loglik(ens_b.counts, self.EDGE_PARAMS, math.inf,
                                     prefixes=True)
        assert np.array_equal(log_b, log_d)
        tie_rows = [row for row in rows if row.detail == "decaying=dark;tau=inf"]
        assert [row.wrong_bright for row in tie_rows] == [2048, 2048]   # ties go to Dark
        assert [row.wrong_dark for row in tie_rows] == [0, 0]


class TestDistinctRecordScoring:
    """Likelihood rules score each distinct count record once; logs and
    decisions equal the direct kernel call on every row, bit for bit."""

    RULES = {
        "general": {"method": "general"},
        "simple_bright": {"method": "simple", "decaying": "bright"},
        "simple_dark_tau": {"method": "simple", "tau_ms": 20.0},
    }

    @staticmethod
    def _counts(case):
        rng = np.random.default_rng(17)
        if case == "dark_ensemble":      # heavy repeats, 30 bins
            return _sim_pair(DEFAULT_PARAMS, 3.0, 4096, seed=41)[1].counts
        if case == "pulse_windows":      # heavy repeats, 3 bins of 1/30 ms
            params = RateParams(R_B=16.0, R_D=0.3, tau_B=4.9, tau_D=56.0, t_s=1 / 30)
            return np.vstack([e.counts for e in _sim_pair(params, 0.1, 2048, seed=43)])
        if case == "all_distinct":
            return rng.integers(0, 10, size=(2048, 30))
        # Repeated rows with a count above 255.
        rows = rng.integers(0, 3, size=(8, 5))
        rows[3, 2] = 300
        return np.repeat(rows, 256, axis=0)

    @staticmethod
    def _direct(spec, counts, prefixes):
        if spec["method"] == "general":
            return general_loglik(counts, harness.observation_table_for(DEFAULT_PARAMS),
                                  prefixes=prefixes)
        decaying = IonState.BRIGHT if spec.get("decaying") == "bright" else IonState.DARK
        return simple_loglik(counts, DEFAULT_PARAMS, spec.get("tau_ms"),
                             decaying=decaying, prefixes=prefixes)

    @pytest.mark.parametrize("case, grouped", [
        ("dark_ensemble", True), ("pulse_windows", True),
        ("all_distinct", False), ("above_255", False)])
    def test_grouping_rule(self, case, grouped):
        first, inverse = harness._distinct_records(self._counts(case))
        assert isinstance(first, np.ndarray) == grouped
        if grouped:
            assert first.size < inverse.size // 2

    @pytest.mark.parametrize("rule", sorted(RULES))
    @pytest.mark.parametrize("case", ["dark_ensemble", "pulse_windows",
                                      "all_distinct", "above_255"])
    def test_equals_direct_kernel(self, rule, case):
        # A count of 300 is above the general table's n_max.
        with (pytest.warns(RuntimeWarning, match="counts exceed the table's n_max")
              if (rule, case) == ("general", "above_255") else contextlib.nullcontext()):
            self._equals_direct_kernel(rule, case)

    def _equals_direct_kernel(self, rule, case):
        spec = self.RULES[rule]
        clf = resolve_classifier(spec)
        counts = self._counts(case)
        final = self._direct(spec, counts, False)
        got = clf.likelihoods(counts, DEFAULT_PARAMS)
        assert all(np.array_equal(g, d) for g, d in zip(got, final, strict=True))
        assert np.array_equal(clf.decide(counts, DEFAULT_PARAMS), decide_from_logs(*final))
        assert np.array_equal(decisions_for(counts, spec, DEFAULT_PARAMS),
                              decide_from_logs(*final))
        # Column tallies: the final column alone (no prefix outputs) and every
        # other column.  Each column's per-row decisions come from ``decide``
        # on the truncated window, which must match the prefix kernel row by
        # row; the tallies must count them.  The dark side is every other
        # row, so the two states' tallies differ.
        m = counts.shape[1]
        log_b, log_d = self._direct(spec, counts, True)
        for cols in ([m - 1], list(range(m))[::2]):
            tallies = clf.column_tallies(counts, counts[1::2], cols, DEFAULT_PARAMS)
            for col, (rule_out, bright, dark) in zip(cols, tallies, strict=True):
                expect = decide_from_logs(log_b[:, col], log_d[:, col])
                assert np.array_equal(clf.decide(counts[:, :col + 1], DEFAULT_PARAMS), expect)
                assert rule_out is clf
                n_b, n_d = len(counts), len(counts[1::2])
                assert bright == (n_b, n_b, int(np.count_nonzero(expect == Decision.DARK)))
                assert dark == (n_d, n_d, int(np.count_nonzero(expect[1::2] == Decision.BRIGHT)))

    def test_clamp_tally_counts_every_repeated_count(self):
        table = harness.observation_table_for(DEFAULT_PARAMS)
        rows = np.array([[0, table.n_max + 1, 1], [table.n_max + 3, 0, table.n_max + 1]])
        counts = np.repeat(rows, 1024, axis=0)
        clamped = np.minimum(counts, table.n_max)
        assert harness._distinct_records(clamped)[0].size == 2
        before = table.clamped_lookups
        with pytest.warns(RuntimeWarning, match="^3072 counts exceed the table's n_max"):
            decisions = decisions_for(counts, {"method": "general"}, DEFAULT_PARAMS)
        assert table.clamped_lookups - before == 3 * 1024
        assert np.array_equal(decisions, decide_from_logs(*general_loglik(clamped, table)))


class TestSharedPreparation:
    """Each call prepares each state's counts once for all its classifiers:
    one validation, one grouping and one prefix-total histogram per state,
    also where the general table clamps."""

    FOUR = ({"method": "threshold", "n_c": "optimize"},
            {"method": "double_threshold", "n_D": 0, "n_B": "optimize"},
            {"method": "simple", "decaying": "bright"},
            {"method": "general"})

    @staticmethod
    def _counted(monkeypatch, ensembles):
        """Counters of the validations of each ensemble's whole count array,
        of record groupings and of prefix-total running sums (the integer
        ones: the single-change kernel runs float sums through the same
        helper)."""
        calls = {"validate": [0] * len(ensembles), "group": 0, "totals": 0}
        validate, group, running = (classifiers._as_count_matrix, harness._distinct_records,
                                    classifiers._running)

        def counting_validate(counts):
            for i, ens in enumerate(ensembles):
                calls["validate"][i] += counts is ens.counts
            return validate(counts)

        def counting_group(counts):
            calls["group"] += 1
            return group(counts)

        def counting_running(ufunc, rows):
            calls["totals"] += rows.dtype.kind in "iu"
            return running(ufunc, rows)

        monkeypatch.setattr(classifiers, "_as_count_matrix", counting_validate)
        monkeypatch.setattr(harness, "_distinct_records", counting_group)
        monkeypatch.setattr(classifiers, "_running", counting_running)
        return calls

    @pytest.mark.parametrize("clamps", [False, True])
    def test_four_classifier_sweep_prepares_each_state_once(self, monkeypatch, clamps):
        ens_b, ens_d = _sim_pair(DEFAULT_PARAMS, 1.0, 2048, seed=31)
        table = harness.observation_table_for(DEFAULT_PARAMS)
        if clamps:
            ens_d.counts[5, 3] = table.n_max + 2
        spec = _spec(t_b_values=(0.3, 0.5, 1.0), classifiers=self.FOUR)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            expected = evaluate_prefixes(spec, ens_b, ens_d)
            calls = self._counted(monkeypatch, (ens_b, ens_d))
            before = table.clamped_lookups
            assert evaluate_prefixes(spec, ens_b, ens_d) == expected
        assert calls == {"validate": [1, 1], "group": 2, "totals": 2}
        assert table.clamped_lookups - before == clamps
        assert [str(w.message) for w in caught] == [
            f"1 counts exceed the table's n_max = {table.n_max} (largest {table.n_max + 2}); "
            f"they are scored as {table.n_max}"] * 2 * clamps

    def test_optimize_threshold_builds_histograms_once(self, monkeypatch):
        ens_b, ens_d = _sim_pair(DEFAULT_PARAMS, 0.5, 2048, seed=37)
        expected = optimize_threshold(ens_b, ens_d)
        calls = self._counted(monkeypatch, (ens_b, ens_d))
        assert optimize_threshold(ens_b, ens_d) == expected
        assert calls == {"validate": [1, 1], "group": 0, "totals": 2}

    @pytest.mark.parametrize("spec", FOUR, ids=lambda s: s["method"])
    @pytest.mark.parametrize("bad", [[[-5, 1]], [[0.5, 0.7]]], ids=["negative", "fractional"])
    def test_every_method_rejects_bad_counts(self, spec, bad):
        fixed = {key: {"n_c": 0, "n_B": 1}.get(key, value) for key, value in spec.items()}
        with pytest.raises(ValueError, match="photon count"):
            decisions_for(bad, fixed, DEFAULT_PARAMS)
        t_s = DEFAULT_PARAMS.t_s
        good, wrong = (Ensemble(state, counts, None, 2 * t_s, t_s, DEFAULT_PARAMS)
                       for state, counts in ((IonState.BRIGHT, [[3, 0]]), (IonState.DARK, bad)))
        for ensembles in ((good, wrong), (wrong, good)):
            with pytest.raises(ValueError, match="photon count"):
                evaluate(*ensembles, fixed)

    def test_model_mismatch_warns(self):
        table = harness.observation_table_for(DEFAULT_PARAMS)
        hot = [[0, table.n_max + 3], [table.n_max + 1, 1]]
        with pytest.warns(RuntimeWarning, match=f"2 counts exceed the table's n_max = "
                                                f"{table.n_max} \\(largest {table.n_max + 3}\\)"):
            decisions_for(hot, {"method": "general"}, DEFAULT_PARAMS)
        long_window = np.zeros((3, 10), dtype=int)     # 1 ms against tau = 0.5 ms
        with pytest.warns(RuntimeWarning, match="prefactor clamped"):
            decisions_for(long_window, {"method": "simple", "tau_ms": 0.5}, DEFAULT_PARAMS)

    def test_count_rule_tallies_reject_bad_counts(self):
        with pytest.raises(ValueError, match="photon count"):
            resolve_classifier({"method": "threshold", "n_c": 0}).column_tallies(
                [[3, 0], [2, 1]], [[0, -1], [0, 0]], [0, 1])


class TestCallerCountsUntouched:
    """Prefix histograms are built on a copy of the counts: a caller's array
    is never written, in any memory order, and one trial is no exception."""

    def test_fortran_ordered_counts(self):
        spec = SweepSpec(t_b_values=(0.5, 1.0), n_trials=2000, seed=3,
                         params=DEFAULT_PARAMS, classifiers=TestSharedPreparation.FOUR)
        cfg = SimConfig(n_trials=2000, t_b=1.0, seed=3, params=DEFAULT_PARAMS)
        counts = [simulate_ensemble(cfg, s).counts for s in IonState]
        fortran = [np.asfortranarray(c) for c in counts]

        def rows(arrays):
            ens = [Ensemble(s, c, None, 1.0, DEFAULT_PARAMS.t_s, params=DEFAULT_PARAMS)
                   for s, c in zip(IonState, arrays)]
            return evaluate_prefixes(spec, *ens)

        want = rows([c.copy() for c in counts])
        assert rows(fortran) == want
        assert all(np.array_equal(f, c) for f, c in zip(fortran, counts))
        general = [row.epsilon for row in want if row.classifier == "generalized_time_resolved"]
        assert len(general) == 2 and max(general) < 0.05

    def test_one_trial_sweep_clamps_nothing(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = sweep(SweepSpec(t_b_values=(0.5,), n_trials=1, seed=1, params=DEFAULT_PARAMS))
        assert len(rows) == 2


# ---------------------------------------------------------------------------
# Pulse-pair sweep


class TestPiPulseSweep:
    def test_ideal_pulse_perfect_detector(self):
        params = RateParams(tau_B=1e9, tau_D=1e9, R_B=40.0, R_D=0.0, t_s=0.1)
        spec = SweepSpec(t_b_values=(0.5,), n_trials=20000, seed=3,
                         params=params)
        (row,) = pi_pulse_sweep(spec, {"method": "threshold", "n_c": 0}, 0.0)
        assert row.epsilon == 0.0
        assert row.N_R == 1.0

    @pytest.mark.parametrize("point", sorted(EXACT_PULSE_POINTS))
    def test_matches_exact_transfer_pipeline(self, point):
        bins, n_c = point
        frozen = EXACT_PULSE_POINTS[point]
        spec = SweepSpec(t_b_values=(bins * PULSE_PARAMS.t_s,),
                         n_trials=50000, seed=41, params=PULSE_PARAMS)
        (row,) = pi_pulse_sweep(spec, {"method": "threshold", "n_c": n_c},
                                0.02)
        assert abs(row.epsilon - frozen["epsilon_rel"]) < 5 * row.stderr
        assert row.N_R == pytest.approx(frozen["N_R"], abs=0.01)
        # The analytic cross-check column is fed by estimated matrices and
        # must sit near the same exact value.
        assert row.epsilon_analytic == pytest.approx(frozen["epsilon_rel"],
                                                     abs=5 * row.stderr)
        assert row.N_R_analytic == pytest.approx(frozen["N_R"], abs=0.01)

    def test_rejects_abstaining_detector(self):
        spec = _spec()
        with pytest.raises(ConfigError, match="non-abstaining"):
            pi_pulse_sweep(spec, {"method": "double_threshold",
                                  "n_D": 0, "n_B": 2}, 0.02)

    def test_rejects_detector_left_to_optimize_before_simulating(self, monkeypatch):
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated before the detector was checked")

        monkeypatch.setattr(harness, "simulate_ensemble", no_simulation)
        with pytest.raises(ConfigError, match="optimize"):
            pi_pulse_sweep(_spec(), {"method": "threshold"}, 0.02)

    def test_detector_runs_once_per_window_and_state(self, monkeypatch):
        calls = []

        def counting(counts, spec, params):
            calls.append(counts.shape)
            return decisions_for(counts, spec, params)

        monkeypatch.setattr(harness, "decisions_for", counting)
        spec = _spec(n_trials=200)
        rows = pi_pulse_sweep(spec, {"method": "threshold", "n_c": 1}, 0.02)
        assert len(rows) == len(spec.t_b_values)
        assert len(calls) == 4 * len(spec.t_b_values)

    def test_rejects_bad_pulse_error(self):
        spec = _spec()
        with pytest.raises(ConfigError, match="epsilon_pi"):
            pi_pulse_sweep(spec, {"method": "threshold", "n_c": 1}, 1.5)


# ---------------------------------------------------------------------------
# Classifier specifications and configuration documents


class TestValidateClassifier:
    def test_defaults_filled(self):
        assert resolve_classifier({"method": "threshold"}).n_c == "optimize"
        simple = resolve_classifier({"method": "simple"})
        assert simple.decaying is IonState.DARK

    @pytest.mark.parametrize("bad", [
        {"method": "nope"},
        {"method": "threshold", "n_c": -1},
        {"method": "double_threshold", "n_D": -1, "n_B": 2},
        {"method": "double_threshold", "n_D": 3, "n_B": 1},
        {"method": "double_threshold", "n_B": 2},
        {"method": "simple", "tau_ms": -1.0},
        {"method": "simple", "decaying": "sideways"},
        "not a dict",
        {"method": "threshold", "n_c": 2.5},
        {"method": "threshold", "n_c": True},
        {"method": "double_threshold", "n_D": 0.5, "n_B": 2},
        {"method": "double_threshold", "n_D": 0, "n_B": False},
        {"method": ["general"]},
        {"method": "threshold", "n_c": np.int64(2)},    # no JSON value
    ])
    def test_rejected(self, bad):
        with pytest.raises(ConfigError):
            resolve_classifier(bad)

    @pytest.mark.parametrize("spec, key", [
        ({"method": "threshold", "nc": 3}, "nc"),
        ({"method": "simple", "tau": 0.5}, "tau"),
        ({"method": "double_threshold", "n_D": 0, "n_B": 4, "n_c": 2}, "n_c"),
        ({"method": "general", "decaying": "dark"}, "decaying"),
    ])
    def test_unknown_key_rejected(self, spec, key):
        # A misspelt key must not fall back to the default (n_c "optimize", tau_D).
        with pytest.raises(ConfigError, match=f"^unknown key '{key}' in the "
                                              f"{spec['method']} spec; expected one of "):
            resolve_classifier(spec)

    def test_integer_valued_float_cutoffs_accepted(self):
        # The same integer rule as n_trials, seed and repetitions.
        threshold = resolve_classifier({"method": "threshold", "n_c": 2.0})
        double = resolve_classifier({"method": "double_threshold", "n_D": 0.0, "n_B": 4.0})
        assert (threshold.detail, double.detail) == ("n_c=2", "n_D=0;n_B=4")
        assert all(type(n) is int for n in (threshold.n_c, double.n_D, double.n_c))


def _write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


BASE_CONFIG = {
    "format": "ionread_config",
    "version": 1,
    "params": {"tau_B_ms": 4.9, "tau_D_ms": 56.0, "R_B_per_ms": 16.0,
               "R_D_per_ms": 0.3, "t_s_ms": 0.1},
    "sweep": {"t_b_ms": [0.5, 1.0], "n_trials": 100, "seed": 7},
}


class TestConfigDocuments:
    def test_round_trip(self, tmp_path):
        path = _write_config(tmp_path, BASE_CONFIG)
        cfg = load_config(path)
        params = rate_params_from_config(cfg)
        assert params == DEFAULT_PARAMS
        spec = sweep_spec_from_config(cfg)
        assert spec.t_b_values == (0.5, 1.0)
        assert spec.seed == 7
        assert {c["method"] for c in spec.classifiers} == {"threshold",
                                                           "general"}

    def test_seed_override(self, tmp_path):
        cfg = load_config(_write_config(tmp_path, BASE_CONFIG))
        assert sweep_spec_from_config(cfg, seed=99).seed == 99

    @pytest.mark.parametrize("mutate, match", [
        (lambda d: d.update(format="other"), "format"),
        (lambda d: d.update(version=2), "version"),
        (lambda d: d.pop("params"), "params"),
        (lambda d: d.pop("sweep"), "sweep"),
        (lambda d: d["params"].pop("tau_B_ms"), "params"),
        (lambda d: d["sweep"].pop("n_trials"), "sweep"),
        (lambda d: d["params"].update(R_B=16.0), "unknown key 'R_B' in 'params'"),
        (lambda d: d["sweep"].update(efficency_factors=[1.0, 2.0]),
         "unknown key 'efficency_factors' in 'sweep'"),
        (lambda d: d["sweep"].update(classifiers=[{"method": "threshold", "nc": 3}]),
         "unknown key 'nc' in the threshold spec"),
    ])
    def test_invalid_documents(self, tmp_path, mutate, match):
        doc = json.loads(json.dumps(BASE_CONFIG))
        mutate(doc)
        path = _write_config(tmp_path, doc)
        with pytest.raises(ConfigError, match=match):
            sweep_spec_from_config(load_config(path))

    def test_other_top_level_keys_accepted(self, tmp_path):
        # Sections refuse unknown keys; the document's top level does not.
        doc = {**BASE_CONFIG, "comment": "free text", "simulate": {}}
        assert sweep_spec_from_config(load_config(_write_config(tmp_path, doc))).seed == 7

    def test_invalid_json_carries_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"format": "ionread_config",\n  oops\n}')
        with pytest.raises(ConfigError, match=r":2:"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.json")


# ---------------------------------------------------------------------------
# Tabular output


class TestTabularOutput:
    def _row(self):
        return report_from_decisions(
            np.array([Decision.BRIGHT] * 99 + [Decision.DARK]),
            np.array([Decision.DARK] * 100),
            classifier="threshold", detail="n_c=1", t_b=0.5, n_c=1)

    def test_report_csv_layout(self, tmp_path):
        path = tmp_path / "report.csv"
        report_rows_to_csv([self._row()], path,
                           comments=("config: {}", "seed: 7"))
        lines = path.read_text().splitlines()
        assert lines[0] == "# config: {}"
        assert lines[1] == "# seed: 7"
        assert lines[2] == ",".join(REPORT_COLUMNS)
        cells = dict(zip(REPORT_COLUMNS, lines[3].split(",")))
        assert cells["classifier"] == "threshold"
        assert cells["epsilon"] == "0.005"
        assert cells["epsilon_analytic"] == ""

    def test_six_significant_digits(self, tmp_path):
        row = self._row()
        hairy = ErrorReport(**{**row.__dict__, "epsilon": 0.021138781976848986})
        path = tmp_path / "report.csv"
        report_rows_to_csv([hairy], path)
        value = path.read_text().splitlines()[1].split(",")[7]
        assert value == "0.0211388"

    def test_decisions_csv(self, tmp_path):
        path = tmp_path / "decisions.csv"
        decisions_to_csv(path, [0, 1], np.array([0, 1]),
                         np.array([Decision.BRIGHT, Decision.INCONCLUSIVE]),
                         comments=("seed: 3",))
        lines = path.read_text().splitlines()
        assert lines[0] == "# seed: 3"
        assert lines[1] == "trial,initial,decision,p_B,p_D"
        assert lines[2] == "0,B,B,,"
        assert lines[3] == "1,D,I,,"

    def test_decisions_csv_likelihood_columns(self, tmp_path):
        path = tmp_path / "decisions.csv"
        decisions_to_csv(path, np.array([4, 9]), np.array([1, 0], dtype=np.int8),
                         np.array([Decision.DARK, Decision.BRIGHT], dtype=np.int8),
                         np.array([-48.95486123, -np.inf]),
                         np.array([-1e-7, -123456789.0]))
        assert path.read_text().splitlines() == [
            "trial,initial,decision,p_B,p_D",
            "4,D,D,-48.9549,-1e-07",
            "9,B,B,-inf,-1.23457e+08",
        ]

    def test_decisions_csv_rejects_ragged_columns(self, tmp_path):
        with pytest.raises(ValueError, match="one value per trial"):
            decisions_to_csv(tmp_path / "decisions.csv", [0, 1], np.array([0, 1]),
                             np.array([0, 1]), np.array([-1.0]), np.array([-2.0, -3.0]))
