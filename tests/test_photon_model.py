"""Tests for the per-sub-bin probability model.

The mixture pmf is checked against an independent brute-force Riemann sum
(midpoint rule, 1e6 panels) and against values frozen from that oracle.
"""

import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln, xlogy
from scipy.stats import poisson

from ionread import photon_model
from ionread.photon_model import (
    DEFAULT_PARAMS,
    DegenerateModelError,
    IonState,
    RateParams,
    TableTooSmallError,
    build_observation_table,
    count_pmf,
    mixed_pmf,
    stay_prob,
)


def riemann_mixed_pmf(direction, n, params, panels=10**6):
    """Independent midpoint-rule oracle for the mixture integral."""
    lo = params.R_D * params.t_s
    hi = (params.R_D + params.R_B) * params.t_s
    edges = np.linspace(lo, hi, panels + 1)
    lam = 0.5 * (edges[1:] + edges[:-1])
    pois = np.exp(-lam + xlogy(n, lam) - gammaln(n + 1))
    if direction == "BD":
        scale = params.R_B * params.tau_B
        g = np.exp(-(lam - lo) / scale) / scale
    else:
        scale = params.R_B * params.tau_D
        g = np.exp(-(hi - lam) / scale) / scale
    return float(np.sum(g * pois) * (hi - lo) / panels)


class TestRateParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            RateParams(R_B=-1.0, R_D=0.3, tau_B=4.9, tau_D=56.0, t_s=0.1)
        with pytest.raises(ValueError):
            RateParams(R_B=16.0, R_D=-0.1, tau_B=4.9, tau_D=56.0, t_s=0.1)
        with pytest.raises(ValueError):
            RateParams(R_B=16.0, R_D=0.3, tau_B=0.0, tau_D=56.0, t_s=0.1)
        with pytest.raises(ValueError):
            RateParams(R_B=16.0, R_D=0.3, tau_B=4.9, tau_D=56.0, t_s=0.0)
        # NaN fails no sign test, and inf rates or t_s make no finite table.
        nan, inf = float("nan"), float("inf")
        for bad in ({"R_B": nan}, {"R_B": inf}, {"R_D": nan}, {"R_D": inf},
                    {"t_s": nan}, {"t_s": inf}, {"tau_B": nan}, {"tau_D": nan}):
            with pytest.raises(ValueError):
                replace(DEFAULT_PARAMS, **bad)
        # Infinite lifetimes are the frozen-ion limit and stay valid.
        replace(DEFAULT_PARAMS, tau_B=inf, tau_D=inf)

    def test_coarse_subbin_reportable(self):
        assert not DEFAULT_PARAMS.coarse_subbin
        coarse = RateParams(R_B=16.0, R_D=0.3, tau_B=0.5, tau_D=56.0, t_s=0.1)
        assert coarse.coarse_subbin
        with pytest.warns(UserWarning, match="tau_B/10"):
            build_observation_table(coarse)

    def test_scaled_leaves_lifetimes(self):
        s = DEFAULT_PARAMS.scaled(2.0)
        assert s.R_B == 32.0 and s.R_D == 0.6
        assert s.tau_B == DEFAULT_PARAMS.tau_B and s.tau_D == DEFAULT_PARAMS.tau_D
        with pytest.raises(ValueError):
            DEFAULT_PARAMS.scaled(0.0)

    def test_json_round_trip(self):
        doc = DEFAULT_PARAMS.to_json_dict()
        assert doc["t_s_ms"] == 0.1
        assert RateParams.from_json_dict(doc) == DEFAULT_PARAMS


class TestStayProb:
    def test_identity_at_zero(self):
        assert stay_prob(IonState.BRIGHT, 0.0, DEFAULT_PARAMS) == 1.0
        assert stay_prob(IonState.DARK, 0.0, DEFAULT_PARAMS) == 1.0

    def test_closed_form_values(self):
        assert stay_prob(IonState.BRIGHT, 0.1, DEFAULT_PARAMS) == pytest.approx(
            0.9797986738537043, abs=1e-12
        )
        assert stay_prob(IonState.DARK, 0.1, DEFAULT_PARAMS) == pytest.approx(
            0.998215879153424, abs=1e-12
        )

    def test_domain(self):
        with pytest.raises(ValueError):
            stay_prob(IonState.BRIGHT, -0.01, DEFAULT_PARAMS)
        with pytest.raises(ValueError):
            stay_prob(IonState.BRIGHT, 0.2, DEFAULT_PARAMS)

    @given(st.floats(min_value=1e-6, max_value=0.1))
    def test_monotone_decreasing(self, t):
        earlier = stay_prob(IonState.BRIGHT, t * 0.5, DEFAULT_PARAMS)
        later = stay_prob(IonState.BRIGHT, t, DEFAULT_PARAMS)
        assert later < earlier < 1.0 or t == 0.0


class TestCountPmf:
    def test_closed_form_values(self):
        assert count_pmf(IonState.DARK, 0, DEFAULT_PARAMS) == pytest.approx(
            np.exp(-0.03), rel=1e-12
        )
        assert count_pmf(IonState.BRIGHT, 0, DEFAULT_PARAMS) == pytest.approx(
            np.exp(-1.63), rel=1e-12
        )

    def test_normalization_and_mean(self):
        ns = np.arange(200)
        for state, mean in ((IonState.BRIGHT, 1.63), (IonState.DARK, 0.03)):
            pmf = count_pmf(state, ns, DEFAULT_PARAMS)
            assert pmf.sum() == pytest.approx(1.0, abs=1e-12)
            assert float(ns @ pmf) == pytest.approx(mean, abs=1e-12)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            count_pmf(IonState.BRIGHT, -1, DEFAULT_PARAMS)
        with pytest.raises(ValueError):
            count_pmf(IonState.BRIGHT, 1.5, DEFAULT_PARAMS)
        with pytest.raises(ValueError):
            count_pmf(IonState.DARK, np.array([0.0, 1.5]), DEFAULT_PARAMS)
        assert count_pmf(IonState.BRIGHT, 2.0, DEFAULT_PARAMS) == count_pmf(
            IonState.BRIGHT, 2, DEFAULT_PARAMS)

    def test_mixed_pmf_non_count_rejected(self):
        for bad in (-1, 1.5):
            with pytest.raises(ValueError):
                mixed_pmf("BD", bad, DEFAULT_PARAMS)
        assert mixed_pmf("DB", 2.0, DEFAULT_PARAMS) == mixed_pmf("DB", 2, DEFAULT_PARAMS)


class TestMixedPmf:
    # Values frozen from riemann_mixed_pmf at 1e6 panels, paper parameter set.
    FROZEN = {
        ("BD", 0): 9.804458396099e-03,
        ("BD", 1): 6.106666235723e-03,
        ("BD", 2): 2.823359511062e-03,
        ("BD", 5): 8.260994472146e-05,
        ("DB", 0): 8.634464439271e-04,
        ("DB", 1): 5.400494214246e-04,
        ("DB", 2): 2.503212963254e-04,
        ("DB", 5): 7.348852541996e-06,
    }

    @pytest.mark.parametrize("key", sorted(FROZEN))
    def test_frozen_oracle_values(self, key):
        direction, n = key
        assert mixed_pmf(direction, n, DEFAULT_PARAMS) == pytest.approx(
            self.FROZEN[key], abs=1e-12
        )

    # R_B*tau_D < 1 makes the DB exponent a = 1 - 1/(R_B*tau_D) negative,
    # R_D = 0 puts the lower endpoint at lam = 0, and r = 9.9 the upper one
    # at lam = 16.1.
    @pytest.mark.parametrize("direction,n,params", [
        pytest.param(direction, n, params, id=f"{direction}-{n}{suffix}")
        for suffix, params in [("", DEFAULT_PARAMS),
                               ("-short_tau_D", RateParams(16.0, 0.3, 4.9, 0.05, 0.01)),
                               ("-no_background", replace(DEFAULT_PARAMS, R_D=0.0)),
                               ("-r9.9", DEFAULT_PARAMS.scaled(9.9))]
        for direction in ("BD", "DB") for n in (0, 3)])
    def test_riemann_oracle_live(self, direction, n, params):
        got = mixed_pmf(direction, n, params)
        want = riemann_mixed_pmf(direction, n, params, panels=10**6)
        assert got == pytest.approx(want, abs=1e-8)

    def test_mass_identity(self):
        total_bd = sum(mixed_pmf("BD", n, DEFAULT_PARAMS) for n in range(60))
        total_db = sum(mixed_pmf("DB", n, DEFAULT_PARAMS) for n in range(60))
        assert total_bd == pytest.approx(1 - np.exp(-0.1 / 4.9), abs=1e-8)
        assert total_db == pytest.approx(1 - np.exp(-0.1 / 56.0), abs=1e-8)

    def test_long_lifetime_limit(self):
        params = RateParams(R_B=16.0, R_D=0.3, tau_B=1e9, tau_D=56.0, t_s=0.1)
        for n in range(6):
            assert mixed_pmf("BD", n, params) == pytest.approx(0.0, abs=1e-9)

    def test_degenerate_model(self):
        params = RateParams(R_B=0.0, R_D=0.3, tau_B=4.9, tau_D=56.0, t_s=0.1)
        with pytest.raises(DegenerateModelError):
            mixed_pmf("BD", 0, params)

    def test_bad_direction(self):
        with pytest.raises(ValueError):
            mixed_pmf("XY", 0, DEFAULT_PARAMS)


class TestObservationTable:
    def test_auto_size_and_truncation(self):
        table = build_observation_table(DEFAULT_PARAMS)
        assert 12 <= table.n_max <= 16
        assert table.truncation_mass.max() < 1e-9

    def test_column_normalization(self):
        table = build_observation_table(DEFAULT_PARAMS, n_max=20)
        sums = table.entries.sum(axis=(0, 1))
        assert np.all(np.abs(sums - 1.0) < 1e-9)
        assert np.all(table.entries >= 0.0)
        assert np.all(table.entries <= 1.0)

    def test_entries_match_building_blocks(self):
        table = build_observation_table(DEFAULT_PARAMS)
        w_bb = stay_prob(IonState.BRIGHT, 0.1, DEFAULT_PARAMS)
        w_dd = stay_prob(IonState.DARK, 0.1, DEFAULT_PARAMS)
        for n in (0, 1, 5):
            o = table.entries[n]
            assert o[0, 0] == pytest.approx(w_bb * count_pmf(IonState.BRIGHT, n, DEFAULT_PARAMS))
            assert o[1, 1] == pytest.approx(w_dd * count_pmf(IonState.DARK, n, DEFAULT_PARAMS))
            assert o[1, 0] == pytest.approx(mixed_pmf("BD", n, DEFAULT_PARAMS))
            assert o[0, 1] == pytest.approx(mixed_pmf("DB", n, DEFAULT_PARAMS))

    def test_tabulated_mean_identity(self):
        table = build_observation_table(DEFAULT_PARAMS, n_max=25, tol=1e-9)
        ns = np.arange(table.n_max + 1)
        w_bb = stay_prob(IonState.BRIGHT, 0.1, DEFAULT_PARAMS)
        tab_mean = float(ns @ table.entries[:, 0, 0]) / w_bb
        assert tab_mean == pytest.approx(1.63, abs=1e-8)

    def test_zero_background_dark_column(self):
        params = RateParams(R_B=16.0, R_D=0.0, tau_B=4.9, tau_D=56.0, t_s=0.1)
        table = build_observation_table(params)
        w_dd = np.exp(-0.1 / 56.0)
        assert table.entries[0, 1, 1] == pytest.approx(w_dd, rel=1e-12)
        assert np.all(table.entries[1:, 1, 1] == 0.0)

    def test_too_small_error_carries_estimate(self):
        with pytest.raises(TableTooSmallError) as exc:
            build_observation_table(DEFAULT_PARAMS, n_max=3, tol=1e-9)
        required = exc.value.required_n_max
        assert required > 3
        assert build_observation_table(DEFAULT_PARAMS, n_max=required).n_max == required

    def test_each_mixture_entry_computed_once(self, monkeypatch):
        calls = []

        def counting(direction, n, params):
            calls.append((direction, n))
            return mixed_pmf(direction, n, params)

        monkeypatch.setattr(photon_model, "mixed_pmf", counting)
        table = build_observation_table(DEFAULT_PARAMS)
        assert len(calls) == 2 * (table.n_max + 1)
        assert len(set(calls)) == len(calls)
        calls.clear()
        with pytest.raises(TableTooSmallError) as exc:
            build_observation_table(DEFAULT_PARAMS, n_max=3)
        assert len(calls) == 2 * (exc.value.required_n_max + 1)

    def test_import_and_build_leave_scipy_stats_unloaded(self):
        # A fresh interpreter: the test modules themselves import these.
        # scipy.optimize is loaded only by a fit, and the table needs no
        # quadrature.
        code = ("import sys, ionread\n"
                "ionread.build_observation_table(ionread.DEFAULT_PARAMS)\n"
                "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize',\n"
                "                         'scipy.stats') if m in sys.modules))\n")
        src = str(Path(photon_model.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=120)
        assert out.stdout.strip() == "[]"

    def test_simulate_and_fit_run_on_numpy_alone(self, tmp_path):
        # A fresh interpreter: import, simulate, CSV round trip and a fit
        # load no scipy module; the first table build loads scipy.special.
        code = ("import sys, ionread\n"
                "def loaded():\n"
                "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
                "params = ionread.RateParams(16.0, 0.3, 4.9, 56.0, 1.0 / 3.0)\n"
                "cfg = ionread.SimConfig(n_trials=200, t_b=10.0, seed=5, params=params)\n"
                "ens = [ionread.simulate_ensemble(cfg, s) for s in ionread.IonState]\n"
                f"path = {str(tmp_path / 'counts.csv')!r}\n"
                "ionread.write_ensemble_csv(path, ens)\n"
                "_, initials, counts = ionread.read_counts_csv(path)\n"
                "series = ionread.mean_count_series(initials, counts, params.t_s)\n"
                "ionread.fit_decay_curves(*series.values())\n"
                "print(loaded())\n"
                "ionread.build_observation_table(params)\n"
                "print('scipy.special' in loaded())\n")
        src = str(Path(photon_model.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=120)
        assert out.stdout.split() == ["[]", "True"]

    def test_degenerate_rejected(self):
        params = RateParams(R_B=0.0, R_D=0.3, tau_B=4.9, tau_D=56.0, t_s=0.1)
        with pytest.raises(DegenerateModelError):
            build_observation_table(params)

    def test_clamping_counts(self):
        table = build_observation_table(DEFAULT_PARAMS)
        n = table.n_max
        with pytest.warns(RuntimeWarning, match=f"^1 counts exceed the table's n_max = {n} "
                          f"\\(largest {n + 5}\\); they are scored as {n}$"):
            assert table.clamp_counts(np.array([table.n_max + 5])).tolist() == [table.n_max]
        assert table.clamped_lookups == 1
        with pytest.warns(RuntimeWarning, match=f"largest {n + 2}"):
            clamped = table.clamp_counts(np.array([0, 1, table.n_max + 2]))
        assert clamped.max() == table.n_max
        assert table.clamped_lookups == 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert table.clamp_counts(np.array([0, n])).tolist() == [0, n]
        assert table.clamped_lookups == 2


@settings(max_examples=25, deadline=None)
@given(
    r_b=st.floats(min_value=0.5, max_value=40.0),
    r_d=st.floats(min_value=0.0, max_value=2.0),
    tau_b=st.floats(min_value=1.0, max_value=50.0),
    tau_d=st.floats(min_value=1.0, max_value=100.0),
)
def test_column_normalization_property(r_b, r_d, tau_b, tau_d):
    """Summed over all counts, each observation-table column is stochastic."""
    params = RateParams(R_B=r_b, R_D=r_d, tau_B=tau_b, tau_D=tau_d, t_s=0.1)
    if params.coarse_subbin:
        with pytest.warns(UserWarning):
            table = build_observation_table(params, tol=1e-10)
    else:
        table = build_observation_table(params, tol=1e-10)
    np.testing.assert_allclose(table.entries.sum(axis=(0, 1)), 1.0, atol=2e-10)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(min_value=0, max_value=12))
def test_mixture_between_pure_means_property(n):
    """X(n)/(1-W) is a convex mixture of Poissons, so it lies between the
    smallest and largest Poisson pmf values over the lambda interval."""
    params = DEFAULT_PARAMS
    lo, hi = 0.03, 1.63
    lam = np.linspace(lo, hi, 513)
    pois = np.exp(-lam + xlogy(n, lam) - gammaln(n + 1))
    for direction, tau in (("BD", 4.9), ("DB", 56.0)):
        x = mixed_pmf(direction, n, params) / (1 - np.exp(-0.1 / tau))
        assert pois.min() - 1e-9 <= x <= pois.max() + 1e-9


def test_poisson_sf_consistency():
    """The truncation-mass bookkeeping and scipy's survival function agree."""
    table = build_observation_table(DEFAULT_PARAMS, n_max=14)
    w_bb = np.exp(-0.1 / 4.9)
    direct = w_bb * (1.0 - poisson.cdf(14, 1.63))
    assert direct <= table.truncation_mass[0] + 1e-15
