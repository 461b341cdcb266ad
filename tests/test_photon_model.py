"""Tests for the per-sub-bin probability model.

The mixture pmf is checked against an independent brute-force Riemann sum
(midpoint rule, 1e6 panels) and against values frozen from that oracle.
"""

import importlib.machinery
import importlib.util
import math
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

from ionread import harness, photon_model
from ionread.classifiers import general_loglik, simple_loglik
from ionread.photon_model import (
    DEFAULT_PARAMS,
    DegenerateModelError,
    IonState,
    RateParams,
    _poisson_logpmf,
    build_observation_table,
    count_pmf,
    mixed_pmf,
    stay_prob,
)


def fresh_python(code, cache=None):
    """Stdout of ``code`` run by a fresh interpreter on this checkout's
    source; ``cache`` replaces the inherited table cache directory."""
    src = str(Path(photon_model.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    if cache is not None:
        env["XDG_CACHE_HOME"] = str(cache)
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=120).stdout


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

    @pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf, True, False, 0.0, -1.0])
    def test_scaled_refuses_a_factor_by_its_own_name(self, r):
        # NaN and inf once failed as "R_B must be finite", and True ran as 1.
        with pytest.raises(ValueError, match="^efficiency factor r must be finite and > 0, got "):
            DEFAULT_PARAMS.scaled(r)

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
        with pytest.raises(ValueError):
            stay_prob(IonState.BRIGHT, float("nan"), DEFAULT_PARAMS)

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

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_infinite_count_rejected(self, bad):
        # No NaN pmf and no count scored after an int cast: every entry
        # point refuses before numpy's cast warning could fire.
        table = build_observation_table(DEFAULT_PARAMS)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (lambda: count_pmf(IonState.BRIGHT, bad, DEFAULT_PARAMS),
                         lambda: count_pmf(IonState.DARK, np.array([0.0, bad]), DEFAULT_PARAMS),
                         lambda: mixed_pmf("BD", bad, DEFAULT_PARAMS),
                         lambda: general_loglik([[bad, 2]], table),
                         lambda: simple_loglik([[bad, 2]], DEFAULT_PARAMS)):
                with pytest.raises(ValueError, match="photon count must be"):
                    call()


class TestPoissonLogPmf:
    """``_poisson_logpmf`` runs no scipy, yet gives scipy.special's bits."""

    def test_bits_match_scipy_special(self):
        # Counts up to 1023 are gathered from a table, larger ones computed
        # per distinct value: each call below takes one of the two paths.
        counts = np.concatenate([np.arange(10**6 + 1), [2**63 - 1, 1e15, 1e306]])
        means = [0.0, DEFAULT_PARAMS.dark_mean, DEFAULT_PARAMS.bright_mean,
                 *np.random.default_rng(26).uniform(0.0, 40.0, 2).tolist()]
        for mean in means:
            with np.errstate(over="ignore"):    # 1e306 overflows x log(mean) - gammaln
                want = -mean + xlogy(counts, mean) - gammaln(counts + 1.0)
                got = _poisson_logpmf(counts, mean)
            assert got.dtype == np.float64 and got.shape == counts.shape
            assert got.tobytes() == want.tobytes(), mean
            assert _poisson_logpmf(counts[:1024], mean).tobytes() == want[:1024].tobytes()


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
        table = photon_model._tabulate(DEFAULT_PARAMS, 1e-12)
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
        table = photon_model._tabulate(DEFAULT_PARAMS, 1e-12)
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

    @pytest.mark.parametrize("t_s, n_max", [(0.1, 14), (1.0 / 30.0, 9)])
    def test_tol_pins_n_max(self, t_s, n_max):
        params = replace(DEFAULT_PARAMS, t_s=t_s)
        table = build_observation_table(params)
        assert table.n_max == n_max
        # The first size below tol: one row fewer leaves more than tol out.
        assert table.truncation_mass.max() < 1e-9
        shorter = photon_model._truncation_mass(params, table.entries[:-1])
        assert shorter.max() >= 1e-9

    @pytest.mark.parametrize("params", [DEFAULT_PARAMS, replace(DEFAULT_PARAMS, t_s=1.0 / 30.0)])
    def test_tighter_tol_only_appends_rows(self, params):
        tables = [photon_model._tabulate(params, tol) for tol in (1e-6, 1e-9, 1e-12)]
        assert tables[0].n_max < tables[1].n_max < tables[2].n_max
        for small, large in zip(tables, tables[1:]):
            assert small.entries.tobytes() == large.entries[:small.n_max + 1].tobytes()
        for table, tol in zip(tables, (1e-6, 1e-9, 1e-12)):
            assert table.truncation_mass.max() < tol

    def test_shared_table_is_read_only(self):
        table = harness.observation_table_for(DEFAULT_PARAMS)
        before = table.truncation_mass.copy()
        for array in (table.truncation_mass, table.entries):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0
        assert np.array_equal(harness.observation_table_for(DEFAULT_PARAMS).truncation_mass,
                              before)

    def test_each_mixture_entry_computed_once(self, monkeypatch):
        calls = []

        def counting(direction, n, params):
            calls.append((direction, n))
            return mixed_pmf(direction, n, params)

        monkeypatch.setattr(photon_model, "mixed_pmf", counting)
        for tol in (1e-9, 1e-12):
            calls.clear()
            table = photon_model._tabulate(DEFAULT_PARAMS, tol)
            assert len(calls) == 2 * (table.n_max + 1)
            assert len(set(calls)) == len(calls)

    def test_import_and_build_leave_scipy_stats_unloaded(self):
        # A fresh interpreter: the test modules themselves import these.
        # scipy.optimize is loaded only by a fit, and the table needs no
        # quadrature.
        code = ("import sys, ionread\n"
                "ionread.build_observation_table(ionread.DEFAULT_PARAMS)\n"
                "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize',\n"
                "                         'scipy.stats') if m in sys.modules))\n")
        assert fresh_python(code).strip() == "[]"

    def test_simulate_and_fit_run_on_numpy_alone(self, tmp_path):
        # A fresh interpreter: import, simulate, CSV round trip and a fit
        # load no scipy module; the first table build of a parameter set
        # (an empty cache here) loads scipy.special.
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
        out = fresh_python(code, cache=tmp_path / "empty-cache")
        assert out.split() == ["[]", "True"]

    def test_simple_sweep_from_a_warm_cache_loads_no_scipy(self, tmp_path):
        # The first process builds the table and so imports scipy.special;
        # the second finds it in the shared cache and scores both
        # likelihoods, the simple one through the scipy-free log-pmf.
        code = ("import sys, ionread\n"
                "ionread.build_observation_table(ionread.DEFAULT_PARAMS)\n"
                "spec = ionread.SweepSpec(t_b_values=(0.5, 1.0), n_trials=200, seed=3,\n"
                "                         params=ionread.DEFAULT_PARAMS,\n"
                "                         classifiers=({'method': 'simple'}, {'method': 'general'}))\n"
                "rows = ionread.sweep(spec)\n"
                "print(len(rows), sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
        cold, warm = fresh_python(code), fresh_python(code)
        assert "'scipy.special'" in cold
        assert warm.strip() == "4 []"

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


class TestTableCache:
    """Built tables persist in ``$XDG_CACHE_HOME/ionread``: here each test's
    own ``tmp_path`` (``conftest.py``)."""

    @pytest.fixture
    def builds(self, monkeypatch):
        """The (params, tol) of every table actually built, not loaded."""
        calls, tabulate = [], photon_model._tabulate

        def counting(params, tol):
            calls.append((params, tol))
            return tabulate(params, tol)

        monkeypatch.setattr(photon_model, "_tabulate", counting)
        return calls

    @staticmethod
    def assert_same(table, reference):
        assert table.n_max == reference.n_max
        assert table.entries.tobytes() == reference.entries.tobytes()
        assert table.truncation_mass.tobytes() == reference.truncation_mass.tobytes()

    def test_second_process_loads_the_same_bits_without_scipy_special(self, tmp_path):
        code = ("import sys, ionread\n"
                "for params in (ionread.DEFAULT_PARAMS,\n"
                "               ionread.RateParams(16.0, 0.3, 4.9, 56.0, 1.0 / 30.0)):\n"
                "    table = ionread.build_observation_table(params)\n"
                "    print(table.n_max, table.entries.tobytes().hex(),\n"
                "          table.truncation_mass.tobytes().hex())\n"
                "print('scipy.special' in sys.modules)\n")
        cold, warm = fresh_python(code).split(), fresh_python(code).split()
        assert cold[-1] == "True" and warm[-1] == "False"
        assert warm[:-1] == cold[:-1]
        assert len(list((tmp_path / "ionread").iterdir())) == 2
        reference = photon_model._tabulate(DEFAULT_PARAMS, 1e-9)
        assert cold[:3] == [str(reference.n_max), reference.entries.tobytes().hex(),
                            reference.truncation_mass.tobytes().hex()]

    def test_hit_is_read_only_and_warns_as_a_build(self, builds):
        params = replace(DEFAULT_PARAMS, t_s=1.0)
        tables = []
        for _ in range(2):
            with pytest.warns(UserWarning, match="single-change-per-sub-bin"):
                tables.append(build_observation_table(params))
        assert len(builds) == 1
        self.assert_same(tables[1], tables[0])
        for array in (tables[1].entries, tables[1].truncation_mass):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0
        with pytest.raises(DegenerateModelError):
            build_observation_table(replace(params, R_B=0.0))

    @staticmethod
    def _flip_entries_byte(raw, table):
        # One bit of the eighth entry: only the zip checksum can tell.
        at = raw.index(table.entries.tobytes()) + 8 * 7 + 3
        return raw[:at] + bytes([raw[at] ^ 0x10]) + raw[at + 1:]

    @pytest.mark.parametrize("damage", ["truncated", "empty", "not a zip", "flipped byte",
                                        "other key", "wrong shape"])
    def test_damaged_file_is_rebuilt_and_replaced(self, tmp_path, builds, damage):
        reference = build_observation_table(DEFAULT_PARAMS)
        [path] = (tmp_path / "ionread").iterdir()
        raw = path.read_bytes()
        if damage in ("other key", "wrong shape"):
            with np.load(path) as data:
                stored = dict(data)
            if damage == "other key":
                stored["key"] = np.array("0" * 64)
            else:
                stored["entries"] = stored["entries"][:-1]
            with open(path, "wb") as f:
                np.savez(f, **stored)
        else:
            path.write_bytes({"truncated": raw[:len(raw) // 2], "empty": b"",
                              "not a zip": b"ionread",
                              "flipped byte": self._flip_entries_byte(raw, reference)}[damage])
        self.assert_same(build_observation_table(DEFAULT_PARAMS), reference)
        assert len(builds) == 2
        assert list((tmp_path / "ionread").iterdir()) == [path]
        self.assert_same(build_observation_table(DEFAULT_PARAMS), reference)
        assert len(builds) == 2

    def test_unwritable_directory_still_yields_the_table(self, tmp_path, builds, monkeypatch):
        reference = photon_model._tabulate(DEFAULT_PARAMS, 1e-9)
        # Under a regular file, the cache directory cannot be made.
        (tmp_path / "file").write_bytes(b"")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "file"))
        for _ in range(2):
            self.assert_same(build_observation_table(DEFAULT_PARAMS), reference)
        assert len(builds) == 3
        # A failed rename leaves no temporary file behind.
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))

        def refuse(src, dst):
            raise PermissionError(13, "refused", dst)

        monkeypatch.setattr(os, "replace", refuse)
        self.assert_same(build_observation_table(DEFAULT_PARAMS), reference)
        assert list((tmp_path / "cache" / "ionread").iterdir()) == []

    def test_failed_build_is_not_cached(self, tmp_path, monkeypatch):
        def fail(direction, n, params):
            raise ValueError("mixture entry is not representable")

        monkeypatch.setattr(photon_model, "mixed_pmf", fail)
        with pytest.raises(ValueError, match="not representable"):
            build_observation_table(DEFAULT_PARAMS)
        assert not (tmp_path / "ionread").exists() or not any((tmp_path / "ionread").iterdir())

    @pytest.mark.parametrize("field", ["R_B", "R_D", "tau_B", "tau_D", "t_s", "tol"])
    @pytest.mark.parametrize("bit", [0, 30, 51])
    def test_any_flipped_bit_misses(self, builds, field, bit, monkeypatch):
        def flipped(value):
            bits = np.array(value, dtype=np.float64).view(np.int64) ^ (1 << bit)
            return float(bits.view(np.float64))

        build_observation_table(DEFAULT_PARAMS)
        build_observation_table(DEFAULT_PARAMS)
        assert len(builds) == 1
        params, tol = DEFAULT_PARAMS, 1e-9
        if field == "tol":      # the truncation bound is a key field too
            tol = flipped(tol)
            monkeypatch.setattr(photon_model, "_TABLE_TOL", tol)
        else:
            params = replace(params, **{field: flipped(getattr(params, field))})
        build_observation_table(params)
        assert builds[1:] == [(params, tol)]

    @pytest.mark.parametrize("field, value", [
        ("R_B", np.float32(16.0)), ("R_B", 16), ("t_s", np.float64(0.1))])
    def test_only_python_floats_are_cached(self, tmp_path, builds, field, value):
        params = replace(DEFAULT_PARAMS, **{field: value})
        for _ in range(2):
            table = build_observation_table(params)
        assert len(builds) == 2
        assert not (tmp_path / "ionread").exists()
        self.assert_same(table, photon_model._tabulate(params, 1e-9))

    def test_environment_digest_covers_scipy_special_binaries(self, tmp_path, monkeypatch, request):
        scipy_dir = tmp_path / "scipy"
        (scipy_dir / "special").mkdir(parents=True)
        (scipy_dir / "version.py").write_text("version = '0'\n")
        binary = scipy_dir / "special" / ("_ufuncs" + importlib.machinery.EXTENSION_SUFFIXES[0])
        spec = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
        spec.submodule_search_locations = [str(scipy_dir)]
        monkeypatch.setattr(importlib.util, "find_spec", lambda name: spec)
        request.addfinalizer(photon_model._environment_digest.cache_clear)
        digests = []
        for content in (b"one", b"other"):
            binary.write_bytes(content)
            photon_model._environment_digest.cache_clear()
            digests.append(photon_model._environment_digest())
        assert None not in digests and digests[0] != digests[1]

    def test_other_environment_misses(self, builds, monkeypatch):
        build_observation_table(DEFAULT_PARAMS)
        monkeypatch.setattr(photon_model, "_environment_digest", lambda: b"another machine")
        build_observation_table(DEFAULT_PARAMS)
        assert len(builds) == 2


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
    table = photon_model._tabulate(params, 1e-10)
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
    table = build_observation_table(DEFAULT_PARAMS)
    assert table.n_max == 14
    w_bb = np.exp(-0.1 / 4.9)
    direct = w_bb * (1.0 - poisson.cdf(14, 1.63))
    assert direct <= table.truncation_mass[0] + 1e-15
