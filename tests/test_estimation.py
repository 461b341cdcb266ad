"""Tests for decay fitting, lifetime extraction, population dynamics and the
fluorescence-rate formula.

Closed forms are validated against numerical ODE integration and quadrature
oracles; the fitter against noiseless round trips and a ground-truth
simulation.
"""

import inspect
import sys
import warnings

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp
from scipy.optimize import minimize

from ionread import estimation
from ionread.estimation import (
    DecayFit,
    FitConvergenceError,
    LaserPhysics,
    LifetimeEstimate,
    derive_lifetimes,
    fit_decay_curves,
    fit_report,
    fluorescence_rate,
    mean_count_series,
    mean_count_window,
    population_dynamics,
    steady_state_population,
)
from ionread.photon_model import DEFAULT_PARAMS, IonState, RateParams
from ionread.trajectory import SimConfig, simulate_ensemble

P = DEFAULT_PARAMS
TAU = P.tau_B * P.tau_D / (P.tau_B + P.tau_D)


def make_series(a, b, c, tau, times):
    bright = np.column_stack([times, a + b * np.exp(-times / tau)])
    dark = np.column_stack([times, a - c * np.exp(-times / tau)])
    return bright, dark


class TestPopulationDynamics:
    def test_initial_conditions(self):
        assert population_dynamics(0.0, IonState.BRIGHT, P.tau_B, P.tau_D) == (1.0, 0.0)
        assert population_dynamics(0.0, IonState.DARK, P.tau_B, P.tau_D) == (0.0, 1.0)

    def test_steady_state(self):
        w_b, w_d = population_dynamics(1e9, IonState.BRIGHT, P.tau_B, P.tau_D)
        expect_b = P.tau_B / (P.tau_B + P.tau_D)
        assert w_b == pytest.approx(expect_b, rel=1e-12)
        w_b2, _ = population_dynamics(1e9, IonState.DARK, P.tau_B, P.tau_D)
        assert w_b2 == pytest.approx(expect_b, rel=1e-12)

    def test_value_at_relaxation_time(self):
        # frozen: B + A/e at tau_B=4.9, tau_D=56
        w_b, _ = population_dynamics(TAU, IonState.BRIGHT, P.tau_B, P.tau_D)
        assert w_b == pytest.approx(0.418739716019717, abs=1e-14)

    def test_normalization_exact(self):
        t = np.linspace(0, 10 * TAU, 301)
        for initial in IonState:
            w_b, w_d = population_dynamics(t, initial, P.tau_B, P.tau_D)
            assert np.all(w_b + w_d == 1.0)

    def test_matches_ode_integration(self):
        """Closed form vs fourth-order integration of the rate equations."""

        def rhs(t, y):
            return [-y[0] / P.tau_B + y[1] / P.tau_D,
                    y[0] / P.tau_B - y[1] / P.tau_D]

        t_eval = np.linspace(0.01, 10 * TAU, 40)
        for initial, y0 in ((IonState.BRIGHT, [1.0, 0.0]), (IonState.DARK, [0.0, 1.0])):
            sol = solve_ivp(rhs, [0, 10 * TAU], y0, t_eval=t_eval,
                            rtol=1e-11, atol=1e-13)
            w_b, w_d = population_dynamics(t_eval, initial, P.tau_B, P.tau_D)
            assert np.allclose(sol.y[0], w_b, atol=1e-8)
            assert np.allclose(sol.y[1], w_d, atol=1e-8)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            population_dynamics(-0.1, IonState.BRIGHT, P.tau_B, P.tau_D)

    @pytest.mark.parametrize("t", [np.nan, [0.5, np.nan]])
    def test_nan_time_rejected(self, t):
        with pytest.raises(ValueError, match="t must be >= 0"):
            population_dynamics(t, IonState.BRIGHT, P.tau_B, P.tau_D)

    def test_bad_lifetimes_rejected(self):
        with pytest.raises(ValueError):
            population_dynamics(1.0, IonState.BRIGHT, 0.0, P.tau_D)


class TestMeanCountWindow:
    def test_no_bright_rate_gives_background(self):
        quiet = RateParams(0.0, 0.3, P.tau_B, P.tau_D, P.t_s)
        for initial in IonState:
            val = mean_count_window(1.0, 0.25, quiet, initial)
            assert val == pytest.approx(0.25 * 0.3, rel=1e-12)

    def test_steady_state_limit_matches_level_a(self):
        dt = 1.0 / 3.0
        a = dt * (P.R_B * P.tau_B / (P.tau_B + P.tau_D) + P.R_D)
        for initial in IonState:
            val = mean_count_window(1e6, dt, P, initial)
            assert val == pytest.approx(a, rel=1e-9)

    def test_frozen_quadrature_values(self):
        """First window, bright start; late window, dark start (both frozen
        from direct quadrature of R_B*W_B(t) + R_D)."""
        dt = 1.0 / 3.0
        val = mean_count_window(dt, dt, P, IonState.BRIGHT)
        assert val == pytest.approx(5.256319355663024, abs=1e-10)
        val_d = mean_count_window(1.0, dt, P, IonState.DARK)
        assert val_d == pytest.approx(0.1723767873747047, abs=1e-10)

    @pytest.mark.parametrize("initial", list(IonState))
    @pytest.mark.parametrize("t0,dt", [(0.5, 0.5), (2.0, 1.0 / 3.0), (10.0, 0.1)])
    def test_matches_quadrature(self, initial, t0, dt):
        def rate(t):
            w_b, _ = population_dynamics(t, initial, P.tau_B, P.tau_D)
            return P.R_B * w_b + P.R_D

        expect, _ = quad(rate, t0 - dt, t0, epsabs=1e-12, epsrel=1e-12)
        assert mean_count_window(t0, dt, P, initial) == pytest.approx(expect, abs=1e-8)

    def test_window_validation(self):
        with pytest.raises(ValueError):
            mean_count_window(0.1, 0.2, P, IonState.BRIGHT)
        with pytest.raises(ValueError):
            mean_count_window(1.0, 0.0, P, IonState.BRIGHT)


class TestFitDecayCurves:
    def test_noiseless_round_trip_paper_values(self):
        """Recover (a=0.515, b=4.68, c=0.434, tau=4.50) from its own curve."""
        times = np.arange(1, 31) / 3.0
        bright, dark = make_series(0.515, 4.68, 0.434, 4.50, times)
        fit = fit_decay_curves(bright, dark)
        assert fit.a == pytest.approx(0.515, rel=1e-4)
        assert fit.b == pytest.approx(4.68, rel=1e-4)
        assert fit.c == pytest.approx(0.434, rel=1e-4)
        assert fit.tau == pytest.approx(4.50, rel=1e-4)
        assert fit.residual < 1e-8
        assert fit.converged and not fit.degenerate

    def test_round_trip_tight_tolerance(self):
        times = np.arange(1, 25) * 0.5
        bright, dark = make_series(1.2, 3.3, 0.9, 6.0, times)
        fit = fit_decay_curves(bright, dark)
        for got, want in ((fit.a, 1.2), (fit.b, 3.3), (fit.c, 0.9), (fit.tau, 6.0)):
            assert got == pytest.approx(want, rel=1e-6)

    def test_round_trip_on_two_time_grids(self):
        # The objective shares one exp(-t/tau) only when the grids coincide.
        times = np.arange(1, 25) * 0.5
        bright, dark = make_series(1.2, 3.3, 0.9, 6.0, times)
        fit = fit_decay_curves(bright, dark[::3])
        for got, want in ((fit.a, 1.2), (fit.b, 3.3), (fit.c, 0.9), (fit.tau, 6.0)):
            assert got == pytest.approx(want, rel=1e-6)

    def test_round_trip_from_physics_curves(self):
        """Series built by mean_count_window recover the implied (a,b,c,tau)."""
        dt = 1.0 / 3.0
        times = np.arange(1, 31) * dt
        bright = np.column_stack(
            [times, [mean_count_window(t, dt, P, IonState.BRIGHT) for t in times]])
        dark = np.column_stack(
            [times, [mean_count_window(t, dt, P, IonState.DARK) for t in times]])
        fit = fit_decay_curves(bright, dark)
        frac_b = P.tau_B / (P.tau_B + P.tau_D)
        frac_a = 1.0 - frac_b
        a = dt * (P.R_B * frac_b + P.R_D)
        b = P.R_B * frac_a * TAU * (np.exp(dt / TAU) - 1.0)
        c = P.R_B * frac_b * TAU * (np.exp(dt / TAU) - 1.0)
        assert fit.a == pytest.approx(a, rel=1e-6)
        assert fit.b == pytest.approx(b, rel=1e-6)
        assert fit.c == pytest.approx(c, rel=1e-6)
        assert fit.tau == pytest.approx(TAU, rel=1e-6)

    def test_flat_dark_series_flagged_degenerate(self):
        times = np.arange(1, 21) * 0.5
        bright = np.column_stack([times, 0.5 + 4.0 * np.exp(-times / 4.5)])
        dark = np.column_stack([times, np.full_like(times, 0.5)])
        fit = fit_decay_curves(bright, dark)
        assert fit.degenerate
        with pytest.raises(ValueError):
            derive_lifetimes(fit)

    def test_far_simplex_vertices_overflow_without_a_warning(self):
        # Vertices far out in log-parameter space overflow exp and the
        # residual's dot product: an infinite residual, which the descent
        # leaves behind, not a RuntimeWarning (an error under tier-1's filter).
        bright = np.column_stack([np.arange(1.0, 6.0), [1, 2, 2, 3, 3]])
        dark = np.column_stack([np.arange(1.0, 5.0), [1, 6, 4, 3]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit_decay_curves(bright, dark)
        assert fit.converged and fit.degenerate
        assert fit.n_evaluations == 77058

    def test_simulated_ensemble_recovers_relaxation_time(self):
        """Ground-truth simulation: 2000 ions per state, 30 bins of 1/3 ms;
        the fitted tau must land within 10% of tau_B*tau_D/(tau_B+tau_D)."""
        params = RateParams(P.R_B, P.R_D, P.tau_B, P.tau_D, 1.0 / 3.0)
        cfg = SimConfig(n_trials=2000, t_b=10.0, seed=31, params=params)
        ens_b = simulate_ensemble(cfg, IonState.BRIGHT)
        ens_d = simulate_ensemble(cfg, IonState.DARK)
        initials = np.concatenate([ens_b.initial, ens_d.initial])
        counts = np.concatenate([ens_b.counts, ens_d.counts])
        series = mean_count_series(initials, counts, params.t_s)
        fit = fit_decay_curves(series[IonState.BRIGHT], series[IonState.DARK])
        assert fit.tau == pytest.approx(TAU, rel=0.10)

    def test_series_validation(self):
        times = np.array([0.5, 1.0])
        two = np.column_stack([times, times])
        with pytest.raises(ValueError, match="3 points"):
            fit_decay_curves(two, two)
        bad_t = np.column_stack([[1.0, 0.5, 2.0], [1.0, 1.0, 1.0]])
        good = np.column_stack([[0.5, 1.0, 1.5], [1.0, 1.0, 1.0]])
        with pytest.raises(ValueError, match="increasing"):
            fit_decay_curves(bad_t, good)
        # A NaN or infinite mean left every start's residual NaN, and the
        # polish step then crashed on a missing best point.
        for bad in (np.nan, np.inf, -np.inf):
            for column in (0, 1):
                series = good.copy()
                series[1, column] = bad
                with pytest.raises(ValueError, match="^mean_dark times and means must be finite$"):
                    fit_decay_curves(good, series)
                with pytest.raises(ValueError, match="^mean_bright times and means must be finite$"):
                    fit_decay_curves(series, good)

    def test_report_round_trip(self):
        times = np.arange(1, 31) / 3.0
        bright, dark = make_series(0.515, 4.68, 0.434, 4.50, times)
        fit = fit_decay_curves(bright, dark)
        report = fit_report(fit)
        assert report["format"] == "decay_fit"
        assert report["fit"]["tau_ms"] == fit.tau
        assert report["lifetimes"]["tau_B_ms"] == pytest.approx(4.9173, rel=1e-3)
        assert report["fit"]["n_evaluations"] == fit.n_evaluations


def _fit_simplex_runs(seed, monkeypatch):
    """(objective, x0) of each simplex run of the fit to one seed's series."""
    params = RateParams(P.R_B, P.R_D, P.tau_B, P.tau_D, 1.0 / 3.0)
    cfg = SimConfig(n_trials=500, t_b=10.0, seed=seed, params=params)
    ens = [simulate_ensemble(cfg, s) for s in IonState]
    series = mean_count_series(np.concatenate([e.initial for e in ens]),
                               np.concatenate([e.counts for e in ens]), params.t_s)
    runs, port = [], estimation._nelder_mead

    def spy(func, x0, maxfev):
        runs.append((func, np.array(x0)))
        return port(func, x0, maxfev)

    with monkeypatch.context() as patch:
        patch.setattr(estimation, "_nelder_mead", spy)
        fit_decay_curves(series[IonState.BRIGHT], series[IonState.DARK])
    return runs


def _call_kinds(func, x0):
    """The step kind of each objective call of an unlimited port run, read
    from the line of ``_nelder_mead`` that made it."""
    lines, first = inspect.getsourcelines(estimation._nelder_mead)
    kinds = {}
    for offset, text in enumerate(lines):
        for call, kind in (("f(sim[k])", "initial"), ("f(xr)", "reflection"),
                           ("f(xe)", "expansion"), ("f(xc)", "contraction"),
                           ("f(sim[j])", "shrink")):
            if call in text:
                kinds[first + offset] = kind
    seen = []

    def traced(x):
        seen.append(kinds[sys._getframe(2).f_lineno])
        return func(x)

    estimation._nelder_mead(traced, x0, 10_000)
    return seen


class TestNelderMeadPort:
    """``_nelder_mead`` returns scipy's adaptive Nelder–Mead result bit for
    bit, also when the budget runs out part-way through a step."""

    @pytest.mark.parametrize("seed", [2, 9, 31])
    def test_matches_scipy_bits(self, seed, monkeypatch):
        exhausted = set()
        for func, x0 in _fit_simplex_runs(seed, monkeypatch):
            kinds = _call_kinds(func, x0)
            budgets = {10_000, 2}       # 2: out during the initial simplex
            for kind in ("expansion", "contraction", "shrink"):
                if kind in kinds:       # out at the first such call
                    budgets.add(kinds.index(kind))
                    exhausted.add(kind)
            if "shrink" in kinds:       # and part-way through that shrink
                budgets.add(kinds.index("shrink") + 2)
            for budget in budgets:
                x, fun, nfev = estimation._nelder_mead(func, x0, budget)
                want = minimize(func, x0, method="Nelder-Mead",
                                options={"maxfev": budget, "fatol": 1e-14,
                                         "xatol": 1e-10, "adaptive": True})
                assert x.tobytes() == want.x.tobytes()
                assert float(fun).hex() == float(want.fun).hex()
                assert nfev == want.nfev
        assert exhausted == {"expansion", "contraction", "shrink"}


class TestDeriveLifetimes:
    def test_paper_fit_values(self):
        fit = DecayFit(a=0.515, b=4.68, c=0.434, tau=4.50, residual=0.0,
                       n_evaluations=0)
        est = derive_lifetimes(fit)
        assert est.A == pytest.approx(0.9151349237, rel=1e-9)
        assert est.tau_B == pytest.approx(4.92, abs=0.005)
        assert est.tau_D == pytest.approx(53.1, rel=0.005)

    def test_equal_amplitudes_split_evenly(self):
        fit = DecayFit(a=1.0, b=0.7, c=0.7, tau=3.0, residual=0.0,
                       n_evaluations=0)
        est = derive_lifetimes(fit)
        assert est.A == pytest.approx(0.5)
        assert est.tau_B == pytest.approx(6.0)
        assert est.tau_D == pytest.approx(6.0)

    def test_consistency_identity(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            b, c, tau = rng.uniform(0.1, 10, size=3)
            fit = DecayFit(a=1.0, b=b, c=c, tau=tau, residual=0.0,
                           n_evaluations=0)
            est = derive_lifetimes(fit)
            assert est.A + est.B == pytest.approx(1.0, abs=1e-12)
            assert est.A * est.tau_B == pytest.approx(tau, rel=1e-12)
            assert est.B * est.tau_D == pytest.approx(tau, rel=1e-12)
            # algebraic inverse: A reproduces the input amplitude ratio
            assert est.A / est.B == pytest.approx(b / c, rel=1e-12)

    def test_zero_c_rejected(self):
        fit = DecayFit(a=1.0, b=1.0, c=0.0, tau=3.0, residual=0.0,
                       n_evaluations=0)
        with pytest.raises(ValueError):
            derive_lifetimes(fit)


class TestMeanCountSeries:
    def test_groups_and_averages(self):
        initials = np.array([0, 0, 1, 1], dtype=np.int8)
        counts = np.array([[2, 0], [4, 2], [0, 0], [1, 1]])
        series = mean_count_series(initials, counts, 0.1)
        bright = series[IonState.BRIGHT]
        dark = series[IonState.DARK]
        assert np.allclose(bright[:, 0], [0.1, 0.2])
        assert np.allclose(bright[:, 1], [3.0, 1.0])
        assert np.allclose(dark[:, 1], [0.5, 0.5])

    def test_missing_state_omitted(self):
        initials = np.zeros(3, dtype=np.int8)
        counts = np.ones((3, 4), dtype=int)
        series = mean_count_series(initials, counts, 0.1)
        assert IonState.DARK not in series


class TestLaserPhysics:
    def test_no_drive_no_fluorescence(self):
        physics = LaserPhysics(eta=3.1e-3, gamma=1.0, Omega=0.0, Delta=0.0, delta=0.0)
        assert steady_state_population(physics) == 0.0
        assert fluorescence_rate(physics) == 0.0

    def test_rate_linear_in_collection_efficiency(self):
        base = LaserPhysics(eta=3.1e-3, gamma=2.0, Omega=1.5, Delta=0.3, delta=0.8)
        doubled = LaserPhysics(eta=6.2e-3, gamma=2.0, Omega=1.5, Delta=0.3, delta=0.8)
        assert fluorescence_rate(doubled) == pytest.approx(
            2.0 * fluorescence_rate(base), rel=1e-12)

    def test_zero_zeeman_splitting_under_drive_rejected(self):
        physics = LaserPhysics(eta=1.0, gamma=1.0, Omega=1.0, Delta=0.0, delta=0.0)
        with pytest.raises(ValueError):
            steady_state_population(physics)

    def test_population_decreases_with_detuning_magnitude(self):
        deltas = np.linspace(0.0, 5.0, 21)
        pops = [steady_state_population(
            LaserPhysics(eta=1.0, gamma=1.0, Omega=1.0, Delta=d, delta=0.5))
            for d in deltas]
        assert all(a > b for a, b in zip(pops, pops[1:]))
        sym = [steady_state_population(
            LaserPhysics(eta=1.0, gamma=1.0, Omega=1.0, Delta=-d, delta=0.5))
            for d in deltas]
        assert np.allclose(pops, sym, rtol=1e-12)

    def test_negative_parameter_rejected(self):
        with pytest.raises(ValueError):
            LaserPhysics(eta=-0.1, gamma=1.0, Omega=1.0, Delta=0.0, delta=0.5)

    def test_formula_value(self):
        physics = LaserPhysics(eta=1.0, gamma=2.0, Omega=3.0, Delta=0.5, delta=0.7)
        half_sq = (2.0 / 2) ** 2 + (9.0 / (36 * 0.49) + 4 * 0.49) / 6.0
        expect = (9.0 / 36.0) / (0.25 + half_sq)
        assert steady_state_population(physics) == pytest.approx(expect, rel=1e-12)
