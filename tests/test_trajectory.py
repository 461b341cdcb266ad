"""Tests for trajectory sampling: dwell-time laws, exact per-bin bright
dwell bookkeeping, reproducibility contracts, and CSV interchange.

Statistical checks run at 5 sigma (or KS significance 1e-3) so they are
deterministic in practice for the pinned seeds.
"""

import csv
import hashlib
import re
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from ionread import trajectory
from ionread.photon_model import DEFAULT_PARAMS, IonState, RateParams
from ionread.trajectory import (
    CHUNK,
    DataFormatError,
    Ensemble,
    SimConfig,
    _deterministic_uniforms,
    bright_dwell_per_bin,
    n_bins,
    read_counts_csv,
    simulate_ensemble,
    write_change_times_csv,
    write_ensemble_csv,
)

P = DEFAULT_PARAMS
#: tau_D = inf: a dark ion never brightens, a bright ion decays at most once.
P_FROZEN_DARK = RateParams(P.R_B, P.R_D, P.tau_B, np.inf, P.t_s)


def simulate(n_trials, t_b, initial, params=P, seed=0):
    return simulate_ensemble(SimConfig(n_trials=n_trials, t_b=t_b, seed=seed,
                                       params=params), initial)


def rows(ens):
    """(initial state, change times) of every trial, padding stripped."""
    for state, row in zip(ens.initial, ens.change_times):
        yield int(state), row[~np.isnan(row)]


def python_dwell(initial, change_times, t_b, t_s):
    """Reference bright-dwell computation: explicit interval sweep."""
    m = n_bins(t_b, t_s)
    bounds = [0.0] + [float(t) for t in change_times] + [t_b]
    dwell = np.zeros(m)
    state = int(initial)
    for seg in range(len(bounds) - 1):
        if state == int(IonState.BRIGHT):
            lo, hi = bounds[seg], bounds[seg + 1]
            for k in range(m):
                a, b = k * t_s, (k + 1) * t_s
                dwell[k] += max(0.0, min(hi, b) - max(lo, a))
        state = 1 - state
    return dwell


def reference_read_counts_csv(path):
    """The counts CSV read row by row with the csv module: the reference for
    the bulk reader on valid files."""
    with open(path, newline="") as fh:
        lines = [line for line in fh if line.strip() and not line.startswith("#")]
    header, *body = csv.reader(lines)
    assert header == ["trial", "initial"] + [f"n_{k}" for k in range(1, len(header) - 1)]
    assert all(len(row) == len(header) for row in body)
    return (np.array([int(row[0]) for row in body], np.int64),
            np.array([{"B": 0, "D": 1}[row[1].upper()] for row in body], np.int8),
            np.array([[int(c) for c in row[2:]] for row in body],
                     np.int64).reshape(len(body), len(header) - 2))


def narrowest_dtype(counts):
    """The narrowest signed integer dtype whose range holds the largest count."""
    top = int(np.max(counts))
    return next(np.dtype(t) for t in (np.int8, np.int16, np.int32, np.int64)
                if top <= np.iinfo(t).max)


def random_counts_text(rng, n_rows, n_counts):
    """A valid counts CSV with every accepted variation: comment and blank
    lines anywhere, LF or CRLF per line, quoted fields, mixed-case labels,
    negative trial ids, counts up to the int64 maximum, and a final newline
    or none."""
    def cell(value):
        return f'"{value}"' if rng.random() < 0.05 else str(value)

    def filler():
        while rng.random() < 0.02:
            lines.append(str(rng.choice(["", "  ", "\t", "# note, 1,2", "#"])))

    lines = []
    filler()
    lines.append(",".join(map(cell, ["trial", "initial"]
                              + [f"n_{k}" for k in range(1, n_counts + 1)])))
    huge = rng.random((n_rows, n_counts)) < 0.01
    counts = np.where(huge, rng.integers(0, 2**63 - 1, (n_rows, n_counts), endpoint=True),
                      rng.poisson(2.0, (n_rows, n_counts)))
    labels = rng.choice(list("BbDd"), n_rows)
    for trial, label, row in zip(rng.integers(-10**6, 10**6, n_rows).tolist(),
                                 labels.tolist(), counts.tolist()):
        filler()
        lines.append(",".join([cell(trial), cell(label)] + [cell(c) for c in row]))
    filler()
    text = "".join(line + end for line, end in zip(lines, rng.choice(["\n", "\r\n"], len(lines))))
    return text if rng.random() < 0.5 else text.rstrip("\r\n")


def occupancy_bright(initial, t, params):
    """Closed-form P(bright at t | initial): relaxation toward the
    stationary split tau_B/(tau_B+tau_D) with rate 1/tau_B + 1/tau_D."""
    b = params.tau_B / (params.tau_B + params.tau_D)
    a = params.tau_D / (params.tau_B + params.tau_D)
    tau = params.tau_B * params.tau_D / (params.tau_B + params.tau_D)
    if initial == IonState.BRIGHT:
        return b + a * np.exp(-t / tau)
    return b - b * np.exp(-t / tau)


class TestNBins:
    def test_exact_multiples(self):
        assert n_bins(3.0, 0.1) == 30
        assert n_bins(0.1, 0.1) == 1
        assert n_bins(1.0, 1.0 / 30.0) == 30

    def test_rejects_non_multiple(self):
        with pytest.raises(ValueError):
            n_bins(0.25, 0.1)
        with pytest.raises(ValueError):
            n_bins(-1.0, 0.1)
        with pytest.raises(ValueError):
            n_bins(1.0, 0.0)

    @pytest.mark.parametrize("t_b, t_s", [(np.inf, 0.1), (np.nan, 0.1),
                                          (1.0, np.inf), (1.0, np.nan)])
    def test_rejects_non_finite(self, t_b, t_s):
        with pytest.raises(ValueError, match="finite"):
            n_bins(t_b, t_s)


class TestSimConfig:
    def test_t_s_defaults_from_params(self):
        cfg = SimConfig(n_trials=10, t_b=1.0, seed=1, params=P)
        assert cfg.t_s == P.t_s
        assert cfg.n_bins == 10

    def test_bad_trials(self):
        with pytest.raises(ValueError):
            SimConfig(n_trials=0, t_b=1.0, seed=1, params=P)
        for n_trials in (2.5, True):     # refused before any draw, not by range()
            with pytest.raises(ValueError, match="n_trials must be an integer"):
                SimConfig(n_trials=n_trials, t_b=1.0, seed=1, params=P)

    @pytest.mark.parametrize("seed", [-1, 2**64, True])   # True would draw seed 1's counts
    def test_seed_outside_range_rejected(self, seed):
        with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\*\*64\)"):
            SimConfig(n_trials=1, t_b=1.0, seed=seed, params=P)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_seed_range_bounds_simulate(self, seed):
        cfg = SimConfig(n_trials=3, t_b=0.2, seed=seed, params=P)
        assert simulate_ensemble(cfg, IonState.BRIGHT).counts.shape == (3, 2)


class TestSampleChangeTimes:
    def test_increasing_within_window(self):
        ct = simulate(2000, 3.0, IonState.BRIGHT).change_times
        inside = ~np.isnan(ct)
        # NaN only pads the tail of a row.
        assert np.all(inside[:, :-1] >= inside[:, 1:])
        assert np.all((ct[inside] > 0) & (ct[inside] <= 3.0))
        gaps = np.diff(ct, axis=1)
        assert np.all(gaps[inside[:, 1:]] > 0)

    def test_infinite_dark_lifetime_freezes_dark_ion(self):
        ens = simulate(500, 5.0, IonState.DARK, P_FROZEN_DARK, seed=1)
        assert np.all(ens.change_counts_at() == 0)

    def test_infinite_dark_lifetime_bright_ion_decays_once(self):
        ens = simulate(2000, 200.0, IonState.BRIGHT, P_FROZEN_DARK, seed=2)
        changes = ens.change_counts_at()
        assert set(changes.tolist()) <= {0, 1}
        assert 1 in changes

    def test_first_dwell_is_exponential(self):
        """KS test of the first dwell against Exp(tau_B) truncated at t_b."""
        cfg = SimConfig(n_trials=100_000, t_b=3.0, seed=42, params=P)
        ens = simulate_ensemble(cfg, IonState.BRIGHT)
        first = ens.change_times[:, 0]
        first = first[~np.isnan(first)]
        norm = 1.0 - np.exp(-3.0 / P.tau_B)

        def truncated_cdf(t):
            return np.where(t >= 3.0, 1.0, (1.0 - np.exp(-t / P.tau_B)) / norm)

        res = stats.kstest(first, truncated_cdf)
        assert res.pvalue > 1e-3

    def test_second_dwell_is_exponential_with_other_lifetime(self):
        """The sampler alternates lifetimes: bright, then dark.  A 500 ms
        window truncates the second dwell with probability ~1e-4; change
        times do not depend on t_s, so coarse sub-bins keep the counts
        small."""
        coarse = RateParams(P.R_B, P.R_D, P.tau_B, P.tau_D, t_s=5.0)
        ct = simulate(20_000, 500.0, IonState.BRIGHT, coarse, seed=3).change_times
        gaps = (ct[:, 1] - ct[:, 0])[~np.isnan(ct[:, 1])]
        assert gaps.size > 19_000
        res = stats.kstest(gaps, "expon", args=(0, P.tau_D))
        assert res.pvalue > 1e-3


def dwell_one(initial, change_times, t_b=0.3, t_s=0.1):
    """Bright dwell of a single trial through the (N, J) batch form."""
    ct = np.array([change_times], dtype=float).reshape(1, -1)
    return bright_dwell_per_bin(np.array([int(initial)]), ct, t_b, t_s)[0]


def dense_dwell(initial, change_times, t_b, t_s):
    """The bright dwell built with dense per-cell scatters: flip counts and
    time shifts bincounted into (N, M) arrays, the parity from a running sum.
    ``bright_dwell_per_bin`` must return these bits exactly."""
    ct = np.asarray(change_times, dtype=float)
    n = ct.shape[0]
    initial_arr = np.asarray(initial, dtype=np.int8)
    m = n_bins(t_b, t_s)
    edges = np.minimum(np.arange(m + 1) * t_s, t_b)
    rows, col = np.nonzero(ct < edges[-1])
    times = ct[rows, col]
    k = np.searchsorted(edges, times, side="right") - 1
    flips = np.bincount(rows * (m + 1) + k + 1, minlength=n * (m + 1)).reshape(n, m + 1)
    bright_at_start = (np.cumsum(flips[:, :m], axis=1) & 1) == initial_arr[:, None]
    into_bright = ((col + 1) & 1) == initial_arr[rows]
    shift = np.bincount(rows * m + k, np.where(into_bright, 1.0, -1.0) * (edges[k + 1] - times),
                        minlength=n * m).reshape(n, m)
    return np.diff(edges) * bright_at_start + shift


def edge_heavy_change_times(rng, n, t_b, t_s, per_row):
    """(n, J) rising change times, NaN padded, that land on bin edges, one
    ulp either side of them, and at random, with several in one bin."""
    m = n_bins(t_b, t_s)
    edges = np.arange(m + 1) * t_s
    pool = np.concatenate([edges[:-1], np.nextafter(edges[1:], 0), np.nextafter(edges[:-1], 1),
                           rng.uniform(0, t_b, 4 * m)])
    out = np.full((n, per_row), np.nan)
    for i in range(n):
        picked = np.unique(rng.choice(pool, rng.integers(0, per_row + 1)))
        out[i, :picked.size] = picked
    return out


class TestBrightDwell:
    def test_change_mid_bin(self):
        dwell = dwell_one(IonState.BRIGHT, [0.15])
        assert np.allclose(dwell, [0.1, 0.05, 0.0], atol=1e-15)

    def test_change_on_bin_boundary(self):
        dwell = dwell_one(IonState.DARK, [0.1])
        assert np.allclose(dwell, [0.0, 0.1, 0.1], atol=1e-15)
        dwell = dwell_one(IonState.BRIGHT, [0.1])
        assert np.allclose(dwell, [0.1, 0.0, 0.0], atol=1e-15)

    def test_no_changes(self):
        assert np.allclose(dwell_one(IonState.BRIGHT, []), 0.1)
        assert np.allclose(dwell_one(IonState.DARK, []), 0.0)

    def test_matches_interval_sweep_reference(self):
        cfg = SimConfig(n_trials=300, t_b=2.0, seed=11, params=P)
        initial = (np.arange(300) % 2).astype(np.int8)
        ens = simulate_ensemble(cfg, initial, context=(9,))
        fast = bright_dwell_per_bin(initial, ens.change_times, 2.0, 0.1)
        assert ens.change_times.shape[1] >= 2
        for i, (state, ct) in enumerate(rows(ens)):
            assert np.allclose(fast[i], python_dwell(state, ct, 2.0, 0.1), atol=1e-12)

    def test_ragged_rows_with_nan_padding(self):
        ct = np.array([[0.15, np.nan], [0.05, 0.25]])
        dwell = bright_dwell_per_bin(np.array([0, 1]), ct, 0.3, 0.1)
        assert np.allclose(dwell[0], [0.1, 0.05, 0.0], atol=1e-15)
        assert np.allclose(dwell[1], [0.05, 0.1, 0.05], atol=1e-15)

    @pytest.mark.parametrize("t_b, t_s", [(0.1, 0.1), (0.3, 0.1), (3.0, 0.1), (30.0, 0.1),
                                          (0.1, 1 / 30), (1.0, 1 / 30), (2.9, 0.1 + 1e-12)])
    def test_bits_equal_dense_scatter_on_edge_heavy_rows(self, t_b, t_s):
        rng = np.random.default_rng(14)
        ct = edge_heavy_change_times(rng, 400, t_b, t_s, per_row=9)
        initial = rng.integers(0, 2, 400).astype(np.int8)
        assert np.isnan(ct).all(axis=1).any()   # rows with no change
        got = bright_dwell_per_bin(initial, ct, t_b, t_s)
        assert got.tobytes() == dense_dwell(initial, ct, t_b, t_s).tobytes()

    @pytest.mark.parametrize("params, t_b", [
        (P, 30.0), (P, 3.0), (P, 0.1),
        (RateParams(P.R_B, P.R_D, P.tau_B, P.tau_D, 1 / 30), 1 / 30),
        (RateParams(P.R_B, P.R_D, 0.05, 0.07, 0.1), 3.0),     # several changes per bin
    ])
    def test_bits_equal_dense_scatter_on_simulated_chunks(self, params, t_b):
        cfg = SimConfig(n_trials=CHUNK, t_b=t_b, seed=5, params=params)
        initial = (np.arange(CHUNK) % 3 == 0).astype(np.int8)
        ens = simulate_ensemble(cfg, initial, context=(9,))
        got = bright_dwell_per_bin(initial, ens.change_times, t_b, params.t_s)
        want = dense_dwell(initial, ens.change_times, t_b, params.t_s)
        assert got.tobytes() == want.tobytes()

    def test_bits_equal_dense_scatter_without_changes(self):
        for ct in (np.empty((5, 0)), np.full((5, 3), np.nan)):
            got = bright_dwell_per_bin(np.array([0, 1, 0, 1, 1]), ct, 0.3, 0.1)
            assert got.tobytes() == dense_dwell(np.array([0, 1, 0, 1, 1]), ct, 0.3, 0.1).tobytes()

    def test_total_dwell_sums_to_bright_time(self):
        ens = simulate(100, 3.0, IonState.BRIGHT, seed=12)
        dwell = bright_dwell_per_bin(ens.initial, ens.change_times, 3.0, 0.1)
        for i, (_, ct) in enumerate(rows(ens)):
            segs = np.diff(np.concatenate([[0.0], ct, [3.0]]))
            assert np.isclose(dwell[i].sum(), segs[::2].sum(), atol=1e-12)


class TestSampleCounts:
    def test_count_length_and_dtype(self):
        counts = simulate(20, 3.0, IonState.BRIGHT, seed=5).counts
        assert counts.shape == (20, 30)
        assert counts.dtype.kind == "i"

    def test_dark_ion_sees_background_only(self):
        ens = simulate(2000, 5.0, IonState.DARK, P_FROZEN_DARK, seed=6)
        assert np.all(ens.change_counts_at() == 0)
        counts = ens.counts
        mean = counts.mean()
        se = counts.std() / np.sqrt(counts.size)
        assert abs(mean - P.dark_mean) < 5 * se


@pytest.fixture(scope="module")
def bright():
    cfg = SimConfig(n_trials=100_000, t_b=3.0, seed=101, params=P)
    return simulate_ensemble(cfg, IonState.BRIGHT)


@pytest.fixture(scope="module")
def dark():
    cfg = SimConfig(n_trials=100_000, t_b=3.0, seed=101, params=P)
    return simulate_ensemble(cfg, IonState.DARK)


class TestEnsembleStatistics:
    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0, 3.0])
    def test_occupancy_matches_relaxation_law_bright(self, bright, t):
        states = bright.states_at(t)
        frac = np.mean(states == int(IonState.BRIGHT))
        expect = occupancy_bright(IonState.BRIGHT, t, P)
        se = np.sqrt(expect * (1 - expect) / len(bright))
        assert abs(frac - expect) < 5 * se

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0, 3.0])
    def test_occupancy_matches_relaxation_law_dark(self, dark, t):
        states = dark.states_at(t)
        frac = np.mean(states == int(IonState.BRIGHT))
        expect = occupancy_bright(IonState.DARK, t, P)
        se = np.sqrt(expect * (1 - expect) / len(dark))
        assert abs(frac - expect) < 5 * se

    @pytest.mark.parametrize("k", [0, 4, 14, 29])
    def test_mean_count_per_bin_matches_closed_form(self, bright, k):
        """Mean counts integrate the occupancy law over the sub-bin."""
        t0 = k * P.t_s
        b = P.tau_B / (P.tau_B + P.tau_D)
        a = P.tau_D / (P.tau_B + P.tau_D)
        tau = P.tau_B * P.tau_D / (P.tau_B + P.tau_D)
        integral = b * P.t_s + a * tau * np.exp(-t0 / tau) * (1 - np.exp(-P.t_s / tau))
        expect = P.R_D * P.t_s + P.R_B * integral
        col = bright.counts[:, k]
        se = col.std() / np.sqrt(len(bright))
        assert abs(col.mean() - expect) < 5 * se

    def test_counts_given_no_changes_are_plain_poisson(self, bright):
        no_change = bright.change_counts_at() == 0
        sub = bright.counts[no_change]
        mean = sub.mean()
        se = sub.std() / np.sqrt(sub.size)
        assert abs(mean - P.bright_mean) < 5 * se

    def test_change_count_distribution_head(self, bright):
        """P(no change in t_b) is the bright survival probability."""
        p0 = np.mean(bright.change_counts_at() == 0)
        expect = np.exp(-3.0 / P.tau_B)
        se = np.sqrt(expect * (1 - expect) / len(bright))
        assert abs(p0 - expect) < 5 * se


class TestReproducibility:
    def test_same_seed_same_ensemble(self):
        cfg = SimConfig(n_trials=5000, t_b=1.0, seed=77, params=P)
        a = simulate_ensemble(cfg, IonState.BRIGHT)
        b = simulate_ensemble(cfg, IonState.BRIGHT)
        assert np.array_equal(a.counts, b.counts)
        assert np.array_equal(a.change_times, b.change_times, equal_nan=True)

    def test_trials_are_pure_functions_of_index(self):
        """Growing n_trials must not disturb earlier trials."""
        big = simulate_ensemble(
            SimConfig(n_trials=2 * CHUNK + 100, t_b=1.0, seed=77, params=P),
            IonState.BRIGHT)
        small = simulate_ensemble(
            SimConfig(n_trials=CHUNK + 3, t_b=1.0, seed=77, params=P),
            IonState.BRIGHT)
        assert np.array_equal(big.counts[:CHUNK + 3], small.counts)

    def test_thread_count_does_not_change_results(self):
        cfg = SimConfig(n_trials=3 * CHUNK, t_b=1.0, seed=78, params=P)
        serial = simulate_ensemble(cfg, IonState.BRIGHT)
        threaded = simulate_ensemble(cfg, IonState.BRIGHT, threads=4)
        assert np.array_equal(serial.counts, threaded.counts)
        assert np.array_equal(serial.change_times, threaded.change_times,
                              equal_nan=True)

    @pytest.mark.parametrize("threads", [0, -4])
    def test_threads_below_one_rejected(self, threads):
        cfg = SimConfig(n_trials=3 * CHUNK, t_b=0.5, seed=1, params=P)
        running = threading.active_count()
        with pytest.raises(ValueError, match="threads must be >= 1"):
            simulate_ensemble(cfg, IonState.BRIGHT, threads=threads)
        with pytest.raises(ValueError, match="threads must be >= 1"):
            simulate_ensemble(cfg, np.zeros(3 * CHUNK, np.int8), threads=threads)
        assert threading.active_count() == running

    def test_chunks_fill_shared_array_under_thread_switching(self):
        # Chunks fill disjoint slots of one list of count blocks; with more
        # workers than cores and a tiny switch interval, a lost or
        # misplaced block would show as a difference from the serial run.
        cfg = SimConfig(n_trials=8 * CHUNK - 5, t_b=0.5, seed=80, params=P)
        states = (np.arange(cfg.n_trials) % 2).astype(np.int8)
        serial = (simulate_ensemble(cfg, IonState.DARK).counts,
                  simulate_ensemble(cfg, states, context=(9,)).counts)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = (simulate_ensemble(cfg, IonState.DARK, threads=6).counts,
                        simulate_ensemble(cfg, states, threads=6, context=(9,)).counts)
        finally:
            sys.setswitchinterval(interval)
        assert all(np.array_equal(a, b) for a, b in zip(serial, threaded, strict=True))

    def test_initial_states_use_distinct_streams(self):
        cfg = SimConfig(n_trials=1000, t_b=1.0, seed=79, params=P)
        bright = simulate_ensemble(cfg, IonState.BRIGHT)
        dark = simulate_ensemble(cfg, IonState.DARK)
        assert not np.array_equal(bright.counts, dark.counts)

    def test_context_namespaces_streams(self):
        cfg = SimConfig(n_trials=1000, t_b=1.0, seed=79, params=P)
        a = simulate_ensemble(cfg, IonState.BRIGHT)
        b = simulate_ensemble(cfg, IonState.BRIGHT, context=(1,))
        assert not np.array_equal(a.counts, b.counts)

    def test_frozen_regression_values(self):
        """Pin the byte-level reproducibility contract across versions."""
        cfg = SimConfig(n_trials=8, t_b=1.0, seed=20260817, params=P)
        ens = simulate_ensemble(cfg, IonState.BRIGHT)
        assert ens.counts[0].tolist() == [2, 5, 0, 3, 2, 2, 4, 2, 3, 0]
        assert ens.counts[5].tolist() == [3, 4, 2, 1, 0, 4, 0, 1, 3, 3]
        dark = simulate_ensemble(cfg, IonState.DARK)
        assert dark.counts[0].tolist() == [0, 0, 0, 1, 0, 0, 0, 0, 0, 0]

    def test_deterministic_uniforms_prefix_invariance(self):
        u1 = _deterministic_uniforms(123, (1,), CHUNK + 500)
        u2 = _deterministic_uniforms(123, (1,), CHUNK + 100)
        assert np.array_equal(u1[:CHUNK + 100], u2)
        u3 = _deterministic_uniforms(123, (2,), CHUNK + 100)
        assert not np.array_equal(u2, u3)


def _counts_digest(counts):
    return hashlib.sha256(np.ascontiguousarray(counts, dtype="<i8").tobytes()).hexdigest()


# sha256 of the (n_trials, 10) counts at t_b = 1 ms: initially bright,
# initially dark, and per-trial initial states (every third trial dark).
ENSEMBLE_DIGESTS = {
    (3, 1): (
        "5902f59a975c3bf4ede260c597830ddae6bfe5b304143c8c6fb6893c7b2705f3",
        "c5f06e1759ecede2e2003c14b5059a553cef38c521d38242dcc22d6c372256fa",
        "0fc21ebfc52b06dfb3ac3ecf73ed5c4d5822134d2630574995e026343ad6e36a"),
    (3, CHUNK - 1): (
        "403ce7d21e61bee2d4cd6d9c0d89282e138e954c4dc052c6b55a79eaa43006d0",
        "22042f3f9868f6c8730e310d2d12fa0ac861f1b948fabf8e9f0e5932350fdd8f",
        "28bbd5b88e6f8900b79002c1242688d0e3e381213dbb5845f4141a5099179879"),
    (3, CHUNK + 1): (
        "40ea2f01eb6c8c8ebac238b3bf7213ab3aec2cc86507d2c0873571f16ccac789",
        "2e7105595c43248af20cacdad4b042b5b0604c93ae3fb5ac714360c5c26397f2",
        "a1a17e4c6b1772fcdd020aa816a1e51c3b04ab7d0c2aa12886b4154c2d882cb8"),
    (2024, 1): (
        "8d02a82457853c7a84e7bcb3ff150f477f993d0337269ce3c3eef70db984e7c6",
        "5b6fb58e61fa475939767d68a446f97f1bff02c0e5935a3ea8bb51e6515783d8",
        "e80219e36a8fffc6e078714aaf467cc0f3398db5166bbdac004cf14aab9810ed"),
    (2024, CHUNK - 1): (
        "0a1aabc8b398248c3e9abdcadfff7c5d082f988992668b49db3b7565b62dcc2f",
        "5f5a773521d89ca067badaffdb8b71b46cca2a36e6d7fc6fc582a2ef36bd5dba",
        "4ac4898fb54d3721586839810c448448be7c6cfdae673c41072b667a9209b60c"),
    (2024, CHUNK + 1): (
        "2baa6c66b37a7acfd89980deb16635c7926e910a03b9cd3d727501cddaf8052c",
        "e6ba6c0f113bd37fa7af9f651d27be722a979428eaf1b7074413357f080002c5",
        "a631d3d8d21c7b9c3e5b6e1f39d2c31281ac735227d62fcfbeafee868c1e5ad0"),
}


# sha256 of both 300-bin ensembles (t_b = 30 ms) of a 600-trial config at
# seed 14: initially bright, initially dark.
LONG_WINDOW_DIGESTS = (
    "0a8d2f7782cd6954dafbb78646bdfaea9949a2f66834de8c010262f8a731854d",
    "02e148ab50dba6f2c4934d6d4ef03c8bdb23099da61c428777972c5ffd71b2e3")


class TestEnsembleDigests:
    """Freeze whole ensembles at chunk-straddling sizes, so any change to
    the simulation's random layout fails here first."""

    @pytest.mark.parametrize("seed, n", sorted(ENSEMBLE_DIGESTS))
    def test_frozen_digests(self, seed, n):
        cfg = SimConfig(n_trials=n, t_b=1.0, seed=seed, params=P)
        states = (np.arange(n) % 3 == 0).astype(np.int8)
        got = (_counts_digest(simulate_ensemble(cfg, IonState.BRIGHT).counts),
               _counts_digest(simulate_ensemble(cfg, IonState.DARK).counts),
               _counts_digest(simulate_ensemble(cfg, states, context=(9,)).counts))
        assert got == ENSEMBLE_DIGESTS[seed, n]

    def test_frozen_long_window_digests(self):
        cfg = SimConfig(n_trials=600, t_b=30.0, seed=14, params=P)
        got = tuple(_counts_digest(simulate_ensemble(cfg, s).counts) for s in IonState)
        assert got == LONG_WINDOW_DIGESTS


class TestCountWidth:
    """Counts come at the narrowest signed integer width that holds their
    largest value, chosen by the kept counts alone."""

    #: A bright mean of 86 counts per sub-bin: at seed 5 the chunk maxima
    #: are 123, 131 and 129, and row CHUNK + 112 holds the first count above 127.
    HOT = RateParams(R_B=860.0, R_D=0.3, tau_B=4.9, tau_D=56.0, t_s=0.1)
    #: Every count above 127: 200 counts per sub-bin while bright.
    HOTTER = RateParams(R_B=2000.0, R_D=0.3, tau_B=4.9, tau_D=56.0, t_s=0.1)
    #: The "<i8" digests of HOTTER's 50-trial, 1 ms ensembles at seed 11
    #: (initially bright, initially dark), frozen from int64 counts.
    HOTTER_DIGESTS = (
        "5845c92a6c41cbfd2ba718bdcc4b7d0bccab9e02d0d1b61f9c907dfe0a18da57",
        "42a977a96cf62c9b98d7ec6146d3fccec89f4b155262c2914446ec2315e6d981")

    @pytest.mark.parametrize("params", [P, RateParams(tau_B=4.9, tau_D=56.0, R_B=16.0,
                                                      R_D=0.3, t_s=0.1 / 3.0)],
                             ids=["default", "pulse_pair"])
    def test_paper_rates_give_one_byte_counts(self, params):
        cfg = SimConfig(n_trials=CHUNK + 7, t_b=30 * params.t_s, seed=3, params=params)
        for state in IonState:
            counts = simulate_ensemble(cfg, state).counts
            assert counts.dtype == np.int8
            assert counts.nbytes == cfg.n_trials * cfg.n_bins

    def test_counts_above_127_widen_without_changing_values(self):
        cfg = SimConfig(n_trials=50, t_b=1.0, seed=11, params=self.HOTTER)
        ensembles = [simulate_ensemble(cfg, state).counts for state in IonState]
        assert [c.dtype for c in ensembles] == [np.int16, np.int16]
        assert tuple(map(_counts_digest, ensembles)) == self.HOTTER_DIGESTS

    def test_widest_kept_chunk_sets_the_width(self):
        def counts(n, threads=1):
            cfg = SimConfig(n_trials=n, t_b=0.5, seed=5, params=self.HOT)
            return simulate_ensemble(cfg, IonState.BRIGHT, threads=threads).counts

        # Chunk 1 draws its 131 in row 112 either way; kept only in the longer run.
        short, longer = counts(CHUNK + 100), counts(CHUNK + 100 + CHUNK // 2)
        assert (short.dtype, longer.dtype) == (np.int8, np.int16)
        assert np.array_equal(longer[:CHUNK + 100], short)
        for n in (CHUNK + 100, 3 * CHUNK):
            serial, threaded = counts(n), counts(n, threads=2)
            assert serial.dtype == threaded.dtype == narrowest_dtype(serial)
            assert np.array_equal(serial, threaded)

    def test_csv_reader_narrows_like_the_simulator(self, tmp_path):
        cfg = SimConfig(n_trials=50, t_b=1.0, seed=11, params=self.HOTTER)
        for params in (P, self.HOTTER):
            ens = simulate_ensemble(replace(cfg, params=params), IonState.DARK)
            write_ensemble_csv(tmp_path / "counts.csv", [ens])
            counts = read_counts_csv(tmp_path / "counts.csv")[2]
            assert counts.dtype == ens.counts.dtype == narrowest_dtype(counts)
            assert np.array_equal(counts, ens.counts)


def whole_chunk_counts(config, initial, context=()):
    """The counts drawn the way chunks drew them before row blocks: Poisson
    means for the full CHUNK width, padding rows included, in one draw per
    chunk; the reference for the block-wise simulator."""
    states = np.asarray(initial, np.int8)
    fill = int(states) if states.ndim == 0 else 0
    if states.ndim == 0:
        context = (*context, fill)
    states = np.broadcast_to(states, config.n_trials)
    counts = []
    for ci, start in enumerate(range(0, config.n_trials, CHUNK)):
        take = min(CHUNK, config.n_trials - start)
        init = np.full(CHUNK, fill, np.int8)
        init[:take] = states[start:start + take]
        rng = trajectory._chunk_rng(config.seed, trajectory._STREAM_CHANGES, context, ci)
        times = trajectory._sample_changes_chunk(init, config.t_b, config.params, rng)
        means = (bright_dwell_per_bin(init, times, config.t_b, config.t_s) * config.params.R_B
                 + config.params.R_D * config.t_s)
        rng = trajectory._chunk_rng(config.seed, trajectory._STREAM_COUNTS, context, ci)
        counts.append(rng.poisson(means)[:take])
    return np.concatenate(counts)


class TestCountBlocks:
    """A chunk draws its counts for kept rows only, row-major in blocks of
    at most BLOCK_CELLS cells, and gets the bits of one whole-chunk draw."""

    MIXED = (np.arange(CHUNK + 100) % 3 == 0).astype(np.int8)

    @pytest.mark.parametrize("t_b, n, initial", [
        (30.0, CHUNK + 100, IonState.BRIGHT),
        (30.0, CHUNK + 100, IonState.DARK),
        (30.0, CHUNK + 100, MIXED),
        (300.0, 300, MIXED[:300]),
    ], ids=["300_bins_bright", "300_bins_dark", "300_bins_per_trial", "3000_bins_per_trial"])
    def test_blocks_give_the_whole_chunk_draw(self, t_b, n, initial, monkeypatch):
        cfg = SimConfig(n_trials=n, t_b=t_b, seed=21, params=P)
        want = whole_chunk_counts(cfg, initial)
        for block_cells in (trajectory.BLOCK_CELLS, 1000):
            monkeypatch.setattr(trajectory, "BLOCK_CELLS", block_cells)
            for threads in (1, 2):
                got = simulate_ensemble(cfg, initial, threads=threads).counts
                assert got.dtype == narrowest_dtype(want)
                assert np.array_equal(got, want)

    def test_a_late_block_widens_the_chunk(self, monkeypatch):
        # At seed 1 the only count above 127 is in row 983, in the last of
        # three 436-row blocks; the blocks before it are int8.
        cfg = SimConfig(n_trials=1000, t_b=30.0, seed=1, params=TestCountWidth.HOT)
        want = whole_chunk_counts(cfg, IonState.BRIGHT)
        step = trajectory.BLOCK_CELLS // cfg.n_bins
        assert np.argwhere(want > 127)[:, 0].tolist() == [983] and 983 >= 2 * step
        for block_cells in (trajectory.BLOCK_CELLS, 1000):
            monkeypatch.setattr(trajectory, "BLOCK_CELLS", block_cells)
            got = simulate_ensemble(cfg, IonState.BRIGHT).counts
            assert got.dtype == np.int16
            assert np.array_equal(got, want)

    def test_simulation_memory_is_bounded_by_a_block(self):
        # 1,000 trials x 3,000 bins keep 3 MB of int8 counts; one whole-chunk
        # draw of the same window held 192 MB of float64 means and int64 counts.
        cfg = SimConfig(n_trials=1000, t_b=300.0, seed=2, params=P)
        tracemalloc.start()
        try:
            ens = simulate_ensemble(cfg, IonState.BRIGHT)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ens.counts.shape == (1000, 3000)
        assert peak < 16 * 2**20

    def test_csv_reader_narrows_block_by_block(self, tmp_path):
        # The only count above 127 is in the last row, in the reader's third block.
        counts = np.random.default_rng(4).poisson(2.0, (2 * CHUNK + 10, 5))
        counts[-1, 3] = 200
        ens = Ensemble(IonState.BRIGHT, counts, None, 0.5, 0.1)
        write_ensemble_csv(tmp_path / "counts.csv", [ens])
        got = read_counts_csv(tmp_path / "counts.csv")[2]
        want = reference_read_counts_csv(tmp_path / "counts.csv")[2]
        assert got.dtype == np.int16
        assert np.array_equal(got, want) and np.array_equal(got, counts)


class TestMixedInitialStates:
    def test_per_trial_initial_respected(self):
        cfg = SimConfig(n_trials=20_000, t_b=0.5, seed=55, params=P)
        init = (np.arange(20_000) % 2).astype(np.int8)
        ens = simulate_ensemble(cfg, init, context=(9,))
        assert np.array_equal(ens.initial, init)
        bright_rows = ens.counts[init == 0]
        dark_rows = ens.counts[init == 1]
        assert bright_rows[:, 0].mean() > 1.0
        assert dark_rows[:, 0].mean() < 0.2

    def test_initial_states_are_the_ensembles_own(self):
        cfg = SimConfig(n_trials=4, t_b=0.5, seed=55, params=P)
        states = np.zeros(4, dtype=np.int8)
        ens = simulate_ensemble(cfg, states, context=(9,))
        finals = ens.final_states()
        states[:] = 1
        assert np.array_equal(ens.final_states(), finals)
        assert ens.initial.tolist() == [0] * 4
        with pytest.raises(ValueError, match="read-only"):
            ens.initial[0] = 1

    def test_shape_validation(self):
        cfg = SimConfig(n_trials=10, t_b=0.5, seed=55, params=P)
        with pytest.raises(ValueError):
            simulate_ensemble(cfg, np.zeros(5, dtype=np.int8))

    @pytest.mark.parametrize("initial", [[0, 1, -1, 0], [0, 1, 0.5, 0], [0, 1, 2, 3],
                                         [0, 1, 256, 0]])
    def test_states_other_than_0_and_1_rejected_before_a_draw(self, initial, monkeypatch):
        # Checked on the raw values: an int8 cast would keep -1, truncate
        # 0.5 and wrap 256 to 0.
        def no_draw(*args):
            raise AssertionError("drew random numbers for an invalid ensemble")

        monkeypatch.setattr(trajectory, "_chunk_rng", no_draw)
        cfg = SimConfig(n_trials=4, t_b=0.5, seed=55, params=P)
        with pytest.raises(ValueError, match=r"^initial states must be 0 \(bright\) or "
                                             r"1 \(dark\), got (-1|0\.5|2|256)$"):
            simulate_ensemble(cfg, np.array(initial))

    @pytest.mark.parametrize("initial", [np.array([0, 7]), np.array([1.0, 0.5]), -1, 2])
    def test_ensemble_rejects_states_other_than_0_and_1(self, initial):
        with pytest.raises(ValueError, match="^initial states must be 0"):
            Ensemble(initial, np.zeros((2, 5), dtype=int), None, 0.5, 0.1)
        Ensemble(np.array([1.0, 0.0]), np.zeros((2, 5), dtype=int), None, 0.5, 0.1)

    def test_ensemble_rejects_params_of_another_sub_bin(self):
        # Counts drawn at t_s = 0.1 ms and scored with a t_s = 0.2 ms model
        # once gave a general-method error of 4.71 % instead of 1.70 %
        # (2 x 20,000 trials, t_b = 3 ms, seed 1), without a word.
        counts = np.zeros((2, 5), dtype=int)
        with pytest.raises(ValueError, match=r"^params\.t_s=0\.2 differs from the "
                                             r"ensemble's t_s=0\.1$"):
            Ensemble(IonState.BRIGHT, counts, None, 0.5, 0.1, params=replace(P, t_s=0.2))
        assert Ensemble(IonState.BRIGHT, counts, None, 0.5, 0.1, params=P).params is P


class TestEnsembleStates:
    def test_state_at(self):
        ens = Ensemble(np.array([0, 1], dtype=np.int8), np.zeros((2, 10), int),
                       np.array([[0.25, 0.6], [0.4, np.nan]]), 1.0, 0.1)
        assert ens.states_at(0.1).tolist() == [0, 1]
        assert ens.states_at(0.25).tolist() == [1, 1]
        assert ens.states_at(0.5).tolist() == [1, 0]
        assert ens.final_states().tolist() == [0, 0]

    def test_plain_int_initial_state(self, tmp_path):
        cfg = SimConfig(n_trials=5, t_b=0.5, seed=9, params=P)
        ens = simulate_ensemble(cfg, 1)
        assert ens.initial.tolist() == [1] * 5
        assert np.array_equal(ens.counts, simulate_ensemble(cfg, IonState.DARK).counts)
        path = tmp_path / "counts.csv"
        write_ensemble_csv(path, [ens])
        _, initials, counts = read_counts_csv(path)
        assert initials.tolist() == [1] * 5
        assert np.array_equal(counts, ens.counts)


class TestCsvInterchange:
    def test_round_trip(self, tmp_path):
        cfg = SimConfig(n_trials=50, t_b=0.5, seed=9, params=P)
        bright = simulate_ensemble(cfg, IonState.BRIGHT)
        dark = simulate_ensemble(cfg, IonState.DARK)
        path = tmp_path / "counts.csv"
        write_ensemble_csv(path, [bright, dark], comments=["t_b_ms=0.5"])
        trials, initials, counts = read_counts_csv(path)
        assert counts.shape == (100, 5)
        assert np.array_equal(counts[:50], bright.counts)
        assert np.array_equal(counts[50:], dark.counts)
        assert np.array_equal(initials[:50], np.zeros(50, dtype=np.int8))
        assert np.array_equal(initials[50:], np.ones(50, dtype=np.int8))
        groups = [Ensemble(state, counts[initials == state], None, 0.5, 0.1) for state in IonState]
        assert all(np.array_equal(g.counts, e.counts) for g, e in zip(groups, (bright, dark)))

    def test_no_ensemble_or_mixed_bin_counts_refused_before_the_file_opens(self, tmp_path):
        # An empty list once raised IndexError from ensembles[0].
        short = simulate_ensemble(SimConfig(n_trials=5, t_b=0.5, seed=9, params=P), IonState.BRIGHT)
        long = simulate_ensemble(SimConfig(n_trials=5, t_b=1.0, seed=9, params=P), IonState.DARK)
        path = tmp_path / "counts.csv"
        for ensembles in ([], iter(()), [short, long]):
            with pytest.raises(ValueError, match="^a counts file holds one or more ensembles, "
                                                 "all of one bin count$"):
                write_ensemble_csv(path, ensembles)
            assert not path.exists()

    def test_change_time_sidecar(self, tmp_path):
        cfg = SimConfig(n_trials=20, t_b=3.0, seed=10, params=P)
        ens = simulate_ensemble(cfg, IonState.BRIGHT)
        path = tmp_path / "changes.csv"
        write_change_times_csv(path, [ens])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "trial,initial,change_times_ms"
        assert len(lines) == 21

    def test_bad_header_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("foo,bar,n_1\n0,B,1\n")
        with pytest.raises(DataFormatError) as err:
            read_counts_csv(path)
        assert err.value.line == 1

    def test_bad_count_column_order(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("trial,initial,n_2,n_1\n0,B,1,2\n")
        with pytest.raises(DataFormatError):
            read_counts_csv(path)

    def test_bad_state_label(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("trial,initial,n_1\n0,B,1\n1,Q,2\n")
        with pytest.raises(DataFormatError) as err:
            read_counts_csv(path)
        assert err.value.line == 3

    def test_negative_count(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("trial,initial,n_1\n0,B,-1\n")
        with pytest.raises(DataFormatError) as err:
            read_counts_csv(path)
        assert err.value.line == 2

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("trial,initial,n_1,n_2\n0,B,1\n")
        with pytest.raises(DataFormatError) as err:
            read_counts_csv(path)
        assert err.value.line == 2

    def test_empty_and_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataFormatError):
            read_counts_csv(path)
        path.write_text("trial,initial,n_1\n")
        with pytest.raises(DataFormatError):
            read_counts_csv(path)

    @pytest.mark.parametrize("text, trials, initials, counts", [
        pytest.param('"trial","initial","n_1","n_2"\n"0","B","3",4\n',
                     [0], [0], [[3, 4]], id="quoted_fields"),
        pytest.param("trial,initial,n_1\r\n0,B,1\r\n1,D,0\r\n",
                     [0, 1], [0, 1], [[1], [0]], id="crlf"),
        pytest.param("trial,initial,n_1\n\n0,B,1\n  \n\n1,D,0\n\n",
                     [0, 1], [0, 1], [[1], [0]], id="blank_lines"),
        pytest.param("trial,initial,n_1\n0,b,1\n1,d,0\n",
                     [0, 1], [0, 1], [[1], [0]], id="lowercase_labels"),
        pytest.param("trial,initial,n_1\n0,B,9223372036854775807\n",
                     [0], [0], [[2**63 - 1]], id="int64_max_count"),
        pytest.param("trial,initial,n_1\n-7,B,1\n", [-7], [0], [[1]],
                     id="negative_trial_id"),
        pytest.param("trial,initial,n_1\n0,B,1\n1,D,2", [0, 1], [0, 1], [[1], [2]],
                     id="no_final_newline"),
    ])
    def test_accepted_inputs(self, tmp_path, text, trials, initials, counts):
        path = tmp_path / "in.csv"
        path.write_bytes(text.encode())
        got = read_counts_csv(path)
        want = np.int64 if counts == [[2**63 - 1]] else np.int8
        assert [a.dtype for a in got] == [np.int64, np.int8, want]
        assert [a.tolist() for a in got] == [trials, initials, counts]

    @pytest.mark.parametrize("text, line", [
        pytest.param("trial,initial,n_1\n0,B,1\n# note\n1,Q,2\n", 4,
                     id="comment_between_rows"),
        pytest.param("trial,initial,n_1\n0,B,1\n\n1,D,1.5\n", 4,
                     id="fractional_count"),
    ])
    def test_error_line_numbers(self, tmp_path, text, line):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(DataFormatError) as err:
            read_counts_csv(path)
        assert err.value.line == line

    @pytest.mark.parametrize("row", [
        pytest.param("0,B,99999999999999999999999", id="count_over_int64"),
        pytest.param("99999999999999999999999,B,1", id="trial_over_int64"),
        pytest.param("0,B," + "1" * 200_000, id="field_over_csv_size_limit"),
    ])
    def test_oversized_value_rejected(self, tmp_path, row):
        path = tmp_path / "big.csv"
        path.write_text(f"trial,initial,n_1\n1,D,0\n{row}\n")
        with pytest.raises(DataFormatError) as err:
            read_counts_csv(path)
        assert err.value.line == 3

    @pytest.mark.parametrize("text, line, message", [
        pytest.param("trial,initial,n_1\n1,D,0\n0,B,+5\n", 3, "'+5'", id="plus_sign"),
        pytest.param("trial,initial,n_1\n1,D,0\n0,B,1_0\n", 3, "'1_0'", id="underscore"),
        pytest.param("trial,initial,n_1\n1,D,0\n0,B,\u0661\n", 3, "'\u0661'",
                     id="non_ascii_digit"),
        pytest.param("trial,initial,n_1\n1,D,0\n0,B, 5\n", 3, "' 5'", id="space_around_count"),
        pytest.param("trial,initial,n_1\n1,D,0\n0, B,5\n", 3, "' B'", id="space_around_label"),
        pytest.param('trial,initial,n_1\n1,D,0\n0,B,"5\n"\n', 3, "'\"5'",
                     id="quoted_field_spanning_lines"),
        pytest.param("trial,initial,n_1\r0,B,1\r", 1, "header", id="lone_cr_line_ends"),
        pytest.param("trial,initial,n_1\n1,D,0\n0,B,9223372036854775808\n", 3,
                     "out of int64 range", id="nineteen_digits_over_int64"),
    ])
    def test_rejected_inputs(self, tmp_path, text, line, message):
        path = tmp_path / "bad.csv"
        path.write_bytes(text.encode())
        with pytest.raises(DataFormatError, match=re.escape(message)) as err:
            read_counts_csv(path)
        assert err.value.line == line

    @pytest.mark.parametrize("seed, n_rows, n_counts", [
        (0, 1, 1), (1, 9, 40), (2, 200, 17),
        (3, CHUNK - 1, 3), (4, CHUNK, 1), (5, CHUNK + 1, 12),
    ])
    def test_matches_reference_reader(self, tmp_path, seed, n_rows, n_counts):
        path = tmp_path / "random.csv"
        path.write_bytes(random_counts_text(np.random.default_rng(seed), n_rows,
                                            n_counts).encode())
        got, want = read_counts_csv(path), reference_read_counts_csv(path)
        assert [a.dtype for a in got] == [np.int64, np.int8, narrowest_dtype(want[2])]
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("bad", ["x", "+", " ", "\u0661", '"', ",", "-"])
    def test_bad_byte_deep_in_file_names_its_line(self, tmp_path, bad):
        lines = ["# run 3", "trial,initial,n_1,n_2"]
        for i in range(2 * CHUNK + 50):
            if i % 1000 == 999:
                lines.append("# a comment, with commas, 1,2,3")
            if i % 777 == 5:
                lines.append("  ")
            if i == CHUNK + 1234:  # in the second block of rows
                target = len(lines)
            lines.append(f"{i},{'BD'[i % 2]},{i % 7},{i % 13}")
        lines[target] = lines[target][:2] + bad + lines[target][2:]  # inside the trial id
        path = tmp_path / "deep.csv"
        path.write_bytes("\r\n".join(lines).encode())
        with pytest.raises(DataFormatError) as err:
            read_counts_csv(path)
        assert err.value.line == target + 1

    def test_header_only_reports_line_after_header(self, tmp_path):
        path = tmp_path / "header_only.csv"
        path.write_text("# a\n# b\n# c\ntrial,initial,n_1\n")
        with pytest.raises(DataFormatError, match="no data rows") as err:
            read_counts_csv(path)
        assert err.value.line == 5

    def test_ingested_ensembles_refuse_truth_queries(self, tmp_path):
        ens = Ensemble(IonState.BRIGHT, np.zeros((4, 5), dtype=int), None, 0.5, 0.1)
        with pytest.raises(ValueError, match="ground-truth"):
            ens.final_states()
        with pytest.raises(ValueError, match="ground-truth"):
            ens.states_at(0.1)
