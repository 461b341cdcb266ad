"""Monte Carlo generation of ion readout trajectories.

A trajectory is one simulated ion: its initial state, the times at which it
flipped between bright and dark (alternating exponential dwells with means
tau_B and tau_D), and one Poisson photon count per sub-bin whose mean is the
background plus the bright rate weighted by the exact bright dwell time
inside that sub-bin.  Trajectories exist only as rows of an
:class:`Ensemble`: row i of its (N, M) counts and of its NaN-padded (N, J)
change times is trial i, and all of them are drawn at once, chunk by chunk.

Reproducibility contract: every trial's randomness is a pure function of
(seed, stream context, trial index).  Trials are processed in fixed-width
chunks; each chunk owns counter-based (Philox) streams, one for dwell times
and one for counts, and a chunk always draws full-width batches even when
partially used.  Ensembles are therefore bit-identical regardless of thread
count, chunk execution order, or total trial count.

CSV interchange: ensembles serialize to ``trial,initial,n_1,...,n_M`` rows
(initial is ``B`` or ``D``); the same schema is the ingestion format for
experimental data.  Change times can be written to a sidecar file for
debugging; they are never required to classify.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .photon_model import IonState, RateParams

#: Fixed chunk width of the vectorized simulation; part of the determinism
#: contract (changing it changes the random layout), so it is not tunable.
CHUNK = 4096

_STREAM_CHANGES = 1
_STREAM_COUNTS = 2
_STREAM_EXTRA = 3


class DataFormatError(ValueError):
    """Malformed ensemble/decision CSV. Carries the offending line number."""

    def __init__(self, path, line, message):
        super().__init__(f"{path}:{line}: {message}")
        self.path = str(path)
        self.line = line


def n_bins(t_b: float, t_s: float) -> int:
    """Number of whole sub-bins in a window; rejects non-integer ratios."""
    if not (0 < t_b < np.inf and 0 < t_s < np.inf):  # also False for NaN
        raise ValueError(f"t_b and t_s must be finite and > 0, got t_b={t_b}, t_s={t_s}")
    m = round(t_b / t_s)
    if m < 1 or abs(m * t_s - t_b) > 1e-6 * t_s:
        raise ValueError(f"t_b={t_b} is not an integer multiple of t_s={t_s}")
    return m


@dataclass(frozen=True)
class SimConfig:
    """Ensemble simulation settings; the sub-bin duration ``t_s`` is the
    one in ``params``."""

    n_trials: int
    t_b: float
    seed: int
    params: RateParams

    def __post_init__(self):
        if self.n_trials < 1:
            raise ValueError(f"n_trials must be >= 1, got {self.n_trials}")
        n_bins(self.t_b, self.t_s)
        if not isinstance(self.seed, (int, np.integer)):
            raise ValueError("seed must be an integer")

    @property
    def t_s(self) -> float:
        return self.params.t_s

    @property
    def n_bins(self) -> int:
        return n_bins(self.t_b, self.t_s)


def _chunk_rng(seed: int, stream: int, context: tuple, chunk_index: int) -> np.random.Generator:
    """Counter-based generator for one (stream, context, chunk) cell."""
    entropy = (int(seed) % 2**64, stream, *(int(c) for c in context), chunk_index)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def bright_dwell_per_bin(initial, change_times: np.ndarray, t_b: float,
                         t_s: float) -> np.ndarray:
    """Exact (N, M) bright dwell time inside each sub-bin.

    ``initial`` holds the N per-trial states and ``change_times`` is (N, J)
    with NaN padding ragged rows. A change exactly on a bin boundary flips
    the state for the later bin only.
    """
    ct = np.asarray(change_times, dtype=float)
    n = ct.shape[0]
    initial_arr = np.asarray(initial, dtype=np.int8)
    m = n_bins(t_b, t_s)
    edges = np.minimum(np.arange(m + 1) * t_s, t_b)
    # Each change in bin k (edges[k] <= c < edges[k+1]) flips the state from
    # bin k + 1 on and moves edges[k+1] - c of bin k to the new state.
    rows, col = np.nonzero(ct < edges[-1])    # False for NaN padding
    times = ct[rows, col]
    k = np.searchsorted(edges, times, side="right") - 1
    flips = np.bincount(rows * (m + 1) + k + 1, minlength=n * (m + 1)).reshape(n, m + 1)
    bright_at_start = (np.cumsum(flips[:, :m], axis=1) & 1) == initial_arr[:, None]
    into_bright = ((col + 1) & 1) == initial_arr[rows]
    shift = np.bincount(rows * m + k, np.where(into_bright, 1.0, -1.0) * (edges[k + 1] - times),
                        minlength=n * m).reshape(n, m)
    return np.diff(edges) * bright_at_start + shift


def _sample_changes_chunk(initial_arr: np.ndarray, t_b: float, params: RateParams,
                          rng: np.random.Generator) -> np.ndarray:
    """Vectorized dwell sampling for one chunk: NaN-padded (width, J) change
    times. Always draws full-width batches so a trial's values depend only on
    its slot, not on neighbours."""
    width = initial_arr.shape[0]
    taus = np.array([params.tau_B, params.tau_D])
    state = initial_arr.astype(np.int8)
    t = np.zeros(width)
    alive = np.ones(width, dtype=bool)
    columns = []
    while np.any(alive):
        t = t + rng.exponential(taus[state])
        alive &= t <= t_b
        columns.append(np.where(alive, t, np.nan))
        state = np.where(alive, 1 - state, state)
    return np.stack(columns, axis=1)


class Ensemble:
    """A simulated (or ingested) set of trajectories with shared (t_b, t_s).

    Stores counts as an (N, M) array and change times as an NaN-padded
    (N, J_max) array; trial i is row i of both.
    ``initial`` is a single IonState for ordinary ensembles or a per-trial
    int array for composed experiments (e.g. the second window of a pulse
    pair).  Ingested ensembles have no change times (``None``): ground-truth
    methods raise on them.
    """

    def __init__(self, initial, counts, change_times, t_b, t_s, params=None, seed=None):
        self.initial = initial
        self.counts = np.asarray(counts)
        self.change_times = change_times if change_times is None else np.asarray(change_times)
        self.t_b = float(t_b)
        self.t_s = float(t_s)
        self.params = params
        self.seed = seed
        if self.counts.ndim != 2 or self.counts.shape[1] != n_bins(t_b, t_s):
            raise ValueError("counts must be (n_trials, n_bins)")

    def __len__(self) -> int:
        return self.counts.shape[0]

    @property
    def n_bins(self) -> int:
        return self.counts.shape[1]

    def initial_array(self) -> np.ndarray:
        if isinstance(self.initial, IonState):
            return np.full(len(self), int(self.initial), dtype=np.int8)
        return np.asarray(self.initial, dtype=np.int8)

    def _require_truth(self):
        if self.change_times is None:
            raise ValueError("ensemble has no ground-truth change times")

    def change_counts_at(self, t: float | None = None) -> np.ndarray:
        """Number of state changes with change time <= t (default: all)."""
        self._require_truth()
        if t is None:
            t = self.t_b
        with np.errstate(invalid="ignore"):
            inside = self.change_times <= t  # NaN padding compares False
        return np.count_nonzero(inside, axis=1).astype(np.int32)

    def states_at(self, t: float) -> np.ndarray:
        """True hidden state (0/1) of each trial at time t."""
        return (self.initial_array() ^ (self.change_counts_at(t) & 1)).astype(np.int8)

    def final_states(self) -> np.ndarray:
        return self.states_at(self.t_b)


def _simulate_chunks(config: SimConfig, initial_arr_for, context: tuple,
                     threads: int = 1):
    """Simulate all chunks; returns (counts, change_times)."""
    n = config.n_trials
    n_chunks = (n + CHUNK - 1) // CHUNK
    results = [None] * n_chunks

    def run(ci: int):
        start = ci * CHUNK
        take = min(CHUNK, n - start)
        init_chunk = initial_arr_for(start, take)
        rng_changes = _chunk_rng(config.seed, _STREAM_CHANGES, context, ci)
        rng_counts = _chunk_rng(config.seed, _STREAM_COUNTS, context, ci)
        times = _sample_changes_chunk(init_chunk, config.t_b, config.params,
                                      rng_changes)
        dwell = bright_dwell_per_bin(init_chunk, times, config.t_b, config.t_s)
        lam = config.params.R_D * config.t_s + config.params.R_B * dwell
        cnt = rng_counts.poisson(lam)
        results[ci] = (cnt[:take], times[:take])

    if threads > 1 and n_chunks > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run, range(n_chunks)))
    else:
        for ci in range(n_chunks):
            run(ci)

    counts = np.concatenate([r[0] for r in results], axis=0)
    j_max = max(r[1].shape[1] for r in results)
    times = np.full((n, j_max), np.nan)
    for ci, r in enumerate(results):
        times[ci * CHUNK:ci * CHUNK + r[1].shape[0], :r[1].shape[1]] = r[1]
    return counts, times


def simulate_ensemble(config: SimConfig, initial: IonState, *,
                      threads: int = 1, context: tuple = ()) -> Ensemble:
    """Simulate ``config.n_trials`` independent trajectories.

    Bit-reproducible as a function of (config.seed, context, trial index);
    ``threads`` only parallelizes chunk processing and never changes results.
    ``context`` namespaces the random streams so that several ensembles of
    the same initial state (e.g. repeated experiments, or the two windows of
    a pulse pair) can be drawn independently from one seed.  ``initial``
    may also be given as the plain int 0 or 1.
    """
    initial = IonState(initial)
    full_context = (*context, int(initial))
    width_init = np.full(CHUNK, int(initial), dtype=np.int8)
    counts, times = _simulate_chunks(
        config, lambda start, take: width_init, full_context, threads
    )
    return Ensemble(initial, counts, times, config.t_b, config.t_s,
                    params=config.params, seed=config.seed)


def simulate_ensemble_from_states(config: SimConfig, initial_states: np.ndarray, *,
                                  threads: int = 1, context: tuple = (9,)) -> Ensemble:
    """Like :func:`simulate_ensemble` with a per-trial initial state vector
    (used for the second detection window after a pulse)."""
    initial_states = np.asarray(initial_states, dtype=np.int8)
    if initial_states.shape != (config.n_trials,):
        raise ValueError("initial_states must have shape (n_trials,)")

    def initial_for(start, take):
        chunk = np.zeros(CHUNK, dtype=np.int8)
        chunk[:take] = initial_states[start:start + take]
        return chunk

    counts, times = _simulate_chunks(config, initial_for, context, threads)
    return Ensemble(initial_states, counts, times, config.t_b, config.t_s,
                    params=config.params, seed=config.seed)


def deterministic_uniforms(seed: int, context: tuple, n: int) -> np.ndarray:
    """Chunk-deterministic uniform(0,1) draws keyed by (seed, context). Used
    for auxiliary per-trial coin flips (e.g. pulse errors) so that composed
    experiments stay reproducible under the same contract as ensembles."""
    out = np.empty(n)
    for ci in range((n + CHUNK - 1) // CHUNK):
        rng = _chunk_rng(seed, _STREAM_EXTRA, context, ci)
        block = rng.random(CHUNK)
        take = min(CHUNK, n - ci * CHUNK)
        out[ci * CHUNK:ci * CHUNK + take] = block[:take]
    return out


# ---------------------------------------------------------------------------
# CSV interchange


def write_ensemble_csv(path, ensembles, *, comments=()) -> None:
    """Write one or more ensembles (same bin count) to a counts CSV."""
    ensembles = list(ensembles)
    m = ensembles[0].n_bins
    if any(e.n_bins != m for e in ensembles):
        raise ValueError("all ensembles in one file must share the bin count")
    with open(path, "w", newline="") as fh:
        for comment in comments:
            fh.write(f"# {comment}\n")
        writer = csv.writer(fh)
        writer.writerow(["trial", "initial"] + [f"n_{k}" for k in range(1, m + 1)])
        for ens in ensembles:
            labels = [IonState(int(s)).label for s in ens.initial_array()]
            for i in range(len(ens)):
                writer.writerow([i, labels[i]] + list(map(int, ens.counts[i])))


def write_change_times_csv(path, ensembles) -> None:
    """Sidecar dump of ground-truth change times (ragged rows)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["trial", "initial", "change_times_ms"])
        for ens in ensembles:
            labels = [IonState(int(s)).label for s in ens.initial_array()]
            for i in range(len(ens)):
                row = ens.change_times[i]
                times = [f"{t:.9g}" for t in row[~np.isnan(row)]]
                writer.writerow([i, labels[i]] + times)


def read_counts_csv(path):
    """Read a counts CSV into (trial_ids, initial, counts).

    Accepts the schema written by :func:`write_ensemble_csv`; comment lines
    starting with ``#`` are skipped.  Raises :class:`DataFormatError` with a
    line number on malformed input.
    """
    trials, initials, rows = [], [], []
    with open(path, newline="") as fh:
        header = None
        header_line = width = None
        for line_no, line in enumerate(fh, start=1):
            if line.startswith("#") or not line.strip():
                continue
            cells = next(csv.reader([line]))
            if header is None:
                header, header_line = cells, line_no
                if header[:2] != ["trial", "initial"] or len(header) < 3:
                    raise DataFormatError(path, line_no,
                                          "header must be trial,initial,n_1,...")
                expected = [f"n_{k}" for k in range(1, len(header) - 1)]
                if header[2:] != expected:
                    raise DataFormatError(path, line_no,
                                          "count columns must be n_1..n_M in order")
                width = len(header)
                continue
            if len(cells) != width:
                raise DataFormatError(path, line_no,
                                      f"expected {width} fields, got {len(cells)}")
            try:
                trials.append(int(cells[0]))
                initials.append(int(IonState.from_label(cells[1])))
                counts = [int(c) for c in cells[2:]]
            except ValueError as exc:
                raise DataFormatError(path, line_no, str(exc)) from None
            if any(c < 0 for c in counts):
                raise DataFormatError(path, line_no, "negative photon count")
            rows.append(counts)
    if header is None:
        raise DataFormatError(path, 1, "empty file")
    if not rows:
        raise DataFormatError(path, header_line + 1, "no data rows")
    return (np.array(trials), np.array(initials, dtype=np.int8),
            np.array(rows, dtype=np.int64))


def ensembles_from_counts(initials: np.ndarray, counts: np.ndarray,
                          t_b: float, t_s: float):
    """Split ingested rows into per-initial-state ensembles (no ground truth).
    Returns a dict keyed by IonState with only the states present."""
    out = {}
    for state in (IonState.BRIGHT, IonState.DARK):
        mask = initials == int(state)
        if np.any(mask):
            out[state] = Ensemble(state, counts[mask], None, t_b, t_s)
    return out
