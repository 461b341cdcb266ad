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
and one for counts.  A chunk draws its change times at full width even when
partially used, and its counts row-major, for its kept rows only, a block
of at most BLOCK_CELLS cells at a time.  Ensembles are therefore
bit-identical regardless of thread count, chunk execution order, or total
trial count.  Counts are kept at the narrowest signed integer width that
holds the largest of them (int8 up to 127, then int16, int32, int64), a
function of the values alone.

CSV interchange: ensembles serialize to ``trial,initial,n_1,...,n_M`` rows
(initial is ``B`` or ``D``); the same schema is the ingestion format for
experimental data.  The reader takes ``\n`` or ``\r\n`` line ends (the
last may be missing), skips ``#`` lines and empty or whitespace-only lines,
and takes any field inside one pair of double quotes.  The label is ``B``,
``D``, ``b`` or ``d``; trial ids and counts are an optional ``-`` and ASCII
digits within int64, and a negative count is refused.  Anything else raises
:class:`DataFormatError` with the file and its physical line number, and
``ionread`` exits 3: among others a ``+`` sign, an ``_``, a non-ASCII digit,
a space around a field, a quoted field that runs over two lines, or lone
``\r`` line ends.  Change times can be written to a sidecar file for
debugging; they are never required to classify.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .photon_model import IonState, RateParams, _check_array, _check_number

#: Fixed chunk width of the vectorized simulation; part of the determinism
#: contract (changing it changes the random layout), so it is not tunable.
CHUNK = 4096

_STREAM_CHANGES = 1
_STREAM_COUNTS = 2
_STREAM_EXTRA = 3


#: Most cells in one block of a chunk's dwell and count scratch.  Counts are
#: drawn row-major, so the blocks of a chunk continue one stream and no
#: result depends on it.
BLOCK_CELLS = 2**17


def _row_blocks(n: int, rows: int = CHUNK):
    """Slices of at most ``rows`` consecutive rows covering ``range(n)``."""
    return (slice(start, min(start + rows, n)) for start in range(0, n, rows))


class DataFormatError(ValueError):
    """Malformed or unusable counts CSV: the file and line, None if the whole file."""

    def __init__(self, path, line, message):
        super().__init__(f"{path}:{'' if line is None else f'{line}:'} {message}")
        self.path = str(path)
        self.line = None if line is None else int(line)


def n_bins(t_b: float, t_s: float) -> int:
    """Number of whole sub-bins in a window; rejects non-integer ratios."""
    for value, name in ((t_b, "t_b"), (t_s, "t_s")):
        _check_number(value, name, lambda v: 0 < v < np.inf, "finite and > 0")
    m = round(t_b / t_s)
    if m < 1 or abs(m * t_s - t_b) > 1e-6 * t_s:
        raise ValueError(f"t_b={t_b} is not an integer multiple of t_s={t_s}")
    return m


def _narrowest(counts: np.ndarray) -> np.ndarray:
    """Non-negative counts at the narrowest signed integer width holding their largest."""
    return counts.astype(np.min_scalar_type(-1 - int(counts.max(initial=0))), copy=False)


def _check_seed(seed, error=ValueError) -> None:   # each seed in range keys streams of its own
    _check_number(seed, "seed", lambda v: 0 <= v < 2**64, "an integer in [0, 2**64)",
                  integer=True, error=error)


def _check_int(value, name: str, low: int, error=ValueError) -> None:   # range() takes no 2.5
    _check_number(value, name, lambda v: True, "an integer", integer=True, error=error)
    _check_number(value, name, lambda v: v >= low, f">= {low}", error=error)


@dataclass(frozen=True)
class SimConfig:
    """Ensemble simulation settings; the sub-bin duration ``t_s`` is the
    one in ``params``."""

    n_trials: int
    t_b: float
    seed: int
    params: RateParams

    def __post_init__(self):
        _check_int(self.n_trials, "n_trials", 1)
        n_bins(self.t_b, self.t_s)
        _check_seed(self.seed)

    @property
    def t_s(self) -> float:
        return self.params.t_s

    @property
    def n_bins(self) -> int:
        return n_bins(self.t_b, self.t_s)


def _initial_states(initial) -> np.ndarray:
    """``initial`` as int8 states, each checked before the cast to be 0 or 1, not a bool."""
    return _check_array(initial, "initial states", "0 (bright) or 1 (dark)", integer=True,
                        ok=lambda s: (s == 0) | (s == 1)).astype(np.int8)


def _chunk_rng(seed: int, stream: int, context: tuple, chunk_index: int) -> np.random.Generator:
    """Counter-based generator for one (stream, context, chunk) cell."""
    entropy = (int(seed), stream, *(int(c) for c in context), chunk_index)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def bright_dwell_per_bin(initial, change_times: np.ndarray, t_b: float,
                         t_s: float) -> np.ndarray:
    """Exact (N, M) bright dwell time inside each sub-bin.

    ``initial`` holds the N per-trial states and ``change_times`` is (N, J),
    rising along each row, with NaN padding ragged rows. A change exactly on
    a bin boundary flips the state for the later bin only. Built from runs
    of changes in one (row, bin) cell: a bin holds all or none of its width,
    by the flip parity at its start, plus the signed time its changes move,
    summed in change order, as a dense per-cell ``np.bincount`` would.
    """
    ct = np.asarray(change_times, dtype=float)
    n = ct.shape[0]
    initial_arr = np.asarray(initial, dtype=np.uint8)
    m = n_bins(t_b, t_s)
    edges = np.minimum(np.arange(m + 1) * t_s, t_b)
    # Each change in bin k (edges[k] <= c < edges[k+1]) flips the state from
    # bin k + 1 on and moves edges[k+1] - c of bin k to the new state.
    inside = ct < edges[-1]                   # False for NaN padding
    times = ct[inside]
    rows, col = np.nonzero(inside)
    k = np.minimum((times / t_s).astype(np.intp), m - 1)   # off by at most one
    k += (edges[k + 1] <= times).astype(np.intp) - (edges[k] > times)
    cell = rows * m + k                       # rises: a cell's changes form one run
    ends = np.ones(cell.size, dtype=bool)     # the last change of each run
    np.not_equal(cell[1:], cell[:-1], out=ends[:-1])
    last = np.flatnonzero(ends)
    # Each bin's parity of all changes before it; a row's own is relative to its first bin.
    seen = np.repeat(np.concatenate(([False], (last & 1) == 0)),
                     np.diff(np.concatenate(([0], cell[last] + 1, [n * m]))))
    bright = seen.reshape(n, m) == (seen[::m] ^ initial_arr)[:, None]
    sign = np.where((col & 1) != initial_arr[rows], 1.0, -1.0)   # +1 into bright
    shift = np.bincount(np.cumsum(ends) - ends, sign * (edges[k + 1] - times))
    dwell = np.where(bright, np.diff(edges), 0.0)
    dwell.ravel()[cell[last]] += shift
    return dwell


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

    Stores counts as an (N, M) array at the width the caller passes
    (simulated and read counts come at their narrowest) and change times as
    an NaN-padded (N, J_max) array; trial i is row i of both.  ``initial``
    is a read-only int8 copy of the initial states, one per trial, taken
    from one state or from a per-trial array (e.g. the second window of a
    pulse pair); a state other than 0 or 1 raises ValueError, as do
    ``params`` whose t_s is not the ensemble's.  Ingested ensembles have no
    ``params`` and no change times: ground-truth methods raise on them.
    """

    def __init__(self, initial, counts, change_times, t_b, t_s, params=None):
        self.counts = np.asarray(counts)
        self.change_times = change_times if change_times is None else np.asarray(change_times)
        self.t_b = float(t_b)
        self.t_s = float(t_s)
        self.params = params
        if params is not None and params.t_s != self.t_s:
            raise ValueError(f"params.t_s={params.t_s} differs from the ensemble's t_s={t_s}")
        if self.counts.ndim != 2 or self.counts.shape[1] != n_bins(t_b, t_s):
            raise ValueError("counts must be (n_trials, n_bins)")
        self.initial = np.broadcast_to(_initial_states(initial), len(self)).copy()
        self.initial.setflags(write=False)

    def __len__(self) -> int:
        return self.counts.shape[0]

    @property
    def n_bins(self) -> int:
        return self.counts.shape[1]

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
        return (self.initial ^ (self.change_counts_at(t) & 1)).astype(np.int8)

    def final_states(self) -> np.ndarray:
        return self.states_at(self.t_b)


def _simulate_chunks(config: SimConfig, states, fill: int, context: tuple, threads: int):
    """Simulate all chunks; returns (counts, change_times).  Each chunk pads its
    rows of ``states`` with ``fill`` to draw change times, then draws counts
    for its kept rows only, in blocks of at most BLOCK_CELLS cells, each at
    its :func:`_narrowest` width; the joined counts take the widest block's."""
    _check_int(threads, "threads", 1)
    blocks = list(_row_blocks(config.n_trials))
    chunk_counts, chunk_times = [None] * len(blocks), [None] * len(blocks)

    def run(ci: int):
        rows = blocks[ci]
        take = rows.stop - rows.start
        init_chunk = np.full(CHUNK, fill, dtype=np.int8)
        init_chunk[:take] = states[rows]
        rng_changes = _chunk_rng(config.seed, _STREAM_CHANGES, context, ci)
        rng_counts = _chunk_rng(config.seed, _STREAM_COUNTS, context, ci)
        times = _sample_changes_chunk(init_chunk, config.t_b, config.params,
                                      rng_changes)[:take]
        parts = []
        for part in _row_blocks(take, max(1, BLOCK_CELLS // config.n_bins)):
            dwell = bright_dwell_per_bin(init_chunk[part], times[part], config.t_b, config.t_s)
            dwell *= config.params.R_B            # the Poisson means, in place
            dwell += config.params.R_D * config.t_s
            parts.append(_narrowest(rng_counts.poisson(dwell)))
        chunk_counts[ci], chunk_times[ci] = parts, times

    if threads > 1 and len(blocks) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run, range(len(blocks))))
    else:
        for ci in range(len(blocks)):
            run(ci)

    times = np.full((config.n_trials, max(t.shape[1] for t in chunk_times)), np.nan)
    for rows, t in zip(blocks, chunk_times):
        times[rows, :t.shape[1]] = t
    return np.concatenate([part for parts in chunk_counts for part in parts]), times


def simulate_ensemble(config: SimConfig, initial, *,
                      threads: int = 1, context: tuple = ()) -> Ensemble:
    """Simulate ``config.n_trials`` independent trajectories.

    Bit-reproducible as a function of (config.seed, context, trial index);
    ``threads`` only parallelizes chunk processing and never changes results.
    ``context`` namespaces the random streams so that several ensembles of
    the same initial state (e.g. repeated experiments, or the two windows of
    a pulse pair) can be drawn independently from one seed.  ``initial`` is
    one state (an IonState or the int 0 or 1), which also keys the streams,
    or a per-trial array of 0s and 1s of shape (n_trials,), keyed by
    ``context`` alone; any other value raises ValueError before a draw.
    """
    states = _initial_states(initial)
    fill = int(states) if states.ndim == 0 else 0
    if states.ndim == 0:
        context = (*context, fill)
    elif states.shape != (config.n_trials,):
        raise ValueError("initial must have shape (n_trials,)")
    states = np.broadcast_to(states, config.n_trials)
    counts, times = _simulate_chunks(config, states, fill, context, threads)
    return Ensemble(states, counts, times, config.t_b, config.t_s, params=config.params)


def _deterministic_uniforms(seed: int, context: tuple, n: int) -> np.ndarray:
    """Chunk-deterministic uniform(0,1) draws keyed by (seed, context). Used
    for auxiliary per-trial coin flips (e.g. pulse errors) so that composed
    experiments stay reproducible under the same contract as ensembles."""
    _check_seed(seed)
    _check_int(n, "n", 0)
    out = np.empty(n)
    for ci, rows in enumerate(_row_blocks(n)):
        block = _chunk_rng(seed, _STREAM_EXTRA, context, ci).random(CHUNK)
        out[rows] = block[:rows.stop - rows.start]
    return out


# ---------------------------------------------------------------------------
# CSV interchange


def _labels(codes, kind=IonState) -> list:
    """The label of each state code (or each code of another ``kind``)."""
    return np.array([member.label for member in kind])[np.asarray(codes)].tolist()


def _write_csv(path, header, blocks, *, comments=(), newline="\r\n") -> None:
    """The one CSV artifact writer: ``# comment`` lines (ending ``\\n``), then
    the header and the rows of each block, ending ``newline``.  A block is a
    tuple of columns whose rows end with the shortest one; cells are written
    unquoted, as ``str.format`` renders them."""
    with open(path, "w", newline="") as fh:
        fh.writelines(f"# {comment}\n" for comment in comments)
        fh.write(",".join(header) + newline)
        for columns in blocks:
            fh.writelines(map((",".join(["{}"] * len(columns)) + newline).format, *columns))


def _ensemble_blocks(ensembles):
    """(ensemble, rows, trial ids from 0, initial labels) per block of rows."""
    for ens in ensembles:
        for rows in _row_blocks(len(ens)):
            yield ens, rows, range(rows.start, rows.stop), _labels(ens.initial[rows])


def write_ensemble_csv(path, ensembles, *, comments=()) -> None:
    """Write one or more ensembles (same bin count) to a counts CSV."""
    ensembles = list(ensembles)
    if len({e.n_bins for e in ensembles}) != 1:
        raise ValueError("a counts file holds one or more ensembles, all of one bin count")
    m = ensembles[0].n_bins
    blocks = ((trials, labels, *ens.counts[rows].T.tolist())
              for ens, rows, trials, labels in _ensemble_blocks(ensembles))
    _write_csv(path, ["trial", "initial"] + [f"n_{k}" for k in range(1, m + 1)],
               blocks, comments=comments)


def write_change_times_csv(path, ensembles) -> None:
    """Sidecar dump of ground-truth change times: ragged rows whose times ride
    in the last cell, each after its comma, without the NaN (unequal) padding."""
    def blocks():
        for ens, rows, trials, labels in _ensemble_blocks(ensembles):
            times = ([f",{t:.9g}" if t == t else "" for t in column]
                     for column in ens.change_times[rows].T.tolist())
            yield trials, map("".join, zip(labels, *times))

    _write_csv(path, ["trial", "initial", "change_times_ms"], blocks())


def read_counts_csv(path):
    """Read a counts CSV into (trial_ids, initial, counts): int64 trial ids,
    int8 states and counts at their narrowest width.  The file is read
    once as bytes and tokenised with numpy in blocks of at most CHUNK data
    lines, each block's counts narrowed before the blocks are joined; the
    module docstring says what it accepts and rejects."""
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.endswith(b"\n"):
        data += b"\n"
    buf = np.frombuffer(data, np.uint8)
    # Newlines are found 1 MiB at a time, so no per-byte array spans the file.
    ends = np.concatenate([np.flatnonzero(buf[i:i + 2**20] == 10) + i
                           for i in range(0, buf.size, 2**20)])
    starts = np.concatenate(([0], ends[:-1] + 1))
    ends -= buf[ends - 1] == 13  # CRLF; before an empty line sits a newline, not a CR
    comment = buf[starts] == 35
    skip = comment.copy()
    spaced = np.flatnonzero(np.isin(buf[starts], list(b" \t\n\r\v\f")))
    skip[spaced] = [not data[s:e].strip()
                    for s, e in zip(starts[spaced].tolist(), ends[spaced].tolist())]
    lines = np.flatnonzero(~skip)
    if lines.size == 0:
        raise DataFormatError(path, 1, "empty file")
    header = [f[1:-1] if len(f) > 1 and f[0] == f[-1] == '"' else f for f in
              data[starts[lines[0]]:ends[lines[0]]].decode(errors="replace").split(",")]
    if len(header) < 3 or header != ["trial", "initial"] + [
            f"n_{k}" for k in range(1, len(header) - 1)]:
        raise DataFormatError(path, lines[0] + 1, "header must be trial,initial,n_1,...,n_M")
    if lines.size == 1:
        raise DataFormatError(path, lines[0] + 2, "no data rows")
    lines, width = lines[1:], len(header)
    trials, initials = np.empty(lines.size, np.int64), np.empty(lines.size, np.int8)
    counts = []  # each block's counts at their narrowest width
    for r0 in range(0, lines.size, CHUNK):
        rows = lines[r0:r0 + CHUNK]
        lo = starts[rows[0]]
        b = buf[lo:ends[rows[-1]] + 1]
        s, e = starts[rows] - lo, ends[rows] - lo
        inner = rows[0] + np.flatnonzero(comment[rows[0]:rows[-1]])
        if inner.size:  # a comment between rows holds no separators
            b = b.copy()
            for c in inner:
                b[starts[c] - lo:ends[c] - lo] = 35
        commas = np.flatnonzero(b == 44)
        per_line = np.diff(np.searchsorted(commas, s), append=commas.size)
        ragged = np.flatnonzero(per_line != width - 1)
        k = ragged[0] if ragged.size else rows.size  # rows before k have width fields
        sep = np.empty((k, width + 1), np.intp)
        sep[:, 0], sep[:, -1] = s[:k] - 1, e[:k]
        sep[:, 1:-1] = commas[:k * (width - 1)].reshape(k, width - 1)
        ds, fe = sep[:, :-1] + 1, sep[:, 1:]  # each field's first byte and its end
        lead = b[ds]
        if (lead == 34).any():  # strip one pair of quotes around a field
            quoted = (fe - ds >= 2) & (lead == 34) & (b[fe - 1] == 34)
            ds, fe = ds + quoted, fe - quoted
            lead = b[ds]
        label = lead[:, 1] | 32  # lower case
        minus = lead == 45
        minus[:, 1] = False
        ds += minus
        nd = fe - ds  # digits of each integer field
        # One gather reads every one-digit field; longer ones take place values.
        v = (b[ds] - np.uint8(48)).astype(np.uint64)
        multi = np.flatnonzero(nd > 1)
        places = np.minimum(nd.ravel()[multi], 19)
        for n in np.unique(places):
            at = multi[places == n]
            v.ravel()[at] = ((b[ds.ravel()[at, None] + np.arange(n)] - np.uint8(48))
                             @ 10 ** np.arange(n - 1, -1, -1, dtype=np.uint64))
        v = v.view(np.int64)  # 19-digit values above the int64 maximum turn negative
        over = (nd > 19) | ((nd == 19) & (v < 0))
        v[minus] *= -1
        fail = (nd < 1) | over
        fail[:, 1] = (nd[:, 1] != 1) | ((label != 98) & (label != 100))
        fail[:, 2:] |= v[:, 2:] < 0
        # The rest of an integer field is digits: a line holds as many as these fields are long.
        digit = ((b[:e[k - 1] + 1] - np.uint8(48)) < 10).view(np.uint8)
        bad = fail.any(axis=1) | (np.add.reduceat(digit, s[:k], dtype=np.int32)
                                  != nd.sum(axis=1) - nd[:, 1])
        if bad.any():
            i = int(np.argmax(bad))
            wrong = np.array([not data[lo + a:lo + z].isdigit() for a, z in zip(ds[i], fe[i])])
            wrong[1] = fail[i, 1]
            j = int(np.argmax(wrong | fail[i]))
            text = repr(data[lo + ds[i, j] - minus[i, j]:lo + fe[i, j]].decode(errors="replace"))
            raise DataFormatError(path, rows[i] + 1, (
                f"unknown state label {text}, expected 'B' or 'D'" if j == 1 else
                f"invalid literal for int() with base 10: {text}" if wrong[j] else
                f"integer out of int64 range: {text}" if over[i, j] else "negative photon count"))
        if k < rows.size:
            raise DataFormatError(path, rows[k] + 1,
                                  f"expected {width} fields, got {per_line[k] + 1}")
        trials[r0:r0 + k], initials[r0:r0 + k] = v[:, 0], label == 100
        counts.append(_narrowest(v[:, 2:]))
    return trials, initials, np.concatenate(counts)
