"""Per-sub-bin probability model for two-state fluorescence readout.

An ion is either *bright* (scatters photons at rate ``R_B + R_D``) or *dark*
(background rate ``R_D`` only), and flips incoherently between the two states
with exponential lifetimes ``tau_B`` and ``tau_D``.  A measurement window is
divided into sub-bins of duration ``t_s``; one photon count is recorded per
sub-bin.  This module provides the building blocks of the per-sub-bin model:

- ``stay_prob``: probability of not leaving a state within a time ``t <= t_s``,
- ``count_pmf``: Poisson count distributions of the two pure states,
- ``mixed_pmf``: count distribution of a sub-bin containing one state change,
- ``build_observation_table``: the 2x2 observation matrices ``O(n)`` combining
  dwell probabilities with emission likelihoods, tabulated for ``n <= n_max``.

The table is the input of the generalized time-resolved classifier: the
ordered product of ``O(n_k)`` over the sub-bins of a measurement yields the
likelihood of the count sequence for either initial state.

The pure-state pmf and the single-change classifier
(:func:`ionread.classifiers.simple_loglik`) share one Poisson log-pmf,
``_poisson_logpmf``, which ports scipy.special's ``gammaln`` bit for bit;
Poisson tails use ``scipy.special.pdtrc``.  The mixture entries
``mixed_pmf`` integrate that pmf against an exponential density in closed
form (a confluent hypergeometric function), so no numerical integration runs.

Built tables persist across processes in a per-user cache,
``$XDG_CACHE_HOME/ionread`` (``~/.cache/ionread`` when the variable is unset
or not absolute): one ``.npz`` file of about 2 KB per parameter set, loaded
with ``allow_pickle=False`` and never pruned.  Only parameter sets whose
five values are Python floats are cached, as ``RateParams.from_json_dict``
and the CLI make them; any other type builds without the cache.  A file
serves only under its key, a SHA-256 over this module's source, the Python,
numpy and scipy versions, the size and modification time of scipy.special's
compiled modules, the bits that array and scalar ``np.exp``,
``np.add.reduce``, ``math.exp`` and ``math.log`` return on fixed inputs,
and the exact bits of the five parameters and of the table's truncation
bound, 1e-9 (``_TABLE_TOL``).  The probes guard against a cache shared
between machines serving another CPU's or C library's bits, but do not rule
it out: the C library functions that scipy.special's compiled code calls
are not probed.  A missing, damaged or mismatched file is rebuilt and
replaced atomically; a write that fails is skipped.  A cached table is the
built one bit for bit.  Deleting the directory clears the cache.

Only ``mixed_pmf`` and ``_truncation_mass`` import scipy.special, when
called, so only the first build of a parameter set on a machine loads it.
``import ionread``, ``simulate``, ``fit``, count-threshold and simple-likelihood
``classify`` and ``sweep`` run on numpy alone, and so do general ``classify``
and pulse-pair ``sweep`` once the cache holds their tables.

Rates are photons per millisecond; times are milliseconds throughout.
"""

from __future__ import annotations

import contextlib
import enum
import functools
import importlib.machinery
import importlib.util
import math
import numbers
import os
import sys
import tempfile
import threading
import warnings
import zipfile
from dataclasses import dataclass, replace

import numpy as np


class IonState(enum.IntEnum):
    """The two readout states. Bright is index 0, dark is index 1, matching
    the basis vectors v_B = (1,0)^T and v_D = (0,1)^T used for the matrix
    algebra in :mod:`ionread.classifiers`."""

    BRIGHT = 0
    DARK = 1

    @property
    def label(self) -> str:
        return "B" if self is IonState.BRIGHT else "D"


class DegenerateModelError(ValueError):
    """Raised when R_B = 0: state changes are unobservable and the mixture
    density's change of variables is singular."""


def _check_number(value, name: str, ok, want: str, *, integer=False, error=ValueError) -> None:
    """Raise ``error`` "<name> must be <want>, got <value!r>" unless ``value``
    is a real number (an integer if ``integer``), not a Python or numpy bool,
    and ``ok(value)`` holds.  NaN fails every comparison, so an ``ok`` that
    compares refuses it."""
    kind = numbers.Integral if integer else numbers.Real
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, kind) or not ok(value):
        raise error(f"{name} must be {want}, got {value!r}")


@dataclass(frozen=True)
class RateParams:
    """Physical parameters of the readout model.

    Attributes
    ----------
    R_B : float
        Fluorescence rate of the bright state (photons/ms), excluding
        background.
    R_D : float
        Dark/background count rate (photons/ms). Both states see it.
    tau_B : float
        Mean lifetime of the bright state before an incoherent flip to
        dark (ms).
    tau_D : float
        Mean lifetime of the dark state (ms).
    t_s : float
        Sub-bin duration (ms).
    """

    R_B: float
    R_D: float
    tau_B: float
    tau_D: float
    t_s: float

    def __post_init__(self):
        # R_B = 0 is allowed to exist (a dark-only model is well defined) but
        # is rejected by mixed_pmf and table construction, where it makes
        # discrimination information-free.  Lifetimes may be +inf (a frozen ion).
        for name in ("R_B", "R_D"):
            _check_number(getattr(self, name), name, lambda v: 0 <= v < math.inf, "finite and >= 0")
        for name in ("tau_B", "tau_D"):
            _check_number(getattr(self, name), name, lambda v: v > 0, "> 0")
        _check_number(self.t_s, "t_s", lambda v: 0 < v < math.inf, "finite and > 0")

    @property
    def bright_mean(self) -> float:
        """Expected counts per sub-bin for an ion bright throughout."""
        return (self.R_B + self.R_D) * self.t_s

    @property
    def dark_mean(self) -> float:
        """Expected counts per sub-bin for an ion dark throughout."""
        return self.R_D * self.t_s

    @property
    def coarse_subbin(self) -> bool:
        """True when t_s > tau_B/10, i.e. the single-change-per-sub-bin
        approximation of the observation model starts to degrade."""
        return self.t_s > self.tau_B / 10.0

    def scaled(self, r: float) -> "RateParams":
        """Rates scaled by a collection-efficiency factor r; lifetimes are a
        property of the ion and stay fixed.  ``r`` must be a finite number > 0."""
        _check_number(r, "efficiency factor r", lambda v: 0 < v < math.inf, "finite and > 0")
        return replace(self, R_B=r * self.R_B, R_D=r * self.R_D)

    def to_json_dict(self) -> dict:
        return {
            "R_B_per_ms": self.R_B,
            "R_D_per_ms": self.R_D,
            "tau_B_ms": self.tau_B,
            "tau_D_ms": self.tau_D,
            "t_s_ms": self.t_s,
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "RateParams":
        try:
            return cls(
                R_B=float(doc["R_B_per_ms"]),
                R_D=float(doc["R_D_per_ms"]),
                tau_B=float(doc["tau_B_ms"]),
                tau_D=float(doc["tau_D_ms"]),
                t_s=float(doc["t_s_ms"]),
            )
        except KeyError as exc:
            raise ValueError(f"params document missing key {exc.args[0]!r}") from None


#: Simulation parameter set used for all headline error-rate targets.
DEFAULT_PARAMS = RateParams(R_B=16.0, R_D=0.3, tau_B=4.9, tau_D=56.0, t_s=0.1)


def _warn(message: str, category=RuntimeWarning) -> None:
    """A warning naming the first frame outside ionread: the caller's line."""
    frame, level = sys._getframe(1), 2
    while frame is not None and frame.f_globals.get("__name__", "").partition(".")[0] == "ionread":
        frame, level = frame.f_back, level + 1
    warnings.warn(message, category, stacklevel=level)


def stay_prob(state: IonState, t: float, params: RateParams) -> float:
    """Probability that an ion in ``state`` has not flipped after time ``t``.

    W_BB(t) = exp(-t/tau_B) for bright, W_DD(t) = exp(-t/tau_D) for dark.
    The complements give the flip probabilities W_BD and W_DB. Only spans
    up to one sub-bin are meaningful here; longer-time occupancies (which
    include flips back) live in :func:`ionread.estimation.population_dynamics`.
    """
    _check_number(t, "t", lambda v: 0 <= v <= params.t_s, f"in [0, t_s={params.t_s}]")
    tau = params.tau_B if IonState(state) is IonState.BRIGHT else params.tau_D
    return float(np.exp(-t / tau))


def _log_factorials(k: np.ndarray) -> np.ndarray:
    """``gammaln(k + 1)`` bit for bit for distinct integers ``k`` >= 0 (float64):
    scipy's Cephes ``lgam`` (Moshier, 1989) at x = k + 1, with the C library's
    ``math.log`` as in scipy (numpy's SIMD ``np.log`` differs in the last bit on
    some inputs).  Below x = 13 it is log k!, exact; above, Stirling plus a series
    in 1/x^2 (short from 1000, none beyond 1e8); +inf beyond MAXLGM."""
    x = k + 1.0
    with np.errstate(all="ignore"):     # x = inf, and x * x overflow
        p = 1.0 / (x * x)
        short, a = (functools.reduce(lambda acc, c: acc * p + c, cs) for cs in (
            (7.9365079365079365079365e-4, -2.7777777777777777777778e-3, 0.0833333333333333333333),
            (8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
             -2.77777777730099687205e-3, 8.33333333333331927722e-2)))
        log_x = np.fromiter(map(math.log, x.tolist()), float, x.size)
        q = (x - 0.5) * log_x - x + 0.91893853320467274178     # + log(sqrt(2 pi))
        q = np.where(x > 1e8, q, q + np.where(x >= 1000.0, short, a) / x)
    q[x < 13] = [math.log(float(math.factorial(int(v)))) for v in k[x < 13].tolist()]
    return np.where(x > 2.556348e305, np.inf, np.where(np.isfinite(x), q, x))


_small_log_factorials = functools.cache(lambda: _log_factorials(np.arange(1024.0)))


def _poisson_logpmf(n, mean):
    """log(e^{-mean} mean^n / n!) of non-negative integer counts, elementwise,
    bit for bit scipy.special's ``-mean + xlogy(n, mean) - gammaln(n + 1)``.
    ``n`` is taken as float64, so n + 1 cannot wrap."""
    n = np.asarray(n, dtype=np.float64)
    if n.max(initial=0) < 1024:         # log n! from a table made at first use
        lgam = _small_log_factorials()[n.astype(np.intp)]
    else:                               # one log per distinct count
        k, inverse = np.unique(n, return_inverse=True)
        lgam = _log_factorials(k)[inverse].reshape(n.shape)
    with np.errstate(invalid="ignore"):     # mean = 0: xlogy(0, 0) = 0
        xlogy = np.where(n == 0, 0.0, n * (math.log(mean) if mean > 0 else -math.inf))
    return -mean + xlogy - lgam


def _check_array(values, name: str, want: str, *, ok=lambda v: True, integer=False) -> np.ndarray:
    """``values`` as a float64 array, or with ``integer`` an integer one at its
    own width (whole floats below 2**63 in magnitude as int64): the one dtype
    rule for arrays, as :func:`_check_number` is for scalars.  ValueError
    "<name> must be <want>, got ..." refuses any other dtype (bool, complex,
    str, bytes, datetime, timedelta, void), an item of a list or object array
    that :func:`_check_number` refuses (one per type) and where ``ok`` fails."""
    if not isinstance(values, np.ndarray) or values.dtype == object:
        items = np.asarray(values, dtype=object)
        for x in {type(x): x for x in items.ravel().tolist()}.values():
            _check_number(x, name, lambda v: True, want)
        values = np.asarray(items.tolist())
    if values.dtype.kind not in "iuf":
        raise ValueError(f"{name} must be {want}, got an array of dtype {values.dtype}")
    whole = integer and values.dtype.kind == "f"
    good = ok(values)
    if whole:   # NaN and infinities fail too
        good &= (values == np.floor(values)) & (abs(values) < np.float64(2**63))
    if not np.all(good):
        raise ValueError(f"{name} must be {want}, got {values[~good].flat[0].item()!r}")
    return values if integer and not whole else values.astype(
        np.int64 if whole else np.float64, copy=False)


def _check_counts(n) -> np.ndarray:
    return _check_array(n, "photon count", "an integer >= 0", ok=lambda v: v >= 0, integer=True)


def count_pmf(state: IonState, n, params: RateParams):
    """Poisson photon-count pmf of a pure state over one sub-bin.

    Mean (R_B + R_D)*t_s for bright, R_D*t_s for dark. ``n`` may be a scalar
    or an array of integer counts.
    """
    n = _check_counts(n)
    mean = params.bright_mean if IonState(state) is IonState.BRIGHT else params.dark_mean
    out = np.exp(_poisson_logpmf(n, mean))
    return float(out) if out.ndim == 0 else out


def mixed_pmf(direction: str, n: int, params: RateParams) -> float:
    """Count pmf of a sub-bin during which the ion changes state once.

    The mean count of a bin with a change at an interior time is a linear
    function of the change time, sweeping lam over
    ``[lo, hi] = [R_D*t_s, (R_D+R_B)*t_s]``.  Weighting the Poisson pmf with
    the density of the change time gives

        X(n) = integral_lo^hi g(lam) e^{-lam} lam^n / n! dlam

    with ``g_BD(lam) = exp(-(lam - lo)/s)/s``, ``s = R_B*tau_B``, for a
    bright->dark change and the mirrored ``g_DB(lam) = exp(-(hi - lam)/s)/s``,
    ``s = R_B*tau_D``, for dark->bright.  X is not normalized on its own:
    summed over n it carries the total change probability,
    ``sum_n X_BD(n) = 1 - W_BB(t_s)`` (and likewise for DB).

    The integral has a closed form (Kummer's transformation, Abramowitz &
    Stegun 13.1.27 with 6.5).  With ``a = 1 + 1/s`` for BD and
    ``a = 1 - 1/s`` for DB, valid for every sign of ``a``,

        X(n) = [P(hi) e^{-d_hi} 1F1(1; n+2; a hi)
                - P(lo) e^{-d_lo} 1F1(1; n+2; a lo)] / s

    where ``P(x) = e^{-x} x^{n+1} / (n+1)!`` is the Poisson pmf of n + 1
    counts, ``d_hi = t_s/tau_B, d_lo = 0`` for BD and ``d_hi = 0,
    d_lo = t_s/tau_D`` for DB.  It agrees with 50-digit integration within
    ~5e-15 relative while ``a*hi`` stays below ~50, and within ~1e-10 up to
    ``a*hi`` ~ 200, where ``hyp1f1`` loses digits.  ``ValueError`` is raised
    when the bright mean ``hi`` is too large (~700 counts per sub-bin) for
    double precision.

    Parameters
    ----------
    direction : {"BD", "DB"}
        "BD" for a bright ion turning dark, "DB" for the reverse.
    """
    if direction not in ("BD", "DB"):
        raise ValueError(f"direction must be 'BD' or 'DB', got {direction!r}")
    n = int(_check_counts(n))
    if params.R_B == 0:
        raise DegenerateModelError(
            "R_B = 0: bright and dark are indistinguishable and the mixture "
            "density over the count mean is singular"
        )
    lo = params.R_D * params.t_s
    hi = (params.R_D + params.R_B) * params.t_s
    if direction == "BD":
        s = params.R_B * params.tau_B
        a, d_hi, d_lo = 1.0 + 1.0 / s, params.t_s / params.tau_B, 0.0
    else:
        s = params.R_B * params.tau_D
        a, d_hi, d_lo = 1.0 - 1.0 / s, 0.0, params.t_s / params.tau_D

    from scipy.special import hyp1f1
    # P(hi) and P(lo) as running products from e^{-x}: each factor costs
    # half an ulp, where exp of the log-space sum loses ~|(n+1) log x| ulp,
    # and no partial product exceeds 1.
    p_hi, p_lo = math.exp(-hi - d_hi), math.exp(-lo - d_lo)
    for k in range(1, n + 2):
        p_hi *= hi / k
        p_lo *= lo / k
    value = (p_hi * hyp1f1(1, n + 2, a * hi) - p_lo * hyp1f1(1, n + 2, a * lo)) / s
    if not math.isfinite(value):
        raise ValueError(
            f"mixture entry n={n} is not representable: bright mean "
            f"{hi:.4g} counts per sub-bin is too large"
        )
    return value


class ObservationTable:
    """Tabulated 2x2 observation matrices O(n) for n = 0..n_max.

    Layout per count n (rows = state after the sub-bin, columns = state
    before it):

        O(n) = [[W_BB * P_B(n),  X_DB(n)      ],
                [X_BD(n),        W_DD * P_D(n)]]

    with W_BB = W_BB(t_s) and W_DD = W_DD(t_s) fixed at the sub-bin duration.
    Summed over all n, each column is stochastic: column 0 totals
    W_BB + W_BD = 1 and column 1 totals W_DD + W_DB = 1, so truncating at
    n_max leaves per-column mass ``truncation_mass`` unaccounted for.

    Instances are immutable after construction, read-only ``entries`` and
    ``truncation_mass`` arrays included, and safe for concurrent reads.
    ``clamped_lookups`` is the one exception: a tally of the counts
    above n_max that :meth:`clamp_counts` scored as n_max, with a warning.
    A harness call clamps each state's counts once, so it tallies and warns
    about each once per call (under a lock; it never influences results).
    """

    def __init__(self, params: RateParams, n_max: int, entries: np.ndarray,
                 truncation_mass: np.ndarray):
        self.params = params
        self.n_max = int(n_max)
        self.entries, self.truncation_mass = (
            _check_array(p, name, "in [0, 1]", ok=lambda v: (v >= 0) & (v <= 1)).copy()
            for p, name in ((entries, "entries"), (truncation_mass, "truncation_mass")))
        if self.entries.shape != (self.n_max + 1, 2, 2):
            raise ValueError(f"entries must have shape ({self.n_max + 1}, 2, 2)")
        for array in (self.entries, self.truncation_mass):
            array.setflags(write=False)
        self.clamped_lookups = 0
        self._clamp_lock = threading.Lock()

    def clamp_counts(self, counts: np.ndarray) -> np.ndarray:
        """Clamp counts to n_max; tally and warn (RuntimeWarning) when any is cut."""
        counts = np.asarray(counts)
        over = int(np.count_nonzero(counts > self.n_max))
        if over:
            with self._clamp_lock:
                self.clamped_lookups += over
            _warn(f"{over} counts exceed the table's n_max = {self.n_max} (largest "
                  f"{counts.max()}); they are scored as {self.n_max}")
            return np.minimum(counts, self.n_max)
        return counts


def _truncation_mass(params: RateParams, entries: np.ndarray) -> np.ndarray:
    from scipy.special import pdtrc
    n_max = entries.shape[0] - 1
    w_bb = stay_prob(IonState.BRIGHT, params.t_s, params)
    w_dd = stay_prob(IonState.DARK, params.t_s, params)
    # Tail of the pure-Poisson part is known analytically; the mixture tail
    # is its total mass (1 - stay probability) minus what was tabulated.
    col0 = w_bb * pdtrc(n_max, params.bright_mean) + max(
        0.0, (1.0 - w_bb) - entries[:, 1, 0].sum()
    )
    col1 = w_dd * pdtrc(n_max, params.dark_mean) + max(
        0.0, (1.0 - w_dd) - entries[:, 0, 1].sum()
    )
    return np.array([col0, col1])


#: Largest probability mass per column that a built table leaves out.
_TABLE_TOL = 1e-9


@functools.cache
def _environment_digest() -> bytes | None:
    """What besides the parameters decides a table's bits on this machine.

    This module's source, so a change to the cache file layout gives new
    keys; the Python, numpy and scipy versions (scipy's
    from its ``version.py``, read without importing scipy); the size and
    modification time of each compiled module of scipy.special, found
    without importing it; and the bits that array and scalar ``np.exp``,
    ``np.add.reduce``, ``math.exp`` and ``math.log`` return on fixed
    inputs.  None when a source cannot be read.
    """
    import hashlib      # here, not at import: it costs ``import ionread`` 3-5 ms
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        return None
    scipy_dir = spec.submodule_search_locations[0]
    try:
        with open(__file__, "rb") as f:
            source = f.read()
        with open(os.path.join(scipy_dir, "version.py"), "rb") as f:
            scipy_version = f.read()
        suffixes = tuple(importlib.machinery.EXTENSION_SUFFIXES)
        with os.scandir(os.path.join(scipy_dir, "special")) as entries:
            compiled = sorted((e.name, e.stat().st_size, e.stat().st_mtime_ns)
                              for e in entries if e.name.endswith(suffixes))
    except OSError:
        return None
    probe = np.linspace(-30.0, 30.0, 601)
    exps = np.exp(probe)
    parts = (source, sys.version.encode(), np.__version__.encode(),
             scipy_version, repr(compiled).encode(), exps.tobytes(),
             np.add.reduce(exps).tobytes(), np.add.reduce(exps[::3]).tobytes(),
             np.array([np.exp(x) for x in probe[::10].tolist()]).tobytes(),
             np.array([math.exp(x) for x in probe.tolist()]).tobytes(),
             np.array([math.log(x) for x in exps.tolist()]).tobytes())
    digest = hashlib.sha256()
    for part in parts:
        digest.update(len(part).to_bytes(8, "little") + part)
    return digest.digest()


def _cache_entry(params: RateParams) -> tuple[str, str] | None:
    """(file path, key) of the cached table for ``params`` at ``_TABLE_TOL``,
    or None when no key can be formed.  Only Python floats are keyed: their
    ``hex`` is exact, where a wider or narrower type would build another
    table under the same float64 bits.  The file is named by the parameters
    alone, so a new key (another release, say) replaces the old entry."""
    import hashlib
    values = (params.R_B, params.R_D, params.tau_B, params.tau_D, params.t_s, _TABLE_TOL)
    if not all(type(v) is float for v in values):
        return None
    environment = _environment_digest()
    if environment is None:
        return None
    fields = " ".join(v.hex() for v in values)
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    name = hashlib.sha256(fields.encode()).hexdigest()[:32] + ".npz"
    key = hashlib.sha256(environment + fields.encode()).hexdigest()
    return os.path.join(base, "ionread", name), key


def _load_table(path: str, key: str, params: RateParams) -> ObservationTable | None:
    """The table stored at ``path`` under ``key``; None when the file is
    missing, unreadable, malformed or stored under another key."""
    try:
        with np.load(path, allow_pickle=False) as data:
            stored = data["key"]
            if stored.shape != () or str(stored) != key:
                return None
            entries, truncation = data["entries"], data["truncation_mass"]
            n_max = int(data["n_max"])
    except (OSError, ValueError, TypeError, KeyError, EOFError, zipfile.BadZipFile):
        return None
    if (n_max < 1 or entries.dtype != np.float64 or truncation.dtype != np.float64
            or entries.shape != (n_max + 1, 2, 2) or truncation.shape != (2,)):
        return None
    return ObservationTable(params, n_max, entries, truncation)


def _store_table(path: str, key: str, table: ObservationTable) -> None:
    """Write ``table`` to ``path`` atomically: a temporary file in the same
    directory, then ``os.replace``.  Any ``OSError`` leaves the cache as it
    was; the caller has its table either way."""
    tmp = None
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        with os.fdopen(fd, "wb") as f:
            np.savez(f, key=key, n_max=table.n_max, entries=table.entries,
                     truncation_mass=table.truncation_mass)
        os.replace(tmp, path)
    except OSError:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)


def build_observation_table(params: RateParams) -> ObservationTable:
    """Tabulate O(n) for n = 0..n_max, the first n_max >= 1 whose truncated
    probability mass per column is below 1e-9.

    The table grows one row at a time and stops there, so that bound alone
    sizes it (n_max = 14 at the default rates).  Counts above n_max met
    later are clamped with a warning, not rejected.

    Built tables persist across processes in a per-user cache (see the
    module docstring); a cached table is the built one, bit for bit.
    """
    if params.R_B == 0:
        raise DegenerateModelError("R_B = 0: no usable signal, refusing to build table")
    if params.coarse_subbin:
        _warn(f"t_s={params.t_s} exceeds tau_B/10={params.tau_B / 10:.4g}; the "
              "single-change-per-sub-bin observation model degrades", UserWarning)
    entry = _cache_entry(params)
    if entry is not None:
        table = _load_table(*entry, params)
        if table is not None:
            return table
    table = _tabulate(params, _TABLE_TOL)
    if entry is not None:
        _store_table(*entry, table)
    return table


def _tabulate(params: RateParams, tol: float) -> ObservationTable:
    w_bb = stay_prob(IonState.BRIGHT, params.t_s, params)
    w_dd = stay_prob(IonState.DARK, params.t_s, params)
    rows = []
    for n in range(10001):
        rows.append([[w_bb * count_pmf(IonState.BRIGHT, n, params), mixed_pmf("DB", n, params)],
                     [mixed_pmf("BD", n, params), w_dd * count_pmf(IonState.DARK, n, params)]])
        entries = np.array(rows)
        truncation = _truncation_mass(params, entries)
        if n >= 1 and truncation.max() < tol:
            return ObservationTable(params, n, entries, truncation)
    raise RuntimeError("observation table failed to converge by n=10000")
