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
``_poisson_logpmf``; Poisson tails use ``scipy.special.pdtrc``.  The
mixture entries ``mixed_pmf`` integrate that pmf against an exponential
density in closed form (a confluent hypergeometric function), so no
numerical integration runs.  ``_poisson_logpmf``, ``mixed_pmf`` and
``_truncation_mass`` import scipy.special when called, so only a process
that builds a table or scores with the simple likelihood loads it
(``compare``, and ``classify`` or ``sweep`` with a likelihood method);
``import ionread``, ``simulate``, ``fit`` and count-threshold ``classify``
and ``sweep`` run on numpy alone.

Rates are photons per millisecond; times are milliseconds throughout.
"""

from __future__ import annotations

import enum
import math
import threading
import warnings
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

    @classmethod
    def from_label(cls, label: str) -> "IonState":
        try:
            return {"B": cls.BRIGHT, "D": cls.DARK}[label.strip().upper()]
        except KeyError:
            raise ValueError(f"unknown state label {label!r}, expected 'B' or 'D'") from None


class DegenerateModelError(ValueError):
    """Raised when R_B = 0: state changes are unobservable and the mixture
    density's change of variables is singular."""


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
        # discrimination information-free.  Lifetimes may be +inf (a frozen
        # ion); NaN fails every comparison below, so rates and t_s are also
        # checked for finiteness.
        for name in ("R_B", "R_D", "t_s"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.R_B < 0:
            raise ValueError(f"R_B must be >= 0, got {self.R_B}")
        if self.R_D < 0:
            raise ValueError(f"R_D must be >= 0, got {self.R_D}")
        for name in ("tau_B", "tau_D", "t_s"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")

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
        property of the ion and stay fixed."""
        if r <= 0:
            raise ValueError(f"efficiency factor must be > 0, got {r}")
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


def stay_prob(state: IonState, t: float, params: RateParams) -> float:
    """Probability that an ion in ``state`` has not flipped after time ``t``.

    W_BB(t) = exp(-t/tau_B) for bright, W_DD(t) = exp(-t/tau_D) for dark.
    The complements give the flip probabilities W_BD and W_DB. Only spans
    up to one sub-bin are meaningful here; longer-time occupancies (which
    include flips back) live in :func:`ionread.estimation.population_dynamics`.
    """
    if t < 0 or t > params.t_s:
        raise ValueError(f"t must be in [0, t_s={params.t_s}], got {t}")
    tau = params.tau_B if state is IonState.BRIGHT else params.tau_D
    return float(np.exp(-t / tau))


def _poisson_logpmf(n, mean):
    """log(e^{-mean} mean^n / n!), elementwise; safe at mean = 0
    (xlogy(0, 0) = 0)."""
    from scipy.special import gammaln, xlogy
    return -mean + xlogy(n, mean) - gammaln(n + 1)


def _check_counts(n) -> np.ndarray:
    n = np.asarray(n)
    if np.any(n < 0):
        raise ValueError("photon count must be >= 0")
    if n.dtype.kind not in "biu" and np.any(n != np.floor(n)):
        raise ValueError("photon count must be an integer")
    return n


def count_pmf(state: IonState, n, params: RateParams):
    """Poisson photon-count pmf of a pure state over one sub-bin.

    Mean (R_B + R_D)*t_s for bright, R_D*t_s for dark. ``n`` may be a scalar
    or an array of integer counts.
    """
    n = _check_counts(n)
    mean = params.bright_mean if state is IonState.BRIGHT else params.dark_mean
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
        self.entries = np.asarray(entries, dtype=float)
        if self.entries.shape != (self.n_max + 1, 2, 2):
            raise ValueError(f"entries must have shape ({self.n_max + 1}, 2, 2)")
        self.truncation_mass = np.array(truncation_mass, dtype=float)
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
            warnings.warn(f"{over} counts exceed the table's n_max = {self.n_max} (largest "
                          f"{counts.max()}); they are scored as {self.n_max}",
                          RuntimeWarning, stacklevel=2)
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


def build_observation_table(params: RateParams, tol: float = 1e-9) -> ObservationTable:
    """Tabulate O(n) for n = 0..n_max, the first n_max >= 1 whose truncated
    probability mass per column is below ``tol``.

    The table grows one row at a time and stops there: ``tol`` alone sizes
    it (n_max = 14 at the default rates and ``tol``).  Counts above n_max
    met later are clamped with a warning, not rejected.
    """
    if params.R_B == 0:
        raise DegenerateModelError("R_B = 0: no usable signal, refusing to build table")
    if params.coarse_subbin:
        warnings.warn(f"t_s={params.t_s} exceeds tau_B/10={params.tau_B / 10:.4g}; the "
                      "single-change-per-sub-bin observation model degrades", stacklevel=2)
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
