"""Parameter inference and closed-form population dynamics.

The two-state relaxation has occupancies W_B(t) = B + amp * exp(-t/tau)
with B = tau_B/(tau_B + tau_D), A = 1 - B and tau = tau_B*tau_D/(tau_B+tau_D);
amp is A for an initially bright ion and -B for an initially dark one.
Integrating the fluorescence rate R_B*W_B(t) + R_D over sub-bins produces
the decay curves n_B(t) = a + b*exp(-t/tau) and n_D(t) = a - c*exp(-t/tau),
so jointly fitting (a, b, c, tau) to measured mean counts recovers the
state lifetimes without ever observing a state change directly:
tau_B = tau/A and tau_D = tau/B with A = (b/c)/(1 + b/c).

Also included is the saturation formula mapping laser physics (linewidth,
Rabi frequency, detuning, Zeeman splitting, collection efficiency) to the
bright-state photon rate R_B.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from .photon_model import IonState, RateParams


@dataclass(frozen=True)
class DecayFit:
    """Joint fit of the bright and dark mean-count decay curves.

    Model: n_B(t) = a + b*exp(-t/tau), n_D(t) = a - c*exp(-t/tau) with a
    shared steady-state level a and relaxation time tau.  ``residual`` is
    the root-sum-square objective over both series.  ``degenerate`` marks
    fits where b or c collapsed to zero (flat data carries no lifetime
    information on that side).
    """

    a: float
    b: float
    c: float
    tau: float
    residual: float
    n_evaluations: int
    converged: bool = True
    degenerate: bool = False

    def bright_curve(self, t):
        return self.a + self.b * np.exp(-np.asarray(t) / self.tau)

    def dark_curve(self, t):
        return self.a - self.c * np.exp(-np.asarray(t) / self.tau)

    def to_json_dict(self) -> dict:
        return {
            "a_counts": self.a,
            "b_counts": self.b,
            "c_counts": self.c,
            "tau_ms": self.tau,
            "residual": self.residual,
            "n_evaluations": self.n_evaluations,
            "converged": self.converged,
            "degenerate": self.degenerate,
        }


@dataclass(frozen=True)
class LifetimeEstimate:
    """State lifetimes derived from a decay fit.

    ``A`` is the relaxation amplitude fraction (b/c)/(1 + b/c), which equals
    tau_D/(tau_B + tau_D), the stationary occupancy of the dark state; ``B``
    is its complement, the stationary bright occupancy.  The identity
    A*tau_B = B*tau_D = tau ties the four fields together.
    """

    A: float
    B: float
    tau_B: float
    tau_D: float

    def to_json_dict(self) -> dict:
        return {"A": self.A, "B": self.B,
                "tau_B_ms": self.tau_B, "tau_D_ms": self.tau_D}


class FitConvergenceError(RuntimeError):
    """Fit failed to converge within the evaluation budget; ``best`` carries
    the best iterate found so far."""

    def __init__(self, message: str, best: DecayFit):
        super().__init__(message)
        self.best = best


@dataclass(frozen=True)
class LaserPhysics:
    """Laser and atom parameters of the bright-state fluorescence formula.

    Rates are per ms.  eta is the photon collection efficiency, gamma the
    natural linewidth, Omega the Rabi frequency, Delta the laser detuning
    and delta the Zeeman splitting of the cycling manifold.
    """

    eta: float
    gamma: float
    Omega: float
    Delta: float
    delta: float

    def __post_init__(self):
        for name in ("eta", "gamma", "Omega", "delta"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


# ---------------------------------------------------------------------------
# Closed-form population dynamics


def _relaxation_constants(tau_B: float, tau_D: float):
    if tau_B <= 0 or tau_D <= 0:
        raise ValueError("lifetimes must be > 0")
    a = tau_D / (tau_B + tau_D)
    b = tau_B / (tau_B + tau_D)
    tau = tau_B * tau_D / (tau_B + tau_D)
    return a, b, tau


def population_dynamics(t, initial: IonState, tau_B: float, tau_D: float):
    """Occupancies (W_B, W_D) at time t for the given initial state.

    Closed-form solution of the rate equations
    dW_B/dt = -W_B/tau_B + W_D/tau_D (and the mirrored dark equation):
    W_B relaxes from its initial value toward the stationary bright
    occupancy tau_B/(tau_B + tau_D) with time constant
    tau = tau_B*tau_D/(tau_B + tau_D).  W_B + W_D = 1 exactly; t may be a
    scalar or an array.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("t must be >= 0")
    a, b, tau = _relaxation_constants(tau_B, tau_D)
    amp = a if initial is IonState.BRIGHT else -b
    w_b = b + amp * np.exp(-t / tau)
    w_d = 1.0 - w_b
    if w_b.ndim == 0:
        return float(w_b), float(w_d)
    return w_b, w_d


def mean_count_window(t0: float, dt: float, params: RateParams,
                      initial: IonState) -> float:
    """Expected photon count in the window [t0 - dt, t0].

    Integrates the instantaneous rate R_B*W_B(t) + R_D.  The result has the
    decay-curve form a + amp*exp(-t0/tau): the steady-state level is
    a = dt*(R_B*B + R_D) and the amplitude R_B*A*tau*(exp(dt/tau) - 1) for a
    bright start (with -B replacing A for a dark start), which is exactly
    the (a, b, c) parameterization that fit_decay_curves recovers.
    """
    if not (t0 >= dt > 0):
        raise ValueError("need t0 >= dt > 0")
    a, b, tau = _relaxation_constants(params.tau_B, params.tau_D)
    amp = a if initial is IonState.BRIGHT else -b
    steady = dt * (params.R_B * b + params.R_D)
    transient = params.R_B * amp * tau * (math.exp(dt / tau) - 1.0) * math.exp(-t0 / tau)
    return steady + transient


# ---------------------------------------------------------------------------
# Decay-curve fitting


def _as_series(series, name: str):
    """(t, mean) columns of a (K, 2) series, K >= 3, at rising times > 0."""
    arr = np.asarray(series, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"{name} must be a (K, 2) series of (t, mean) pairs")
    t, y = arr[:, 0], arr[:, 1]
    if t.size < 3:
        raise ValueError(f"{name} must span at least 3 points")
    if np.any(t <= 0) or np.any(np.diff(t) <= 0):
        raise ValueError(f"{name} times must be positive and increasing")
    return t, y


def _warm_start(t_b, y_b, t_d, y_d):
    """Moment-based initial guess: steady level from the series tails,
    amplitudes from the first-point residuals, tau from a log-linear
    regression on the bright transient."""
    tail = max(2, t_b.size // 4)
    a0 = 0.5 * (np.mean(y_b[-tail:]) + np.mean(y_d[-tail:]))
    a0 = max(a0, 1e-9)
    b0 = max(y_b[0] - a0, 1e-6)
    c0 = max(a0 - y_d[0], 1e-6)
    resid = y_b - a0
    mask = resid > 0
    if np.count_nonzero(mask) >= 2:
        slope = np.polyfit(t_b[mask], np.log(resid[mask]), 1)[0]
        tau0 = -1.0 / slope if slope < 0 else t_b[-1]
    else:
        tau0 = t_b[-1] / 3.0
    tau0 = min(max(tau0, t_b[0] / 10.0), t_b[-1] * 100.0)
    return a0, b0, c0, tau0


class _BudgetSpent(Exception):
    """An objective call past the evaluation budget."""


def _nelder_mead(func, x0, maxfev):
    """Adaptive Nelder–Mead (Gao & Han, Comput. Optim. Appl. 51:259, 2012)
    with xatol 1e-10 and fatol 1e-14, ported step for step from scipy
    1.17.1's unbounded ``_minimize_neldermead``: same (x, f, nfev) bits.
    A call past ``maxfev`` aborts its step, and the simplex is sorted as it
    stands (a shrink may leave moved vertices unscored) and returned.  The
    bookkeeping runs on Python floats in numpy's operation order (centroid
    rows summed in turn, as ``np.add.reduce``); ``np.argsort`` (scipy's tie
    order) and ``np.min`` (NaN if any is) remain.  ``func`` gets ndarrays."""
    n, x0 = len(x0), np.asarray(x0, dtype=float).tolist()
    chi, psi, sigma = 1 + 2 / n, 0.75 - 1 / (2 * n), 1 - 1 / n
    sim = [x0] + [x0[:k] + [(1 + 0.05) * x0[k] if x0[k] != 0 else 0.00025] + x0[k + 1:]
                  for k in range(n)]
    fsim, nfev = [math.inf] * (n + 1), 0

    def f(x):
        nonlocal nfev
        if nfev >= maxfev:
            raise _BudgetSpent
        nfev += 1
        return func(np.array(x))

    def sort(sim, fsim):
        ind = np.array(fsim).argsort().tolist()
        return [sim[i] for i in ind], [fsim[i] for i in ind]

    with contextlib.suppress(_BudgetSpent):
        for k in range(n + 1):
            fsim[k] = f(sim[k])
    sim, fsim = sort(*sort(sim, fsim))      # twice, as scipy: argsort may swap ties
    while nfev < maxfev:
        with contextlib.suppress(_BudgetSpent):
            if (all(abs(a - b) <= 1e-10 for x in sim[1:] for a, b in zip(x, sim[0]))
                    and all(abs(fsim[0] - v) <= 1e-14 for v in fsim[1:])):
                break
            xbar = sim[0]
            for x in sim[1:-1]:
                xbar = [a + b for a, b in zip(xbar, x)]
            xbar = [a / n for a in xbar]
            xr = [2 * a - w for a, w in zip(xbar, sim[-1])]
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = [(1 + chi) * a - chi * w for a, w in zip(xbar, sim[-1])]
                fxe = f(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:                   # contract outside if fxr < fsim[-1], else inside
                outside = fxr < fsim[-1]
                xc = ([(1 + psi) * a - psi * w for a, w in zip(xbar, sim[-1])] if outside
                      else [(1 - psi) * a + psi * w for a, w in zip(xbar, sim[-1])])
                fxc = f(xc)
                if fxc <= fxr if outside else fxc < fsim[-1]:
                    sim[-1], fsim[-1] = xc, fxc
                else:               # shrink toward the best vertex
                    for j in range(1, n + 1):
                        sim[j] = [b + sigma * (v - b) for b, v in zip(sim[0], sim[j])]
                        fsim[j] = f(sim[j])
        sim, fsim = sort(sim, fsim)
    return np.array(sim[0]), np.min(fsim), nfev


def fit_decay_curves(mean_bright, mean_dark, *, max_evals: int = 10_000) -> DecayFit:
    """Jointly fit (a, b, c, tau) to bright and dark mean-count series.

    Each series is a (K, 2) array of (t, mean) rows; the two time grids need
    not coincide.  Minimizes the root-sum-square residual over both series
    by simplex descent on log-parameters (which keeps all four parameters
    positive), multi-started from a moment-based warm start plus five
    log-spaced tau values, then polished by up to five restarts until the
    objective improves by at most 1e-12 relatively.  ``max_evals`` caps
    each of these up to 11 simplex runs, not their total.

    Raises FitConvergenceError (carrying the best iterate) if the budget is
    exhausted before the restart polish stabilizes.  Flat data on either
    side yields a ``degenerate`` flagged fit rather than an error.
    """
    t_b, y_b = _as_series(mean_bright, "mean_bright")
    t_d, y_d = _as_series(mean_dark, "mean_dark")
    shared = np.array_equal(t_b, t_d)   # mean_count_series gives one grid

    def objective(theta, neg_t_b=-t_b, neg_t_d=-t_d):
        a, b, c, tau = np.exp(theta).tolist()
        e_b = np.exp(neg_t_b / tau)
        e_d = e_b if shared else np.exp(neg_t_d / tau)
        rb = y_b - (a + b * e_b)
        rd = y_d - (a - c * e_d)
        return math.sqrt(np.dot(rb, rb) + np.dot(rd, rd))

    a0, b0, c0, tau0 = _warm_start(t_b, y_b, t_d, y_d)
    span = t_b[-1] - t_b[0] + t_d[-1] - t_d[0]
    tau_grid = np.geomspace(span / 50.0, span * 2.0, 5)
    starts = [np.log([a0, b0, c0, tau0])]
    starts += [np.log([a0, b0, c0, tau]) for tau in tau_grid]

    best_x, best_f, evals = None, np.inf, 0
    for x0 in starts:
        x, fun, nfev = _nelder_mead(objective, x0, max_evals)
        evals += nfev
        if fun < best_f:
            best_x, best_f = x, fun

    # Restart polish: a fresh simplex escapes premature collapse; stop when
    # the relative improvement is at most 1e-12.
    converged = False
    for _ in range(5):
        x, fun, nfev = _nelder_mead(objective, best_x, max_evals)
        evals += nfev
        improvement = best_f - fun
        if fun < best_f:
            best_x, best_f = x, fun
        if improvement <= 1e-12 * max(best_f, 1e-30):
            converged = True
            break

    a, b, c, tau = np.exp(best_x)
    scale = max(a, b, c)
    degenerate = bool(b < 1e-6 * scale or c < 1e-6 * scale)
    fit = DecayFit(a=float(a), b=float(b), c=float(c), tau=float(tau),
                   residual=float(best_f), n_evaluations=evals,
                   converged=converged, degenerate=degenerate)
    if not converged:
        raise FitConvergenceError(f"no convergence after {evals} evaluations; "
                                  f"best residual {fit.residual!r}", best=fit)
    return fit


def derive_lifetimes(fit: DecayFit) -> LifetimeEstimate:
    """State lifetimes from a decay fit: A = (b/c)/(1 + b/c), tau_B = tau/A,
    tau_D = tau/(1 - A).  Undefined when c vanished (flat dark curve)."""
    if fit.c <= 0 or fit.degenerate:
        raise ValueError("amplitude ratio undefined for a degenerate fit")
    ratio = fit.b / fit.c
    a = ratio / (1.0 + ratio)
    b = 1.0 - a
    return LifetimeEstimate(A=a, B=b, tau_B=fit.tau / a, tau_D=fit.tau / b)


def fit_report(fit: DecayFit) -> dict:
    """JSON-ready record of a fit: parameters, residual, iteration count and
    (for non-degenerate fits) the derived lifetimes."""
    report = {"format": "decay_fit", "version": 1, "fit": fit.to_json_dict()}
    if not fit.degenerate:
        report["lifetimes"] = derive_lifetimes(fit).to_json_dict()
    return report


def mean_count_series(initials: np.ndarray, counts: np.ndarray, t_s: float):
    """Average counts per sub-bin index for each initial state.

    Returns {IonState: (K, 2) series} with times at sub-bin end (k * t_s),
    the form fit_decay_curves consumes; ingested CSV rows plug in directly.
    """
    initials = np.asarray(initials)
    counts = np.asarray(counts)
    times = (np.arange(counts.shape[1]) + 1) * t_s
    out = {}
    for state in (IonState.BRIGHT, IonState.DARK):
        mask = initials == int(state)
        if np.any(mask):
            means = counts[mask].mean(axis=0)
            out[state] = np.column_stack([times, means])
    return out


# ---------------------------------------------------------------------------
# Fluorescence rate from laser physics


def steady_state_population(physics: LaserPhysics) -> float:
    """Excited-state population of the driven cycling transition.

    p_f = (1/36) Omega^2 / (Delta^2 + (gamma'/2)^2) with the
    power-broadened linewidth
    (gamma'/2)^2 = (gamma/2)^2 + (1/6)(Omega^2/(36 delta^2) + 4 delta^2).
    The formula breaks down at zero Zeeman splitting under drive (coherent
    population trapping), which is rejected.
    """
    if physics.Omega == 0:
        return 0.0
    if physics.delta == 0:
        raise ValueError("delta = 0 with a driven transition is outside the "
                         "validity of the broadened-linewidth formula")
    half_gamma_sq = (physics.gamma / 2.0) ** 2 + (
        physics.Omega**2 / (36.0 * physics.delta**2) + 4.0 * physics.delta**2
    ) / 6.0
    return (physics.Omega**2 / 36.0) / (physics.Delta**2 + half_gamma_sq)


def fluorescence_rate(physics: LaserPhysics) -> float:
    """Bright-state photon detection rate R_B = eta * gamma * p_f."""
    return physics.eta * physics.gamma * steady_state_population(physics)
