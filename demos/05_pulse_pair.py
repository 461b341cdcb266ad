"""Detection, inverting pulse, detection: trading ions for fidelity.

A second detection window after a state-inverting pulse lets us demand that
the two windows disagree; pairs that agree are discarded.  Errors now need
two independent misdetections, so the kept subset is far cleaner than any
single window.  The price is the retained fraction N_R.
"""

import numpy as np

from ionread import (IonState, RateParams, SimConfig, SweepSpec,
                     estimate_transfer_matrices, pi_pulse_error,
                     pi_pulse_sweep, simulate_ensemble)
from ionread.harness import decisions_for

PARAMS = RateParams(tau_B=4.9, tau_D=56.0, R_B=16.0, R_D=0.3, t_s=0.1 / 3.0)
EPS_PI = 0.02            # pulse flips the state with probability 0.98
BINS = (1, 2, 3, 6, 9, 15, 30)

spec = SweepSpec(t_b_values=tuple(m * PARAMS.t_s for m in BINS),
                 n_trials=40_000, seed=3, params=PARAMS)

print("pulse-pair sweep, detector = single-window threshold with n_c = 1,")
print("pulse error %.0f%%, %d trials per state and window pair\n" % (100 * EPS_PI, spec.n_trials))
rows = pi_pulse_sweep(spec, {"method": "threshold", "n_c": 1}, EPS_PI, threads=4)

print("  bins   t_b/ms   eps_rel%   N_R      analytic eps%   analytic N_R")
for m, row in zip(BINS, rows):
    print("  %4d   %6.3f   %7.3f   %6.4f   %10.3f   %10.4f"
          % (m, row.t_b, 100 * row.epsilon, row.N_R,
             100 * row.epsilon_analytic, row.N_R_analytic))

# Short windows keep only ~10% of the ions (most pairs agree "dark" twice
# because one photon is rarely seen in a third of a sub-bin) but the kept
# ones are very clean.  Longer windows retain more and stay near 1%.

# Look inside one operating point: estimate the four transfer-matrix cells
# from a single window and run the matrix pipeline by hand.
t_b = 9 * PARAMS.t_s
cfg = SimConfig(n_trials=40_000, t_b=t_b, seed=3, params=PARAMS)
ens_b = simulate_ensemble(cfg, IonState.BRIGHT, context=(101,), threads=4)
ens_d = simulate_ensemble(cfg, IonState.DARK, context=(102,), threads=4)
detector = {"method": "threshold", "n_c": 0}
m_b, m_d = estimate_transfer_matrices(
    ens_b, ens_d, decisions_for(ens_b.counts, detector, PARAMS),
    decisions_for(ens_d.counts, detector, PARAMS))

print("\ntransfer matrices at t_b = %.1f ms (detector n_c = 0):" % t_b)
print("M_B (detected bright) =\n%s" % np.array_str(m_b, precision=4))
print("M_D (detected dark)   =\n%s" % np.array_str(m_d, precision=4))
col_sums = (m_b + m_d).sum(axis=0)
print("columns of M_B + M_D sum to %s (every trial lands in one cell)"
      % np.array_str(col_sums, precision=6))

result = pi_pulse_error(m_b, m_d, EPS_PI)
print("\nmatrix pipeline: eps_rel = %.3f%%, N_R = %.4f" %
      (100 * result.epsilon_rel, result.N_R))
print("per-state kept fractions: bright %.4f, dark %.4f"
      % (result.bright.retained, result.dark.retained))

# A perfect pulse is strictly better than an imperfect one here.
perfect = pi_pulse_error(m_b, m_d, 0.0)
assert perfect.epsilon_rel <= result.epsilon_rel
print("with a perfect pulse the same matrices give eps_rel = %.3f%%"
      % (100 * perfect.epsilon_rel))
