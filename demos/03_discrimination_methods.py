"""The four single-window discrimination methods side by side on one
ensemble pair: total-count thresholds versus time-resolved likelihoods."""

import numpy as np

from ionread import (
    DEFAULT_PARAMS,
    IonState,
    SimConfig,
    evaluate,
    optimize_threshold,
    resolve_classifier,
    simulate_ensemble,
)

config = SimConfig(n_trials=50_000, t_b=1.0, seed=21, params=DEFAULT_PARAMS)
ens_b = simulate_ensemble(config, IonState.BRIGHT)
ens_d = simulate_ensemble(config, IonState.DARK)

best = optimize_threshold(ens_b, ens_d)
print(f"optimal count cutoff at t_b={config.t_b} ms: n_c={best.best}")
print("cutoff landscape (n_c: mean error):")
for n_c, eps in best.landscape[:6]:
    print(f"  {n_c}: {100 * eps:.3f}%")

# Each spec dict is validated and resolved once into a classifier object.
methods = [resolve_classifier(spec) for spec in (
    {"method": "threshold", "n_c": best.best},
    {"method": "double_threshold", "n_D": 0, "n_B": 4},
    {"method": "simple", "decaying": "bright"},
    {"method": "general"},
)]
print(f"\nmethod comparison at t_b={config.t_b} ms "
      f"({config.n_trials} ions per preparation):")
print(f"{'method':28s} {'eps_bright':>10s} {'eps_dark':>9s} "
      f"{'eps':>7s} {'N_R':>6s}")
for classifier in methods:
    row = evaluate(ens_b, ens_d, classifier)
    print(f"{row.classifier + ' ' + row.detail:28s} "
          f"{100 * row.epsilon_bright:9.3f}% {100 * row.epsilon_dark:8.3f}% "
          f"{100 * row.epsilon:6.3f}% {row.N_R:6.3f}")

# Where the likelihood methods win: the same five photons, opposite time
# orderings.  A bright head then silence means the ion started bright and
# decayed; silence then a bright tail means it started dark and brightened.
# The total alone cannot tell these apart; the time ordering can.
from ionread import generalized_time_resolved_classify, threshold_classify
from ionread import build_observation_table

table = build_observation_table(DEFAULT_PARAMS)
head = np.zeros(10, dtype=int)
head[:2] = [3, 2]
tail = head[::-1].copy()
print()
for counts in (head, tail):
    decision, log_b, log_d = generalized_time_resolved_classify(counts, table)
    print(f"counts {counts.tolist()}:")
    print(f"  threshold n_c={best.best}: "
          f"{threshold_classify(counts, best.best).label}")
    print(f"  generalized: {decision.label} "
          f"(log p_B - log p_D = {log_b - log_d:+.2f})")
