"""Reproducible trajectory ensembles: hidden state changes, per-bin counts
and the CSV interchange format."""

import numpy as np

from ionread import (
    DEFAULT_PARAMS,
    IonState,
    SimConfig,
    simulate_ensemble,
    stay_prob,
    write_ensemble_csv,
)

config = SimConfig(n_trials=50_000, t_b=3.0, seed=7, params=DEFAULT_PARAMS)
ens_b = simulate_ensemble(config, IonState.BRIGHT)
ens_d = simulate_ensemble(config, IonState.DARK)

print(f"simulated {len(ens_b)} bright + {len(ens_d)} dark ions, "
      f"t_b={ens_b.t_b} ms in {ens_b.n_bins} sub-bins")

# Change statistics against the closed forms.
t_s = DEFAULT_PARAMS.t_s
for name, ens, state in (("bright", ens_b, IonState.BRIGHT),
                         ("dark", ens_d, IonState.DARK)):
    frac = np.mean(ens.change_counts_at(t_s) >= 1)
    exact = 1.0 - stay_prob(state, t_s, DEFAULT_PARAMS)
    multi = np.mean(ens.change_counts_at() >= 2)
    print(f"  {name:6s}: changed within one sub-bin {100 * frac:.3f}% "
          f"(exact {100 * exact:.3f}%), >=2 changes in {ens.t_b} ms "
          f"{100 * multi:.3f}%")

# Total-count histograms overlap once changes mix the populations.
tot_b = ens_b.counts.sum(axis=1)
tot_d = ens_d.counts.sum(axis=1)
print(f"\ntotal counts over {ens_b.t_b} ms: bright mean {tot_b.mean():.1f}, "
      f"dark mean {tot_d.mean():.1f}")
print(f"dark ions exceeding 10 counts (brightened during readout): "
      f"{100 * np.mean(tot_d > 10):.2f}%")

# One trajectory in detail.
busiest = int(np.argmax(tot_d))
changes = ens_d.change_times[busiest]
final = IonState(int(ens_d.final_states()[busiest]))
print(f"\nbusiest initially-dark trajectory: total={tot_d[busiest]}, "
      f"changes at {np.round(changes[~np.isnan(changes)], 3)} ms, "
      f"final state {final.label}")

small = SimConfig(n_trials=5, t_b=3.0, seed=7, params=DEFAULT_PARAMS)
write_ensemble_csv("counts_demo.csv",
                   [simulate_ensemble(small, IonState.BRIGHT),
                    simulate_ensemble(small, IonState.DARK)],
                   comments=("seed: 7",))
print("\nwrote counts_demo.csv (5 trials of each preparation)")
