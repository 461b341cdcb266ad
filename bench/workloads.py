"""The three benchmark workloads and the checks on their outputs.

Each workload builds its inputs from the benchmark seed alone and hands the
program nothing else: in-process workloads get a spec or a simulation
config, ``cli_session`` gets two JSON config documents and the CSVs the
program writes itself.  One op is one repetition of the workload's whole
experiment on the same inputs, so every op of a run must produce the same
output digest.  Why each workload exists is recorded in ``README.md``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np

import ionread
from ionread import classifiers, estimation, harness, trajectory
from ionread import cli as ionread_cli
from ionread.photon_model import DEFAULT_PARAMS, IonState, RateParams

from common import cli_argv, run_child, sha256_bytes

BRIGHT, DARK = IonState.BRIGHT, IonState.DARK

# Acceptance-suite targets in percentage points, (quoted value, quoted
# window); a value passes within max(window, 3 binomial standard errors).
C1_THRESHOLD_MIN = (2.1, 0.3)
C2_GENERAL_PLATEAU = (1.85, 0.3)
C6_PULSE_MIN = (1.0, 0.3)

# Lifetime tolerances: six times the seed-to-seed spread of the
# long_window fit (tau_B 1.8 %, tau_D 5.8 % over 40 seeds at 4096 trials
# per state); the cli_session fit spreads less.
TAU_B_REL = 0.12
TAU_D_REL = 0.35

PULSE_PARAMS = RateParams(R_B=16.0, R_D=0.3, tau_B=4.9, tau_D=56.0, t_s=1.0 / 30.0)
PULSE_BINS = (1, 2, 3, 4, 6, 9, 12, 15, 18, 24, 30)

CHUNK = getattr(trajectory, "CHUNK", 4096)


def _headline(label, epsilon, stderr, target):
    value, window = target
    tol = max(window, 3.0 * 100.0 * stderr)
    dev = abs(100.0 * epsilon - value)
    if math.isfinite(dev) and dev <= tol:
        return []
    return [f"{label} {100.0 * epsilon:.3f}% is {dev:.3f} pp from {value}% "
            f"(tolerance {tol:.3f} pp)"]


def _lifetimes(label, tau_b, tau_d, params):
    problems = []
    for name, got, truth, rel in (("tau_B", tau_b, params.tau_B, TAU_B_REL),
                                  ("tau_D", tau_d, params.tau_D, TAU_D_REL)):
        if not abs(got / truth - 1.0) <= rel:
            problems.append(f"{label} {name} {got:.3f} ms is more than "
                            f"{rel:.0%} from {truth} ms")
    return problems


def _ensembles_equal(cfg, counts_by_state):
    """Seed -> ensemble contract: an in-process single-thread simulation
    reproduces ``counts_by_state`` bit for bit."""
    problems = []
    for state, counts in counts_by_state.items():
        ref = trajectory.simulate_ensemble(cfg, state, threads=1).counts
        if ref.shape != counts.shape or not np.array_equal(ref, counts):
            problems.append(f"{state.name} ensemble differs from the "
                            f"single-thread simulation at seed {cfg.seed}")
    return problems


class Workload:
    name = ""
    fresh_process = False        # ops run as separate ionread processes

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir

    #: Trials simulated or ingested by one op.
    trials_per_op = 0
    #: Parameter sets whose observation tables a process of this workload
    #: builds before its first classification.
    setup_params: tuple = (DEFAULT_PARAMS,)

    def op(self, index: int, *, fresh: bool):
        raise NotImplementedError

    def check(self, out) -> list:
        raise NotImplementedError

    def digest(self, out) -> dict:
        raise NotImplementedError

    def release(self, out) -> None:
        """Drop what an op left behind once it has been checked."""

    def sim_config(self):
        """The simulation config timed for ``trajectory.thread_speedup``."""
        raise NotImplementedError

    def determinism(self, first_out) -> list:
        """Seed -> ensemble contract, checked once per run on the output of
        the first successful op: here, more threads and more trials leave
        every trial as the single-thread simulation draws it."""
        cfg = self.sim_config()
        n = cfg.n_trials
        wider = replace(cfg, n_trials=n + CHUNK // 2)
        counts = {s: trajectory.simulate_ensemble(wider, s, threads=2).counts[:n]
                  for s in (BRIGHT, DARK)}
        return _ensembles_equal(cfg, counts)

    def tables(self) -> list:
        """Observation tables the ops classify with (for clamp tallies)."""
        return [harness.observation_table_for(p) for p in self.setup_params]


class SweepPrefix(Workload):
    name = "sweep_prefix"
    N_TRIALS = 16384
    T_B = tuple(round(0.1 * k, 10) for k in range(1, 31))
    CLASSIFIERS = (
        {"method": "threshold", "n_c": "optimize"},
        {"method": "double_threshold", "n_D": 0, "n_B": "optimize"},
        {"method": "simple", "decaying": "bright"},
        {"method": "general"},
    )
    trials_per_op = 2 * N_TRIALS

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        self.spec = harness.SweepSpec(
            t_b_values=self.T_B, n_trials=self.N_TRIALS, seed=seed,
            params=DEFAULT_PARAMS, classifiers=self.CLASSIFIERS)

    def op(self, index, *, fresh):
        return harness.sweep(self.spec, threads=1)

    def check(self, rows):
        expected = len(self.CLASSIFIERS) * len(self.T_B)
        if len(rows) != expected:
            return [f"{len(rows)} sweep rows, expected {expected}"]
        problems = [f"undefined row {r.classifier} t_b={r.t_b}"
                    for r in rows if not r.defined]
        threshold = [r for r in rows if r.classifier == "threshold"]
        general = [r for r in rows if r.classifier == "generalized_time_resolved"
                   and 1.0 <= r.t_b <= 3.0]
        if len(threshold) != len(self.T_B) or not general:
            return problems + ["threshold or generalized rows missing"]
        best_t = min(threshold, key=lambda r: r.epsilon)
        best_g = min(general, key=lambda r: r.epsilon)
        problems += _headline("C1 threshold minimum", best_t.epsilon,
                              best_t.stderr, C1_THRESHOLD_MIN)
        problems += _headline("C2 generalized minimum on [1, 3] ms",
                              best_g.epsilon, best_g.stderr, C2_GENERAL_PLATEAU)
        return problems

    def digest(self, rows):
        doc = json.dumps([r.to_json_dict() for r in rows], sort_keys=True)
        return {"sweep_rows": sha256_bytes(doc.encode())}

    def sim_config(self):
        return trajectory.SimConfig(n_trials=self.N_TRIALS, t_b=self.T_B[-1],
                                    seed=self.seed, params=DEFAULT_PARAMS)


class LongWindow(Workload):
    name = "long_window"
    N_TRIALS = CHUNK                 # exactly one simulation chunk
    T_B = 30.0
    trials_per_op = 2 * N_TRIALS

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        self.config = trajectory.SimConfig(n_trials=self.N_TRIALS, t_b=self.T_B,
                                           seed=seed, params=DEFAULT_PARAMS)
        self.table = ionread.build_observation_table(DEFAULT_PARAMS)

    def op(self, index, *, fresh):
        cfg = self.config
        ensembles = [trajectory.simulate_ensemble(cfg, s, threads=1)
                     for s in (BRIGHT, DARK)]
        counts = np.vstack([e.counts for e in ensembles])
        initials = np.repeat([int(BRIGHT), int(DARK)], cfg.n_trials)
        log_b, log_d = classifiers.general_loglik(counts, self.table)
        series = estimation.mean_count_series(initials, counts, cfg.params.t_s)
        fit = estimation.fit_decay_curves(series[BRIGHT], series[DARK])
        return {"shape": counts.shape, "log_b": log_b, "log_d": log_d,
                "fit": fit, "lifetimes": estimation.derive_lifetimes(fit)}

    def check(self, out):
        rows = 2 * self.N_TRIALS
        expected = (rows, self.config.n_bins)
        if out["shape"] != expected:
            return [f"count array {out['shape']}, expected {expected}"]
        problems = []
        for name in ("log_b", "log_d"):
            logs = out[name]
            if logs.shape != (rows,) or not np.all(np.isfinite(logs)):
                problems.append(f"{name} is not {rows} finite values")
        if not out["fit"].converged or out["fit"].degenerate:
            problems.append("decay fit did not converge to a proper fit")
        lt = out["lifetimes"]
        return problems + _lifetimes("long_window", lt.tau_B, lt.tau_D,
                                     DEFAULT_PARAMS)

    def digest(self, out):
        decisions = classifiers.decide_from_logs(out["log_b"], out["log_d"])
        fit = json.dumps(out["fit"].to_json_dict(), sort_keys=True)
        return {"decisions": sha256_bytes(decisions.tobytes()),
                "fit": sha256_bytes(fit.encode())}

    def sim_config(self):
        return self.config

    def tables(self):
        return [self.table]


class CliSession(Workload):
    name = "cli_session"
    fresh_process = True
    N_TRIALS = 20000
    T_B = 3.0
    # 4096 pulse trials per state put the C6 check's false-failure rate
    # near 1 % per seed (model minimum 1.12 %, row stderr 0.13 pp); at
    # 32768 the row stderr is 0.045 pp and a false failure is a 4-sigma
    # event.
    PULSE_TRIALS = 32768
    EPSILON_PI = 0.02
    COMMANDS = (("simulate", "session.json", ("--threads", "2")),
                ("classify", "session.json", ()),
                ("fit", "session.json", ()),
                ("sweep", "pulse.json", ()))
    # simulate + classify + fit each carry both ensembles; the pulse sweep
    # simulates two windows per state at every t_b.
    trials_per_op = 3 * 2 * N_TRIALS + len(PULSE_BINS) * 2 * 2 * PULSE_TRIALS
    setup_params = (DEFAULT_PARAMS, PULSE_PARAMS)

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        session = {
            "format": "ionread_config", "version": 1,
            "params": DEFAULT_PARAMS.to_json_dict(),
            "simulate": {"t_b_ms": self.T_B, "n_trials": self.N_TRIALS,
                         "seed": seed, "initial": "both"},
            "classify": {"input": "counts.csv",
                         "classifier": {"method": "general"}},
            "fit": {"input": "counts.csv"},
        }
        pulse = {
            "format": "ionread_config", "version": 1,
            "params": PULSE_PARAMS.to_json_dict(),
            "sweep": {"t_b_ms": [m * PULSE_PARAMS.t_s for m in PULSE_BINS],
                      "n_trials": self.PULSE_TRIALS, "seed": seed,
                      "pi_pulse": {"epsilon_pi": self.EPSILON_PI,
                                   "detector": {"method": "general"}}},
        }
        for name, doc in (("session.json", session), ("pulse.json", pulse)):
            (work_dir / name).write_text(json.dumps(doc, indent=1))

    def op(self, index, *, fresh):
        out = self.work_dir / f"op{index}"
        out.mkdir()
        walls, rss = {}, 0.0
        for command, config, extra in self.COMMANDS:
            argv = [command, "--config", str(self.work_dir / config),
                    "--out-dir", str(out), *extra]
            log = out / f"{command}.log"
            if fresh:
                result = run_child(cli_argv(*argv), log_path=log, timeout_s=60)
                code = result.exit_code
                walls[command] = result.wall_s
                rss = max(rss, result.max_rss_mb)
            else:
                with contextlib.redirect_stdout(io.StringIO()) as captured:
                    code = ionread_cli.main(argv)
                log.write_text(captured.getvalue())
            if code != 0:
                tail = log.read_text(errors="replace").strip().splitlines()[-3:]
                raise RuntimeError(f"ionread {command} exited {code}: {' | '.join(tail)}")
        return {"dir": out, "walls": walls, "max_rss_mb": rss}

    # -- reading the artifacts without ionread's own readers ---------------

    @staticmethod
    def _csv(path: Path):
        with open(path) as fh:
            lines = [line.rstrip("\n") for line in fh if not line.startswith("#")]
        return lines[0].split(","), [line.split(",") for line in lines[1:]]

    def _counts(self, path: Path):
        header, rows = self._csv(path)
        m = round(self.T_B / DEFAULT_PARAMS.t_s)
        if header != ["trial", "initial"] + [f"n_{k}" for k in range(1, m + 1)]:
            raise ValueError(f"{path.name}: unexpected header")
        initials = [r[1] for r in rows]
        counts = np.array([r[2:] for r in rows], dtype=np.int64)
        return initials, counts

    def check(self, out):
        d = out["dir"]
        n = self.N_TRIALS
        problems = []
        initials, counts = self._counts(d / "counts.csv")
        if initials != ["B"] * n + ["D"] * n or counts.min() < 0:
            problems.append(f"counts.csv does not hold {n} bright then {n} "
                            "dark rows of non-negative counts")

        header, rows = self._csv(d / "decisions.csv")
        if header != ["trial", "initial", "decision", "p_B", "p_D"] or len(rows) != 2 * n:
            return problems + ["decisions.csv header or row count is wrong"]
        decided = [r[2] for r in rows]
        logs = np.array([r[3:5] for r in rows], dtype=float)
        if set(decided) - {"B", "D"} or not np.all(np.isfinite(logs)):
            problems.append("decisions.csv holds labels other than B/D or "
                            "non-finite likelihoods")
        wrong_b = sum(1 for r in rows[:n] if r[2] == "D")
        wrong_d = sum(1 for r in rows[n:] if r[2] == "B")
        header, report = self._csv(d / "report.csv")
        if len(report) != 1:
            return problems + ["report.csv must hold one row"]
        row = dict(zip(header, report[0]))
        epsilon = 0.5 * (wrong_b + wrong_d) / n
        if row["classifier"] != "generalized_time_resolved" or not math.isclose(
                float(row["epsilon"]), epsilon, rel_tol=1e-5):
            problems.append(f"report.csv epsilon {row['epsilon']} disagrees "
                            f"with decisions.csv ({epsilon:.6g})")

        fit = json.loads((d / "fit.json").read_text())
        if not fit["fit"]["converged"] or "lifetimes" not in fit:
            problems.append("fit.json holds no converged, proper fit")
        else:
            lt = fit["lifetimes"]
            problems += _lifetimes("fit.json", lt["tau_B_ms"], lt["tau_D_ms"],
                                   DEFAULT_PARAMS)

        header, sweep = self._csv(d / "sweep.csv")
        sweep = [dict(zip(header, r)) for r in sweep]
        eps = [float(r["epsilon"]) for r in sweep]
        if len(sweep) != len(PULSE_BINS) or not all(map(math.isfinite, eps)):
            return problems + [f"sweep.csv must hold {len(PULSE_BINS)} defined rows"]
        best = min(sweep, key=lambda r: float(r["epsilon"]))
        problems += _headline("C6 pulse-pair minimum", float(best["epsilon"]),
                              float(best["stderr"]), C6_PULSE_MIN)
        return problems

    def digest(self, out):
        d = out["dir"]
        fit = json.loads((d / "fit.json").read_text())["fit"]
        return {"counts_csv": sha256_bytes((d / "counts.csv").read_bytes()),
                "decisions_csv": sha256_bytes((d / "decisions.csv").read_bytes()),
                "fit": sha256_bytes(json.dumps(fit, sort_keys=True).encode()),
                "sweep_csv": sha256_bytes((d / "sweep.csv").read_bytes())}

    def release(self, out):
        shutil.rmtree(out["dir"], ignore_errors=True)

    def sim_config(self):
        return trajectory.SimConfig(n_trials=self.N_TRIALS, t_b=self.T_B,
                                    seed=self.seed, params=DEFAULT_PARAMS)

    def determinism(self, first_out):
        """counts.csv written with --threads 2 equals the in-process
        single-thread ensembles at the same seed."""
        initials, counts = self._counts(first_out["dir"] / "counts.csv")
        n = self.N_TRIALS
        return _ensembles_equal(self.sim_config(),
                                {BRIGHT: counts[:n], DARK: counts[n:]})


WORKLOADS = {w.name: w for w in (SweepPrefix, LongWindow, CliSession)}
