"""ionread benchmark: one run of one workload.

    python3 bench/run.py --workload sweep_prefix --seed 1 --seconds 20 --trace 0

Run from any directory; the program under test is the ``src/`` next to
this ``bench/`` directory, never an installed copy.  ``--trace 0`` reports
the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` makes a
separate traced run and reports the per-layer metrics.  The last line of
standard output is the result object; the line before it is the run record
(provenance, per-op digests, failures, tail latency), which is also kept
under ``.bench_run/records/``.  Metric definitions are in ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import time
import traceback

from statistics import median

from common import (ROOT, SETUP_CODE, SRC, WORK, run_child, self_peak_rss_mb,
                    tail_percentile)

SETUP_REPS = 5
SPEEDUP_REPS = 3


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def declared_metrics(trace: int) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


# ---------------------------------------------------------------------------
# The op loop


class OpLog:
    """Times, failures and digests of every op a run attempted."""

    def __init__(self, workload):
        self.workload = workload
        self.seconds: list[float] = []     # timed ops only
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[str, int] = {}
        self.reference = None              # digest of the first good op
        self.determinism: list[str] | None = None
        self.child_rss_mb = 0.0
        self.first_walls: dict | None = None

    def run(self, index, *, fresh, timed=True, tracer=None):
        """Run, check and release one op; returns its wall time."""
        wl = self.workload
        if tracer is not None:
            tracer.begin_op(index)
        start = time.perf_counter()
        try:
            out = wl.op(index, fresh=fresh)
            error = None
        except Exception as exc:              # a failed op, not a failed run
            out, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.end_op()
        self.attempted += 1
        if timed:
            self.seconds.append(elapsed)
        problems = [error] if error else []
        if out is not None:
            try:
                problems += wl.check(out)
                digest = wl.digest(out)
            except Exception as exc:
                problems.append(f"output check raised {type(exc).__name__}: {exc}")
                digest = None
            if digest is not None:
                key = json.dumps(digest, sort_keys=True)
                self.digests[key] = self.digests.get(key, 0) + 1
                if self.reference is None:
                    self.reference = key
                elif key != self.reference:
                    problems.append("output digest differs from the first op "
                                    "of this run on the same inputs")
            if fresh:
                self.child_rss_mb = max(self.child_rss_mb, out["max_rss_mb"])
                if self.first_walls is None and not problems:
                    self.first_walls = out["walls"]
            if self.determinism is None and not problems and wl.fresh_process:
                self.determinism = wl.determinism(out)
            wl.release(out)
        if problems:
            self.failures.append(f"op {index}: " + "; ".join(problems))
        return elapsed

    def loop(self, first_index, seconds, *, fresh, tracer=None):
        """Ops back to back until their summed time reaches ``seconds``;
        checks run between ops with the clock stopped."""
        index, spent, walls = first_index, 0.0, []
        while spent < seconds or not walls:
            wall = self.run(index, fresh=fresh, tracer=tracer)
            walls.append(wall)
            spent += wall
            index += 1
        return walls

    def finish_determinism(self):
        if self.determinism is None:
            if self.workload.fresh_process:
                self.determinism = ["no successful op left outputs to check"]
            else:
                self.determinism = self.workload.determinism(None)

    @property
    def failed(self) -> int:
        return len(self.failures)


# ---------------------------------------------------------------------------
# Untraced run: end-to-end metrics


def measure_setup(wl) -> list:
    """Wall time of fresh interpreters that import ionread and build the
    workload's observation tables; one untimed warm-up first."""
    docs = json.dumps([p.to_json_dict() for p in wl.setup_params])
    argv = [sys.executable, "-c", SETUP_CODE, docs]
    log = wl.work_dir / "setup.log"
    times = []
    for i in range(SETUP_REPS + 1):
        result = run_child(argv, log_path=log, timeout_s=60)
        if result.exit_code != 0:
            raise RuntimeError(f"set-up process exited {result.exit_code}: "
                               + log.read_text(errors="replace")[-500:])
        if i:
            times.append(result.wall_s)
    return times


def run_untraced(wl, seconds):
    setup = measure_setup(wl)
    log = OpLog(wl)
    if not wl.fresh_process:
        log.run(0, fresh=False, timed=False)              # warm-up
    log.loop(1, seconds, fresh=wl.fresh_process)
    rss = log.child_rss_mb if wl.fresh_process else self_peak_rss_mb()
    log.finish_determinism()
    total = sum(log.seconds)
    metrics = {
        "setup_s": (median(setup), "s"),
        "op_p50_s": (median(log.seconds), "s"),
        "trials_per_s": (wl.trials_per_op * len(log.seconds) / total, "1/s"),
        "peak_rss_mb": (rss, "MB"),
    }
    tail = tail_percentile(log.seconds)
    extra = {
        "samples": {"setup_s": len(setup), "op_p50_s": len(log.seconds)},
        "setup_samples_s": setup,
        "op_samples_s": log.seconds,
        "op_tail_s": None if tail is None else
        {"percentile": tail[0], "value": tail[1], "ops": len(log.seconds)},
        "failed_frac": log.failed / log.attempted,
    }
    return log, metrics, extra


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics


def _total(name):
    return name, lambda t: t.total(name)


def _calls(name):
    return name, lambda t: t.calls(name)


def _count(name, key):
    return name, lambda t: t.count(name, key)


# metric -> (unit, span name it needs, value of one traced op)
SPAN_METRICS = {
    "trajectory.simulate_s": ("s", *_total("trajectory.simulate")),
    "trajectory.simulate_calls": ("count", *_calls("trajectory.simulate")),
    "trajectory.trial_bins": ("count", *_count("trajectory.simulate", "trial_bins")),
    "trajectory.state_changes": ("count", *_count("trajectory.simulate", "state_changes")),
    "trajectory.dwell_s": ("s", *_total("trajectory.dwell")),
    "trajectory.csv_write_s": ("s", *_total("trajectory.csv_write")),
    "trajectory.csv_read_s": ("s", *_total("trajectory.csv_read")),
    "trajectory.csv_bytes": ("bytes", *_count("trajectory.csv_write", "bytes")),
    "classifiers.general_s": ("s", *_total("classifiers.general")),
    "classifiers.general_calls": ("count", *_calls("classifiers.general")),
    "classifiers.general_trial_bins": ("count", *_count("classifiers.general", "trial_bins")),
    "classifiers.simple_s": ("s", *_total("classifiers.simple")),
    "classifiers.simple_trial_bins": ("count", *_count("classifiers.simple", "trial_bins")),
    "classifiers.transfer_s": ("s", *_total("classifiers.transfer")),
    "harness.evaluate_prefixes_self_s": (
        "s", "harness.evaluate_prefixes",
        lambda t: t.self_time("harness.evaluate_prefixes")),
    "harness.report_rows": ("count", *_count("harness.report_rows", "calls")),
    "harness.decisions_for_calls": ("count", *_calls("harness.decisions_for")),
    "harness.csv_write_s": ("s", *_total("harness.csv_write")),
    "estimation.fit_s": ("s", *_total("estimation.fit")),
    "estimation.fit_evals": ("count", *_count("estimation.fit", "evals")),
    "trace.top_span_share": ("ratio", None, lambda t: t.top_level_share()),
}

CLI_COMMAND_METRICS = {"cli.simulate_s": "simulate", "cli.classify_s": "classify",
                       "cli.fit_s": "fit", "cli.sweep_s": "sweep"}


def _clamped(tables):
    if not all(hasattr(t, "clamped_lookups") for t in tables):
        return None
    return sum(t.clamped_lookups for t in tables)


def _time(fn, reps=1):
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return median(times)


def run_traced(wl, seconds):
    import ionread
    from ionread import trajectory
    from ionread.photon_model import IonState
    from tracing import OpTrace, Tracer, installed

    metrics, absent = {}, []
    builds = [(_time(lambda: ionread.build_observation_table(p), 3),
               ionread.build_observation_table(p).n_max) for p in wl.setup_params]
    metrics["photon_model.table_build_s"] = (sum(b for b, _ in builds), "s")
    metrics["photon_model.table_n_max"] = (max(n for _, n in builds), "count")

    log = OpLog(wl)
    index = 0
    if wl.fresh_process:
        # One op as users run it, for the per-command walls.
        log.run(index, fresh=True, timed=False)
        index += 1
    walls = log.first_walls or {}
    for metric, command in CLI_COMMAND_METRICS.items():
        metrics[metric] = (walls.get(command, 0.0), "s")

    # In-process: warm-up, untraced ops, then traced ops of equal budget.
    # A cli_session op is long enough to need no warm-up of its own.
    if not wl.fresh_process:
        log.run(index, fresh=False, timed=False)
        index += 1
    untraced = log.loop(index, seconds / 2, fresh=False)
    index += len(untraced)
    tables = wl.tables()
    clamped_before = _clamped(tables)
    tracer = Tracer()
    with installed(tracer):
        traced = log.loop(index, seconds / 2, fresh=False, tracer=tracer)
    if clamped_before is None:
        absent.append("photon_model.clamped_counts")
    else:
        metrics["photon_model.clamped_counts"] = (_clamped(tables) - clamped_before, "count")
    ops = [OpTrace(tracer, index + i, wall) for i, wall in enumerate(traced)]
    for name, (unit, span, value) in SPAN_METRICS.items():
        if span is not None and span not in tracer.present:
            absent.append(name)
            continue
        metrics[name] = (median([value(op) for op in ops]), unit)
    metrics["trace.overhead_s"] = (median(traced) - median(untraced), "s")

    cfg = wl.sim_config()

    def simulate(threads):
        return lambda: [trajectory.simulate_ensemble(cfg, s, threads=threads)
                        for s in (IonState.BRIGHT, IonState.DARK)]

    pairs = [(_time(simulate(1)), _time(simulate(2))) for _ in range(SPEEDUP_REPS)]
    metrics["trajectory.thread_speedup"] = (
        median([one for one, _ in pairs]) / median([two for _, two in pairs]), "ratio")
    log.finish_determinism()
    extra = {
        "samples": {"traced_ops": len(traced), "untraced_ops": len(untraced)},
        "untraced_op_p50_s": median(untraced),
        "traced_op_p50_s": median(traced),
        "absent_metrics": absent,
        "failed_frac": log.failed / log.attempted,
    }
    return log, metrics, extra


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ionread" / "__init__.py").is_file():
        print(f"bench: no ionread source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ionread

    if os.path.dirname(os.path.abspath(ionread.__file__)) != str(SRC / "ionread"):
        print(f"bench: imported ionread from {ionread.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    from common import provenance

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    declared = declared_metrics(args.trace)

    work_dir = WORK / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, work_dir)
        runner = run_traced if args.trace else run_untraced
        log, metrics, extra = runner(wl, args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    reported = {name: unit for name, (_, unit) in metrics.items()}
    missing = set(declared) - set(reported) - set(extra.get("absent_metrics", ()))
    mismatched = {n for n in reported if n in declared and declared[n] != reported[n]}
    if missing or mismatched or set(reported) - set(declared):
        print(f"bench: metrics disagree with BENCHMARK.json: missing {sorted(missing)}, "
              f"unit mismatch {sorted(mismatched)}, undeclared "
              f"{sorted(set(reported) - set(declared))}", file=sys.stderr)
        return 2

    correct = log.failed == 0 and not log.determinism
    record = {
        "provenance": provenance(args.workload, args.seed),
        "trace": args.trace,
        "seconds": args.seconds,
        "attempted": log.attempted,
        "failed": log.failed,
        "failures": log.failures[:20],
        "determinism": log.determinism or "ok",
        "digests": [{"ops": n, **json.loads(k)} for k, n in log.digests.items()],
        **extra,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (records / f"{work_dir.name}-{stamp}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"run_record": record}))
    print(json.dumps({"correct": correct, "attempted": log.attempted,
                      "failed": log.failed, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    # SIGTERM unwinds like an exception, so the running child is killed and
    # reaped and the work directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
