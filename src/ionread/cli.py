"""Command-line entry point.

Five subcommands share one JSON configuration document and a small set of
flags; each emits plot-ready CSV (or a single JSON document) into the output
directory, stamped with the configuration echo and the effective seed so any
artifact can be regenerated from its own header.

    simulate   draw photon-count ensembles, emit counts.csv
    classify   ingest a counts CSV, emit per-trial decisions + error report
    fit        ingest a counts CSV, fit decay curves, emit fit.json
    sweep      evaluate classifiers over t_b (and efficiency factors or a
               detection-pulse-detection composition), emit sweep.csv
    compare    repeated three-way method comparison, emit compare.csv + summary

Exit codes: 0 success, 2 configuration error, 3 data error.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path

from . import classifiers as cl
from . import estimation as est
from .harness import (
    ConfigError,
    _require,
    _section,
    compare_methods,
    config_int,
    config_number,
    decisions_to_csv,
    load_config,
    pi_pulse_sweep,
    rate_params_from_config,
    report_rows_to_csv,
    resolve_classifier,
    sweep,
    sweep_spec_from_config,
)
from .photon_model import IonState
from .trajectory import (
    DataFormatError,
    SimConfig,
    _check_seed,
    _labels,
    read_counts_csv,
    simulate_ensemble,
    write_change_times_csv,
    write_ensemble_csv,
)


def _echo_comments(cfg: dict, seed: int) -> tuple:
    return (f"config: {json.dumps(cfg, separators=(',', ':'), sort_keys=True)}",
            f"seed: {seed}")


def _write_json(path: Path, command: str, cfg: dict, seed: int, payload: dict):
    doc = {"format": "ionread_report", "version": 1, "command": command,
           "seed": seed, "config": cfg, **payload}
    path.write_text(json.dumps(doc, indent=2) + "\n")


def _input_path(section: dict, out_dir: Path) -> Path:
    src = section.get("input")
    _require(isinstance(src, str) and src, "section needs an 'input' CSV path")
    return out_dir / src  # an absolute path replaces out_dir


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_simulate(cfg: dict, args) -> int:
    section = _section(cfg, "simulate", ("t_b_ms", "n_trials", "seed", "initial", "change_times"))
    params = rate_params_from_config(cfg)
    try:
        t_b = float(config_number(section["t_b_ms"], "t_b_ms"))
        n_trials = config_int(section["n_trials"], "n_trials")
        seed = args.seed if args.seed is not None else config_int(section["seed"], "seed")
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid simulate section: {exc}") from None
    initial = section.get("initial", "both")
    _require(initial in ("bright", "dark", "both"),
             "initial must be 'bright', 'dark' or 'both'")
    _require(type(section.get("change_times", False)) is bool, "change_times must be true or false")
    config = SimConfig(n_trials=n_trials, t_b=t_b, seed=seed, params=params)
    states = ((IonState.BRIGHT, IonState.DARK) if initial == "both"
              else (IonState.from_label(initial[0].upper()),))
    ensembles = [simulate_ensemble(config, s, threads=args.threads)
                 for s in states]
    comments = _echo_comments(cfg, seed)
    if args.format == "csv":
        write_ensemble_csv(args.out_dir / "counts.csv", ensembles, comments=comments)
        emitted = ["counts.csv"]
        if section.get("change_times", False):
            write_change_times_csv(args.out_dir / "change_times.csv", ensembles)
            emitted.append("change_times.csv")
    else:
        rows = [{"trial": i, "initial": label, "counts": counts} for ens in ensembles
                for i, label, counts in zip(range(len(ens)), _labels(ens.initial),
                                            ens.counts.tolist())]
        _write_json(args.out_dir / "counts.json", "simulate", cfg, seed,
                    {"t_b_ms": t_b, "rows": rows})
        emitted = ["counts.json"]
    for name in emitted:
        print(f"wrote {args.out_dir / name}")
    return 0


def _cmd_classify(cfg: dict, args) -> int:
    section = _section(cfg, "classify", ("input", "classifier"))
    params = rate_params_from_config(cfg)
    clf = resolve_classifier(section.get("classifier", {"method": "general"})).fixed()
    trial_ids, initials, counts = read_counts_csv(_input_path(section, args.out_dir))
    t_b = counts.shape[1] * params.t_s
    seed = args.seed or 0
    logs = clf.likelihoods(counts, params)
    decisions = clf.decide(counts, params, logs)
    comments = _echo_comments(cfg, seed)
    per_state = [decisions[initials == int(s)] for s in (IonState.BRIGHT, IonState.DARK)]
    report = clf.report(*per_state, t_b=t_b) if all(d.size for d in per_state) else None
    if args.format == "csv":
        decisions_to_csv(args.out_dir / "decisions.csv", trial_ids, initials,
                         decisions, *(logs or (None, None)), comments=comments)
        emitted = ["decisions.csv"]
        if report is not None:
            report_rows_to_csv([report], args.out_dir / "report.csv",
                               comments=comments)
            emitted.append("report.csv")
    else:
        columns = {"trial": trial_ids.tolist(), "initial": _labels(initials),
                   "decision": _labels(decisions, cl.Decision)}
        if logs is not None:
            columns.update(log_p_B=logs[0].tolist(), log_p_D=logs[1].tolist())
        rows = [dict(zip(columns, values)) for values in zip(*columns.values())]
        payload = {"classifier": clf.label, "detail": clf.detail, "rows": rows}
        if report is not None:
            payload["report"] = report.to_json_dict()
        _write_json(args.out_dir / "decisions.json", "classify", cfg, seed, payload)
        emitted = ["decisions.json"]
    for name in emitted:
        print(f"wrote {args.out_dir / name}")
    return 0


def _cmd_fit(cfg: dict, args) -> int:
    section = _section(cfg, "fit", ("input",))
    params = rate_params_from_config(cfg)
    _, initials, counts = read_counts_csv(_input_path(section, args.out_dir))
    series = est.mean_count_series(initials, counts, params.t_s)
    _require(IonState.BRIGHT in series and IonState.DARK in series,
             "fit input must contain both initially bright and dark trials")
    fit = est.fit_decay_curves(series[IonState.BRIGHT], series[IonState.DARK])
    report = est.fit_report(fit)
    report["config"] = cfg
    report["seed"] = args.seed or 0
    out = args.out_dir / "fit.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


def _cmd_sweep(cfg: dict, args) -> int:
    spec = sweep_spec_from_config(cfg, seed=args.seed)
    if cfg["sweep"].get("pi_pulse") is not None:
        pulse = _section(cfg["sweep"], "pi_pulse", ("epsilon_pi", "detector"))
        try:
            epsilon_pi = float(config_number(pulse["epsilon_pi"], "epsilon_pi"))
            detector = pulse["detector"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"invalid pi_pulse section: {exc}") from None
        rows = pi_pulse_sweep(spec, detector, epsilon_pi, threads=args.threads)
    else:
        rows = sweep(spec, threads=args.threads)
    comments = _echo_comments(cfg, spec.seed)
    if args.format == "csv":
        out = args.out_dir / "sweep.csv"
        report_rows_to_csv(rows, out, comments=comments)
    else:
        out = args.out_dir / "sweep.json"
        _write_json(out, "sweep", cfg, spec.seed,
                    {"rows": [row.to_json_dict() for row in rows]})
    print(f"wrote {out}")
    return 0


def _cmd_compare(cfg: dict, args) -> int:
    section = _section(cfg, "compare", ("repetitions",))
    spec = sweep_spec_from_config(cfg, seed=args.seed)
    repetitions = config_int(section.get("repetitions", 1), "repetitions")
    rows, summary = compare_methods(spec, repetitions=repetitions,
                                    threads=args.threads)
    comments = _echo_comments(cfg, spec.seed)
    if args.format == "csv":
        report_rows_to_csv(rows, args.out_dir / "compare.csv", comments=comments)
        _write_json(args.out_dir / "compare_summary.json", "compare", cfg,
                    spec.seed, {"repetitions": repetitions, "summary": summary})
        emitted = ["compare.csv", "compare_summary.json"]
    else:
        _write_json(args.out_dir / "compare.json", "compare", cfg, spec.seed,
                    {"repetitions": repetitions, "summary": summary,
                     "rows": [row.to_json_dict() for row in rows]})
        emitted = ["compare.json"]
    for name in emitted:
        print(f"wrote {args.out_dir / name}")
    for label, stats in summary.items():
        print(f"{label}: min over t_b = {stats['mean']:.4%} "
              f"(std {stats['std']:.4%}, n={repetitions})")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "classify": _cmd_classify,
    "fit": _cmd_fit,
    "sweep": _cmd_sweep,
    "compare": _cmd_compare,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ionread",
        description="Simulate and benchmark fluorescence-readout "
                    "state discrimination.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("simulate", "draw photon-count ensembles and write counts.csv"),
        ("classify", "classify an ingested counts CSV"),
        ("fit", "fit decay curves to an ingested counts CSV"),
        ("sweep", "evaluate classifiers over the configured t_b grid"),
        ("compare", "repeated threshold/simple/generalized comparison"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON config document")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--out-dir", type=Path, default=Path("."),
                       help="output directory (default: current)")
        p.add_argument("--threads", type=int, default=1,
                       help="worker threads for simulation chunks")
        p.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="artifact format (default: csv)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings(record=True) as caught:   # model mismatch: to stderr
        warnings.simplefilter("always")
        try:
            _require(args.threads >= 1, "threads must be >= 1")
            if args.seed is not None:    # classify and fit only echo it into artifacts
                _check_seed(args.seed)
            cfg = load_config(args.config)
            args.out_dir.mkdir(parents=True, exist_ok=True)
            return _COMMANDS[args.command](cfg, args)
        except (DataFormatError, est.FitConvergenceError) as exc:
            error, status = f"data error: {exc}", 3
        except (ValueError, OSError) as exc:        # ConfigError among them
            error, status = f"config error: {exc}", 2
        finally:
            for caught_warning in caught:
                print(f"warning: {caught_warning.message}", file=sys.stderr)
    print(error, file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
