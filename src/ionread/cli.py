"""Command-line entry point.

Five subcommands share one JSON configuration document and a small set of
flags.  Each computes its artifacts and returns them with its effective seed;
``main`` writes them, plot-ready CSV (or a single JSON document), into the
output directory, stamped with the configuration echo and that seed so any
artifact can be regenerated from its own header, and prints ``wrote <path>``
after each.

    simulate   draw photon-count ensembles, emit counts.csv
    classify   ingest a counts CSV, emit per-trial decisions + error report
    fit        ingest a counts CSV, fit decay curves, emit fit.json (either format)
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
from functools import partial
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
    report_from_decisions,
    report_rows_to_csv,
    resolve_classifier,
    sweep,
    sweep_spec_from_config,
)
from .photon_model import IonState, _check_int, _check_seed
from .trajectory import (
    DataFormatError,
    SimConfig,
    _labels,
    read_counts_csv,
    simulate_ensemble,
    write_change_times_csv,
    write_ensemble_csv,
)


def _write_json(path: Path, command: str, cfg: dict, seed: int, payload: dict):
    doc = {"format": "ionread_report", "version": 1, "command": command,
           "seed": seed, "config": cfg, **payload}
    path.write_text(json.dumps(doc, indent=2) + "\n")


def _input_path(section: dict, out_dir: Path) -> Path:
    src = section.get("input")
    _require(isinstance(src, str) and src, "section needs an 'input' CSV path")
    return out_dir / src  # an absolute path replaces out_dir


# ---------------------------------------------------------------------------
# Subcommands.  Each returns (seed, artifacts) and writes nothing: artifacts
# maps file names, in output order, to a JSON payload for the report envelope
# or to a writer called as ``writer(path, comments=...)``.


def _cmd_simulate(cfg: dict, args):
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
    states = list(IonState) if initial == "both" else [IonState[initial.upper()]]
    ensembles = [simulate_ensemble(config, s, threads=args.threads)
                 for s in states]
    if args.format == "csv":
        artifacts = {"counts.csv": partial(write_ensemble_csv, ensembles=ensembles)}
    else:
        rows = [{"trial": i, "initial": label, "counts": counts} for ens in ensembles
                for i, label, counts in zip(range(len(ens)), _labels(ens.initial),
                                            ens.counts.tolist())]
        artifacts = {"counts.json": {"t_b_ms": t_b, "rows": rows}}
    if section.get("change_times", False):      # the sidecar CSV, in either format
        artifacts["change_times.csv"] = lambda path, comments: write_change_times_csv(
            path, ensembles)
    return seed, artifacts


def _cmd_classify(cfg: dict, args):
    section = _section(cfg, "classify", ("input", "classifier"))
    params = rate_params_from_config(cfg)
    clf = resolve_classifier(section.get("classifier", {"method": "general"})).fixed()
    path = _input_path(section, args.out_dir)
    trial_ids, initials, counts = read_counts_csv(path)
    t_b = counts.shape[1] * params.t_s
    try:
        decisions, logs = clf.score(counts, params)
    except cl._CountTotalError as exc:
        raise DataFormatError(path, None, exc) from None
    per_state = [decisions[initials == int(s)] for s in (IonState.BRIGHT, IonState.DARK)]
    report = (report_from_decisions(*per_state, classifier=clf.label, detail=clf.detail,
                                    t_b=t_b, n_c=clf.n_c)
              if all(d.size for d in per_state) else None)
    if args.format == "csv":
        artifacts = {"decisions.csv": partial(decisions_to_csv, trial_ids=trial_ids,
                                              initials=initials, decisions=decisions, logs=logs)}
        if report is not None:
            artifacts["report.csv"] = partial(report_rows_to_csv, [report])
        return args.seed or 0, artifacts
    columns = {"trial": trial_ids.tolist(), "initial": _labels(initials),
               "decision": _labels(decisions, cl.Decision)}
    if logs is not None:
        columns.update(log_p_B=logs[0].tolist(), log_p_D=logs[1].tolist())
    payload = {"classifier": clf.label, "detail": clf.detail,
               "rows": [dict(zip(columns, values)) for values in zip(*columns.values())]}
    if report is not None:
        payload["report"] = report.to_json_dict()
    return args.seed or 0, {"decisions.json": payload}


def _cmd_fit(cfg: dict, args):
    section = _section(cfg, "fit", ("input",))
    params = rate_params_from_config(cfg)
    path = _input_path(section, args.out_dir)
    _, initials, counts = read_counts_csv(path)
    series = est.mean_count_series(initials, counts, params.t_s)
    if len(series) < 2:
        raise DataFormatError(path, None, "fit needs both initially bright and dark trials")
    if counts.shape[1] < 3:
        raise DataFormatError(path, None, f"fit needs at least 3 bins, got {counts.shape[1]}")
    fit = est.fit_decay_curves(series[IonState.BRIGHT], series[IonState.DARK])
    report = {**est.fit_report(fit), "config": cfg, "seed": args.seed or 0}
    # fit.json is its own document, in either format, with no envelope.
    return report["seed"], {"fit.json": lambda path, comments: path.write_text(
        json.dumps(report, indent=2) + "\n")}


def _cmd_sweep(cfg: dict, args):
    spec = sweep_spec_from_config(cfg, seed=args.seed)
    if cfg["sweep"].get("pi_pulse") is not None:
        _require(not {"classifiers", "efficiency_factors"} & cfg["sweep"].keys(), "a pi_pulse "
                 "sweep takes no 'classifiers' or 'efficiency_factors': its detector runs at r = 1")
        pulse = _section(cfg["sweep"], "pi_pulse", ("epsilon_pi", "detector"))
        try:
            epsilon_pi = float(config_number(pulse["epsilon_pi"], "epsilon_pi"))
            detector = pulse["detector"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"invalid pi_pulse section: {exc}") from None
        rows = pi_pulse_sweep(spec, detector, epsilon_pi, threads=args.threads)
    else:
        rows = sweep(spec, threads=args.threads)
    if args.format == "csv":
        return spec.seed, {"sweep.csv": partial(report_rows_to_csv, rows)}
    return spec.seed, {"sweep.json": {"rows": [row.to_json_dict() for row in rows]}}


def _cmd_compare(cfg: dict, args):
    section = _section(cfg, "compare", ("repetitions",))
    spec = sweep_spec_from_config(cfg, seed=args.seed)
    repetitions = config_int(section.get("repetitions", 1), "repetitions")
    rows, summary = compare_methods(spec, repetitions=repetitions,
                                    threads=args.threads)
    for label, stats in summary.items():
        print(f"{label}: min over t_b = {stats['mean']:.4%} "
              f"(std {stats['std']:.4%}, n={repetitions})")
    payload = {"repetitions": repetitions, "summary": summary}
    if args.format == "csv":
        return spec.seed, {"compare.csv": partial(report_rows_to_csv, rows),
                           "compare_summary.json": payload}
    return spec.seed, {"compare.json": {**payload,
                                        "rows": [row.to_json_dict() for row in rows]}}


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
            _check_int(args.threads, "threads", 1)
            if args.seed is not None:    # classify and fit only echo it into artifacts
                _check_seed(args.seed)
            cfg = load_config(args.config)
            args.out_dir.mkdir(parents=True, exist_ok=True)
            seed, artifacts = _COMMANDS[args.command](cfg, args)
            comments = (f"config: {json.dumps(cfg, separators=(',', ':'), sort_keys=True)}",
                        f"seed: {seed}")
            for name, artifact in artifacts.items():
                path = args.out_dir / name
                if callable(artifact):
                    artifact(path, comments=comments)
                else:
                    _write_json(path, args.command, cfg, seed, artifact)
                print(f"wrote {path}")
            return 0
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
