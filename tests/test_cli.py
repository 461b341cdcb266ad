"""End-to-end CLI tests: artifacts, reproducibility, exit codes."""

import csv
import hashlib
import json
import re
import threading

import numpy as np
import pytest

from ionread import classifiers, estimation, harness, photon_model
from ionread.cli import main
from ionread.harness import evaluate
from ionread.photon_model import DEFAULT_PARAMS, IonState, build_observation_table
from ionread.trajectory import SimConfig, read_counts_csv, simulate_ensemble


def _write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def _config(tmp_path, **extra):
    doc = {
        "format": "ionread_config",
        "version": 1,
        "params": {"tau_B_ms": 4.9, "tau_D_ms": 56.0, "R_B_per_ms": 16.0,
                   "R_D_per_ms": 0.3, "t_s_ms": 0.1},
    }
    doc.update(extra)
    return _write(tmp_path / "config.json", doc)


#: Stands for Infinity or NaN in :func:`_non_finite_cases`' documents.
_NON_FINITE = "<non-finite>"


def _non_finite_cases(sim, sweep):
    """(commands, config sections) for each numeric config field, the field
    set to ``_NON_FINITE``; ``sim`` and ``sweep`` are valid sections."""
    every = ("simulate", "classify", "fit", "sweep", "compare")
    x = _NON_FINITE
    params = {"tau_B_ms": 4.9, "tau_D_ms": 56.0, "R_B_per_ms": 16.0, "R_D_per_ms": 0.3,
              "t_s_ms": 0.1}
    threshold = {"method": "threshold", "n_c": x}
    cases = {"version": (every, {"version": x})}
    cases.update({key: (every, {"params": {**params, key: x}}) for key in params})
    cases.update({f"simulate.{key}": (("simulate",), {"simulate": {**sim, key: x}})
                  for key in sim})
    for name, classifier in (("n_c", threshold),
                             ("n_D", {"method": "double_threshold", "n_D": x, "n_B": 4}),
                             ("n_B", {"method": "double_threshold", "n_D": 0, "n_B": x})):
        cases[name] = (("classify",), {"classify": {"classifier": classifier}})
    for key, value in (("t_b_ms", [0.5, x]), ("n_trials", x), ("seed", x),
                       ("efficiency_factors", [1.0, x])):
        cases[f"sweep.{key}"] = (("sweep", "compare"), {"sweep": {**sweep, key: value}})
    for name, value in (("sweep.n_c", {"classifiers": [threshold]}),
                        ("epsilon_pi", {"pi_pulse": {"epsilon_pi": x,
                                                     "detector": {"method": "general"}}})):
        cases[name] = (("sweep",), {"sweep": {**sweep, **value}})
    cases["repetitions"] = (("compare",), {"compare": {"repetitions": x}})
    return [pytest.param(*case, id=name) for name, case in cases.items()]


def _read_report_csv(path):
    with open(path) as fh:
        rows = list(csv.DictReader(line for line in fh
                                   if not line.startswith("#")))
    return rows


def _artifact_digests(tmp_path):
    """sha256 of every artifact of simulate, classify (general and
    threshold), fit, sweep and compare on one small config.  4,100 trials
    per state put every per-trial file across a CHUNK boundary."""
    sections = {
        "simulate": {"t_b_ms": 0.5, "n_trials": 4100, "seed": 3,
                     "initial": "both", "change_times": True},
        "sweep": {"t_b_ms": [0.3, 0.5], "n_trials": 600, "seed": 7,
                  "classifiers": [{"method": "threshold", "n_c": "optimize"},
                                  {"method": "simple"}, {"method": "general"}],
                  "efficiency_factors": [1.0, 0.5]},
        "compare": {"repetitions": 2},
    }
    out = tmp_path / "out"
    runs = [("simulate", None, "csv"), ("simulate", None, "json")]
    runs += [("classify", {"method": "general"}, fmt) for fmt in ("csv", "json")]
    runs += [("classify", {"method": "threshold", "n_c": 2}, fmt) for fmt in ("csv", "json")]
    runs += [("fit", None, "csv"), ("sweep", None, "csv"), ("compare", None, "csv")]
    digests = {}
    for command, classifier, fmt in runs:
        # The fit section rides only on the fit run: the other artifacts echo
        # their config, and their digests predate it.
        fit = {"fit": {"input": "counts.csv"}} if command == "fit" else {}
        cfg = _config(tmp_path, **sections, **fit,
                      classify={"input": "counts.csv", "classifier": classifier})
        before = set(out.iterdir()) if out.exists() else set()
        assert main([command, "--config", cfg, "--out-dir", str(out),
                     "--format", fmt]) == 0
        for path in sorted(set(out.iterdir()) - before):
            key = f"{classifier['method']}/{path.name}" if classifier else path.name
            digests[key] = hashlib.sha256(path.read_bytes()).hexdigest()
            if command == "classify":
                path.unlink()
    return digests


class TestSimulateClassify:
    def test_pipeline_matches_fused_run(self, tmp_path):
        cfg = _config(
            tmp_path,
            simulate={"t_b_ms": 1.0, "n_trials": 1500, "seed": 11,
                      "initial": "both"},
            classify={"input": "counts.csv",
                      "classifier": {"method": "general"}},
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out-dir", str(out)]) == 0
        assert main(["classify", "--config", cfg, "--out-dir", str(out)]) == 0

        sim = SimConfig(n_trials=1500, t_b=1.0, seed=11, params=DEFAULT_PARAMS)
        fused = evaluate(simulate_ensemble(sim, IonState.BRIGHT),
                         simulate_ensemble(sim, IonState.DARK),
                         {"method": "general"})
        (row,) = _read_report_csv(out / "report.csv")
        # CSV carries 6 significant digits.
        assert float(row["epsilon"]) == pytest.approx(fused.epsilon, rel=1e-5)
        assert int(row["retained_bright"]) == fused.retained_bright
        assert int(row["retained_dark"]) == fused.retained_dark

    def test_counts_csv_round_trip(self, tmp_path):
        cfg = _config(tmp_path, simulate={"t_b_ms": 0.5, "n_trials": 64,
                                          "seed": 2, "initial": "bright"})
        out = tmp_path / "out"
        main(["simulate", "--config", cfg, "--out-dir", str(out)])
        trials, initials, counts = read_counts_csv(out / "counts.csv")
        assert counts.shape == (64, 5)
        assert set(initials.tolist()) == {int(IonState.BRIGHT)}
        head = (out / "counts.csv").read_text().splitlines()[:2]
        assert head[0].startswith("# config: ")
        assert head[1] == "# seed: 2"

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = _config(tmp_path, simulate={"t_b_ms": 0.5, "n_trials": 64,
                                          "seed": 2, "initial": "bright"})
        a, b = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", cfg, "--out-dir", str(a)])
        main(["simulate", "--config", cfg, "--out-dir", str(b),
              "--seed", "3"])
        _, _, counts_a = read_counts_csv(a / "counts.csv")
        _, _, counts_b = read_counts_csv(b / "counts.csv")
        assert not np.array_equal(counts_a, counts_b)

    def test_change_times_sidecar(self, tmp_path):
        cfg = _config(tmp_path, simulate={"t_b_ms": 0.5, "n_trials": 16,
                                          "seed": 2, "initial": "dark",
                                          "change_times": True})
        out = tmp_path / "out"
        main(["simulate", "--config", cfg, "--out-dir", str(out)])
        lines = (out / "change_times.csv").read_text().splitlines()
        assert lines[0] == "trial,initial,change_times_ms"
        assert len(lines) == 17

    def test_change_times_sidecar_in_json_format(self, tmp_path, capsys):
        cfg = _config(tmp_path, simulate={"t_b_ms": 3.0, "n_trials": 40, "seed": 2,
                                          "initial": "both", "change_times": True})
        sidecars = []
        for fmt in ("csv", "json"):
            out = tmp_path / fmt
            assert main(["simulate", "--config", cfg, "--out-dir", str(out), "--format", fmt]) == 0
            assert capsys.readouterr().out.splitlines()[-1] == f"wrote {out / 'change_times.csv'}"
            sidecars.append((out / "change_times.csv").read_bytes())
        assert sidecars[0] == sidecars[1]
        assert len(sidecars[0].splitlines()) == 81

    def test_json_format(self, tmp_path):
        cfg = _config(
            tmp_path,
            simulate={"t_b_ms": 0.5, "n_trials": 32, "seed": 5,
                      "initial": "both"},
            classify={"input": "counts.json_is_not_used",
                      "classifier": {"method": "threshold", "n_c": 1}},
        )
        out = tmp_path / "out"
        main(["simulate", "--config", cfg, "--out-dir", str(out),
              "--format", "json"])
        doc = json.loads((out / "counts.json").read_text())
        assert doc["format"] == "ionread_report"
        assert doc["command"] == "simulate"
        assert doc["seed"] == 5
        assert doc["config"]["params"]["tau_B_ms"] == 4.9
        assert len(doc["rows"]) == 64
        assert {r["initial"] for r in doc["rows"]} == {"B", "D"}

    def test_classify_json_decisions(self, tmp_path):
        cfg = _config(
            tmp_path,
            simulate={"t_b_ms": 0.5, "n_trials": 32, "seed": 5,
                      "initial": "both"},
            classify={"input": "counts.csv",
                      "classifier": {"method": "simple"}},
        )
        out = tmp_path / "out"
        main(["simulate", "--config", cfg, "--out-dir", str(out)])
        main(["classify", "--config", cfg, "--out-dir", str(out),
              "--format", "json"])
        doc = json.loads((out / "decisions.json").read_text())
        assert doc["classifier"] == "simple_time_resolved"
        assert {r["decision"] for r in doc["rows"]} <= {"B", "D", "I"}
        assert all("log_p_B" in r for r in doc["rows"])
        assert doc["report"]["epsilon"] <= 1.0


    def test_classify_runs_filter_once(self, tmp_path, monkeypatch):
        cfg = _config(
            tmp_path,
            simulate={"t_b_ms": 0.5, "n_trials": 64, "seed": 5,
                      "initial": "both"},
            classify={"input": "counts.csv",
                      "classifier": {"method": "general"}},
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out-dir", str(out)]) == 0
        calls = []
        kernel = classifiers.general_loglik

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return kernel(*args, **kwargs)

        monkeypatch.setattr(classifiers, "general_loglik", counting)
        assert main(["classify", "--config", cfg, "--out-dir", str(out)]) == 0
        assert calls == [(128, 5)]
        assert (out / "report.csv").exists()

    def test_classify_warns_about_counts_above_the_table(self, tmp_path, capsys):
        csv_path = tmp_path / "hot.csv"
        csv_path.write_text("trial,initial,n_1,n_2\n0,B,3,99\n1,D,0,1\n")
        n_max = build_observation_table(DEFAULT_PARAMS).n_max
        for method, warning in (("general", [
                f"warning: 1 counts exceed the table's n_max = {n_max} (largest 99); "
                f"they are scored as {n_max}"]), ("simple", [])):
            cfg = _config(tmp_path, classify={"input": str(csv_path),
                                              "classifier": {"method": method}})
            assert main(["classify", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
            assert capsys.readouterr().err.splitlines() == warning

    def test_classify_warns_about_a_clamped_single_change_prefactor(self, tmp_path, capsys):
        cfg = _config(      # a 6 ms window against tau_B = 4.9 ms
            tmp_path,
            simulate={"t_b_ms": 6.0, "n_trials": 64, "seed": 5, "initial": "both"},
            classify={"input": "counts.csv",
                      "classifier": {"method": "simple", "decaying": "bright"}},
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out-dir", str(out)]) == 0
        capsys.readouterr()
        assert main(["classify", "--config", cfg, "--out-dir", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "warning: t_b >= tau: single-change prefactor clamped to 0"]
        assert captured.out.splitlines() == [f"wrote {out / name}"
                                             for name in ("decisions.csv", "report.csv")]
        _, _, counts = read_counts_csv(out / "counts.csv")
        with pytest.warns(RuntimeWarning, match="prefactor clamped"):
            log_b, log_d = classifiers.simple_loglik(counts, DEFAULT_PARAMS,
                                                     decaying=IonState.BRIGHT)
        with open(out / "decisions.csv") as fh:
            rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
        assert [row["decision"] for row in rows] == [
            classifiers.Decision(int(code)).label
            for code in classifiers.decide_from_logs(log_b, log_d)]

    @pytest.mark.parametrize("decaying", ["dark", "bright"])
    def test_classify_scores_the_largest_accepted_count(self, tmp_path, decaying):
        csv_path = tmp_path / "max.csv"
        csv_path.write_text(f"trial,initial,n_1,n_2,n_3\n0,B,{2**63 - 1},0,1\n")
        cfg = _config(tmp_path, classify={"input": str(csv_path), "classifier": {
            "method": "simple", "decaying": decaying}})
        assert main(["classify", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
        (row,) = _read_report_csv(tmp_path / "decisions.csv")
        assert np.isfinite([float(row["p_B"]), float(row["p_D"])]).all()

    def test_classify_rejects_unoptimized_threshold_before_reading(
            self, tmp_path, capsys):
        # The input is malformed: reading it first would exit 3.
        csv_path = tmp_path / "bad.csv"
        csv_path.write_text("trial,initial,n_1\n0,B,-3\n")
        cfg = _config(tmp_path, classify={"input": str(csv_path),
                                          "classifier": {"method": "threshold"}})
        assert main(["classify", "--config", cfg,
                     "--out-dir", str(tmp_path)]) == 2
        assert "optimize" in capsys.readouterr().err


class TestFit:
    def test_fit_json(self, tmp_path):
        params = {"tau_B_ms": 4.9, "tau_D_ms": 56.0, "R_B_per_ms": 16.0,
                  "R_D_per_ms": 0.3, "t_s_ms": 1.0 / 3.0}
        cfg = _write(tmp_path / "config.json", {
            "format": "ionread_config", "version": 1, "params": params,
            "simulate": {"t_b_ms": 10.0, "n_trials": 30000, "seed": 3,
                         "initial": "both"},
            "fit": {"input": "counts.csv"},
        })
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out-dir", str(out)]) == 0
        assert main(["fit", "--config", cfg, "--out-dir", str(out)]) == 0
        doc = json.loads((out / "fit.json").read_text())
        assert doc["format"] == "decay_fit"
        assert doc["fit"]["tau_ms"] == pytest.approx(4.52, abs=0.5)
        assert doc["lifetimes"]["tau_B_ms"] == pytest.approx(4.9, rel=0.1)
        assert doc["lifetimes"]["tau_D_ms"] == pytest.approx(56.0, rel=0.2)
        assert doc["config"]["params"] == params

    def test_fit_requires_both_states(self, tmp_path, capsys):
        cfg = _config(tmp_path,
                      simulate={"t_b_ms": 1.0, "n_trials": 50, "seed": 1,
                                "initial": "bright"},
                      fit={"input": "counts.csv"})
        out = tmp_path / "out"
        main(["simulate", "--config", cfg, "--out-dir", str(out)])
        assert main(["fit", "--config", cfg, "--out-dir", str(out)]) == 3
        assert capsys.readouterr().err == (f"data error: {out / 'counts.csv'}: "
                                           "fit needs both initially bright and dark trials\n")

    def test_fit_needs_three_bins(self, tmp_path, capsys):
        csv_path = tmp_path / "short.csv"
        csv_path.write_text("trial,initial,n_1,n_2\n0,B,3,2\n1,D,0,1\n")
        cfg = _config(tmp_path, fit={"input": str(csv_path)})
        assert main(["fit", "--config", cfg, "--out-dir", str(tmp_path)]) == 3
        assert capsys.readouterr().err == (f"data error: {csv_path}: "
                                           "fit needs at least 3 bins, got 2\n")
        assert not (tmp_path / "fit.json").exists()


class TestSweepCompare:
    def test_sweep_csv(self, tmp_path):
        cfg = _config(tmp_path, sweep={
            "t_b_ms": [0.5, 1.0], "n_trials": 2000, "seed": 7,
            "classifiers": [{"method": "threshold", "n_c": "optimize"},
                            {"method": "general"}]})
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out-dir", str(out)]) == 0
        rows = _read_report_csv(out / "sweep.csv")
        assert len(rows) == 4
        assert {r["classifier"] for r in rows} == {"threshold",
                                                   "generalized_time_resolved"}
        assert all(0.0 <= float(r["epsilon"]) <= 1.0 for r in rows)

    def test_sweep_prints_counts_above_the_table_as_warning_lines(self, tmp_path, capsys,
                                                                  monkeypatch):
        # A table sized by a loose tol (n_max = 3): the bright ensemble's counts exceed it.
        n_max = photon_model._tabulate(DEFAULT_PARAMS, 0.1).n_max
        assert n_max == 3
        monkeypatch.setattr(harness, "observation_table_for",
                            lambda params: photon_model._tabulate(params, 0.1))
        cfg = _config(tmp_path, sweep={"t_b_ms": [0.5], "n_trials": 500, "seed": 7,
                                       "classifiers": [{"method": "general"}]})
        assert main(["sweep", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
        err = capsys.readouterr().err.splitlines()
        pattern = (rf"warning: \d+ counts exceed the table's n_max = {n_max} "
                   rf"\(largest \d+\); they are scored as {n_max}")
        assert err and all(re.fullmatch(pattern, line) for line in err)

    def test_pi_pulse_sweep_mode(self, tmp_path):
        cfg = _config(tmp_path, sweep={
            "t_b_ms": [0.2], "n_trials": 4000, "seed": 7,
            "pi_pulse": {"detector": {"method": "threshold", "n_c": 1},
                         "epsilon_pi": 0.02}})
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out-dir", str(out)]) == 0
        (row,) = _read_report_csv(out / "sweep.csv")
        assert row["classifier"] == "pi_pulse+threshold"
        assert 0.0 < float(row["N_R"]) < 1.0
        assert row["epsilon_analytic"] != ""

    @pytest.mark.parametrize("keys", [
        {"efficiency_factors": [0.25]},
        {"classifiers": [{"method": "general"}]},
        {"classifiers": [{"method": "general"}], "efficiency_factors": [1.0]}])
    def test_pi_pulse_sweep_refuses_keys_it_does_not_read(self, tmp_path, capsys, monkeypatch,
                                                          keys):
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated before the config was refused")

        monkeypatch.setattr(harness, "simulate_ensemble", no_simulation)
        cfg = _config(tmp_path, sweep={
            "t_b_ms": [0.2], "n_trials": 400, "seed": 7, **keys,
            "pi_pulse": {"detector": {"method": "threshold", "n_c": 1}, "epsilon_pi": 0.02}})
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: a pi_pulse sweep takes no 'classifiers' or "
                              "'efficiency_factors'")
        assert not (out / "sweep.csv").exists()

    @pytest.mark.parametrize("factors, message", [
        ([float("inf")], "efficiency factors must be finite and > 0"),
        ([0.3000000001, 0.3000000003], "efficiency factors must differ by at least 1e-9"),
    ], ids=["infinite", "shared_stream_tag"])
    def test_sweep_refuses_unusable_efficiency_factors(self, tmp_path, capsys, monkeypatch,
                                                       factors, message):
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated before the config was refused")

        monkeypatch.setattr(harness, "simulate_ensemble", no_simulation)
        cfg = _config(tmp_path, sweep={"t_b_ms": [0.5], "n_trials": 4000, "seed": 1,
                                       "efficiency_factors": factors})
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {message}")
        assert not (out / "sweep.csv").exists()

    @staticmethod
    def _same_rows(json_rows, csv_rows):
        """Each CSV cell is its JSON row's field, a float to 6 significant
        digits; an empty cell is a field the JSON row leaves out."""
        assert len(json_rows) == len(csv_rows) > 0
        for doc, row in zip(json_rows, csv_rows):
            for key, cell in row.items():
                value = doc.get(key)
                assert cell == ("" if value is None else "%.6g" % value
                                if isinstance(value, float) else str(value)), key

    def test_sweep_json_rows_match_csv(self, tmp_path):
        cfg = _config(tmp_path, sweep={
            "t_b_ms": [0.3, 0.5], "n_trials": 600, "seed": 7,
            "classifiers": [{"method": "threshold", "n_c": "optimize"}, {"method": "general"}],
            "efficiency_factors": [1.0, 0.5]})
        out = tmp_path / "out"
        for fmt in ("csv", "json"):
            assert main(["sweep", "--config", cfg, "--out-dir", str(out), "--format", fmt]) == 0
        doc = json.loads((out / "sweep.json").read_text())
        assert (doc["command"], doc["seed"]) == ("sweep", 7)
        self._same_rows(doc["rows"], _read_report_csv(out / "sweep.csv"))

    def test_compare_json_matches_csv_artifacts(self, tmp_path):
        cfg = _config(tmp_path, sweep={"t_b_ms": [0.3, 0.5], "n_trials": 600, "seed": 7},
                      compare={"repetitions": 2})
        out = tmp_path / "out"
        for fmt in ("csv", "json"):
            assert main(["compare", "--config", cfg, "--out-dir", str(out), "--format", fmt]) == 0
        doc = json.loads((out / "compare.json").read_text())
        summary = json.loads((out / "compare_summary.json").read_text())
        assert (doc["command"], doc["repetitions"]) == ("compare", 2)
        assert doc["summary"] == summary["summary"]
        self._same_rows(doc["rows"], _read_report_csv(out / "compare.csv"))

    def test_compare_artifacts(self, tmp_path):
        cfg = _config(tmp_path,
                      sweep={"t_b_ms": [0.5], "n_trials": 1500, "seed": 7},
                      compare={"repetitions": 2})
        out = tmp_path / "out"
        assert main(["compare", "--config", cfg, "--out-dir", str(out)]) == 0
        rows = _read_report_csv(out / "compare.csv")
        assert {r["classifier"] for r in rows} == {
            "threshold", "simple_time_resolved", "generalized_time_resolved"}
        assert {r["r"] for r in rows} == {"1", "2"}
        summary = json.loads((out / "compare_summary.json").read_text())
        assert summary["repetitions"] == 2
        assert set(summary["summary"]) == {
            "threshold", "simple_time_resolved", "generalized_time_resolved"}


#: Taken from the tree before the CSV writers were rebuilt on one row writer;
#: ``fit.json`` from the tree whose fit still ran scipy.optimize's Nelder–Mead.
#: The JSON log-likelihoods print at full precision, so these hold for one
#: numpy/scipy build (here numpy 2.4.6, scipy 1.17.1).
ARTIFACT_DIGESTS = {
    "counts.csv": "4194534b39c638d653f9c7ad22db2323c18761abd40615ddf067e931627f2781",
    "change_times.csv": "e60c40654c2e8885b7ef73b1cdf0a2e5b137ad3b7c8bcbf455cd3d14bd3f999e",
    "counts.json": "e39a7b664ada3ea18c4f3c6d4bb8e8e4d74175432c0f310105c7e9203df6225e",
    "general/decisions.csv": "5d130384fd056d50dd733c1b573d5585fe1d311d264d5f76ea3c48c8d31b862d",
    "general/report.csv": "4f99739733c0593e389556e16a7f0ec9edf337229b8fcfed198e64cc577c742d",
    "general/decisions.json": "4503bd25b70acf8b648095a90e799bda501ce41d44c228e093f46459969d682f",
    "threshold/decisions.csv": "66290d6d9b80607681aa498f5bf96bcfb2c16c09ba878cb0bd9ba18741203e73",
    "threshold/report.csv": "7db07ecb177c132d83c073fd406b74424835d5022abdd1aa7a3651f6bf95c2b9",
    "threshold/decisions.json": "4eebd952b2e6d0a5670252101080c7fbc2ad5b338d2b700b7eec10f5b75ad9e9",
    "fit.json": "e321ac49c3748186199f7ecd54324fd8145bd3ed2373f1c90745744edb17a9e7",
    "sweep.csv": "c07f9bf3d16850522c9ef27393e918d71637bba43aa8ab32d417d8b4b158477c",
    "compare.csv": "44ac1af44ca2804567f482700c62b1c67b4e53e1f2bea4bc7337367aa5e08f7b",
    "compare_summary.json": "ce70e271e806d18c9534cc5ffda82c1ff450b2cb68830588c9feb49425cd5ab8",
}


class TestArtifactBytes:
    def test_frozen_artifact_digests(self, tmp_path):
        assert _artifact_digests(tmp_path) == ARTIFACT_DIGESTS


class TestStdout:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_stdout_of_every_command(self, tmp_path, capsys, fmt):
        """One ``wrote`` line per artifact, in output order; compare prints
        its summary before them, and nothing reaches stderr."""
        cfg = _config(tmp_path,
                      simulate={"t_b_ms": 0.5, "n_trials": 200, "seed": 3, "change_times": True},
                      classify={"input": "counts.csv", "classifier": {"method": "general"}},
                      fit={"input": "counts.csv"},
                      sweep={"t_b_ms": [0.3, 0.5], "n_trials": 600, "seed": 7},
                      compare={"repetitions": 2})
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out-dir", str(out)]) == 0  # counts.csv
        capsys.readouterr()
        summary = ["threshold: min over t_b = 2.3333% (std 0.0000%, n=2)",
                   "simple_time_resolved: min over t_b = 2.3750% (std 0.0589%, n=2)",
                   "generalized_time_resolved: min over t_b = 2.3333% (std 0.0000%, n=2)"]
        csv = fmt == "csv"
        expected = {
            "simulate": [f"counts.{fmt}", "change_times.csv"],
            "classify": ["decisions.csv", "report.csv"] if csv else ["decisions.json"],
            "fit": ["fit.json"],
            "sweep": [f"sweep.{fmt}"],
            "compare": ["compare.csv", "compare_summary.json"] if csv else ["compare.json"],
        }
        for command, names in expected.items():
            assert main([command, "--config", cfg, "--out-dir", str(out), "--format", fmt]) == 0
            wrote = [f"wrote {out / name}" for name in names]
            captured = capsys.readouterr()
            assert captured.out.splitlines() == (summary if command == "compare" else []) + wrote
            assert captured.err == ""


class TestExitCodes:
    def test_config_error(self, tmp_path):
        bad = _write(tmp_path / "bad.json", {"format": "other"})
        assert main(["sweep", "--config", bad]) == 2

    def test_missing_config(self, tmp_path):
        assert main(["sweep", "--config", str(tmp_path / "none.json")]) == 2

    def test_missing_section(self, tmp_path):
        cfg = _config(tmp_path)
        assert main(["simulate", "--config", cfg,
                     "--out-dir", str(tmp_path)]) == 2

    def test_data_error(self, tmp_path, capsys):
        csv_path = tmp_path / "bad.csv"
        csv_path.write_text("trial,initial,n_1\n0,B,-3\n")
        cfg = _config(tmp_path, classify={"input": str(csv_path),
                                          "classifier": {"method": "general"}})
        assert main(["classify", "--config", cfg,
                     "--out-dir", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "bad.csv:2" in err

    def test_count_totals_past_int64_are_a_data_error(self, tmp_path, capsys):
        csv_path = tmp_path / "huge.csv"
        csv_path.write_text(f"trial,initial,n_1,n_2,n_3\n0,B,{2**63 - 1},0,1\n")
        cfg = _config(tmp_path, classify={"input": str(csv_path),
                                          "classifier": {"method": "threshold", "n_c": 1}})
        assert main(["classify", "--config", cfg, "--out-dir", str(tmp_path)]) == 3
        assert capsys.readouterr().err == (f"data error: {csv_path}: photon count totals must "
                                           "be at most 2**63 - 3 to be summed in int64\n")

    @pytest.mark.parametrize("params, classifier, message", [
        ({"R_D_per_ms": 0.0}, {"method": "simple", "decaying": "bright"},
         "config error: R_D=0.0, R_B=16.0: the single-change formula's stable dark state "
         "never emits"),
        ({"R_B_per_ms": 1e4}, {"method": "general"},
         "config error: mixture entry n=0 is not representable"),
    ], ids=["silent_stable_state", "unrepresentable_table"])
    def test_model_faults_found_while_scoring_are_config_errors(
            self, tmp_path, capsys, params, classifier, message):
        csv_path = tmp_path / "counts.csv"
        csv_path.write_text("trial,initial,n_1,n_2\n0,B,3,1\n1,D,0,1\n")
        _config(tmp_path)
        doc = json.loads((tmp_path / "config.json").read_text())
        cfg = _write(tmp_path / "model.json", {
            **doc, "params": {**doc["params"], **params},
            "classify": {"input": str(csv_path), "classifier": classifier}})
        assert main(["classify", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err.splitlines()[-1].startswith(message)

    @pytest.mark.parametrize("threads", ["0", "-4"])
    def test_threads_below_one(self, tmp_path, capsys, threads):
        cfg = _config(tmp_path, simulate={"t_b_ms": 0.5, "n_trials": 10, "seed": 1})
        running = threading.active_count()
        assert main(["simulate", "--config", cfg, "--out-dir", str(tmp_path),
                     "--threads", threads]) == 2
        assert "threads must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "counts.csv").exists()
        assert threading.active_count() == running

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    def test_seed_outside_range(self, tmp_path, capsys, seed):
        # -1 and 2**64 - 1 once keyed the same streams; no seed aliases another
        # now.  classify and fit draw nothing, but echo the seed into artifacts.
        counts = tmp_path / "counts.csv"
        counts.write_text("trial,initial,n_1,n_2\n0,B,3,2\n1,D,0,0\n")
        cfg = _config(tmp_path, simulate={"t_b_ms": 0.5, "n_trials": 10, "seed": 1},
                      sweep={"t_b_ms": [0.5], "n_trials": 10, "seed": 1},
                      classify={"input": str(counts)}, fit={"input": str(counts)},
                      compare={"repetitions": 1})
        out = tmp_path / "out"
        for command in ("simulate", "classify", "fit", "sweep", "compare"):
            assert main([command, "--config", cfg, "--out-dir", str(out), "--seed", seed]) == 2
            assert "seed must be an integer in [0, 2**64)" in capsys.readouterr().err
        assert not out.exists()

    def test_out_of_range_count(self, tmp_path, capsys):
        csv_path = tmp_path / "big.csv"
        csv_path.write_text("trial,initial,n_1\n0,B,99999999999999999999999\n")
        cfg = _config(tmp_path, classify={"input": str(csv_path),
                                          "classifier": {"method": "general"}})
        assert main(["classify", "--config", cfg,
                     "--out-dir", str(tmp_path)]) == 3
        assert "big.csv:2" in capsys.readouterr().err

    def test_non_finite_rate(self, tmp_path, capsys):
        # Python's json reads NaN; the config must fail before any table build.
        csv_path = tmp_path / "ok.csv"
        csv_path.write_text("trial,initial,n_1\n0,B,3\n")
        cfg = _config(tmp_path,
                      params={"tau_B_ms": 4.9, "tau_D_ms": 56.0,
                              "R_B_per_ms": float("nan"), "R_D_per_ms": 0.3,
                              "t_s_ms": 0.1},
                      classify={"input": str(csv_path),
                                "classifier": {"method": "general"}})
        assert main(["classify", "--config", cfg,
                     "--out-dir", str(tmp_path)]) == 2
        assert "R_B must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("t_b", [float("inf"), float("nan")])
    def test_non_finite_window(self, tmp_path, capsys, t_b):
        cfg = _config(tmp_path,
                      simulate={"t_b_ms": t_b, "n_trials": 10, "seed": 1},
                      sweep={"t_b_ms": [0.5, t_b], "n_trials": 10, "seed": 1})
        for command in ("simulate", "sweep"):
            assert main([command, "--config", cfg,
                         "--out-dir", str(tmp_path)]) == 2
            assert "must be finite" in capsys.readouterr().err

    def test_zero_repetitions(self, tmp_path, capsys):
        cfg = _config(tmp_path, sweep={"t_b_ms": [0.5], "n_trials": 10, "seed": 1},
                      compare={"repetitions": 0})
        assert main(["compare", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
        assert "repetitions must be >= 1" in capsys.readouterr().err

    _SIM = {"t_b_ms": 0.5, "n_trials": 10, "seed": 1}
    _SWEEP = {"t_b_ms": [0.5], "n_trials": 10, "seed": 1}

    @pytest.mark.parametrize("command, field, doc", [
        ("simulate", "n_trials", {"simulate": {**_SIM, "n_trials": True}}),
        ("simulate", "seed", {"simulate": {**_SIM, "seed": True}}),
        ("simulate", "t_b_ms", {"simulate": {**_SIM, "t_b_ms": True}}),
        ("simulate", "R_B_per_ms", {"simulate": _SIM, "params": {
            "tau_B_ms": 4.9, "tau_D_ms": 56.0, "R_B_per_ms": True, "R_D_per_ms": 0.3,
            "t_s_ms": 0.1}}),
        ("simulate", "version", {"simulate": _SIM, "version": True}),
        ("sweep", "n_trials", {"sweep": {**_SWEEP, "n_trials": True}}),
        ("sweep", "seed", {"sweep": {**_SWEEP, "seed": True}}),
        ("sweep", "t_b_ms", {"sweep": {**_SWEEP, "t_b_ms": [True]}}),
        ("sweep", "efficiency_factors", {"sweep": {**_SWEEP, "efficiency_factors": [True]}}),
        ("sweep", "epsilon_pi", {"sweep": {**_SWEEP, "pi_pulse": {
            "epsilon_pi": True, "detector": {"method": "general"}}}}),
        ("compare", "repetitions", {"sweep": _SWEEP, "compare": {"repetitions": True}}),
        ("classify", "n_c", {"classify": {"input": "none.csv", "classifier": {
            "method": "threshold", "n_c": True}}}),
        ("classify", "n_D", {"classify": {"input": "none.csv", "classifier": {
            "method": "double_threshold", "n_D": True, "n_B": 4}}}),
        ("classify", "n_B", {"classify": {"input": "none.csv", "classifier": {
            "method": "double_threshold", "n_D": 0, "n_B": True}}}),
        # A JSON string is no number either, though float() reads it.
        ("simulate", "n_trials", {"simulate": {**_SIM, "n_trials": "7"}}),
        ("simulate", "t_b_ms", {"simulate": {**_SIM, "t_b_ms": "1"}}),
        ("simulate", "R_B_per_ms", {"simulate": _SIM, "params": {
            "tau_B_ms": 4.9, "tau_D_ms": 56.0, "R_B_per_ms": "16", "R_D_per_ms": 0.3,
            "t_s_ms": 0.1}}),
        ("sweep", "epsilon_pi", {"sweep": {**_SWEEP, "pi_pulse": {
            "epsilon_pi": "0.02", "detector": {"method": "general"}}}}),
        ("compare", "repetitions", {"sweep": _SWEEP, "compare": {"repetitions": "2"}}),
    ])
    def test_boolean_in_a_numeric_field(self, tmp_path, capsys, command, field, doc):
        cfg = _config(tmp_path, **doc)
        assert main([command, "--config", cfg, "--out-dir", str(tmp_path)]) == 2
        assert f"{field} must be " in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [tmp_path / "config.json"]

    @pytest.mark.parametrize("commands, doc", _non_finite_cases(_SIM, _SWEEP))
    def test_non_finite_numbers_are_refused_or_run(self, tmp_path, capsys, commands, doc):
        # Python's json reads Infinity and NaN: each field refuses them with
        # exit 2 or runs, and no command lets an exception escape.
        data = tmp_path / "data"
        assert main(["simulate", "--config", _config(
            tmp_path, simulate={"t_b_ms": 1.0, "n_trials": 200, "seed": 1}),
            "--out-dir", str(data)]) == 0
        counts = {"input": str(data / "counts.csv")}
        sections = {"simulate": self._SIM, "fit": counts, "sweep": self._SWEEP,
                    "compare": {"repetitions": 1}}
        for value in ("Infinity", "-Infinity", "NaN"):
            filled = json.loads(json.dumps(doc).replace(json.dumps(_NON_FINITE), value))
            classify = {**counts, **filled.pop("classify", {})}
            cfg = _config(tmp_path, **{**sections, **filled, "classify": classify})
            for command in commands:
                code = main([command, "--config", cfg, "--out-dir", str(tmp_path / "out")])
                assert code in (0, 2), (command, value, capsys.readouterr().err)

    @pytest.mark.parametrize("key", ["n_trials", "seed"])
    def test_fractional_simulate_and_sweep_values(self, tmp_path, capsys, key):
        section = {"t_b_ms": 0.5, "n_trials": 10, "seed": 1}
        cfg = _config(tmp_path, simulate={**section, key: 2.9},
                      sweep={**section, "t_b_ms": [0.5], key: 2.9})
        for command in ("simulate", "sweep"):
            assert main([command, "--config", cfg,
                         "--out-dir", str(tmp_path)]) == 2
            assert f"{key} must be an integer, got 2.9" in capsys.readouterr().err

    def test_fit_not_converged(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(estimation, "MAX_EVALS", 20)
        cfg = _config(tmp_path,
                      simulate={"t_b_ms": 1.0, "n_trials": 200, "seed": 1},
                      fit={"input": "counts.csv"})
        assert main(["simulate", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
        assert main(["fit", "--config", cfg, "--out-dir", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "data error: no convergence after 220 evaluations; best residual" in err
        assert not (tmp_path / "fit.json").exists()

    def test_fractional_repetitions(self, tmp_path, capsys):
        cfg = _config(tmp_path, sweep={"t_b_ms": [0.5], "n_trials": 10, "seed": 1},
                      compare={"repetitions": 1.9})
        assert main(["compare", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
        assert "repetitions must be an integer, got 1.9" in capsys.readouterr().err

    def test_integer_valued_floats_accepted(self, tmp_path):
        section = {"t_b_ms": 0.5, "n_trials": 3.0, "seed": 1.0}
        cfg = _config(tmp_path, simulate=section,
                      sweep={**section, "t_b_ms": [0.5]}, compare={"repetitions": 2.0})
        for command in ("simulate", "sweep", "compare"):
            assert main([command, "--config", cfg,
                         "--out-dir", str(tmp_path)]) == 0
        assert len(read_counts_csv(tmp_path / "counts.csv")[0]) == 6  # 3 per state
        summary = json.loads((tmp_path / "compare_summary.json").read_text())
        assert summary["repetitions"] == 2

    def test_invalid_classifier(self, tmp_path):
        csv_path = tmp_path / "ok.csv"
        csv_path.write_text("trial,initial,n_1\n0,B,3\n")
        cfg = _config(tmp_path, classify={"input": str(csv_path),
                                          "classifier": {"method": "nope"}})
        assert main(["classify", "--config", cfg,
                     "--out-dir", str(tmp_path)]) == 2

    @pytest.mark.parametrize("command, key, doc", [
        ("simulate", "inital", {"simulate": {**_SIM, "inital": "dark"}}),
        ("simulate", "change_times", {"simulate": {**_SIM, "change_times": "no"}}),
        ("simulate", "change_times", {"simulate": {**_SIM, "change_times": 1}}),
        ("simulate", "R_B", {"simulate": _SIM, "params": {
            "tau_B_ms": 4.9, "tau_D_ms": 56.0, "R_B_per_ms": 16.0, "R_D_per_ms": 0.3,
            "t_s_ms": 0.1, "R_B": 17.0}}),
        ("classify", "clasifier", {"classify": {"input": "none.csv", "clasifier": {
            "method": "threshold", "n_c": 2}}}),
        ("fit", "inputs", {"fit": {"input": "none.csv", "inputs": "none.csv"}}),
        ("sweep", "efficency_factors", {"sweep": {**_SWEEP, "efficency_factors": [1.0, 2.0]}}),
        ("sweep", "nc", {"sweep": {**_SWEEP, "classifiers": [
            {"method": "threshold", "nc": 3}]}}),
        ("sweep", "epsilon", {"sweep": {**_SWEEP, "pi_pulse": {
            "epsilon": 0.02, "detector": {"method": "general"}}}}),
        ("compare", "repetition", {"sweep": _SWEEP, "compare": {"repetition": 5}}),
        # The single-change lifetime comes from params: the old key is refused.
        ("classify", "tau_ms", {"classify": {"input": "none.csv", "classifier": {
            "method": "simple", "tau_ms": 0.5}}}),
    ])
    def test_misspelt_key_refused(self, tmp_path, capsys, command, key, doc):
        # Read without a check, each key would run as its default.
        cfg = _config(tmp_path, **doc)
        assert main([command, "--config", cfg, "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"unknown key {key!r} in " in err or f"error: {key} must be true or false" in err
        assert list(tmp_path.iterdir()) == [tmp_path / "config.json"]
