import csv
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from rcseq import cli
from rcseq.cli import COMMANDS, main
from rcseq.config import load_config
from rcseq.panel import load_csv
from rcseq.tuner import run_grid

CIS_SCHEMA = {
    "type": "object",
    "required": ["steps", "nodes", "edges", "config"],
    "properties": {
        "steps": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["step", "kpi", "onset_tick", "direction", "ks_d", "p_adj"],
                "properties": {
                    "step": {"type": "integer", "minimum": 1},
                    "kpi": {"type": "string"},
                    "onset_tick": {"type": "integer", "minimum": 0},
                    "direction": {"enum": [-1, 0, 1]},
                    "ks_d": {"type": "number", "minimum": 0, "maximum": 1},
                    "p_adj": {"type": "number", "minimum": 0, "maximum": 1},
                },
                "additionalProperties": False,
            },
        },
        "nodes": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["kpi", "flagged"],
                "properties": {
                    "kpi": {"type": "string"},
                    "flagged": {"type": "boolean"},
                },
                "additionalProperties": False,
            },
        },
        "edges": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["src", "dst", "lag", "flagged"],
                "properties": {
                    "src": {"type": "string"},
                    "dst": {"type": "string"},
                    "lag": {"type": "integer", "minimum": 1},
                    "flagged": {"type": "boolean"},
                },
                "additionalProperties": False,
            },
        },
        "config": {"type": "object"},
    },
    "additionalProperties": False,
}


def read(path):
    return path.read_bytes()


def run(*args):
    return main([str(a) for a in args])


class TestSynth:
    def test_round_trip(self, tmp_path):
        assert run("synth", "--scenario", "cascade", "--seed", 5, "--out", tmp_path) == 0
        panel = load_csv(tmp_path / "cascade_panel.csv")
        assert panel.n_ticks == 240
        assert "prb_util" in panel.kpi_names
        truth = json.loads((tmp_path / "cascade_truth.json").read_text())
        assert truth["interventions"][0]["target"] == "cce_load"
        assert truth["propagation"][0] == ["cce_load", 124]

    def test_unknown_scenario_lists_available(self, tmp_path, capsys):
        assert run("synth", "--scenario", "bogus", "--out", tmp_path) == 2
        err = capsys.readouterr().err
        assert "cascade" in err and "single_root" in err

    def test_same_seed_byte_identical(self, tmp_path):
        run("synth", "--scenario", "single_root", "--seed", 9, "--out", tmp_path / "a")
        run("synth", "--scenario", "single_root", "--seed", 9, "--out", tmp_path / "b")
        assert read(tmp_path / "a/single_root_panel.csv") == read(tmp_path / "b/single_root_panel.csv")
        assert read(tmp_path / "a/single_root_truth.json") == read(tmp_path / "b/single_root_truth.json")

    def test_scenario_file(self, tmp_path):
        doc = """
name: toy
nodes: [p, q]
edges: [[p, q, 1, 0.8]]
noise_sd: 1.0
sla: {metric: q, comparator: "<", threshold: -4.0, min_duration_ticks: 2}
interventions: [{target: p, kind: hard, onset: 60, value: 5.0}]
horizon: 120
normal_len: 50
abnormal_len: 50
lead_ticks: 0
"""
        spec = tmp_path / "toy.yaml"
        spec.write_text(doc)
        assert run("synth", "--scenario-file", spec, "--out", tmp_path) == 0
        assert (tmp_path / "toy_panel.csv").exists()

    def test_scenario_file_bad_list_item_named(self, tmp_path, capsys):
        spec = tmp_path / "toy.yaml"
        spec.write_text('nodes: [p, q]\nnoise_sd: [1.0, "2"]\nhorizon: 120\n'
                        "normal_len: 50\nabnormal_len: 50\n")
        assert run("synth", "--scenario-file", spec, "--out", tmp_path / "o") == 2
        assert "noise_sd[1] must be a number, got '2'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, key",
        [
            ("edges: [[p, q, 0, 0.5]]", "scenario.edges[0]"),
            ("edges: [[p, z, 1, 0.5]]", "scenario.edges[0]"),
            ("interventions: [{target: p, kind: hard, onset: -1, value: 5.0}]",
             "scenario.interventions[0].onset"),
            ("interventions: [{target: p, kind: hard, onset: 60}]",
             "scenario.interventions[0].value"),
            ("interventions: [{target: p, kind: soft, onset: 60, noise_scale: -1.0}]",
             "scenario.interventions[0].noise_scale"),
            ("noise_sd: [1.0, -1.0]", "scenario.noise_sd"),
            ("noise_sd: [1.0]", "scenario.noise_sd"),
            ('sla: {metric: z, comparator: "<", threshold: -4.0}', "scenario.sla.metric"),
        ],
    )
    def test_scenario_file_range_error_names_key(self, tmp_path, capsys, text, key):
        # scenario files are read like configs, range checks included
        spec = tmp_path / "toy.yaml"
        spec.write_text(f"nodes: [p, q]\nhorizon: 120\nnormal_len: 50\nabnormal_len: 50\n{text}\n")
        assert run("label", "--scenario-file", spec, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert re.search(rf"config error: malformed scenario spec: {re.escape(key)}\s", err), err
        assert not (tmp_path / "o").exists()


class TestRunAll:
    def test_cascade_end_to_end(self, tmp_path):
        assert run("run-all", "--scenario", "cascade", "--seed", 0, "--out", tmp_path) == 0
        cis = json.loads((tmp_path / "cis.json").read_text())
        jsonschema.validate(cis, CIS_SCHEMA)
        kpis = [s["kpi"] for s in cis["steps"]]
        assert "cce_load" in kpis and "prb_util" in kpis
        assert kpis.index("cce_load") < kpis.index("prb_util")
        assert kpis[-1] == "dl_throughput"  # SLA metric is the terminal event
        steps = [s["step"] for s in cis["steps"]]
        assert steps == list(range(1, len(steps) + 1))
        for name in ("subgraph.dot", "deviation_traces.csv", "histograms.csv",
                     "run_metadata.json"):
            assert (tmp_path / name).exists()

    def test_null_scenario_empty_steps(self, tmp_path):
        assert run("run-all", "--scenario", "null", "--seed", 1, "--out", tmp_path) == 0
        cis = json.loads((tmp_path / "cis.json").read_text())
        jsonschema.validate(cis, CIS_SCHEMA)
        assert cis["steps"] == []
        meta = json.loads((tmp_path / "run_metadata.json").read_text())
        assert meta["no_breach"] is True

    def test_missing_input_is_data_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("run-all", "--input", tmp_path / "nope.csv", "--out", out) == 3
        assert "data error" in capsys.readouterr().err
        assert not (out / "cis.json").exists()

    def test_tick_outside_int64_is_data_error(self, tmp_path, capsys):
        csv_path = tmp_path / "p.csv"
        csv_path.write_text("t,a\n99999999999999999999,1\n")
        assert run("label", "--input", csv_path, "--out", tmp_path / "o") == 3
        assert "data error: line 2: tick" in capsys.readouterr().err

    def test_csv_without_sla_is_config_error(self, tmp_path):
        csv_path = tmp_path / "p.csv"
        csv_path.write_text("t,a\n0,1.0\n1,2.0\n")
        assert run("run-all", "--input", csv_path, "--out", tmp_path) == 2

    def test_analysis_error_exit_code(self, tmp_path):
        # windows too short for the subgraph stage
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(
            "input: {scenario: cascade}\nlabel: {normal_len: 12, abnormal_len: 12}\n"
        )
        code = run("run-all", "--config", cfg, "--out", tmp_path / "o")
        assert code == 4

    def test_abnormal_window_shorter_than_scan_window(self, tmp_path, capsys):
        # 10 abnormal ticks hold no 16-tick K-S window to scan
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("label: {abnormal_len: 10, lead_ticks: 0}\n")
        out = tmp_path / "o"
        code = run("run-all", "--scenario", "cascade", "--seed", 3,
                   "--config", cfg, "--out", out)
        assert code == 4
        assert "abnormal window (10 ticks) must be at least one window (16)" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    def test_byte_identical_reruns(self, tmp_path):
        names = ("cis.json", "subgraph.dot", "deviation_traces.csv",
                 "histograms.csv", "run_metadata.json")
        run("run-all", "--scenario", "cascade", "--seed", 7, "--out", tmp_path / "a")
        run("run-all", "--scenario", "cascade", "--seed", 7, "--out", tmp_path / "b")
        run("run-all", "--scenario", "cascade", "--seed", 7, "--jobs", 8,
            "--out", tmp_path / "c")
        for name in names:
            assert read(tmp_path / "a" / name) == read(tmp_path / "b" / name)
            assert read(tmp_path / "a" / name) == read(tmp_path / "c" / name)

    def test_cis_alpha_monotone_override(self, tmp_path):
        run("run-all", "--scenario", "cascade", "--seed", 3,
            "--cis-alpha", "0.05", "--out", tmp_path / "tight")
        run("run-all", "--scenario", "cascade", "--seed", 3,
            "--cis-alpha", "0.1", "--out", tmp_path / "loose")
        tight = {s["kpi"] for s in json.loads((tmp_path / "tight/cis.json").read_text())["steps"]}
        loose = {s["kpi"] for s in json.loads((tmp_path / "loose/cis.json").read_text())["steps"]}
        assert tight <= loose

    def test_csv_input_pipeline(self, tmp_path):
        run("synth", "--scenario", "cascade", "--seed", 2, "--out", tmp_path)
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(
            f"""
input: {{csv: {tmp_path / 'cascade_panel.csv'}}}
sla: {{metric: dl_throughput, comparator: "<", threshold: -3.0, min_duration_ticks: 4}}
label: {{normal_len: 120, abnormal_len: 120, lead_ticks: 20}}
seed: 2
"""
        )
        assert run("run-all", "--config", cfg, "--out", tmp_path / "o") == 0
        cis = json.loads((tmp_path / "o/cis.json").read_text())
        kpis = [s["kpi"] for s in cis["steps"]]
        assert {"cce_load", "prb_util", "dl_throughput"} <= set(kpis)
        assert kpis.index("cce_load") < kpis.index("prb_util")


class TestStageCommands:
    def test_label(self, tmp_path):
        assert run("label", "--scenario", "cascade", "--seed", 0, "--out", tmp_path) == 0
        labels = json.loads((tmp_path / "labels.json").read_text())
        assert labels["abnormal_window"] == [120, 240]
        assert labels["breaches"][0][0] == 140

    def test_discover(self, tmp_path):
        assert run("discover", "--scenario", "cascade", "--seed", 0, "--out", tmp_path) == 0
        with (tmp_path / "frequency.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        by_kpi = {r["kpi"]: float(r["proportion"]) for r in rows}
        assert by_kpi["prb_util"] >= 0.8
        assert "dl_throughput" not in by_kpi  # SLA metric excluded from discovery
        runs_doc = json.loads((tmp_path / "rcd_runs.json").read_text())
        assert len(runs_doc["runs"]) == 10

    def test_discover_pooled_n3(self, tmp_path, capsys):
        # too few rows for any CI test: an analysis error, and no output
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("label: {normal_len: 1, abnormal_len: 2, lead_ticks: 0}\n")
        out = tmp_path / "o"
        assert run(
            "discover", "--scenario", "single_root", "--config", cfg, "--out", out
        ) == 4
        err = capsys.readouterr().err
        assert "analysis error: pooled sample n=3 is too small" in err
        assert "need n > 3" in err
        assert not out.exists()

    def test_subgraph(self, tmp_path):
        assert run("subgraph", "--scenario", "cascade", "--seed", 0, "--out", tmp_path) == 0
        doc = json.loads((tmp_path / "subgraph.json").read_text())
        assert "dl_throughput" in doc["nodes"]
        dot = (tmp_path / "subgraph.dot").read_text()
        assert dot.startswith("digraph")

    def test_sequence(self, tmp_path):
        assert run("sequence", "--scenario", "cascade", "--seed", 0, "--out", tmp_path) == 0
        cis = json.loads((tmp_path / "cis.json").read_text())
        assert cis["steps"]
        header = (tmp_path / "deviation_traces.csv").read_text().splitlines()[0]
        assert header.startswith("tick,")


# config values of the wrong type, and the key each error must name
MISTYPED = [
    ("cis: {window: 16.5}", "cis.window"),
    ("cis: {stride: 4.0}", "cis.stride"),
    ("rcd: {n_runs: 2.5}", "rcd.n_runs"),
    ("subgraph: {tau_max: 2.5}", "subgraph.tau_max"),
    ("label: {breach_index: 0.5}", "label.breach_index"),
    ("mc: {p_thr: x}", "mc.p_thr"),
    ("seed: 1.5", "seed"),
    ("jobs: 1.9", "jobs"),
    ("mc: {g_values: [3.7]}", "mc.g_values[0]"),
    ("rcd: {max_cond: true}", "rcd.max_cond"),
    ("sed: 3", "sed"),
]

# config values outside their range, and the key each error must name
OUT_OF_RANGE = [
    ("input: {granularity_seconds: 0}", "input.granularity_seconds"),
    ("input: {granularity_seconds: -15}", "input.granularity_seconds"),
    ("label: {normal_len: 0}", "label.normal_len"),
    ("label: {abnormal_len: 0}", "label.abnormal_len"),
    ("label: {lead_ticks: -1}", "label.lead_ticks"),
    ("mc: {p_thr: -2}", "mc.p_thr"),
    ("mc: {p_thr: 1.5}", "mc.p_thr"),
    ("mc: {n_values: []}", "mc.n_values"),
    ("mc: {g_values: []}", "mc.g_values"),
    ("mc: {g_values: [1]}", "mc.g_values[0]"),
    ("mc: {g_values: [3, 0]}", "mc.g_values[1]"),
    ("mc: {g_values: [3, 3, 4]}", "mc.g_values[1]"),
    ("mc: {n_values: [10, 15, 10]}", "mc.n_values[2]"),
    ("mc: {n_mode: foo}", "mc.n_mode"),
    ("subgraph: {tau_max: 0}", "subgraph.tau_max"),
    ("subgraph: {alpha: 1.5}", "subgraph.alpha"),
    ("subgraph: {max_cond: -1}", "subgraph.max_cond"),
    ("cis: {alpha: 0}", "cis.alpha"),
    ("cis: {window: 4}", "cis.window"),
    ("cis: {stride: 0}", "cis.stride"),
    ("cis: {correction: foo}", "cis.correction"),
    ("cis: {z_thr: 0}", "cis.z_thr"),
    ("rcd: {g: 1}", "rcd.g"),
    ("rcd: {n_runs: 0}", "rcd.n_runs"),
    ("rcd: {alpha: 1}", "rcd.alpha"),
    ("rcd: {max_cond: -1}", "rcd.max_cond"),
    ("rcd: {seed: -1}", "rcd.seed"),
    ("label: {breach_index: -1}", "label.breach_index"),
    ("input: {missing: foo}", "input.missing"),
    ('sla: {metric: dl_throughput, comparator: "<", threshold: -3.0, min_duration_ticks: -1}',
     "sla.min_duration_ticks"),
    ('sla: {metric: dl_throughput, comparator: "!=", threshold: 0.0}', "sla.comparator"),
]


class TestConfigPaths:
    def test_missing_config_file(self, tmp_path):
        assert run("run-all", "--config", tmp_path / "nope.yaml", "--out", tmp_path) == 2

    @pytest.mark.parametrize(
        "flag, what", [("--config", "config file"), ("--scenario-file", "scenario file")]
    )
    def test_broken_yaml_names_its_path(self, tmp_path, capsys, flag, what):
        path = tmp_path / "broken.yaml"
        path.write_text("name: [unclosed\n")
        assert run("label", flag, path, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert f"config error: could not parse {what} {path}: " in err, err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("include_sla", [False, True])
    def test_discovery_kpis_agree_with_tuner_grid(self, tmp_path, include_sla):
        # frequency.csv's rows and the tuner grid's KPI axis are one KPI set
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(
            f"input: {{scenario: cascade}}\ninclude_sla_in_rcd: {str(include_sla).lower()}\n"
        )
        assert run("discover", "--config", cfg_path, "--out", tmp_path / "o") == 0
        with (tmp_path / "o" / "frequency.csv").open() as fh:
            kpis = tuple(r["kpi"] for r in csv.DictReader(fh))
        cfg = load_config(cfg_path)
        labeled, sla = cli._labeled_or_fail(cfg, "tune against")
        exclude = cli._rcd_exclude(cfg, sla)
        grid = run_grid(labeled, (3,), (1,), cfg.rcd, cfg.seed, exclude)
        assert kpis == grid.kpi_names
        assert (sla.metric in kpis) is include_sla

    def test_include_sla_in_rcd(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("input: {scenario: cascade}\ninclude_sla_in_rcd: true\nseed: 0\n")
        assert run("discover", "--config", cfg, "--out", tmp_path) == 0
        with (tmp_path / "frequency.csv").open() as fh:
            kpis = {r["kpi"] for r in csv.DictReader(fh)}
        assert "dl_throughput" in kpis

    def test_breach_index_out_of_range(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("input: {scenario: cascade}\nlabel: {breach_index: 5}\nseed: 0\n")
        assert run("label", "--config", cfg, "--out", tmp_path) == 3


    @pytest.mark.parametrize(
        "text",
        [
            "seed: abc",
            "jobs: two",
            "candidate_threshold: hi",
            "input: {granularity_seconds: q}",
            'sla: {metric: dl_throughput, comparator: "<", threshold: abc}',
            'sla: {metric: dl_throughput, comparator: "<", threshold: -3.0,'
            " min_duration_ticks: x}",
            'sla: {metric: dl_throughput, comparator: "!=", threshold: -3.0}',
            "label: {normal_len: abc}",
            "mc: {n_values: [a]}",
            "mc: {g_values: 5}",
            "include_sla_in_rcd: 'false'",
            *(text for text, _ in MISTYPED),
            *(text for text, _ in OUT_OF_RANGE),
        ],
    )
    def test_malformed_value_is_config_error(self, tmp_path, capsys, text):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(text + "\n")
        code = run("label", "--config", cfg, "--scenario", "cascade", "--out", tmp_path / "o")
        assert code == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("text, key", MISTYPED + OUT_OF_RANGE)
    def test_config_error_names_key(self, tmp_path, capsys, text, key):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(text + "\n")
        assert run("label", "--config", cfg, "--scenario", "cascade", "--out", tmp_path) == 2
        err = capsys.readouterr().err
        assert re.search(rf"config error: (unknown key )?{re.escape(key)}\s", err), err

    @pytest.mark.parametrize(
        "flags, base, same",
        [
            (["--seed", "7"], "seed: 1\nrcd: {seed: 5, g: 4}", "seed: 7\nrcd: {seed: 7, g: 4}"),
            (["--seed", "7"], "seed: 1", "seed: 7"),
            (["--out", "there"], "output: {dir: here}", "output: {dir: there}"),
            (["--jobs", "3"], "jobs: 2", "jobs: 3"),
            (["--cis-alpha", "0.05"], "cis: {alpha: 0.2, window: 24}",
             "cis: {alpha: 0.05, window: 24}"),
            (["--input", "p.csv"],
             "input: {scenario: cascade, scenario_file: s.yaml, missing: drop-row}",
             "input: {csv: p.csv, missing: drop-row}"),
            (["--scenario", "cascade"], "input: {csv: p.csv, scenario_file: s.yaml}",
             "input: {scenario: cascade}"),
            (["--scenario-file", "s.yaml"], "input: {csv: p.csv, scenario: cascade}",
             "input: {scenario_file: s.yaml}"),
        ],
    )
    def test_flag_equals_yaml_key(self, tmp_path, monkeypatch, flags, base, same):
        seen = []
        monkeypatch.setitem(COMMANDS, "label", lambda cfg: seen.append(cfg) or 0)
        (tmp_path / "base.yaml").write_text(base + "\n")
        (tmp_path / "same.yaml").write_text(same + "\n")
        assert run("label", "--config", tmp_path / "base.yaml", *flags) == 0
        assert run("label", "--config", tmp_path / "same.yaml") == 0
        assert seen[0] == seen[1]


LATIN1 = "caf\u00e9".encode("latin-1")
TUNE = b"input: {scenario: single_root}\nmc: {g_values: [3], n_values: %s}\n"


@pytest.mark.parametrize(
    "command, flag, data, code, message",
    [
        ("label", "--input",
         b"time,A\n2024-01-01T00:00:00+00:00,1.0\n2024-01-01T00:00:15,2.0\n",
         3, "line 3: timestamp 2024-01-01T00:00:15 has no UTC offset, unlike line 2"),
        ("label", "--input", None, 3, "cannot read input file {path}: "),
        ("label", "--input", b"t,A\n0,1.0\n1," + LATIN1 + b"\n", 3,
         "cannot read input file {path}: not UTF-8 text"),
        ("label", "--config", None, 2, "cannot read config file {path}: "),
        ("label", "--config", b"seed: " + LATIN1 + b"\n", 2,
         "cannot read config file {path}: not UTF-8 text"),
        ("label", "--scenario-file", None, 2, "cannot read scenario file {path}: "),
        ("label", "--scenario-file", b"name: " + LATIN1 + b"\n", 2,
         "cannot read scenario file {path}: not UTF-8 text"),
        ("tune", "--config", TUNE % b"[-5]", 2, "mc.n_values[0] must be >= 1, got -5"),
        ("tune", "--config", TUNE % b"[10, 0]", 2, "mc.n_values[1] must be >= 1, got 0"),
    ],
    ids=["mixed-time-zones", "csv-directory", "csv-latin1", "config-directory", "config-latin1",
         "scenario-directory", "scenario-latin1", "negative-n", "zero-n"],
)
def test_malformed_input_exits_with_its_code(tmp_path, capsys, command, flag, data, code, message):
    # the flag names a directory (data None) or a file holding data
    path = tmp_path / "given"
    if data is None:
        path.mkdir()
    else:
        path.write_bytes(data)
    out = tmp_path / "o"
    assert run(command, flag, path, "--out", out) == code
    err = capsys.readouterr().err
    assert message.format(path=path) in err, err
    assert not out.exists()


@pytest.mark.parametrize(
    "out, reason",
    [("afile", "File exists"), ("afile/sub", "Not a directory"),
     ("new/" + "x" * 300, "File name too long")],
    ids=["file", "under-a-file", "name-too-long"],
)
def test_unusable_out_is_config_error(tmp_path, capsys, out, reason):
    (tmp_path / "afile").write_text("kept\n")
    out_dir = tmp_path / out
    assert run("label", "--scenario", "single_root", "--out", out_dir) == 2
    err = capsys.readouterr().err
    assert f"config error: cannot create output directory {out_dir}: {reason}" in err, err
    # nothing is left behind, not even a parent the failed mkdir made
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile"]
    assert (tmp_path / "afile").read_text() == "kept\n"


@pytest.mark.parametrize("command", ["tune", "run-all"])
def test_unusable_out_is_refused_before_the_analysis(tmp_path, capsys, monkeypatch, command):
    # the output directory is checked before any stage runs, so a long
    # sweep is never lost to an --out that cannot be written
    def fail(*args, **kwargs):
        raise AssertionError("an analysis stage ran before --out was checked")

    monkeypatch.setattr("rcseq.cli.run_grid", fail)
    monkeypatch.setattr("rcseq.cli.rcd_runs", fail)
    out = tmp_path / "afile"
    out.write_text("kept\n")
    assert run(command, "--scenario", "single_root", "--out", out) == 2
    err = capsys.readouterr().err
    assert f"config error: cannot create output directory {out}: File exists" in err, err
    assert out.read_text() == "kept\n"


class TestOutputCleanup:
    @pytest.mark.parametrize("exc", [RuntimeError, KeyboardInterrupt])
    def test_failed_write_discards_bundle(self, tmp_path, monkeypatch, exc):
        def fail(bundle, *args, **kwargs):
            assert bundle.written  # earlier reports are on disk by now
            raise exc("injected")

        monkeypatch.setattr("rcseq.cli.write_histograms_csv", fail)
        out = tmp_path / "out"
        with pytest.raises(exc, match="injected"):
            run("run-all", "--scenario", "cascade", "--seed", 0, "--out", out)
        assert not out.exists()

    def test_failed_write_keeps_existing_out(self, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise RuntimeError("injected")

        monkeypatch.setattr("rcseq.cli.write_histograms_csv", fail)
        out = tmp_path / "out"
        out.mkdir()
        (out / "notes.txt").write_text("mine")
        with pytest.raises(RuntimeError, match="injected"):
            run("run-all", "--scenario", "cascade", "--seed", 0, "--out", out)
        assert [p.name for p in out.iterdir()] == ["notes.txt"]


class TestTune:
    def cfg(self, tmp_path, seed=3):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(
            f"""
input: {{scenario: single_root}}
seed: {seed}
mc:
  g_values: [3, 4]
  n_values: [10, 15, 20]
"""
        )
        return cfg

    def test_table_csv_and_params(self, tmp_path):
        assert run("tune", "--config", self.cfg(tmp_path), "--out", tmp_path / "o") == 0
        with (tmp_path / "o/tuning.csv").open() as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = list(reader)
        assert header == ["KPI Name", "Parameter g", "Probability Estimation", "Optimal n"]
        probs = {r[0]: float(r[2]) for r in rows}
        assert max(probs, key=probs.get) == "rrc_users"
        params = json.loads((tmp_path / "o/tuning_params.json").read_text())
        assert "rrc_users" in params["consolidated"]["prominent"]

    @pytest.mark.parametrize(
        "scenario, mc, message",
        [
            ("cascade", "mc: {g_values: [3, 9]}",
             "mc.g_values[1] must not exceed the panel KPI count (5), got 9"),
            ("two-kpi", "", "mc.g_values defaults to 3..V, which is empty for this panel's 2 KPIs"),
        ],
    )
    def test_panel_dependent_g_error_names_key(self, tmp_path, capsys, scenario, mc, message):
        flags = ["--scenario", scenario]
        if scenario == "two-kpi":
            spec = tmp_path / "toy.yaml"
            spec.write_text(
                'nodes: [p, q]\nedges: [[p, q, 1, 0.8]]\n'
                'sla: {metric: q, comparator: ">", threshold: 2.5, min_duration_ticks: 2}\n'
                "interventions: [{target: p, kind: hard, onset: 60, value: 5.0}]\n"
                "horizon: 120\nnormal_len: 50\nabnormal_len: 50\n"
            )
            flags = ["--scenario-file", spec]
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(mc + "\n")
        assert run("tune", "--config", cfg, *flags, "--out", tmp_path / "o") == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_rerun_identical_bytes(self, tmp_path):
        cfg = self.cfg(tmp_path)
        run("tune", "--config", cfg, "--out", tmp_path / "a")
        run("tune", "--config", cfg, "--out", tmp_path / "b")
        run("tune", "--config", cfg, "--jobs", "6", "--out", tmp_path / "c")
        for name in ("tuning.csv", "tuning_params.json"):
            assert read(tmp_path / "a" / name) == read(tmp_path / "b" / name)
            assert read(tmp_path / "a" / name) == read(tmp_path / "c" / name)


class TestCompareStates:
    def test_severed_edge_removed(self, tmp_path):
        assert run("compare-states", "--scenario", "cascade", "--seed", 1,
                   "--out", tmp_path) == 0
        diff = json.loads((tmp_path / "graph_diff.json").read_text())
        assert (tmp_path / "subgraph_normal.dot").exists()
        assert (tmp_path / "subgraph_abnormal.dot").exists()
        removed = {(e["src"], e["dst"]) for e in diff["removed"]}
        # the hard pin on prb_util severs its inbound edge in the abnormal state
        assert ("cce_load", "prb_util") in removed


def test_import_loads_no_process_pool():
    # discovery runs in one process, so importing the CLI starts no pool machinery
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    pool_modules = {"multiprocessing", "concurrent.futures.process"}
    code = f"import sys, rcseq.cli; print(sorted({pool_modules!r} & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_import_loads_no_scipy():
    # rcseq computes its normal tail itself; scipy and what it drags in stay unloaded
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    # a submodule never loads without its package, so the packages suffice
    heavy = {"scipy", "numpy.f2py", "numpy.testing", "charset_normalizer"}
    code = f"import sys, rcseq.cli; print(sorted({heavy!r} & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_csv_commands_do_not_load_the_simulator(tmp_path):
    # rcseq.scm is needed only for scenario input and synth; numpy.random
    # only for the simulator, as discovery computes its own shuffle stream
    run("synth", "--scenario", "cascade", "--seed", 2, "--out", tmp_path)
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        f"""
input: {{csv: {tmp_path / 'cascade_panel.csv'}}}
sla: {{metric: dl_throughput, comparator: "<", threshold: -3.0, min_duration_ticks: 4}}
label: {{normal_len: 120, abnormal_len: 120, lead_ticks: 20}}
mc: {{g_values: [3], n_values: [2]}}
seed: 2
"""
    )
    out = str(tmp_path / "out")
    code = (
        "import sys\n"
        "from rcseq.cli import main\n"
        "for cmd in ('discover', 'sequence', 'run-all', 'tune', 'compare-states'):\n"
        f"    assert main([cmd, '--config', {str(cfg)!r}, '--out', {out!r} + cmd]) == 0\n"
        "    print(cmd, 'rcseq.scm' in sys.modules, 'numpy.random' in sys.modules)\n"
        f"assert main(['run-all', '--scenario', 'single_root', '--out', {out!r}]) == 0\n"
        "print('scenario', 'rcseq.scm' in sys.modules)\n"
    )
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.splitlines() == [
        "discover False False",
        "sequence False False",
        "run-all False False",
        "tune False False",
        "compare-states False False",
        "scenario True",
    ]


def test_main_freezes_the_import_time_heap(tmp_path):
    # objects made by import move to the permanent generation, so process
    # exit does not collect them
    run("synth", "--scenario", "cascade", "--seed", 2, "--out", tmp_path)
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        f"""
input: {{csv: {tmp_path / 'cascade_panel.csv'}}}
sla: {{metric: dl_throughput, comparator: "<", threshold: -3.0, min_duration_ticks: 4}}
label: {{normal_len: 120, abnormal_len: 120, lead_ticks: 20}}
seed: 2
"""
    )
    # main calls load_config right after the freeze; objects frozen then
    # may die during the run, so the heap is read there. The command's stage
    # modules are imported inside main, before the freeze: every object
    # their namespaces hold must be frozen, that is, missing from
    # gc.get_objects(), which lists the collected generations only
    code = (
        "import gc, sys\n"
        "from rcseq import cli\n"
        "frozen, loose, load = [], [], cli.load_config\n"
        "def load_config(*args, **kwargs):\n"
        "    frozen.append(gc.get_freeze_count())\n"
        "    young = {id(o) for o in gc.get_objects()}\n"
        "    stages = [m for n, m in sys.modules.items() if n.startswith('rcseq.')]\n"
        "    loose.extend(\n"
        "        f'{m.__name__}.{k}' for m in stages for k, v in vars(m).items() if id(v) in young\n"
        "    )\n"
        "    return load(*args, **kwargs)\n"
        "cli.load_config = load_config\n"
        "alive = len(gc.get_objects())\n"
        "before = {n for n in sys.modules if n.startswith('rcseq.')}\n"
        f"argv = ['run-all', '--config', {str(cfg)!r}, '--out', {str(tmp_path / 'out')!r}]\n"
        "assert cli.main(argv) == 0\n"
        "print(frozen[0] >= alive)\n"
        "print(sorted({'rcseq.rcd', 'rcseq.subgraph', 'rcseq.sequence'} - before))\n"
        "print(loose)\n"
    )
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.splitlines() == [
        "True",
        "['rcseq.rcd', 'rcseq.sequence', 'rcseq.subgraph']",
        "[]",
    ]


# SHA-256 of each help text at 80 columns, as printed when every subcommand
# built its own copy of the common options
HELP_SHA256 = {
    "": "a31887f17954d4cc6a8397ace9a5b951b3a800684a30cdec94eaf72c7712c169",
    "synth": "214f1d3ac0013946d13c5ed8cd32b0aed9a9fd6e2a031bd3764ce62072d62c75",
    "label": "64c5e20c0aa3ea4598aaf9daf01c3174f97b7127837b3796fc2ec6e9b7586240",
    "discover": "935d8c707dde866ed869d8810684ba4889572f5d4b772c6ad4f7598466f58dd7",
    "subgraph": "adfce51d60b39959c2af16434d1ecfa452f40450cec75663b9715d30045b29ac",
    "sequence": "29f5451a07dcf7705db9b3df9edb4b45ae1341891ea8505445a5c2b5d5aa911b",
    "tune": "56f19f2980d3fb66ab37e93718abe9baafd7e93094d9eadf06a113ca6f5eead7",
    "compare-states": "6ef82bfde0f7ef44c87ef561ed8781097f3d7dc6de2366cca20e2510d8c67a0f",
    "run-all": "b3786c0f0a91e54fc7a46a7fa0a82665f62c9d849625a36a6a419aa8374deaaf",
}


@pytest.mark.parametrize("command", list(HELP_SHA256), ids=lambda c: c or "rcseq")
def test_help_text_unchanged(command, monkeypatch, capsys):
    assert set(HELP_SHA256) == {"", *COMMANDS}
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as done:
        main([command, "--help"] if command else ["--help"])
    assert done.value.code == 0
    text = capsys.readouterr().out
    assert hashlib.sha256(text.encode()).hexdigest() == HELP_SHA256[command], text
