"""Each command imports only the stage modules it runs.

Every check here runs in a fresh interpreter: the test process has
imported every module long before, so an in-process check could not see
what a command loads, nor a name that `rcseq.cli` binds only when a
command runs.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rcseq import cli, config, rcd, sequence, subgraph
from rcseq.cli import main
from rcseq.panel import save_csv
from rcseq.scm import make_scenario

ROOT = Path(__file__).resolve().parents[1]
STAGE_MODULES = {f"rcseq.{m}" for m in ("rcd", "subgraph", "sequence", "tuner", "stats", "scm")}


def run_fresh(code: str) -> str:
    """Standard output of `code` run by a fresh interpreter that imports
    rcseq from this tree."""
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return result.stdout


@pytest.fixture(scope="module")
def csv_config(tmp_path_factory):
    """A config reading the cascade scenario's panel as CSV input, with a
    small tuner sweep."""
    root = tmp_path_factory.mktemp("csv_input")
    panel, _ = make_scenario("cascade").build(2)
    save_csv(panel, root / "panel.csv")
    cfg = root / "cfg.yaml"
    cfg.write_text(
        f"""
input: {{csv: {root / 'panel.csv'}}}
sla: {{metric: dl_throughput, comparator: "<", threshold: -3.0, min_duration_ticks: 4}}
label: {{normal_len: 120, abnormal_len: 120, lead_ticks: 20}}
mc: {{g_values: [3, 4], n_values: [2, 3]}}
seed: 2
"""
    )
    return cfg


# The stage modules each invocation loads, exactly; rcseq.stats comes with
# any of rcd, subgraph, sequence and tuner.
LOADED = {
    "label": set(),
    "discover": {"rcd", "stats"},
    "subgraph": {"rcd", "subgraph", "stats"},
    "sequence": {"rcd", "subgraph", "sequence", "stats"},
    "run-all": {"rcd", "subgraph", "sequence", "stats"},
    "tune": {"rcd", "tuner", "stats"},
    "compare-states": {"subgraph", "stats"},
    "--help": set(),
    "--version": set(),
}


@pytest.mark.parametrize("command", list(LOADED))
def test_command_loads_only_its_stage_modules(command, csv_config, tmp_path):
    argv = [command]
    if not command.startswith("--"):
        argv += ["--config", str(csv_config), "--out", str(tmp_path / "out")]
    out = run_fresh(
        "import sys\n"
        "from rcseq.cli import main\n"
        "try:\n"
        f"    code = main({argv!r})\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "print(code)\n"
        f"print(sorted({sorted(STAGE_MODULES)!r} & sys.modules.keys()))\n"
    )
    assert out.splitlines()[-2:] == ["0", str(sorted(f"rcseq.{m}" for m in LOADED[command]))]


def test_synth_loads_only_the_simulator(tmp_path):
    out = run_fresh(
        "import sys\n"
        "from rcseq.cli import main\n"
        f"assert main(['synth', '--scenario', 'cascade', '--out', {str(tmp_path)!r}]) == 0\n"
        f"print(sorted({sorted(STAGE_MODULES)!r} & sys.modules.keys()))\n"
    )
    assert out.strip() == "['rcseq.scm', 'rcseq.stats']"


# What importing each module first, on its own, loads of the stage modules:
# the config sections and the report writers load none
IMPORTED = {
    "config": set(),
    "report": set(),
    "cli": set(),
    "rcd": {"rcd", "stats"},
    "subgraph": {"subgraph", "stats"},
    "sequence": {"sequence", "subgraph", "stats"},
    "tuner": {"tuner", "rcd", "stats"},
}


@pytest.mark.parametrize("module", list(IMPORTED))
def test_module_imports_first_on_its_own(module):
    # a cycle among the modules would fail the import in some order
    out = run_fresh(
        "import sys\n"
        f"import rcseq.{module}\n"
        f"print(sorted({sorted(STAGE_MODULES)!r} & sys.modules.keys()))\n"
    )
    assert out.strip() == str(sorted(f"rcseq.{m}" for m in IMPORTED[module]))


def test_old_names_are_the_config_objects():
    assert rcd.RcdConfig is config.RcdConfig
    assert subgraph.SubgraphConfig is config.SubgraphConfig
    assert sequence.CisConfig is config.CisConfig
    assert sequence.CORRECTIONS is config.CORRECTIONS


def test_cli_resolves_every_stage_name():
    for stage, names in cli.STAGE_NAMES.items():
        module = importlib.import_module(f"rcseq.{stage}")
        for name in names:
            assert getattr(cli, name) is getattr(module, name)
    assert set(cli.COMMAND_STAGES) == set(cli.COMMANDS)
    with pytest.raises(AttributeError, match="no attribute 'not_a_stage_name'"):
        cli.not_a_stage_name


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


# The spans each command's hooked layers must record
TRACED = {
    "tune": {
        "panel.load_csv", "panel.label", "tuner.run_grid", "tuner.rcd_multi_run",
        "rcd.local_skeleton", "stats.batch_marginal_ci.rcd", "report.write",
    },
    "compare-states": {
        "panel.load_csv", "panel.label", "subgraph.build_subgraph", "report.write",
    },
    "run-all": {
        "panel.load_csv", "panel.label", "rcd.rcd_runs", "rcd.local_skeleton",
        "stats.batch_marginal_ci.rcd", "subgraph.build_subgraph", "sequence.detect_events",
        "stats.ks_two_sample", "sequence.deviation_traces", "report.write",
    },
}


@pytest.mark.parametrize("command", list(TRACED))
def test_tracer_hooks_a_fresh_process(command, csv_config, tmp_path):
    # bench/tracer.py patches names on rcseq.cli before main runs, in a
    # process that has loaded no stage module; main must keep its wrappers
    argv = [command, "--config", str(csv_config), "--out", str(tmp_path / "traced")]
    out = run_fresh(
        "import importlib.util, json, sys\n"
        f"spec = importlib.util.spec_from_file_location('bench_tracer', {str(ROOT / 'bench' / 'tracer.py')!r})\n"
        "tracer_module = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(tracer_module)\n"
        "import rcseq.cli\n"
        f"assert not {sorted(STAGE_MODULES)!r} & sys.modules.keys()\n"
        "tracer = tracer_module.Tracer().install(tracer_module.LAYER_HOOKS)\n"
        "try:\n"
        f"    code = rcseq.cli.main({argv!r})\n"
        "finally:\n"
        "    tracer.uninstall()\n"
        "print(json.dumps({'code': code, 'names': sorted(set(tracer.names)),"
        " 'counters': tracer.counters}))\n"
    )
    traced = json.loads(out.splitlines()[-1])
    assert traced["code"] == 0
    assert TRACED[command] <= set(traced["names"])
    if command == "tune":
        assert traced["counters"]["tuner.cells"] == 2 * 2
        assert traced["counters"]["tuner.rcd_runs"] == 2 * (2 + 3)
    assert main([command, "--config", str(csv_config), "--out", str(tmp_path / "plain")]) == 0
    assert _tree_bytes(tmp_path / "traced") == _tree_bytes(tmp_path / "plain")
