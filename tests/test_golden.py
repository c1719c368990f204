"""Golden SHA-256 hashes of every file each CLI subcommand writes.

These pin the report bytes of fixed-seed runs so that a refactor can prove
it changed no output. The hashes were recorded with Python 3.11.7,
numpy 2.4.6 and PyYAML 6.0.3. Regenerate them only when that toolchain
changes (a numpy upgrade may move the last bits of a float, but not
discovery's chunking: rcseq computes its shuffle streams itself), and never
in a change that also edits `src/`: a hash that moves together with the
code proves nothing about the code.

To print fresh hashes, run this file as a script:

    PYTHONPATH=src python tests/test_golden.py

With `--diff` it prints only the (case, file) pairs whose hash differs
from GOLDEN, a file missing on one side included, and exits 1 if there
are any.

To show what a byte-changing commit moved, dump every case's outputs at
the commit before it and compare them at the commit itself:

    PYTHONPATH=src python tests/test_golden.py --dump /tmp/before
    PYTHONPATH=src python tests/test_golden.py --compare /tmp/before

`--dump DIR` writes each case's files under `DIR/<case>/`. `--compare DIR`
reruns every case and, for each file whose bytes differ from the dump,
prints every JSON float field that moved (list indices written `[]`) with
the number of values that moved and their largest relative change. Any
other difference (a file missing on one side, a non-JSON file, a key, a
length, a string or an integer that differs) is printed as FAIL, and the
exit status is then 1.
"""

import argparse
import contextlib
import hashlib
import json
import math
import sys
import tempfile
from pathlib import Path

import pytest

from rcseq.cli import main

TUNE_CONFIG = """
input: {scenario: single_root}
seed: 3
mc:
  g_values: [3, 4]
  n_values: [10, 15, 20]
"""

# Every subgraph and cis setting moved off its default, so that a stage that
# ignored one of them would move a hash.
STAGE_CONFIG = """
subgraph: {tau_max: 9, alpha: 0.02, max_cond: 2}
cis: {alpha: 0.05, window: 24, stride: 2, correction: bonferroni, z_thr: 2.5}
"""

# CSV input: the cascade panel of `synth --scenario cascade --seed 3`, with
# the scenario's SLA rule and label windows. `panel.csv` keeps its integer
# ticks (numpy's C parser reads it); `panel_iso.csv` has ISO-8601 ticks 15 s
# apart and one blank cell, so the row parser reads it and fills the gap.
CSV_CONFIG = """
input: {{csv: {csv}, missing: linear-interpolate}}
sla: {{metric: dl_throughput, comparator: "<", threshold: -3.0, min_duration_ticks: 4}}
label: {{normal_len: 120, abnormal_len: 120, lead_ticks: 20}}
seed: 11
"""

# Discovery on autocorrelated input: root -> mid -> sla at lag 2 beside 12
# AR(1) noise KPIs (phi 0.9), which stay dependent on F at levels 1-3, so
# the conditional tests run into the hundreds (860 at seed 0). Its default
# tune sweep has refinement passes and a fractional P (n03 and n04 at g 8).
AUTOCORRELATED_SCENARIO = """
name: autocorrelated
nodes: [root, mid, sla, n01, n02, n03, n04, n05, n06, n07, n08, n09, n10, n11, n12]
edges: [[root, mid, 2, 0.8], [mid, sla, 2, 0.8],
  [n01, n01, 1, 0.9], [n02, n02, 1, 0.9], [n03, n03, 1, 0.9], [n04, n04, 1, 0.9],
  [n05, n05, 1, 0.9], [n06, n06, 1, 0.9], [n07, n07, 1, 0.9], [n08, n08, 1, 0.9],
  [n09, n09, 1, 0.9], [n10, n10, 1, 0.9], [n11, n11, 1, 0.9], [n12, n12, 1, 0.9]]
sla: {metric: sla, comparator: ">", threshold: 3.0, min_duration_ticks: 4}
interventions: [{target: root, kind: soft, onset: 200, shift: 4.0}]
horizon: 400
normal_len: 120
abnormal_len: 120
lead_ticks: 16
"""

CASES = {
    "synth": ("synth", "--scenario", "cascade", "--seed", "3"),
    "label": ("label", "--scenario", "cascade", "--seed", "3"),
    "discover": ("discover", "--scenario", "cascade", "--seed", "3"),
    "discover-autocorrelated": (
        "discover", "--scenario-file", "autocorrelated.yaml", "--seed", "0"
    ),
    "subgraph": ("subgraph", "--scenario", "cascade", "--seed", "3"),
    "sequence": ("sequence", "--scenario", "cascade", "--seed", "3"),
    "run-all-jobs1": ("run-all", "--scenario", "cascade", "--seed", "11", "--jobs", "1"),
    "run-all-jobs2": ("run-all", "--scenario", "cascade", "--seed", "11", "--jobs", "2"),
    "run-all-null": ("run-all", "--scenario", "null", "--seed", "2"),
    "compare-states": ("compare-states", "--scenario", "cascade", "--seed", "1"),
    "run-all-stage-config": (
        "run-all", "--scenario", "cascade", "--seed", "11", "--config", "{stages}"
    ),
    "compare-states-stage-config": (
        "compare-states", "--scenario", "cascade", "--seed", "1", "--config", "{stages}"
    ),
    "tune": ("tune", "--config", "{config}"),
    "tune-jobs2": ("tune", "--config", "{config}", "--jobs", "2"),
    "tune-autocorrelated": (
        "tune", "--scenario-file", "autocorrelated.yaml", "--seed", "0"
    ),
    "run-all-csv": ("run-all", "--config", "{csv_config}"),
    "run-all-csv-iso": ("run-all", "--config", "{iso_config}"),
}

GOLDEN = {
    "synth": {
        "cascade_panel.csv":
            "1b870d6841178a30b8655039bffeca924a1f96715da8c16b327a2f98e20fd3b0",
        "cascade_truth.json":
            "519bb80d9d556dedba8a18ef88aa4e9bf1ce7d17a77451bb5994732362573f61",
    },
    "label": {
        "labels.json":
            "72f91f6f32ba8a65efb5d9eb968f02eebb42521a676132d733e2831137f85e41",
    },
    "discover": {
        "frequency.csv":
            "0b04ef9c46b7514612e847508134caf331b52e997325182cb72aa0507df049dc",
        "rcd_runs.json":
            "848161db4ecae3deb4493fba7d8fa56f751d3e168b248c5f4bfd391bea7deac4",
    },
    "discover-autocorrelated": {
        "frequency.csv":
            "042f2a623c0d5cb4ad2cfe3106e0d8f2a238c3d07bdb356e3c7704ae47e57dde",
        "rcd_runs.json":
            "7eff0aae062c0a03d864509478cc188596b922866eb709607a38b18f9b0d832e",
    },
    "subgraph": {
        "subgraph.dot":
            "32cf5af549e4d047f15ebd4bb99acf38bac37391687a349ee00ce0eaa4b93748",
        "subgraph.json":
            "a9a54246a28cb1a867457dad84b1477707c3759641becc42a0bca5bb30ca8b6e",
    },
    "sequence": {
        "cis.json":
            "51bb2e38f43a4e711d399ad15e81dc679d76f9eae6eb7f37223c1923e9cd9e2c",
        "deviation_traces.csv":
            "12b06b81384820656344651733d2438af2fd88cc103dcf6c37afee7c034efc6f",
    },
    "run-all-jobs1": {
        "cis.json":
            "17c435bb81dcdc3b1816f44a5c2e72af796348fb9df9a4c7b0679bdf3a0f3cec",
        "deviation_traces.csv":
            "3ea0702c4be273f936a7ae70f56474420ce6ed5723fbdd409a8ea152b5a9a687",
        "histograms.csv":
            "43d8c6362a62ba888ad665227a2d3397b047c96b670a239a1edb0077702f76c5",
        "run_metadata.json":
            "1b02c09079f84a843c6a79aef114b324903d082daf09f5fabe438d4c0b98f7e9",
        "subgraph.dot":
            "d96a4d72ce30fafa58db4c8377d7024a16dde08927101f8f9f892b720d7781f0",
    },
    "run-all-jobs2": {
        "cis.json":
            "17c435bb81dcdc3b1816f44a5c2e72af796348fb9df9a4c7b0679bdf3a0f3cec",
        "deviation_traces.csv":
            "3ea0702c4be273f936a7ae70f56474420ce6ed5723fbdd409a8ea152b5a9a687",
        "histograms.csv":
            "43d8c6362a62ba888ad665227a2d3397b047c96b670a239a1edb0077702f76c5",
        "run_metadata.json":
            "1b02c09079f84a843c6a79aef114b324903d082daf09f5fabe438d4c0b98f7e9",
        "subgraph.dot":
            "d96a4d72ce30fafa58db4c8377d7024a16dde08927101f8f9f892b720d7781f0",
    },
    "run-all-null": {
        "cis.json":
            "cefc54964ad75b0b1c32047b05d24e93c8773aaf911418065e0520e8370dd097",
        "run_metadata.json":
            "3da5b9a7216c99e5117a19a210e863ec55258655baffd8aec986c3e7caedb88a",
    },
    "compare-states": {
        "graph_diff.json":
            "05317a2bcd2972d647db1f8d564ab443dfec8116e9f13e1f6f3669282e6c775b",
        "subgraph_abnormal.dot":
            "88513ad60c3684bf037b711a97d836e8bc84f86f65f8f7a146ac57e48d721b69",
        "subgraph_normal.dot":
            "e959c3c870f5ab1e85a14ded8a5a47133306f4185ef122cdee003a9b8a6ad47b",
    },
    "run-all-stage-config": {
        "cis.json":
            "b468f6bd28aee3e926aad00b46f42258306bddf4622deab81bd3eb2e04fa6e7a",
        "deviation_traces.csv":
            "a263c9ce566fab906d85c570be2dd67673f84075ed9ba61bd5bc6743b76767f9",
        "histograms.csv":
            "43d8c6362a62ba888ad665227a2d3397b047c96b670a239a1edb0077702f76c5",
        "run_metadata.json":
            "1770a9e5fc2c85d5d9649d9d1154f3fb2917b828b020e0e178bd37470811368b",
        "subgraph.dot":
            "d96a4d72ce30fafa58db4c8377d7024a16dde08927101f8f9f892b720d7781f0",
    },
    "compare-states-stage-config": {
        "graph_diff.json":
            "af0907f772ad04ccf8f3fc258fd4fca83ba768f9141005ddc0dd65b37dc621cf",
        "subgraph_abnormal.dot":
            "7f3c1854f3108c84308e6aab1aa6800fa5782838d5e8d3125d4cab2bc4edc9bc",
        "subgraph_normal.dot":
            "6f251a6f4932cc44b5fba32f8c9b9d4f65f446b5e88db0ddb4457232d1bf3aa6",
    },
    "tune": {
        "tuning.csv":
            "ceefccd86718c066cbcabf369b607a24d74d508971ca0592541bd1898cb36b50",
        "tuning_params.json":
            "5cb6b180a54c7736d5ac5f7b78c4d910dfb50e104adca75bd99cc246132df0fd",
    },
    "tune-jobs2": {
        "tuning.csv":
            "ceefccd86718c066cbcabf369b607a24d74d508971ca0592541bd1898cb36b50",
        "tuning_params.json":
            "5cb6b180a54c7736d5ac5f7b78c4d910dfb50e104adca75bd99cc246132df0fd",
    },
    "tune-autocorrelated": {
        "tuning.csv":
            "867733b8f4fb92b9b828544deb821b2cb12a40db016ad7521e87899d72afebe6",
        "tuning_params.json":
            "e25654cdb43ddc16d7d52cfe0ed9cc0955632f1770ddde1f0f53f81c17c67b02",
    },
    "run-all-csv": {
        "cis.json":
            "51bb2e38f43a4e711d399ad15e81dc679d76f9eae6eb7f37223c1923e9cd9e2c",
        "deviation_traces.csv":
            "12b06b81384820656344651733d2438af2fd88cc103dcf6c37afee7c034efc6f",
        "histograms.csv":
            "a3f96ffcee90725f628c6d26c3681167d0e13a7460d240b3758a7fa033f61dd9",
        "run_metadata.json":
            "3b38d6e74be2e720143f9dc8b27919212f2b851d2d93c03df6378097bec7ba50",
        "subgraph.dot":
            "610c543a860ea49aeb6aeba0c478c8c29a18483b17373bbcb59122eb8feebf01",
    },
    "run-all-csv-iso": {
        "cis.json":
            "51bb2e38f43a4e711d399ad15e81dc679d76f9eae6eb7f37223c1923e9cd9e2c",
        "deviation_traces.csv":
            "12b06b81384820656344651733d2438af2fd88cc103dcf6c37afee7c034efc6f",
        "histograms.csv":
            "a3f96ffcee90725f628c6d26c3681167d0e13a7460d240b3758a7fa033f61dd9",
        "run_metadata.json":
            "a2e43cba870849245497bfac6f98e68d131d1572c9e227d0edb65690cccc90bc",
        "subgraph.dot":
            "610c543a860ea49aeb6aeba0c478c8c29a18483b17373bbcb59122eb8feebf01",
    },
}


def write_csv_inputs() -> None:
    """Write `panel.csv` and `panel_iso.csv` (see CSV_CONFIG) and their
    configs into the current directory."""
    assert main(["synth", "--scenario", "cascade", "--seed", "3", "--out", "synth"]) == 0
    lines = Path("synth/cascade_panel.csv").read_text().splitlines()
    Path("panel.csv").write_text("\n".join(lines) + "\n")
    iso = [lines[0]]
    for line in lines[1:]:
        tick, rest = line.split(",", 1)
        minutes, seconds = divmod(15 * int(tick), 60)
        iso.append(f"2024-03-01T{minutes // 60:02d}:{minutes % 60:02d}:{seconds:02d}Z,{rest}")
    # row 60's cce_load, a root cause in the normal window, left blank
    cells = iso[61].split(",")
    cells[1] = ""
    iso[61] = ",".join(cells)
    Path("panel_iso.csv").write_text("\n".join(iso) + "\n")
    Path("csv.yaml").write_text(CSV_CONFIG.format(csv="panel.csv"))
    Path("iso.yaml").write_text(CSV_CONFIG.format(csv="panel_iso.csv"))


def run_case(case: str, workdir: Path) -> Path:
    """Run one case into a fresh directory and return it. The case runs in
    workdir, so that the input path its report echoes is the same on every
    run."""
    config = workdir / "tune.yaml"
    config.write_text(TUNE_CONFIG)
    stages = workdir / "stages.yaml"
    stages.write_text(STAGE_CONFIG)
    (workdir / "autocorrelated.yaml").write_text(AUTOCORRELATED_SCENARIO)
    out = workdir / "out"
    args = [
        a.format(config=config, stages=stages, csv_config="csv.yaml", iso_config="iso.yaml")
        for a in CASES[case]
    ]
    with contextlib.chdir(workdir):
        if case.startswith("run-all-csv"):
            write_csv_inputs()
        assert main([*args, "--out", str(out)]) == 0
    return out


def output_hashes(case: str, workdir: Path) -> dict[str, str]:
    """Map each output file name of one case to the SHA-256 of its bytes."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(run_case(case, workdir).iterdir())
    }


def moved_hashes(recorded: dict[str, dict[str, str]]) -> list[tuple[str, str]]:
    """The (case, file) pairs whose recorded hash is not the golden one."""
    return [
        (case, name)
        for case, hashes in recorded.items()
        for name in sorted(hashes.keys() | GOLDEN[case].keys())
        if hashes.get(name) != GOLDEN[case].get(name)
    ]


def moved_floats(old, new, path: str = "", moved=None) -> dict[str, tuple[int, float]]:
    """Walk two JSON documents together and map each float field that
    moved (list indices written `[]`) to (values moved, largest relative
    change). Raises ValueError at the first difference of any other kind."""
    moved = {} if moved is None else moved
    if isinstance(old, float) and isinstance(new, float):
        if old != new and not (math.isnan(old) and math.isnan(new)):
            count, worst = moved.get(path, (0, 0.0))
            rel = abs(new - old) / abs(old) if old else math.inf
            moved[path] = (count + 1, max(worst, rel))
    elif isinstance(old, dict) and isinstance(new, dict) and old.keys() == new.keys():
        for key in old:
            moved_floats(old[key], new[key], f"{path}.{key}" if path else key, moved)
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for a, b in zip(old, new):
            moved_floats(a, b, f"{path}[]", moved)
    elif type(old) is not type(new) or old != new:
        raise ValueError(f"{path or '<root>'}: {old!r} -> {new!r}")
    return moved


def compare_outputs(dumped: Path, out: Path) -> list[str]:
    """Report lines for one case: each moved float field of a file whose
    bytes differ from the dump, or a FAIL line for any other difference."""
    lines = []
    for name in sorted({p.name for p in dumped.iterdir()} | {p.name for p in out.iterdir()}):
        old, new = dumped / name, out / name
        if not (old.exists() and new.exists()):
            lines.append(f"FAIL {name}: missing {'in the dump' if new.exists() else 'now'}")
            continue
        if old.read_bytes() == new.read_bytes():
            continue
        if old.suffix != ".json":
            lines.append(f"FAIL {name}: bytes differ")
            continue
        try:
            moved = moved_floats(json.loads(old.read_text()), json.loads(new.read_text()))
        except ValueError as exc:
            lines.append(f"FAIL {name}: {exc}")
            continue
        lines.extend(
            f"{name} {field}: {count} moved, max relative change {worst:.3g}"
            for field, (count, worst) in moved.items()
        )
    return lines


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_golden_hashes(case, tmp_path):
    assert output_hashes(case, tmp_path) == GOLDEN[case]


def test_moved_hashes_names_only_the_moved_files():
    recorded = {case: dict(hashes) for case, hashes in GOLDEN.items()}
    assert moved_hashes(recorded) == []
    recorded["discover"]["frequency.csv"] = "0" * 64
    del recorded["tune"]["tuning.csv"]
    recorded["label"]["extra.json"] = "0" * 64
    assert moved_hashes(recorded) == [
        ("label", "extra.json"),
        ("discover", "frequency.csv"),
        ("tune", "tuning.csv"),
    ]


def test_moved_floats_names_fields_and_rejects_other_changes():
    old = {"runs": [{"p_values": {"a": 0.5, "b": 1e-30}, "run": 0}], "edges": [{"p": 0.25}]}
    new = {"runs": [{"p_values": {"a": 0.5, "b": 1.5e-30}, "run": 0}], "edges": [{"p": 0.3}]}
    assert moved_floats(old, old) == {}
    assert moved_floats(old, new) == {
        "runs[].p_values.b": (1, pytest.approx(0.5)),
        "edges[].p": (1, pytest.approx(0.2)),
    }
    for changed in (
        {**new, "runs": [{**new["runs"][0], "run": 1}]},
        {**new, "edges": [{"p": 1}]},
        {**new, "edges": []},
        {**new, "extra": 0.0},
    ):
        with pytest.raises(ValueError):
            moved_floats(old, changed)


def test_compare_outputs_lists_moved_floats_and_fails_other_files(tmp_path):
    dumped, out = tmp_path / "dump", tmp_path / "out"
    for d, p in ((dumped, 0.25), (out, 0.5)):
        d.mkdir()
        (d / "same.csv").write_text("a,b\n")
        (d / "edges.json").write_text(json.dumps({"edges": [{"p": p}]}))
        (d / "graph.dot").write_text(f"digraph {{ {p} }}\n")
    (dumped / "gone.json").write_text("{}")
    assert compare_outputs(dumped, out) == [
        "edges.json edges[].p: 1 moved, max relative change 1",
        "FAIL gone.json: missing now",
        "FAIL graph.dot: bytes differ",
    ]


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Print the output hashes of every case.")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--diff", action="store_true", help="print only the moved (case, file) pairs"
    )
    mode.add_argument(
        "--dump", metavar="DIR", type=Path, help="write every case's outputs under DIR/<case>/"
    )
    mode.add_argument(
        "--compare",
        metavar="DIR",
        type=Path,
        help="list the JSON float fields that moved against a --dump DIR",
    )
    args = parser.parse_args()
    if args.dump or args.compare:
        failed = False
        for name in CASES:
            with tempfile.TemporaryDirectory() as tmp:
                out = run_case(name, Path(tmp))
                if args.dump:
                    (args.dump / name).mkdir(parents=True, exist_ok=True)
                    for p in out.iterdir():
                        (args.dump / name / p.name).write_bytes(p.read_bytes())
                    continue
                lines = compare_outputs(args.compare / name, out)
            failed |= any(line.startswith("FAIL") for line in lines)
            for line in lines:
                print(name, line)
        sys.exit(1 if failed else 0)
    recorded = {}
    for name in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            recorded[name] = output_hashes(name, Path(tmp))
    if args.diff:
        moved = moved_hashes(recorded)
        for case, name in moved:
            print(case, name)
        sys.exit(1 if moved else 0)
    json.dump(recorded, sys.stdout, indent=4)
    print()
