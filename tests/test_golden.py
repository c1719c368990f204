"""Golden SHA-256 hashes of every file each CLI subcommand writes.

These pin the report bytes of fixed-seed runs so that a refactor can prove
it changed no output. The hashes were recorded with Python 3.11.7,
numpy 2.4.6 and PyYAML 6.0.3. Regenerate them only when that toolchain
changes (a numpy upgrade may move the last bits of a float), and never in
a change that also edits `src/`: a hash that moves together with the code
proves nothing about the code.

To print fresh hashes, run this file as a script:

    PYTHONPATH=src python tests/test_golden.py

With `--diff` it prints only the (case, file) pairs whose hash differs
from GOLDEN, a file missing on one side included, and exits 1 if there
are any.
"""

import argparse
import hashlib
import json
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

CASES = {
    "synth": ("synth", "--scenario", "cascade", "--seed", "3"),
    "label": ("label", "--scenario", "cascade", "--seed", "3"),
    "discover": ("discover", "--scenario", "cascade", "--seed", "3"),
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
            "ad74c5f665cccf31cb52dd67e2e45a59391404b720d61b6ef773183cb6387991",
    },
    "subgraph": {
        "subgraph.dot":
            "32cf5af549e4d047f15ebd4bb99acf38bac37391687a349ee00ce0eaa4b93748",
        "subgraph.json":
            "b24d2d1a38433b10e15dd1b84e42d41a1c07098413edbc88a9df04303f677bcd",
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
            "50cec9f2d21b45a984b1e256db97aeb017d544e0c1ee0949514414ca21c23892",
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
            "50cec9f2d21b45a984b1e256db97aeb017d544e0c1ee0949514414ca21c23892",
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
            "7fd2ce76b5afe74c67b7f0efd1e9b784801fb970bd75ef4f31baf836babc1736",
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
}


def output_hashes(case: str, workdir: Path) -> dict[str, str]:
    """Run one case into a fresh directory; map each output file name to
    the SHA-256 of its bytes."""
    config = workdir / "tune.yaml"
    config.write_text(TUNE_CONFIG)
    stages = workdir / "stages.yaml"
    stages.write_text(STAGE_CONFIG)
    out = workdir / "out"
    args = [a.format(config=config, stages=stages) for a in CASES[case]]
    assert main([*args, "--out", str(out)]) == 0
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
    }


def moved_hashes(recorded: dict[str, dict[str, str]]) -> list[tuple[str, str]]:
    """The (case, file) pairs whose recorded hash is not the golden one."""
    return [
        (case, name)
        for case, hashes in recorded.items()
        for name in sorted(hashes.keys() | GOLDEN[case].keys())
        if hashes.get(name) != GOLDEN[case].get(name)
    ]


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


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Print the output hashes of every case.")
    parser.add_argument(
        "--diff", action="store_true", help="print only the moved (case, file) pairs"
    )
    args = parser.parse_args()
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
