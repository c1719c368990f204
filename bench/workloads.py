"""The four benchmark workloads: input shape, CLI command and output check.

Each workload is one `rcseq` subcommand on one generated incident. The
`check` functions read only the command's output directory and the
generator's ground truth, and return a list of problems (empty when the
output is correct).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from gen import Fault, PanelSpec


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    spec: PanelSpec
    check: Callable[[Path, dict], list[str]]


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


# --- tune-mc: the criterion-7 shape ---------------------------------------

def _tune_spec() -> PanelSpec:
    noise = ("sinr_avg", "rach_rate", "mac_bler_1", "mac_bler_2", "mac_bler_3")
    return PanelSpec(
        nodes=("rrc_users", "cce_util", "dl_throughput", *noise),
        edges=(
            ("rrc_users", "cce_util", 2, 0.9),
            ("cce_util", "dl_throughput", 2, -0.9),
        ),
        faults=(Fault("rrc_users", "hard", 120, 6.0),),
        horizon=240,
        sla={"metric": "dl_throughput", "comparator": "<", "threshold": -2.5,
             "min_duration_ticks": 4},
        normal_len=112,
        abnormal_len=112,
        lead=8,
        breach_range=(120, 136),
        extra_config={"mc": {"g_values": [3, 4, 5, 6, 7, 8]}},
        balanced=noise,
    )


def _check_tune(out: Path, truth: dict) -> list[str]:
    prominent = _read_json(out / "tuning_params.json")["consolidated"]["prominent"]
    return [
        f"root {root!r} not prominent (prominent: {prominent})"
        for root in truth["roots"]
        if root not in prominent
    ]


# --- incident-multi: three independent faults ------------------------------

def _multi_spec() -> PanelSpec:
    # Root noise (sd 2.5) keeps the two pinned roots from explaining F almost
    # perfectly, so every root and child stays dependent on F under any
    # conditioning set and the discovery work barely varies with the seed.
    roots = (("cce_load", "hard", 6.0), ("prb_util", "soft", 4.0), ("rach_fail", "hard", 6.0))
    nodes, edges, faults = [], [], []
    for k, (root, kind, value) in enumerate(roots):
        children = (f"{root}_child_a", f"{root}_child_b")
        nodes += [root, *children]
        edges += [(root, children[0], 2, 0.8), (root, children[1], 3, 0.8)]
        edges.append((root, "dl_latency", 4, 0.5))
        faults.append(Fault(root, kind, 520 + 4 * k, value))
    nodes.append("dl_latency")
    noise = tuple(f"noise_{i:02d}" for i in range(1, 11))
    nodes += noise
    return PanelSpec(
        nodes=tuple(nodes),
        edges=tuple(edges),
        faults=tuple(faults),
        horizon=1000,
        sla={"metric": "dl_latency", "comparator": ">", "threshold": 7.0,
             "min_duration_ticks": 4},
        normal_len=480,
        abnormal_len=480,
        lead=40,
        breach_range=(520, 560),
        # five runs (rcseq's default is ten) keep a command near 1.5 s, so a
        # run holds enough samples for a steady median
        extra_config={"rcd": {"n_runs": 5}},
        noise_sd={root: 2.5 for root, _, _ in roots},
        balanced=noise,
    )


def _check_multi(out: Path, truth: dict) -> list[str]:
    candidates = _read_json(out / "run_metadata.json")["candidates"]
    return [
        f"root {root!r} not a candidate (candidates: {candidates})"
        for root in truth["roots"]
        if root not in candidates
    ]


# --- compare-wide: one root fanning out over a wide panel ------------------

def _wide_spec() -> PanelSpec:
    children = [f"svc_{i:02d}" for i in range(1, 16)]
    # One lag for every child: with lags L and L + 1 side by side, a child
    # of lag L seen one tick back is a noisy copy of the root at lag L + 1,
    # and conditioning on it can hide the true root edge of its sibling.
    edges = [("core_load", c, 2, 0.8) for c in children]
    edges += [(c, "sla_latency", 1, 0.6) for c in children[:4]]
    return PanelSpec(
        nodes=("core_load", *children, "sla_latency", *(f"aux_{i:02d}" for i in range(1, 34))),
        edges=tuple(edges),
        faults=(Fault("core_load", "soft", 300, 6.0),),
        horizon=480,
        sla={"metric": "sla_latency", "comparator": ">", "threshold": 7.0,
             "min_duration_ticks": 4},
        normal_len=120,
        abnormal_len=120,
        lead=8,
        breach_range=(300, 368),
        extra_config={"subgraph": {"tau_max": 8}},
    )


_DOT_EDGE = re.compile(r'^\s*"([^"]+)" -> "([^"]+)" \[.*\blag=(\d+)\];$')


def _check_wide(out: Path, truth: dict) -> list[str]:
    found = set()
    for line in (out / "subgraph_normal.dot").read_text(encoding="utf-8").splitlines():
        m = _DOT_EDGE.match(line)
        if m:
            found.add((m.group(1), m.group(2), int(m.group(3))))
    root = truth["roots"][0]
    return [
        f"true edge {parent}->{child} at lag {lag} missing from subgraph_normal.dot"
        for parent, child, lag, _ in truth["edges"]
        if parent == root and (parent, child, lag) not in found
    ]


# --- incident-long: a long single chain -----------------------------------

def _long_spec() -> PanelSpec:
    chain = ("ul_load", "prb_util", "cce_util", "bler", "dl_latency")
    return PanelSpec(
        nodes=(*chain, "noise_01", "noise_02"),
        balanced=("noise_01", "noise_02"),
        edges=tuple((a, b, 8, 0.9) for a, b in zip(chain, chain[1:])),
        faults=(Fault("ul_load", "hard", 1200, 10.0),),
        horizon=2400,
        sla={"metric": "dl_latency", "comparator": ">", "threshold": 5.5,
             "min_duration_ticks": 4},
        normal_len=960,
        abnormal_len=960,
        lead=40,
        # the fault reaches the SLA metric 32 ticks after onset; a breach by
        # tick 1240 opens the abnormal window at most 8 ticks before onset
        breach_range=(1232, 1240),
    )


def _check_long(out: Path, truth: dict) -> list[str]:
    steps = _read_json(out / "cis.json")["steps"]
    root = truth["roots"][0]
    if not steps or steps[0]["kpi"] != root:
        first = steps[0]["kpi"] if steps else None
        return [f"CIS step 1 is {first!r}, expected root {root!r}"]
    return []


# Why each workload is in the benchmark: bench/README.md and BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("tune-mc", "tune", _tune_spec(), _check_tune),
        Workload("incident-multi", "run-all", _multi_spec(), _check_multi),
        Workload("compare-wide", "compare-states", _wide_spec(), _check_wide),
        Workload("incident-long", "run-all", _long_spec(), _check_long),
    )
}
