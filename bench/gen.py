"""Seeded input generator for the benchmark workloads.

Simulates a lagged linear structural causal model with Gaussian noise and
scheduled hard (pinned value) or soft (mean shift) faults, and writes what
the ``rcseq`` CLI reads: a CSV panel and a YAML config. The ground truth
goes to a separate JSON file that only the benchmark's output checks read.

This module deliberately does not import ``rcseq``: a change to the
program's own simulator must not change a workload.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

_COMPARATORS = {"<": np.less, ">": np.greater}
_MAX_ATTEMPTS = 64


@dataclass(frozen=True)
class Fault:
    """hard: the target is pinned to `value` from `onset` on (its structural
    equation is cut); soft: `value` is added to it from `onset` on."""

    target: str
    kind: str
    onset: int
    value: float


@dataclass(frozen=True)
class PanelSpec:
    """A lagged SCM, its faults, the SLA rule and the labelling geometry.

    `breach_range` bounds the onset of the first SLA breach (inclusive). It
    is the range in which the fault, not the pre-fault noise, causes the
    breach and in which the configured windows fit inside the panel.

    The `balanced` KPIs are centred within each analysis window, so their
    correlation with the failure indicator is exactly zero. Otherwise about
    one seed in six has a noise KPI pass discovery's marginal screen by
    chance, which multiplies the conditional CI tests by up to four.
    """

    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str, int, float], ...]
    faults: tuple[Fault, ...]
    horizon: int
    sla: dict
    normal_len: int
    abnormal_len: int
    lead: int
    breach_range: tuple[int, int]
    extra_config: dict = field(default_factory=dict)
    noise_sd: dict = field(default_factory=dict)  # per node; 1.0 when absent
    balanced: tuple[str, ...] = ()

    @property
    def max_lag(self) -> int:
        return max(lag for _, _, lag, _ in self.edges)


def simulate(spec: PanelSpec, rng: np.random.Generator) -> np.ndarray:
    """Horizon x V values; a burn-in of 10x the largest lag is discarded."""
    idx = {name: i for i, name in enumerate(spec.nodes)}
    burn = 10 * spec.max_lag
    total = burn + spec.horizon
    sd = np.array([spec.noise_sd.get(name, 1.0) for name in spec.nodes])
    values = rng.standard_normal((total, len(spec.nodes))) * sd
    edges = [(idx[p], idx[c], lag, w) for p, c, lag, w in spec.edges]
    faults = [(idx[f.target], f.kind, f.onset + burn, f.value) for f in spec.faults]
    for t in range(total):
        for parent, child, lag, w in edges:
            if t >= lag:
                values[t, child] += w * values[t - lag, parent]
        for j, kind, onset, value in faults:
            if t >= onset:
                values[t, j] = value if kind == "hard" else values[t, j] + value
    return values[burn:]


def first_breach(series: np.ndarray, sla: dict) -> int | None:
    """Start of the first run of at least min_duration_ticks SLA hits."""
    hits = _COMPARATORS[sla["comparator"]](series, sla["threshold"])
    run = 0
    for t, hit in enumerate(hits):
        run = run + 1 if hit else 0
        if run >= sla["min_duration_ticks"]:
            return t - run + 1
    return None


def generate(spec: PanelSpec, seed: int) -> tuple[np.ndarray, int, int]:
    """(values, breach onset, attempt) for the seed.

    A draw whose first breach falls outside `breach_range` (noise breached
    before the fault, or the fault never did) is redrawn from the next
    stream of the same seed, so every seed yields a valid incident. The
    accepted draw's `balanced` KPIs are then centred within each window.
    """
    sla_col = spec.nodes.index(spec.sla["metric"])
    lo, hi = spec.breach_range
    for attempt in range(_MAX_ATTEMPTS):
        rng = np.random.default_rng(np.random.SeedSequence([seed, attempt]))
        values = simulate(spec, rng)
        breach = first_breach(values[:, sla_col], spec.sla)
        if breach is not None and lo <= breach <= hi:
            abnormal_start = breach - spec.lead
            for window in (
                slice(abnormal_start - spec.normal_len, abnormal_start),
                slice(abnormal_start, abnormal_start + spec.abnormal_len),
            ):
                for name in spec.balanced:
                    j = spec.nodes.index(name)
                    values[window, j] -= values[window, j].mean()
            return values, breach, attempt
    raise RuntimeError(f"no valid incident in {_MAX_ATTEMPTS} draws for seed {seed}")


def write_inputs(spec: PanelSpec, seed: int, out_dir) -> dict:
    """Write panel.csv, config.yaml and truth.json; returns the truth."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    values, breach, attempt = generate(spec, seed)
    with (out_dir / "panel.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("tick", *spec.nodes))
        for tick, row in enumerate(values):
            writer.writerow((tick, *(repr(float(v)) for v in row)))
    config = {
        "input": {"csv": "panel.csv"},
        "sla": dict(spec.sla),
        "label": {
            "normal_len": spec.normal_len,
            "abnormal_len": spec.abnormal_len,
            "lead_ticks": spec.lead,
        },
        "seed": seed,
        **spec.extra_config,
    }
    (out_dir / "config.yaml").write_text(
        yaml.safe_dump(config, sort_keys=True), encoding="utf-8"
    )
    truth = {
        "seed": seed,
        "attempt": attempt,
        "breach": breach,
        "edges": [list(e) for e in spec.edges],
        "faults": [
            {"target": f.target, "kind": f.kind, "onset": f.onset, "value": f.value}
            for f in spec.faults
        ],
        "roots": [f.target for f in spec.faults],
    }
    (out_dir / "truth.json").write_text(
        json.dumps(truth, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return truth
