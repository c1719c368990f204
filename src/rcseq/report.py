"""Report emission: CIS JSON, DOT graphs, tuning CSV, histogram and
deviation-trace data files.

Everything written here is byte-deterministic for identical inputs: JSON is
dumped with sorted keys, CSV floats use repr, DOT ordering is lexicographic,
and no timestamps or environment details are embedded.
"""

from __future__ import annotations

import csv
import math
import json
from contextlib import suppress
from itertools import takewhile
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError
from .panel import LabeledPanel

if TYPE_CHECKING:
    # for annotations only: writing a command's reports loads no analysis
    # module that the command did not run
    from .sequence import CisReport
    from .subgraph import CausalSubgraph, GraphDiff
    from .tuner import ConsolidatedParams, TrendResult, TuningRow

TABLE_COLUMNS = ("KPI Name", "Parameter g", "Probability Estimation", "Optimal n")


class OutputBundle:
    """Tracks files written by one command so a failed stage can clean up.

    Used as a context manager: any exception raised inside the block,
    KeyboardInterrupt included, discards the files written so far, removes
    the directories the bundle created if they are left empty, and
    propagates. An output directory that cannot be created (a file is in
    its place or on its path) is a ConfigError naming it and the reason.
    """

    def __init__(self, out_dir):
        self.out_dir = Path(out_dir)
        # deepest first, so that discard() can rmdir them in order
        self.created = list(
            takewhile(lambda d: not d.exists(), (self.out_dir, *self.out_dir.parents))
        )
        self.written: list[Path] = []
        try:
            self.out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            self.discard()
            why = exc.strerror or str(exc)
            raise ConfigError(f"cannot create output directory {self.out_dir}: {why}") from None

    def __enter__(self) -> "OutputBundle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.discard()

    def path(self, name: str) -> Path:
        p = self.out_dir / name
        self.written.append(p)
        return p

    def discard(self) -> None:
        for p in self.written:
            p.unlink(missing_ok=True)
        self.written.clear()
        for d in self.created:
            # rmdir removes only an empty directory: one that holds files the
            # bundle did not write stays, and one a failed mkdir never made fails
            with suppress(OSError):
                d.rmdir()
        self.created.clear()


def write_json(path, payload) -> None:
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def write_text(path, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


def cis_to_dict(report: CisReport) -> dict:
    flagged_nodes = set(report.flagged_nodes)
    flagged_edges = set(report.flagged_edges)
    return {
        "steps": [
            {
                "step": i + 1,
                "kpi": e.kpi,
                "onset_tick": e.onset_tick,
                "direction": e.direction,
                "ks_d": e.ks_d,
                "p_adj": e.p_adj,
            }
            for i, e in enumerate(report.steps)
        ],
        "nodes": [
            {"kpi": n, "flagged": n in flagged_nodes} for n in report.subgraph.nodes
        ],
        "edges": [
            {
                "src": e.source,
                "dst": e.target,
                "lag": e.lag,
                "flagged": e.key in flagged_edges,
            }
            for e in report.subgraph.edges
        ],
        "config": report.config,
    }


def write_cis(bundle: OutputBundle, report: CisReport) -> None:
    write_json(bundle.path("cis.json"), cis_to_dict(report))


def to_dot(
    graph: CausalSubgraph,
    flagged_nodes=(),
    flagged_edges=(),
) -> str:
    """Deterministic DOT rendering; nodes and edges in lexicographic order.

    Flagged nodes carry intervention=true, flagged edges sequence=true
    (flagged_edges holds (source, target, lag) triples).
    """
    flagged_nodes = set(flagged_nodes)
    flagged_edges = set(flagged_edges)
    lines = ["digraph causal_subgraph {", "  rankdir=LR;"]
    for node in sorted(graph.nodes):
        attrs = [f'label="{node}"']
        if node in flagged_nodes:
            attrs.append("intervention=true")
        lines.append(f'  "{node}" [{", ".join(attrs)}];')
    for edge in sorted(graph.edges, key=lambda e: e.key):
        attrs = [f'label="lag={edge.lag}, r={edge.r:.3f}"', f"lag={edge.lag}"]
        if edge.key in flagged_edges:
            attrs.append("sequence=true")
        lines.append(f'  "{edge.source}" -> "{edge.target}" [{", ".join(attrs)}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def write_cis_dot(bundle: OutputBundle, report: CisReport) -> None:
    write_text(
        bundle.path("subgraph.dot"),
        to_dot(
            report.subgraph,
            flagged_nodes=report.flagged_nodes,
            flagged_edges=report.flagged_edges,
        ),
    )


def write_subgraph_dot(bundle: OutputBundle, graph: CausalSubgraph, name: str) -> None:
    write_text(bundle.path(name), to_dot(graph))


def subgraph_to_dict(graph: CausalSubgraph) -> dict:
    return {
        "nodes": list(graph.nodes),
        "edges": [
            {"src": e.source, "dst": e.target, "lag": e.lag, "r": e.r, "p": e.p}
            for e in graph.edges
        ],
    }


def diff_to_dict(diff: GraphDiff) -> dict:
    def triples(items):
        return [{"src": s, "dst": t, "lag": lag} for s, t, lag in items]

    return {
        "added": triples(diff.added),
        "removed": triples(diff.removed),
        "common": triples(diff.common),
    }


def write_frequency_csv(bundle: OutputBundle, table) -> None:
    with bundle.path("frequency.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("kpi", "count", "n_runs", "proportion"))
        for kpi, count in zip(table.kpi_names, table.counts):
            writer.writerow((kpi, int(count), table.n_runs, repr(int(count) / table.n_runs)))


def runs_to_dict(runs) -> list[dict]:
    return [
        {
            "run": i,
            "candidates": list(cand.kpis),
            "p_values": {k: p for k, p in cand.p_values},
            "warnings": list(cand.warnings),
        }
        for i, cand in enumerate(runs)
    ]


def write_tuning_csv(bundle: OutputBundle, rows: list[TuningRow]) -> None:
    with bundle.path("tuning.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(TABLE_COLUMNS)
        for row in rows:
            writer.writerow((row.kpi, row.g, repr(row.p_hat), row.n_opt))


def write_tuning_params(
    bundle: OutputBundle,
    params: ConsolidatedParams | None,
    trends: list[TrendResult] | None,
    p_thr: float,
) -> None:
    payload = {
        "consolidated": (
            {
                "g_star": params.g_star,
                "n_star": params.n_star,
                "prominent": list(params.prominent),
                "p_thr": p_thr,
            }
            if params is not None
            else {"g_star": None, "n_star": None, "prominent": [], "p_thr": p_thr}
        ),
        "slopes": (
            {
                t.kpi: {
                    "per_g": {str(g): s for g, s in t.slopes},
                    "negative_fraction": t.negative_fraction,
                    "reliable": t.reliable,
                }
                for t in trends
            }
            if trends is not None
            else None
        ),
    }
    write_json(bundle.path("tuning_params.json"), payload)


# The most bins fd_bin_edges gives. The Freedman-Diaconis count has no
# bound: a near-constant KPI with a short spike has a tiny IQR next to a
# wide range, and can ask for 10**8 bins.
MAX_HISTOGRAM_BINS = 2**16


def fd_bin_edges(values) -> np.ndarray:
    """Freedman-Diaconis bin edges of a non-empty sample, bit for bit as
    ``np.histogram_bin_edges(values, bins="fd")`` gives them up to
    MAX_HISTOGRAM_BINS bins; a sample that asks for more gets that many.

    numpy takes the quartiles from `np.percentile`, whose first call
    imports `numpy.ma` (about 13 ms). Here they come from `np.partition`
    with numpy's linear-interpolation rule: the q-quantile of the sorted
    sample s lies at index h = (n - 1) q and is s[j] + (s[j+1] - s[j]) g,
    with j = floor(h) and g = h - j, or s[j+1] - (s[j+1] - s[j]) (1 - g)
    once g >= 0.5. The rest follows numpy: the width is 2 IQR n^(-1/3),
    a zero width or a constant sample makes one bin, and a non-finite
    value raises numpy's ValueError.
    """
    a = np.asarray(values, dtype=float).ravel()
    first, last = a.min(), a.max()
    if not (np.isfinite(first) and np.isfinite(last)):
        raise ValueError(f"autodetected range of [{first}, {last}] is not finite")
    if first == last:
        first, last = first - 0.5, last + 0.5
    n = a.size
    positions = [(n - 1) * 0.75, (n - 1) * 0.25]
    low = [min(math.floor(h), n - 1) for h in positions]
    ranked = np.partition(a, sorted({*low, *(min(j + 1, n - 1) for j in low)}))
    quartiles = []
    for h, j in zip(positions, low):
        lo, hi = float(ranked[j]), float(ranked[min(j + 1, n - 1)])
        g = h - j if j + 1 < n else 1.0
        quartiles.append(hi - (hi - lo) * (1.0 - g) if g >= 0.5 else lo + (hi - lo) * g)
    width = 2.0 * (quartiles[0] - quartiles[1]) * n ** (-1.0 / 3.0)
    bins = int(min(np.ceil((last - first) / width), MAX_HISTOGRAM_BINS)) if width else 1
    edges = np.linspace(first, last, bins + 1)
    if np.any(edges[:-1] >= edges[1:]):
        raise ValueError(
            f"Too many bins for data range. Cannot create {bins} finite-sized bins."
        )
    return edges


def write_histograms_csv(
    bundle: OutputBundle, labeled: LabeledPanel, kpis
) -> None:
    """Shared-bin normal/abnormal counts per KPI (Freedman-Diaconis edges
    over the pooled windows; constant KPIs collapse to a single bin)."""
    with bundle.path("histograms.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("kpi", "bin_left", "bin_right", "normal_count", "abnormal_count"))
        for kpi in kpis:
            normal = labeled.normal_values(kpi)
            abnormal = labeled.abnormal_values(kpi)
            pooled = np.concatenate([normal, abnormal])
            edges = fd_bin_edges(pooled)
            n_counts, _ = np.histogram(normal, bins=edges)
            a_counts, _ = np.histogram(abnormal, bins=edges)
            for left, right, nc, ac in zip(edges[:-1], edges[1:], n_counts, a_counts):
                writer.writerow((kpi, repr(float(left)), repr(float(right)), int(nc), int(ac)))


def write_traces_csv(
    bundle: OutputBundle, ticks, traces: np.ndarray, kpis
) -> None:
    with bundle.path("deviation_traces.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("tick", *kpis))
        writer.writerows(np.column_stack([ticks, traces]).astype(np.int64).tolist())
