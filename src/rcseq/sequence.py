"""Deviation-onset detection and causal intervention sequence assembly.

`detect_events` is the one onset scan: a window slides over each KPI's
abnormal segment and is compared to the full normal-window baseline with
the two-sample K-S test. Raw p-values are corrected across the whole batch
(every window of every scanned KPI), the earliest window whose adjusted p
clears the significance level marks the onset, a Z-score codes the
deviation direction, and the resulting events are STEP-ordered and
overlaid on the causal subgraph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# CisConfig and CORRECTIONS are defined with the other config sections and
# re-exported here
from .config import CORRECTIONS, CisConfig
from .errors import AnalysisError
from .panel import LabeledPanel
from .stats import bh_adjust, bonferroni, ks_two_sample
from .subgraph import CausalSubgraph

__all__ = [
    "CisConfig",
    "DeviationEvent",
    "CisReport",
    "window_offsets",
    "detect_events",
    "direction_at_onset",
    "order_events",
    "assemble_cis",
]


@dataclass(frozen=True)
class DeviationEvent:
    """One KPI's detected deviation: onset tick (panel row), direction in
    {-1, 0, +1}, and the K-S statistic and adjusted p at the onset window."""

    kpi: str
    onset_tick: int
    direction: int
    ks_d: float
    p_adj: float


@dataclass(frozen=True)
class CisReport:
    """STEP-ordered deviation events overlaid on the causal subgraph."""

    steps: tuple[DeviationEvent, ...]
    subgraph: CausalSubgraph
    flagged_nodes: tuple[str, ...]
    flagged_edges: tuple[tuple[str, str, int], ...]
    config: dict


def window_offsets(segment_len: int, window: int, stride: int) -> list[int]:
    """Start offsets of every full window inside a segment."""
    if window < 8:
        raise AnalysisError(f"window must be >= 8 ticks, got {window}")
    if stride < 1:
        raise AnalysisError(f"stride must be >= 1, got {stride}")
    return list(range(0, segment_len - window + 1, stride))


def _adjust(p_raw: np.ndarray, correction: str) -> np.ndarray:
    if correction == "bonferroni":
        return bonferroni(p_raw)
    if correction == "bh_fdr":
        return bh_adjust(p_raw)
    return np.asarray(p_raw, dtype=float)  # "none": CisConfig admits no other


def _baseline_stats(labeled: LabeledPanel, kpi: str) -> tuple[float, float]:
    """Mean and sample sd of the KPI's normal window (sd 0 for one tick)."""
    baseline = labeled.normal_values(kpi)
    sigma = float(baseline.std(ddof=1)) if baseline.size > 1 else 0.0
    return float(baseline.mean()), sigma


def direction_at_onset(
    series,
    onset: int,
    window: int,
    mu: float,
    sigma: float,
    z_thr: float,
) -> int:
    """Direction of the onset window's mean relative to the normal state.

    With sigma = 0 (hard-constant normal window) the direction is the sign
    of the raw difference. Raises ValueError for z_thr <= 0 or sigma < 0.
    """
    if z_thr <= 0:
        raise ValueError(f"z_thr must be positive, got {z_thr}")
    if sigma < 0:
        raise ValueError(f"sigma must be non-negative, got {sigma}")
    series = np.asarray(series, dtype=float)
    return int(_directions(series[onset : onset + window].mean(), mu, sigma, z_thr))


def _directions(means, mu: float, sigma: float, z_thr: float) -> np.ndarray:
    """Direction code in {-1, 0, +1} of each window mean: the sign of
    z = (mean - mu) / sigma where |z| > z_thr, else 0; with sigma = 0 the
    sign of mean - mu."""
    diff = np.asarray(means, dtype=float) - mu
    if sigma == 0.0:
        return np.sign(diff)
    z = diff / sigma
    return np.sign(z) * (np.abs(z) > z_thr)


def detect_events(
    labeled: LabeledPanel,
    kpis,
    cfg: CisConfig,
) -> tuple[DeviationEvent, ...]:
    """Batch onset scan over the given KPIs.

    The correction is applied jointly across all windows of all KPIs
    (m = #KPIs x #windows); onsets are reported as absolute panel rows.
    """
    kpis = list(kpis)
    if not kpis:
        return ()
    a0, a1 = labeled.abnormal_window
    offsets = window_offsets(a1 - a0, cfg.window, cfg.stride)
    n0, n1 = labeled.normal_window
    for what, length in (("baseline", n1 - n0), ("abnormal", a1 - a0)):
        if length < cfg.window:
            raise AnalysisError(
                f"{what} window ({length} ticks) must be at least one window ({cfg.window})"
            )
    raw = np.empty((len(kpis), len(offsets)))
    dstat = np.empty_like(raw)
    for i, kpi in enumerate(kpis):
        # every window of the abnormal segment against the whole baseline
        windows = sliding_window_view(labeled.abnormal_values(kpi), cfg.window)[offsets]
        result = ks_two_sample(windows, labeled.normal_values(kpi))
        raw[i], dstat[i] = result.p_raw, result.d
    adjusted = _adjust(raw.ravel(), cfg.correction).reshape(raw.shape)
    events = []
    for i, kpi in enumerate(kpis):
        hits = np.nonzero(adjusted[i] <= cfg.alpha)[0]
        if not hits.size:
            continue
        j = int(hits[0])
        onset = a0 + offsets[j]
        mu, sigma = _baseline_stats(labeled, kpi)
        direction = direction_at_onset(
            labeled.abnormal_values(kpi), offsets[j], cfg.window, mu, sigma, cfg.z_thr
        )
        events.append(
            DeviationEvent(
                kpi=kpi,
                onset_tick=int(onset),
                direction=direction,
                ks_d=float(dstat[i, j]),
                p_adj=float(adjusted[i, j]),
            )
        )
    return tuple(events)


def order_events(events) -> tuple[DeviationEvent, ...]:
    """STEP ordering: ascending onset, ties broken by larger K-S statistic,
    then lexicographic KPI name. Position k is STEP k+1."""
    return tuple(sorted(events, key=lambda e: (e.onset_tick, -e.ks_d, e.kpi)))


def assemble_cis(
    subgraph: CausalSubgraph,
    steps,
    sla_metric: str,
    config: dict | None = None,
) -> CisReport:
    """Overlay ordered events on the subgraph.

    Every step KPI is flagged; an edge is flagged as part of the sequence
    path when both endpoints have events and the source's onset does not
    come after the target's. The SLA metric is the terminal node.
    """
    steps = order_events(steps)
    if sla_metric not in subgraph.nodes:
        raise AnalysisError(f"SLA metric {sla_metric!r} missing from subgraph nodes")
    onsets = {}
    for event in steps:
        if event.kpi not in subgraph.nodes:
            raise AnalysisError(
                f"step KPI {event.kpi!r} is not a subgraph node (stage mismatch)"
            )
        onsets[event.kpi] = event.onset_tick
    flagged_edges = tuple(
        edge.key
        for edge in subgraph.edges
        if edge.source in onsets
        and edge.target in onsets
        and onsets[edge.source] <= onsets[edge.target]
    )
    return CisReport(
        steps=steps,
        subgraph=subgraph,
        flagged_nodes=tuple(e.kpi for e in steps),
        flagged_edges=flagged_edges,
        config=dict(config or {}),
    )


def deviation_traces(
    labeled: LabeledPanel,
    events,
    kpis,
    cfg: CisConfig,
) -> tuple[np.ndarray, list[str]]:
    """Per-tick deviation traces in {-1, 0, +1} for export.

    Zero before a KPI's detected onset (and everywhere for KPIs without an
    event); from the onset onward each tick carries the direction code of
    the forward window starting there, so a detected shift reads as a
    sustained +1/-1 band once the window clears the transition. The window
    means of a KPI's ticks are coded by one call of the array direction
    rule that `direction_at_onset` also applies.
    """
    kpis = list(kpis)
    by_kpi = {e.kpi: e for e in events}
    t = labeled.panel.n_ticks
    traces = np.zeros((t, len(kpis)), dtype=np.int8)
    for j, kpi in enumerate(kpis):
        event = by_kpi.get(kpi)
        if event is None:
            continue
        end = labeled.abnormal_window[1]
        # windows are clipped at the end of the abnormal window
        series = labeled.panel.column(kpi)[:end]
        mu, sigma = _baseline_stats(labeled, kpi)
        onset = event.onset_tick
        # one strided pass gives the mean of every whole window; the last
        # window - 1 ticks keep their per-tick means of clipped windows
        whole = (
            sliding_window_view(series[onset:], cfg.window).mean(axis=1)
            if end - onset >= cfg.window
            else np.empty(0)
        )
        clipped = [series[tick:].mean() for tick in range(onset + whole.size, end)]
        traces[onset:end, j] = _directions(np.r_[whole, clipped], mu, sigma, cfg.z_thr)
    return traces, kpis
