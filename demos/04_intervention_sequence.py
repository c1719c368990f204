"""
From deviation onsets to the causal intervention sequence
=========================================================

A window slides over each KPI's abnormal segment and is K-S-tested against
the normal baseline; the earliest window whose BH-adjusted p-value clears
the significance level marks the onset. Ordering the events and overlaying
them on the normal-state subgraph yields the causal intervention sequence
that traces the fault into the SLA breach.
"""

import json

from rcseq.panel import label_states
from rcseq.report import cis_to_dict, to_dot
from rcseq.scm import make_scenario
from rcseq.sequence import CisConfig, assemble_cis, detect_events, order_events
from rcseq.subgraph import SubgraphConfig, build_subgraph

scenario = make_scenario("cascade")
panel, truth = scenario.build(seed=0)
labeled = label_states(panel, 140, normal_len=120, abnormal_len=120, lead_ticks=20)

events = detect_events(
    labeled,
    kpis=panel.kpi_names,
    cfg=CisConfig(alpha=0.1, window=16, stride=4, correction="bh_fdr"),
)
steps = order_events(events)

print("detected deviation events (window=16, stride=4, cis_alpha=0.1, BH):")
for i, event in enumerate(steps, start=1):
    true_onset = truth.onset_of(event.kpi)
    print(
        f"  STEP {i}: {event.kpi:13s} onset={event.onset_tick} "
        f"(true {true_onset}) direction={event.direction:+d} "
        f"d={event.ks_d:.2f} p_adj={event.p_adj:.1e}"
    )

graph = build_subgraph(
    labeled.window_panel("normal"),
    [e.kpi for e in steps],
    SubgraphConfig(tau_max=8, alpha=0.05),
)
report = assemble_cis(graph, steps, sla_metric="dl_throughput")

print("\nsequence overlaid on the normal-state subgraph (flagged = on the path):")
print(to_dot(report.subgraph, report.flagged_nodes, report.flagged_edges))

print("machine-readable report:")
print(json.dumps(cis_to_dict(report), indent=2, sort_keys=True)[:600], "...")
