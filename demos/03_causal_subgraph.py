"""
Normal-state causal subgraph and state comparison
=================================================

Two-stage lagged discovery over the candidate KPIs: per-target condition
selection, then momentary conditional independence tests for every
surviving link. Building the graph separately on the normal and abnormal
windows and diffing the edge sets shows which causal links the fault
severed.
"""

from rcseq.panel import label_states
from rcseq.report import to_dot
from rcseq.scm import ScmSpec, InterventionSpec, generate, inject
from rcseq.subgraph import SubgraphConfig, build_subgraph, graph_diff

spec = ScmSpec(
    nodes=("cce_load", "prb_util", "dl_throughput"),
    edges=(
        ("cce_load", "prb_util", 8, 0.9),
        ("prb_util", "dl_throughput", 8, -0.9),
    ),
    noise_sd=1.0,
)

# --- recover the true lagged structure from calm data ----------------------

panel = generate(spec, horizon=1000, seed=0)
graph = build_subgraph(panel, spec.nodes, SubgraphConfig(tau_max=8, alpha=0.01))
print("edges recovered from 1000 normal-state ticks (alpha=0.01):")
for edge in graph.edges:
    print(f"  {edge.source} -> {edge.target}  lag={edge.lag}  r={edge.r:+.3f}  p={edge.p:.1e}")
print("\nDOT rendering:\n")
print(to_dot(graph))

# --- what a hard fault does to the structure --------------------------------

panel, _ = inject(
    spec,
    [InterventionSpec("prb_util", "hard", onset=1000, value=6.0)],
    horizon=2000,
    seed=0,
)
labeled = label_states(panel, 1000, normal_len=1000, abnormal_len=1000)
cfg = SubgraphConfig(tau_max=8, alpha=0.01)
normal = build_subgraph(labeled.window_panel("normal"), spec.nodes, cfg)
abnormal = build_subgraph(labeled.window_panel("abnormal"), spec.nodes, cfg)
diff = graph_diff(normal, abnormal)
print("pin prb_util=6.0 in the abnormal window and diff the two graphs:")
print(f"  removed (present only in normal): {list(diff.removed)}")
print(f"  added   (present only in abnormal): {list(diff.added)}")
print(f"  common: {list(diff.common)}")
# pinning prb_util severs both its inbound and outbound links, so they
# turn up under "removed".
