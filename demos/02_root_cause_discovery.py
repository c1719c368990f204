"""
Root Cause Discovery on a labeled panel
=======================================

A binary failure indicator F (0 on the normal window, 1 on the abnormal
window) is tested against every KPI with partial-correlation CI tests on
random chunks of size g; survivors are refined hierarchically, and the
whole experiment repeats n times to build a causal-source frequency table.
"""

from rcseq.panel import label_states
from rcseq.rcd import CiOracle, RcdConfig, rcd_multi_run, rcd_single_run
from rcseq.scm import make_scenario

scenario = make_scenario("cascade")
panel, truth = scenario.build(seed=0)

# the SLA breach starts at tick 140; analyze 120 normal + 120 abnormal
# ticks with the abnormal window opening 20 ticks before the breach
labeled = label_states(panel, 140, normal_len=120, abnormal_len=120, lead_ticks=20)

print("one discovery run (g=3):")
# the oracle holds the pooled sample and answers every CI test of the run
oracle = CiOracle(labeled)
candidate = rcd_single_run(oracle, RcdConfig(g=3, seed=0), run_index=0,
                           exclude=("dl_throughput",))
for kpi, p in candidate.p_values:
    print(f"  {kpi}: max CI p-value against F = {p:.2e}")

print("\n30-run frequency table (g=3, alpha=0.05):")
table = rcd_multi_run(
    labeled,
    RcdConfig(g=3, n_runs=30, alpha=0.05, seed=0),
    exclude=("dl_throughput",),
    oracle=oracle,
)
for kpi in table.kpi_names:
    bar = "#" * int(30 * table.proportion(kpi))
    print(f"  {kpi:12s} {table.proportion(kpi):5.2f} {bar}")

print(f"\ninjected faults: {[iv.target for iv in truth.interventions]}")
# cce_load and prb_util carry the fault; the white-noise KPIs appear only
# at the CI test's false-positive rate.
