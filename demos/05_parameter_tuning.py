"""
Monte Carlo tuning of the discovery parameters
==============================================

Sweeping chunk size g and run count n gives each KPI a causal-source
proportion P[g, n]. Per KPI the median-across-g rule picks g, the greatest
proportional variance reduction picks n, and the prominent sources'
maxima consolidate into a single (g*, n*) for production runs.
"""

from rcseq.panel import label_states
from rcseq.rcd import RcdConfig
from rcseq.scm import single_root_scenario
from rcseq.tuner import (
    consolidate,
    prominent_sources,
    run_grid,
    tuning_rows,
    variance_trend,
)

panel, truth = single_root_scenario().build(seed=3)
labeled = label_states(panel, 120, normal_len=120, abnormal_len=120)

grid = run_grid(
    labeled,
    g_values=(3, 4, 5),
    n_values=(10, 15, 20, 25, 30),
    base_cfg=RcdConfig(alpha=0.05),
    seed=3,
    exclude=("dl_throughput",),
)

print(f"{'KPI Name':12s} {'Parameter g':>11s} {'Probability Estimation':>23s} {'Optimal n':>9s}")
rows = tuning_rows(grid)
for row in rows:
    print(f"{row.kpi:12s} {row.g:>11d} {row.p_hat:>23.2f} {row.n_opt:>9d}")

print("\nvariance-trend diagnostics (slope of p(1-p)/n against n, per g):")
for kpi in grid.kpi_names:
    trend = variance_trend(grid, kpi)
    slopes = ", ".join(f"g={g}: {s:+.1e}" for g, s in trend.slopes)
    print(f"  {kpi:12s} reliable={str(trend.reliable):5s} [{slopes}]")

prominent = prominent_sources(rows, p_thr=0.4)
print(f"\nprominent causal sources (p > 0.4, not poor): {list(prominent)}")
if prominent:
    params = consolidate(rows, prominent)
    print(f"consolidated parameters: g* = {params.g_star}, n* = {params.n_star}")

# the injected root (rrc_users) tops the probability column; a KPI found
# in every single run has zero-variance estimates, which is why its
# optimal n reads 0 (no variance left to reduce).
