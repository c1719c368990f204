"""Pipeline equivalence of the CI kernels: discovery and the lagged subgraph
run once through the package's kernels (`ci_test` in discovery; in the
subgraph `marginal_ci` for every target's level 0, `screen_ci` for the
screen's levels >= 1 and `stacked_ci` for MCI) and once through the scalar
references kept in `test_stats`, one test, or one target's marginal batch,
at a time. Both must reach the same decisions with statistics equal to
1e-12 relative."""

import numpy as np
import pytest

from rcseq import rcd, stats, subgraph
from rcseq.panel import KpiPanel, apply_sla_rule, label_states
from rcseq.rcd import FrequencyTable, RcdConfig, rcd_runs
from rcseq.scm import make_scenario
from rcseq.subgraph import SubgraphConfig, build_subgraph
from test_stats import (
    reference_batch_marginal_ci,
    reference_ci_test,
    reference_screen,
    reference_stacked,
)

RTOL = 1e-12

# the default settings, and the golden stage config's subgraph section
SUBGRAPH_CONFIGS = (SubgraphConfig(), SubgraphConfig(tau_max=9, alpha=0.02, max_cond=2))


def scenario_case(name, seed):
    """The labeled panel and SLA metric `run-all` analyses for a scenario."""
    scenario = make_scenario(name)
    panel, _ = scenario.build(seed)
    sla = scenario.spec.sla
    breach = apply_sla_rule(panel, sla)[0]
    labeled = label_states(
        panel,
        breach,
        scenario.normal_len,
        scenario.abnormal_len,
        lead_ticks=scenario.lead_ticks,
    )
    return labeled, sla.metric


def wide_case(v, seed, collinear=False):
    """v iid noise KPIs, about half of them fed by the first at lag 2. Over
    the last 120 of 240 ticks the third-last KPI shifts by 3 and feeds the
    second-last at lag 1, and the last KPI stands in for the SLA metric.
    With `collinear`, the fourth-last KPI is an exact copy of the first and
    the fifth-last an affine combination of the first two, as derived KPIs
    are, so the parent screen meets rank-deficient conditioning sets. The
    sixth-last is then derived as well, from the eighth- and ninth-last.
    Those two feed the seventh-last at lag 1, in a combination the derived
    KPI does not correlate with, and the seventh-last (lag 2) and the
    derived KPI (lag 3) feed the tenth-last. So the MCI test of that lag-2
    link conditions on the derived KPI and on both its inputs, a
    rank-deficient set."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((240, v))
    values[2:, 1 : v // 2] += 0.6 * values[:-2, [0]]
    values[120:, v - 3] += 3.0
    values[1:, v - 2] += 0.8 * values[:-1, v - 3]
    if collinear:
        values[:, v - 4] = values[:, 0]
        values[:, v - 5] = 2.0 * values[:, 0] - 0.5 * values[:, 1] + 1.0
        a, b, derived, x, y = v - 8, v - 9, v - 6, v - 7, v - 10
        values[:, derived] = 2.0 * values[:, a] + values[:, b] + 1.0
        values[1:, x] += values[:-1, a] - 2.0 * values[:-1, b]
        values[2:, y] += 0.8 * values[:-2, x]
        values[3:, y] += 0.8 * values[:-3, derived]
    names = tuple(f"k{i:03d}" for i in range(v))
    panel = KpiPanel(ticks=np.arange(240), kpi_names=names, values=values)
    return label_states(panel, 120, 120, 120), names[-1]


def run_pipeline(labeled, sla_metric, seed):
    """Discovery, then the subgraphs `run-all` and `compare-states` build."""
    runs = rcd_runs(labeled, RcdConfig(seed=seed), exclude=(sla_metric,))
    names = tuple(k for k in labeled.panel.kpi_names if k != sla_metric)
    table = FrequencyTable.from_runs(names, runs)
    candidates = [k for k, p in zip(names, table.proportions) if p >= 0.5]
    scan = list(dict.fromkeys([*candidates, sla_metric]))
    everything = labeled.panel.kpi_names
    graphs = []
    for cfg in SUBGRAPH_CONFIGS:
        graphs.append(build_subgraph(labeled.window_panel("normal"), scan, cfg))
        graphs.append(build_subgraph(labeled.window_panel("normal"), everything, cfg))
        graphs.append(build_subgraph(labeled.window_panel("abnormal"), everything, cfg))
    return runs, graphs


def assert_close(got, want):
    assert got == pytest.approx(want, rel=RTOL, abs=0.0)


CASES = {
    **{f"cascade-{seed}": (scenario_case, ("cascade", seed)) for seed in (1, 3, 11)},
    "single_root-3": (scenario_case, ("single_root", 3)),
    "wide-25": (wide_case, (25, 141)),
    "wide-50": (wide_case, (50, 143)),
    "collinear-25": (wide_case, (25, 145, True)),
}


def reference_marginal(x_matrix, ys):
    """Every target's level 0 as its own call of the old marginal kernel."""
    rows = [reference_batch_marginal_ci(x_matrix, y) for y in ys]
    return np.array([r for r, _ in rows]), np.array([p for _, p in rows])


@pytest.mark.parametrize("build, args", CASES.values(), ids=CASES.keys())
def test_kernel_matches_scalar_reference(monkeypatch, build, args):
    labeled, sla_metric = build(*args)
    seed = args[1]
    # the package's run; count MCI tests sent down the least-squares route
    lstsq_mci = []
    inside = []

    def stacked(design):
        inside.append(True)
        try:
            return stats.stacked_ci(design)
        finally:
            inside.pop()

    def batch(x_matrix, y, given=()):
        if inside:
            lstsq_mci.append(len(given))
        return stats_batch_ci(x_matrix, y, given=given)

    stats_batch_ci = stats.batch_ci
    monkeypatch.setattr(subgraph, "stacked_ci", stacked)
    monkeypatch.setattr(stats, "batch_ci", batch)
    runs, graphs = run_pipeline(labeled, sla_metric, seed)
    monkeypatch.undo()
    if args[-1] is True:
        # a derived KPI in an MCI conditioning set takes the lstsq route
        assert lstsq_mci and min(lstsq_mci) >= 2

    calls = {"rcd": 0, "marginal": 0, "screen": 0, "mci": 0}

    def counted(stage, reference):
        def run(*a, **kw):
            calls[stage] += 1
            return reference(*a, **kw)

        return run

    monkeypatch.setattr(rcd, "ci_test", counted("rcd", reference_ci_test))
    monkeypatch.setattr(subgraph, "marginal_ci", counted("marginal", reference_marginal))
    monkeypatch.setattr(subgraph, "screen_ci", counted("screen", reference_screen))
    monkeypatch.setattr(subgraph, "stacked_ci", counted("mci", reference_stacked))
    ref_runs, ref_graphs = run_pipeline(labeled, sla_metric, seed)
    # discovery, every target's level 0, the parent screen and MCI all
    # ran through the references
    assert all(calls.values()), calls

    assert any(run.kpis for run in runs)
    for run, ref in zip(runs, ref_runs, strict=True):
        assert run.kpis == ref.kpis
        assert run.warnings == ref.warnings
        assert [name for name, _ in run.p_values] == [name for name, _ in ref.p_values]
        for (_, p), (_, ref_p) in zip(run.p_values, ref.p_values):
            assert_close(p, ref_p)

    assert any(graph.edges for graph in graphs)
    for graph, ref in zip(graphs, ref_graphs, strict=True):
        assert graph.nodes == ref.nodes
        assert [e.key for e in graph.edges] == [e.key for e in ref.edges]
        for edge, ref_edge in zip(graph.edges, ref.edges):
            assert_close(edge.r, ref_edge.r)
            assert_close(edge.p, ref_edge.p)
