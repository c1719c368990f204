"""Pipeline equivalence of the CI kernels: discovery and the lagged subgraph
run once through the package's `ci_test` and `screen_ci` and once through
the scalar reference test kept in `test_stats`, one test at a time, and
must reach the same decisions with statistics equal to 1e-12 relative."""

import numpy as np
import pytest

from rcseq import rcd, subgraph
from rcseq.panel import KpiPanel, apply_sla_rule, label_states
from rcseq.rcd import FrequencyTable, RcdConfig, rcd_runs
from rcseq.scm import make_scenario
from rcseq.subgraph import SubgraphConfig, build_subgraph
from test_stats import reference_ci_test, reference_screen

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
    are, so the parent screen meets rank-deficient conditioning sets."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((240, v))
    values[2:, 1 : v // 2] += 0.6 * values[:-2, [0]]
    values[120:, v - 3] += 3.0
    values[1:, v - 2] += 0.8 * values[:-1, v - 3]
    if collinear:
        values[:, v - 4] = values[:, 0]
        values[:, v - 5] = 2.0 * values[:, 0] - 0.5 * values[:, 1] + 1.0
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


@pytest.mark.parametrize("build, args", CASES.values(), ids=CASES.keys())
def test_kernel_matches_scalar_reference(monkeypatch, build, args):
    labeled, sla_metric = build(*args)
    seed = args[1]
    runs, graphs = run_pipeline(labeled, sla_metric, seed)
    calls = {"rcd": 0, "subgraph": 0, "screen": 0}

    def counted(stage):
        def reference(x, y, given=()):
            calls[stage] += 1
            return reference_ci_test(x, y, given=given)

        return reference

    def screen(x_matrix, y, top):
        calls["screen"] += 1
        return reference_screen(x_matrix, y, top)

    monkeypatch.setattr(rcd, "ci_test", counted("rcd"))
    monkeypatch.setattr(subgraph, "ci_test", counted("subgraph"))
    monkeypatch.setattr(subgraph, "screen_ci", screen)
    ref_runs, ref_graphs = run_pipeline(labeled, sla_metric, seed)
    # both stages, and the parent screen, ran conditional tests through the reference
    assert calls["rcd"] > 0 and calls["subgraph"] > 0 and calls["screen"] > 0

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
