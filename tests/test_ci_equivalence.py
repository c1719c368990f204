"""Pipeline equivalence of the CI kernels: discovery and the lagged subgraph
run once through the package's kernels (`stacked_gram_ci` for discovery's
conditional tests, one call per (chunk, level), and for the parent
screen's levels >= 1 and MCI, with `batch_ci` or `ci_test` for the blocks
it declines; `marginal_ci` for every target's level 0) and once through
the scalar references kept in `test_stats`, one test, or one target's
marginal batch, at a time. The screen decides both runs' kernel answers
from Fisher's z (`stats.fisher_p_above`) and their row answers from p.
Both must reach the same decisions and the same subgraph edges.
Each of discovery's conditional tests, and each edge's MCI statistics,
must agree within the Gram route's stated error bound
(`test_stats.gram_error_bound`) where the kernel answered, and to 1e-12
relative where the rows did; discovery's reported p's inherit the
bound."""

import numpy as np
import pytest

from rcseq import rcd, stats, subgraph
from rcseq.panel import KpiPanel, apply_sla_rule, label_states
from rcseq.rcd import CiOracle, FrequencyTable, RcdConfig, rcd_runs
from rcseq.stats import CiTestResult
from rcseq.scm import make_scenario
from rcseq.subgraph import SubgraphConfig, build_subgraph
from test_stats import (
    assert_within_gram_bound,
    centered_gram,
    reference_ci_test,
    reference_marginal_z,
)
from test_subgraph import record_mci

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


def incident_case(noise, seed):
    """An incident at the size discovery pools in practice: 960 rows of 1000
    ticks. Three roots (noise sd 2.5) step up by 5 from tick 480 on, each
    with two children at lags 2 and 3; the SLA metric follows the roots at
    lag 4, and `noise` noise KPIs are centered within each window, so they
    carry no dependence on F. Every root and child stays dependent on F
    under conditioning, so each run screens them at levels 1-3: about 1200
    distinct conditional tests."""
    rng = np.random.default_rng(seed)
    roots = 3
    sla = 3 * roots
    values = rng.standard_normal((1000, sla + 1 + noise))
    for k in range(roots):
        root = 3 * k
        values[:, root] *= 2.5
        values[480 + 4 * k :, root] += 5.0
        values[2:, root + 1] += 0.8 * values[:-2, root]
        values[3:, root + 2] += 0.8 * values[:-3, root]
        values[4:, sla] += 0.5 * values[:-4, root]
    for window in (slice(0, 480), slice(480, 960)):
        values[window, sla + 1 :] -= values[window, sla + 1 :].mean(axis=0)
    names = tuple(f"k{i:02d}" for i in range(values.shape[1]))
    panel = KpiPanel(ticks=np.arange(1000), kpi_names=names, values=values)
    return label_states(panel, 520, 480, 480, lead_ticks=40), names[sla]


def run_discovery(labeled, sla_metric, seed):
    """Discovery's runs, as `run-all` asks them, and their oracle."""
    oracle = CiOracle(labeled)
    return rcd_runs(labeled, RcdConfig(seed=seed), exclude=(sla_metric,), oracle=oracle), oracle


def run_pipeline(labeled, sla_metric, seed):
    """Discovery, then the subgraphs `run-all` and `compare-states` build;
    also returns discovery's oracle."""
    runs, oracle = run_discovery(labeled, sla_metric, seed)
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
    return runs, graphs, oracle


def record_gram_tests(monkeypatch, kernel=stats.stacked_gram_ci):
    """Point discovery's Gram seam at `kernel`, recording each test the
    oracle sends it, (x, y, given) with x and y its Gram columns, with the
    kernel's answer, None where it declines the block."""
    asked, pending = [], []
    p_values = CiOracle.p_values

    def recorded_p_values(oracle, keys):
        order = oracle.order
        pending[:] = [
            (order[name], len(order), tuple(order[s] for s in subset))
            for name, subset in keys
            if (name, subset) not in oracle._p
        ]
        return p_values(oracle, keys)

    def gram(blocks, n):
        r, z, answered = kernel(blocks, n)
        p = stats.fisher_p(z)
        for test, r_i, p_i, ok in zip(pending, r.tolist(), p.tolist(), answered.tolist(), strict=True):
            asked.append((test, CiTestResult(r=r_i, p=p_i) if ok else None))
        return r, z, answered

    monkeypatch.setattr(CiOracle, "p_values", recorded_p_values)
    monkeypatch.setattr(rcd, "stacked_gram_ci", gram)
    return asked


def route_discovery_to_reference(monkeypatch, calls):
    """Make discovery's Gram seam decline every block, so each conditional
    test falls back to rcd's `ci_test` binding, here the scalar reference
    (counted in calls["rcd"]); returns each (x, y, given) it was asked,
    paired with None."""

    def reference(*a, **kw):
        calls["rcd"] += 1
        return reference_ci_test(*a, **kw)

    monkeypatch.setattr(rcd, "ci_test", reference)
    return record_gram_tests(monkeypatch, decline_every_block)


def assert_discovery_matches(asked, ref_asked, oracle, runs, ref_runs):
    """Both runs asked the same conditional tests in the same order; each
    Gram answer lies within the Gram route's bound of the reference, on the
    same side of alpha; the runs agree on KPIs and warnings, and their p's
    within the largest per-test bound on p."""
    assert [key for key, _ in asked] == [key for key, _ in ref_asked]
    assert all(result is None for _, result in ref_asked)
    columns = np.column_stack([oracle.values, oracle.f])
    alpha = RcdConfig().alpha
    dp_max = 0.0
    for (x, y, given), got in asked:
        if got is None:
            continue
        ref = reference_ci_test(columns[:, x], columns[:, y], [columns[:, j] for j in given])
        dp = assert_within_gram_bound(got, ref, oracle.gram, x, y, given, oracle.f.size)
        dp_max = max(dp_max, dp)
        assert (got.p > alpha) == (ref.p > alpha)

    assert any(run.kpis for run in runs)
    for run, ref in zip(runs, ref_runs, strict=True):
        assert run.kpis == ref.kpis
        assert run.warnings == ref.warnings
        assert [name for name, _ in run.p_values] == [name for name, _ in ref.p_values]
        for (_, p), (_, ref_p) in zip(run.p_values, ref.p_values):
            # a reported p is the largest of a KPI's p's: the marginal one,
            # the same bits on both runs, and conditional ones within dp_max
            assert abs(p - ref_p) <= max(dp_max, RTOL * ref_p)


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
    """Every target's level 0 as its own call of the old marginal kernel,
    as r and Fisher's z, with z = 0 (p = 1) where a test is degenerate."""
    rows = [reference_marginal_z(x_matrix, y) for y in ys]
    return np.array([r for r, _, _ in rows]), np.array([np.where(ok, z, 0.0) for _, z, ok in rows])


def reference_batch(x_matrix, y, given=()):
    """A batch_ci call as one scalar reference test per column."""
    tests = [reference_ci_test(x, y, given=given) for x in np.asarray(x_matrix).T]
    return np.array([t.r for t in tests]), np.array([t.p for t in tests])


def decline_every_block(blocks, n):
    """A Gram kernel that declines every block, so that each test is
    answered from the rows."""
    return np.full(len(blocks), np.nan), np.full(len(blocks), np.nan), np.zeros(len(blocks), bool)


def route_subgraph_to_reference(monkeypatch, calls):
    """Send every target's level 0, every screen test and every MCI test
    through the scalar references, counted in calls["marginal"],
    calls["screen"] and calls["mci"]: the Gram seam declines every block,
    so each screen and MCI test reaches subgraph's batch_ci binding."""
    _, mci = record_mci(monkeypatch)

    def marginal(*a, **kw):
        calls["marginal"] += 1
        return reference_marginal(*a, **kw)

    def batch(*a, **kw):
        calls["mci" if mci else "screen"] += 1
        return reference_batch(*a, **kw)

    monkeypatch.setattr(subgraph, "marginal_ci", marginal)
    monkeypatch.setattr(subgraph, "stacked_gram_ci", decline_every_block)
    monkeypatch.setattr(subgraph, "batch_ci", batch)


def mci_rows(panel, test):
    """The aligned [x, y, *S] rows of one MCI test, a (source, tau,
    target, conditioners) tuple of `subgraph._mci_edges`."""
    x_name, tau, target, cond = test
    t = panel.n_ticks
    t0 = max([tau] + [lag for _, lag in cond])
    return [panel.column(name)[t0 - lag : t - lag] for name, lag in [(x_name, tau), (target, 0), *cond]]


def assert_edges_match(graph, ref, mci_call):
    """The same edges, each edge's r and p within the Gram route's bound of
    the reference, on the block of its test's own aligned rows, where the
    kernel answers that block, and to RTOL where the rows do."""
    assert [e.key for e in graph.edges] == [e.key for e in ref.edges]
    panel, tests = mci_call
    by_key = {(x_name, target, tau): (x_name, tau, target, cond) for x_name, tau, target, cond in tests}
    for edge, ref_edge in zip(graph.edges, ref.edges):
        rows = mci_rows(panel, by_key[edge.key])
        gram, n = centered_gram(rows), rows[0].size
        if stats.stacked_gram_ci(gram[np.newaxis], n)[2][0]:
            assert_within_gram_bound(edge, ref_edge, gram, 0, 1, list(range(2, len(rows))), n)
        else:
            assert_close(edge.r, ref_edge.r)
            assert_close(edge.p, ref_edge.p)


@pytest.mark.parametrize("build, args", CASES.values(), ids=CASES.keys())
def test_kernel_matches_scalar_reference(monkeypatch, build, args):
    labeled, sla_metric = build(*args)
    seed = args[1]
    # the package's run; count MCI tests sent to batch_ci on the rows
    lstsq_mci = []
    mci_calls, mci = record_mci(monkeypatch)

    def batch(x_matrix, y, given=()):
        if mci:
            lstsq_mci.append(len(given))
        return stats.batch_ci(x_matrix, y, given=given)

    asked = record_gram_tests(monkeypatch)
    monkeypatch.setattr(subgraph, "batch_ci", batch)
    runs, graphs, oracle = run_pipeline(labeled, sla_metric, seed)
    monkeypatch.undo()
    if args[-1] is True:
        # a derived KPI in an MCI conditioning set takes the row route
        assert lstsq_mci and min(lstsq_mci) >= 2

    calls = {"rcd": 0, "marginal": 0, "screen": 0, "mci": 0}
    ref_asked = route_discovery_to_reference(monkeypatch, calls)
    route_subgraph_to_reference(monkeypatch, calls)
    ref_runs, ref_graphs, _ = run_pipeline(labeled, sla_metric, seed)
    # discovery, every target's level 0, the parent screen and MCI all ran
    # through the references
    assert all(calls.values()), calls
    assert_discovery_matches(asked, ref_asked, oracle, runs, ref_runs)

    assert any(graph.edges for graph in graphs)
    for graph, ref, mci_call in zip(graphs, ref_graphs, mci_calls, strict=True):
        assert graph.nodes == ref.nodes
        assert_edges_match(graph, ref, mci_call)


def test_discovery_matches_scalar_reference_at_incident_size(monkeypatch):
    labeled, sla_metric = incident_case(10, 147)
    asked = record_gram_tests(monkeypatch)
    runs, oracle = run_discovery(labeled, sla_metric, 147)
    monkeypatch.undo()
    calls = {"rcd": 0}
    ref_asked = route_discovery_to_reference(monkeypatch, calls)
    ref_runs, _ = run_discovery(labeled, sla_metric, 147)
    # discovery ran through the reference, on the incident's size and work
    assert calls["rcd"] == len(ref_asked)
    assert oracle.f.size >= 960
    assert len({key for key, _ in ref_asked}) >= 500
    assert max(len(given) for (*_, given), _ in ref_asked) == 3
    assert_discovery_matches(asked, ref_asked, oracle, runs, ref_runs)


def test_subgraph_matches_scalar_reference_at_incident_size(monkeypatch):
    """The lagged subgraph of the incident case's two 480-tick windows,
    through the package's kernels and through the scalar references: the
    same parents for every target, and the same edges with their r and p
    within the Gram route's bound. This case's MCI p's reach about
    1e-215, where |delta p| / p grows with |z| |delta z| and a fixed
    relative tolerance no longer holds."""
    labeled, _ = incident_case(10, 147)
    windows = [labeled.window_panel(state) for state in ("normal", "abnormal")]
    everything = labeled.panel.kpi_names

    def build():
        screens = []

        def recorded(*args):
            result = select(*args)
            screens.append(result)
            return result

        monkeypatch.setattr(subgraph, "_select_all_parents", recorded)
        graphs = [build_subgraph(w, everything, cfg) for cfg in SUBGRAPH_CONFIGS for w in windows]
        return screens, graphs

    select = subgraph._select_all_parents
    mci_calls, _ = record_mci(monkeypatch)
    screens, graphs = build()
    monkeypatch.undo()
    calls = {"marginal": 0, "screen": 0, "mci": 0}
    route_subgraph_to_reference(monkeypatch, calls)
    ref_screens, ref_graphs = build()
    assert all(calls.values()), calls
    assert {w.n_ticks for w in windows} == {480}
    assert screens == ref_screens
    assert any(graph.edges for graph in graphs)
    assert min(e.p for graph in graphs for e in graph.edges) < 1e-200
    for graph, ref, mci_call in zip(graphs, ref_graphs, mci_calls, strict=True):
        assert_edges_match(graph, ref, mci_call)
