import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from rcseq import stats, subgraph
from rcseq.cli import main
from rcseq.errors import AnalysisError, ConfigError, DataError
from rcseq.panel import KpiPanel, label_states
from rcseq.report import to_dot
from rcseq.scm import InterventionSpec, ScmSpec, cascade_scenario, generate, inject
from rcseq.stats import batch_ci, ci_test, fisher_p, marginal_ci, stacked_gram_ci
from rcseq.subgraph import (
    MAX_PARENT_SWEEPS,
    CausalSubgraph,
    LaggedEdge,
    SubgraphConfig,
    build_subgraph,
    graph_diff,
    mci_edge_test,
    select_lagged_parents,
)
from test_stats import (
    assert_within_gram_bound,
    batch_case,
    bits,
    centered_gram,
    fisher_z_of,
    normal_two_sided,
    reference_ci_test,
)


def chain_panel(seed, t=1000, lag1=2, lag2=2, w=0.9):
    spec = ScmSpec(
        nodes=("X", "Y", "Z"),
        edges=(("X", "Y", lag1, w), ("Y", "Z", lag2, w)),
        noise_sd=1.0,
    )
    return generate(spec, horizon=t, seed=seed)


def noise_panel(seed, v=3, t=400):
    spec = ScmSpec(nodes=tuple(f"w{i}" for i in range(v)))
    return generate(spec, horizon=t, seed=seed)


def screen_panel(seed, v, t, collinear=False):
    """iid noise KPIs, about half of them fed by the first one at lag 2.
    A collinear panel's last KPI is an exact copy of the first, and its
    second-last an affine combination of the first two, as a derived KPI
    would be."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((t, v))
    values[2:, 1 : v // 2] += 0.6 * values[:-2, [0]]
    if collinear:
        values[:, v - 1] = values[:, 0]
        values[:, v - 2] = 2.0 * values[:, 0] - 0.5 * values[:, 1] + 1.0
    names = tuple(f"k{i:03d}" for i in range(v))
    return KpiPanel(ticks=np.arange(t), kpi_names=names, values=values)


def derived_panel(seed, v=25, t=120):
    """screen_panel's KPIs with a derived KPI that reaches an MCI set:
    k019 = 2 k017 + k016 + 1; k017 and k016 feed k018 at lag 1 in a
    combination k019 does not correlate with; k018 (lag 2) and k019 (lag 3)
    feed k015. The MCI test of k018 -> k015 conditions on k019 and both its
    inputs."""
    panel = screen_panel(seed, v, t)
    values = panel.values.copy()
    a, b, derived, x, y = v - 8, v - 9, v - 6, v - 7, v - 10
    values[:, derived] = 2.0 * values[:, a] + values[:, b] + 1.0
    values[1:, x] += values[:-1, a] - 2.0 * values[:-1, b]
    values[2:, y] += 0.8 * values[:-2, x]
    values[3:, y] += 0.8 * values[:-3, derived]
    return KpiPanel(ticks=panel.ticks, kpi_names=panel.kpi_names, values=values)


def record_mci(monkeypatch):
    """Wrap subgraph._mci_edges. Returns (calls, running): calls gets the
    (panel, tests) of every call, and running holds a marker while one
    runs, so that a kernel recorder can tell MCI's calls from the
    screen's."""
    calls, running = [], []
    mci_edges = subgraph._mci_edges

    def recorded(panel, tests, cfg):
        calls.append((panel, tests))
        running.append(True)
        try:
            return mci_edges(panel, tests, cfg)
        finally:
            running.pop()

    monkeypatch.setattr(subgraph, "_mci_edges", recorded)
    return calls, running


def mci_tests(panel, cfg):
    """build_subgraph's MCI tests over every KPI of the panel."""
    nodes = panel.kpi_names
    parents = subgraph._select_all_parents(panel, nodes, nodes, cfg)
    return [
        (source, lag, target,
         subgraph._mci_conditioners((source, lag), parents[target], parents[source], cfg))
        for target in nodes
        for source, lag in parents[target]
        if source != target
    ]


def reference_select_lagged_parents(panel, target, cfg):
    """The parent screen with one `ci_test` per candidate at level l >= 1,
    each conditioned on `[c for c in ranked if c != cand][:level]`: the
    per-candidate loop the grouped screen must reproduce."""
    return reference_parent_screen(panel, target, cfg, MAX_PARENT_SWEEPS)[0]


def reference_parent_screen(panel, target, cfg, sweeps):
    """reference_select_lagged_parents with at most `sweeps` sweeps;
    returns the parents and whether the set still changed in the last."""
    t = panel.n_ticks
    y = panel.column(target)[cfg.tau_max:]
    cols = {
        (name, tau): panel.column(name)[cfg.tau_max - tau : t - tau]
        for name in panel.kpi_names
        for tau in range(1, cfg.tau_max + 1)
    }
    survivors = sorted(cols)
    strength = {}
    for _sweep in range(sweeps):
        before = list(survivors)
        for level in range(cfg.max_cond + 1):
            if level > len(survivors) - 1:
                break
            ranked = sorted(survivors, key=lambda c: (-strength.get(c, np.inf), c))
            removed = set()
            if level == 0:
                r_vec, p_vec = batch_ci(np.column_stack([cols[c] for c in survivors]), y)
                tests = zip(survivors, r_vec.tolist(), p_vec.tolist())
            else:
                tests = []
                for cand in survivors:
                    given = [c for c in ranked if c != cand][:level]
                    res = ci_test(cols[cand], y, given=[cols[c] for c in given])
                    tests.append((cand, res.r, res.p))
            for cand, r, p in tests:
                strength[cand] = min(strength.get(cand, np.inf), abs(r))
                if p > cfg.alpha:
                    removed.add(cand)
            survivors = [c for c in survivors if c not in removed]
        if survivors == before:
            break
    parents = tuple(sorted(survivors, key=lambda c: (-strength[c], c)))
    return parents, survivors != before


class TestSelectLaggedParents:
    def test_ar1_self_parent(self):
        spec = ScmSpec(nodes=("X",), edges=(("X", "X", 1, 0.8),))
        panel = generate(spec, horizon=1000, seed=0)
        parents = select_lagged_parents(panel, "X", SubgraphConfig(tau_max=4, alpha=0.01))
        assert parents, "AR(1) self-dependence must be detected"
        assert parents[0] == ("X", 1)

    def test_chain_parent_recovered(self):
        panel = chain_panel(seed=1)
        parents = select_lagged_parents(panel, "Y", SubgraphConfig(alpha=0.01))
        assert ("X", 2) in parents

    def test_size_on_white_noise(self):
        cfg = SubgraphConfig(tau_max=4, alpha=0.01)
        total = 0
        seeds = 200
        for seed in range(seeds):
            panel = noise_panel(seed)
            for target in panel.kpi_names:
                total += len(select_lagged_parents(panel, target, cfg))
        per_target = total / (seeds * 3)
        # expected ~ alpha * V * tau_max = 0.12 spurious parents per target
        assert per_target <= 0.3

    @pytest.mark.parametrize(
        "v, t, collinear",
        [(25, 120, False), (50, 120, False), (25, 1000, False), (50, 1000, False), (25, 120, True)],
        ids=["25-120", "50-120", "25-1000", "50-1000", "25-120-collinear"],
    )
    def test_matches_per_candidate_reference(self, v, t, collinear):
        panel = screen_panel(v + t, v, t, collinear)
        targets = panel.kpi_names[:: v // 5]
        for max_cond in range(4):
            cfg = SubgraphConfig(max_cond=max_cond)
            for target in targets:
                assert select_lagged_parents(panel, target, cfg) == (
                    reference_select_lagged_parents(panel, target, cfg)
                ), (target, max_cond)

    def test_collinear_top_takes_the_grouped_route(self, monkeypatch):
        # the copied KPI ranks next to its original, so some level's blocks
        # are singular and the screen hands them to batch_ci
        grouped = []

        def counted_batch_ci(x_matrix, y, given=()):
            grouped.append(len(given))
            return batch_ci(x_matrix, y, given=given)

        monkeypatch.setattr(subgraph, "batch_ci", counted_batch_ci)
        panel = screen_panel(145, 25, 120, collinear=True)
        for target in panel.kpi_names[::5]:
            select_lagged_parents(panel, target, SubgraphConfig())
        assert grouped and min(grouped) >= 1

    @staticmethod
    def count_kernels(monkeypatch):
        """Record every screen kernel call: the marginal call with its
        number of series, and each stacked_gram_ci call with its level and
        its members' (target, top) pairs; a level-0 batch_ci call would be
        recorded too. MCI's calls of the same bindings are not recorded.
        A round's blocks run member by member, each member's tests of
        top[:level] last, so a member is a run of blocks sharing the
        target's entry B11, and its first test of top[0] holds every
        member of top in its diagonal."""
        calls = []
        _, mci = record_mci(monkeypatch)

        def counted_batch_ci(x_matrix, y, given=()):
            if not given and not mci:
                calls.append(("batch_ci", 0, None))
            return batch_ci(x_matrix, y, given=given)

        def counted_marginal_ci(x_matrix, ys):
            calls.append(("marginal_ci", 0, len(ys)))
            return marginal_ci(x_matrix, ys)

        def counted_stacked_gram_ci(blocks, n):
            if not mci:
                level = blocks.shape[1] - 2
                members = []
                for y, run in itertools.groupby(blocks, key=lambda b: b[1, 1].tobytes()):
                    members.append((y, list(run)[-level].diagonal().tobytes()))
                calls.append(("stacked_gram_ci", level, members))
            return stacked_gram_ci(blocks, n)

        monkeypatch.setattr(subgraph, "batch_ci", counted_batch_ci)
        monkeypatch.setattr(subgraph, "marginal_ci", counted_marginal_ci)
        monkeypatch.setattr(subgraph, "stacked_gram_ci", counted_stacked_gram_ci)
        return calls

    @staticmethod
    def assert_one_call_per_round(calls, max_cond):
        """stacked_gram_ci calls only, at most one per (sweep, level) round: no
        more than MAX_PARENT_SWEEPS * max_cond calls, each holding a target
        at most once. Each target's first sweep runs levels 1, 2, ... in
        turn, and no target screens a top twice. Returns each target's
        levels in call order."""
        assert all(kernel == "stacked_gram_ci" for kernel, *_ in calls)
        assert len(calls) <= MAX_PARENT_SWEEPS * max_cond
        levels, tops = {}, {}
        for _, level, members in calls:
            assert len({y for y, _ in members}) == len(members)
            for y, top in members:
                levels.setdefault(y, []).append(level)
                tops.setdefault(y, []).append(top)
        for y, seen in levels.items():
            first = next((i for i in range(1, len(seen)) if seen[i] <= seen[i - 1]), len(seen))
            assert seen[:first] == list(range(1, first + 1)), seen
            assert len(set(tops[y])) == len(tops[y]), seen
        return levels

    @pytest.mark.parametrize("max_cond", [1, 2, 3])
    def test_one_kernel_call_per_level(self, monkeypatch, max_cond):
        calls = self.count_kernels(monkeypatch)
        panel = screen_panel(7, 25, 120)
        deepest = 0
        for target in panel.kpi_names[:5]:
            calls.clear()
            select_lagged_parents(panel, target, SubgraphConfig(max_cond=max_cond))
            # level 0 is one marginal call for the one target, with no
            # level-0 kernel call of its own; then one-member stacks only
            assert calls[0] == ("marginal_ci", 0, 1)
            assert all(len(members) == 1 for *_, members in calls[1:])
            levels = self.assert_one_call_per_round(calls[1:], max_cond)
            deepest = max([deepest, *(max(seen) for seen in levels.values())])
        assert deepest == max_cond

    @pytest.mark.parametrize("max_cond", [1, 2, 3])
    def test_one_marginal_call_per_window(self, monkeypatch, max_cond):
        calls = self.count_kernels(monkeypatch)
        panel = screen_panel(7, 25, 120)
        build_subgraph(panel, panel.kpi_names, SubgraphConfig(max_cond=max_cond))
        # every target's level 0 comes from one call, made before any screen
        assert calls[0] == ("marginal_ci", 0, 25)
        screens = calls[1:]
        levels = self.assert_one_call_per_round(screens, max_cond)
        assert len(levels) == 25
        assert max(max(seen) for seen in levels.values()) == max_cond
        # the targets advance in lockstep: the first round holds every
        # target's first level-1 screen
        first = screens[0]
        assert first[1] == 1 and len(first[2]) == sum(seen[0] == 1 for seen in levels.values())

    @pytest.mark.parametrize(
        "v, t, collinear",
        [(25, 120, False), (50, 120, False), (25, 1000, False), (50, 1000, False), (25, 120, True)],
        ids=["25-120", "50-120", "25-1000", "50-1000", "25-120-collinear"],
    )
    def test_targets_do_not_couple(self, monkeypatch, v, t, collinear):
        # every target's parents from build_subgraph's lockstep screen are
        # those its own one-target call finds
        panel = screen_panel(v + t, v, t, collinear)
        screens = []

        def recorded(*args):
            result = select(*args)
            screens.append(result)
            return result

        select = subgraph._select_all_parents
        for max_cond in range(4):
            cfg = SubgraphConfig(max_cond=max_cond)
            screens.clear()
            monkeypatch.setattr(subgraph, "_select_all_parents", recorded)
            build_subgraph(panel, panel.kpi_names, cfg)
            monkeypatch.undo()
            (parents,) = screens
            assert list(parents) == list(panel.kpi_names)
            for target in panel.kpi_names:
                alone = select_lagged_parents(panel, target, cfg)
                assert parents[target] == alone, (target, max_cond)

    def test_marginal_rows_match_batch_ci_bitwise(self):
        # the shared level 0 gives each target the bits its own marginal
        # batch_ci call gave it, so no parent tuple can move
        panel = screen_panel(11, 25, 120, collinear=True)
        cfg = SubgraphConfig()
        design, _ = subgraph._lagged_design(panel, panel.kpi_names, cfg.tau_max)
        ys = [panel.column(name)[cfg.tau_max:] for name in panel.kpi_names]
        r, z = marginal_ci(design, ys)
        p = fisher_p(z)
        for i, y in enumerate(ys):
            want_r, want_p = batch_ci(design, y)
            assert np.array_equal(r[i].view(np.int64), want_r.view(np.int64))
            assert np.array_equal(p[i].view(np.int64), want_p.view(np.int64))

    def test_window_too_short(self):
        panel = noise_panel(0, t=12)
        with pytest.raises(AnalysisError, match="window too short"):
            select_lagged_parents(panel, "w0", SubgraphConfig(alpha=0.05))

    def test_unknown_target(self):
        panel = noise_panel(0)
        with pytest.raises(DataError):
            select_lagged_parents(panel, "nope", SubgraphConfig(tau_max=2, alpha=0.05))

    def test_sweep_cap_warns(self, monkeypatch):
        monkeypatch.setattr("rcseq.subgraph.MAX_PARENT_SWEEPS", 1)
        cap = "parent selection for 'Y' stopped at the 1-sweep cap"
        with pytest.warns(RuntimeWarning, match=cap) as caught:
            select_lagged_parents(chain_panel(seed=1), "Y", SubgraphConfig(alpha=0.01))
        # attributed to the caller, not to a line of the package
        assert [w.filename for w in caught] == [__file__]

    def test_sweep_cap_warns_through_build_subgraph(self, monkeypatch):
        # with two sweeps, three of this panel's targets still change at the
        # cap; each warns once, named, at the caller, and the rest stay silent
        monkeypatch.setattr("rcseq.subgraph.MAX_PARENT_SWEEPS", 2)
        panel = screen_panel(145, 25, 120)
        cfg = SubgraphConfig()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            build_subgraph(panel, panel.kpi_names, cfg)
        screens = {name: reference_parent_screen(panel, name, cfg, 2) for name in panel.kpi_names}
        capped = [name for name, (_, changing) in screens.items() if changing]
        assert len(capped) == 3
        assert [str(w.message) for w in caught] == [
            f"parent selection for {name!r} stopped at the 2-sweep cap with"
            f" {len(screens[name][0])} candidates left and the set still changing"
            for name in capped
        ]
        assert {w.category for w in caught} == {RuntimeWarning}
        assert {w.filename for w in caught} == {__file__}

    def test_golden_case_stays_under_sweep_cap(self, tmp_path):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            args = ["compare-states", "--scenario", "cascade", "--seed", "1", "--out", tmp_path]
            assert main([str(a) for a in args]) == 0
        assert [str(w.message) for w in caught if "sweep cap" in str(w.message)] == []


def round_member(rng, n, level):
    """batch_case's columns and y, with top = the level conditioning series
    followed by one more that y leans on."""
    x, y, given = batch_case(rng, n, level)
    return x, y, np.column_stack([*given, rng.normal(size=n) + 0.4 * y])


def round_of(members):
    """The arguments of one `subgraph._screen_round` call for members given
    as (x, y, top) triples: every member's columns and top side by side in
    one centered design, the members' centered series, and each member's
    top and the columns tested outside top[:level] (those of x, and
    top[level])."""
    design = np.column_stack([m for x, _, top in members for m in (x, top)])
    design -= design.mean(axis=0)
    ys = np.array([y for _, y, _ in members])
    ys -= ys.mean(axis=1, keepdims=True)
    tops, outsides = [], []
    start = 0
    for x, _, top in members:
        level = top.shape[1] - 1
        top_at = np.arange(start + x.shape[1], start + x.shape[1] + level + 1)
        tops.append(top_at)
        outsides.append(np.append(np.arange(start, start + x.shape[1]), top_at[level]))
        start = top_at[-1] + 1
    return design, ys, list(range(len(members))), tops, outsides


class TestScreenRound:
    @staticmethod
    def run_round(monkeypatch, members):
        """One round at alpha 0.05; every test against the scalar reference,
        within the Gram route's bound where the kernel answered and to
        1e-12 where batch_ci did, with the same decision. The round reports
        r and each test's decision; p is the tail of r's Fisher z, as the
        kernels take it. Returns r, p and the conditioning sets of the
        batch_ci calls."""
        design, ys, _, tops, outsides = args = round_of(members)
        grouped = []

        def counted_batch_ci(x_matrix, y, given=()):
            grouped.append(len(given))
            return batch_ci(x_matrix, y, given=given)

        monkeypatch.setattr(subgraph, "batch_ci", counted_batch_ci)
        rows, xs, r, drop = subgraph._screen_round(*args, 0.05)
        monkeypatch.undo()
        n = design.shape[0]
        level = len(tops[0]) - 1
        with np.errstate(divide="ignore"):  # |r| = 1 gives an infinite z
            p = fisher_p(fisher_z_of(r, n - level - 3))
        assert np.array_equal(drop, p > 0.05)
        tests = [
            (i, x, top[:level] if x not in top[:level] else np.delete(top, list(top).index(x)))
            for i, (top, outside) in enumerate(zip(tops, outsides))
            for x in [*outside, *top[:level]]
        ]
        assert rows.tolist() == [i for i, _, _ in tests] and xs.tolist() == [x for _, x, _ in tests]
        for t, (i, x, given) in enumerate(tests):
            series = [design[:, x], ys[i], *(design[:, g] for g in given)]
            ref = reference_ci_test(series[0], series[1], given=series[2:])
            gram = centered_gram(series)
            if stacked_gram_ci(gram[np.newaxis], n)[2][0]:
                got = stats.CiTestResult(r=r[t], p=p[t])
                assert_within_gram_bound(got, ref, gram, 0, 1, list(range(2, len(series))), n)
            else:
                assert abs(r[t] - ref.r) <= 1e-12 and abs(p[t] - ref.p) <= 1e-12
            assert drop[t] == (ref.p > 0.05), t
        return r, p, grouped

    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_matches_reference(self, monkeypatch, level):
        rng = np.random.default_rng(90 + level)
        members = [round_member(rng, 120, level) for _ in range(4)]
        r, p, grouped = self.run_round(monkeypatch, members)
        # the pinned column, and the two collinear with top[:level] (the
        # second at 1e7 scale), are degenerate in every member, and each
        # member's three go to one batch_ci call
        starts = np.cumsum([0] + [x.shape[1] + 1 + level for x, _, _ in members])
        for i in starts[:-1]:
            assert (r[i + 2 : i + 5] == 0.0).all() and (p[i + 2 : i + 5] == 1.0).all()
        assert grouped == [level] * len(members)

    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_collinear_top_groups_its_declined_blocks(self, monkeypatch, level):
        rng = np.random.default_rng(110 + level)
        members = [round_member(rng, 60, level) for _ in range(3)]
        x, y, top = members[1]
        copied = top.copy()
        copied[:, level] = top[:, level - 1]
        members[1] = (x[:, :2], y, copied)
        r, p, grouped = self.run_round(monkeypatch, members[1:2])
        # the copy given top[:level] (which holds its original), and each
        # top[j] given the rest of top (which holds the original or the
        # copy): one batch_ci call per conditioning set
        assert grouped == [level] * (level + 1)
        r_all, p_all, grouped = self.run_round(monkeypatch, members)
        # in a round with other members (one call each, for their pinned and
        # collinear columns), the same calls and the same bits
        assert grouped == [level] * (1 + (level + 1) + 1)
        at = members[0][0].shape[1] + 1 + level
        assert bits(r_all[at : at + r.size]) == bits(r) and bits(p_all[at : at + p.size]) == bits(p)

    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_y_in_span_of_top(self, monkeypatch, level):
        rng = np.random.default_rng(100 + level)
        x, _, top = round_member(rng, 60, level)
        # y is exactly explained by every member of top but top[1]
        weights = np.arange(level + 1) - 1.0
        y = 2.0 + top @ weights
        r, p, _ = self.run_round(monkeypatch, [(x, y, top), round_member(rng, 60, level)])
        r_top, p_top = r[9 : 9 + level], p[9 : 9 + level]
        leans = weights[:level] != 0.0
        assert (np.abs(r_top[leans]) >= 1.0 - 1e-12).all() and (p_top[leans] <= 1e-12).all()
        assert not r_top[~leans].any() and (p_top[~leans] == 1.0).all()
        if level == 1:  # y is in the span of [1, top[:level]] itself
            assert not r[:9].any() and (p[:9] == 1.0).all()


class TestSubgraphConfig:
    def test_out_of_range_rejected(self):
        # library callers get the checks a config file gets
        with pytest.raises(ConfigError, match=r"^subgraph\.max_cond "):
            SubgraphConfig(max_cond=-1)


class TestMciEdgeTest:
    def test_true_edge_retained(self):
        panel = chain_panel(seed=2)
        cfg = SubgraphConfig(tau_max=8, alpha=0.01)
        py = select_lagged_parents(panel, "Y", cfg)
        px = select_lagged_parents(panel, "X", cfg)
        edge = mci_edge_test(panel, ("X", 2), "Y", py, px, cfg)
        assert edge is not None
        assert edge.p < 0.01

    def test_conditioning_removes_indirect_link(self):
        # X -> Y -> Z at lag 1 each: conditioning on (Y,1) must sever (X,2) -> Z
        cfg = SubgraphConfig(tau_max=4, alpha=0.01)
        retained = 0
        seeds = 50
        for seed in range(seeds):
            panel = chain_panel(seed=seed, lag1=1, lag2=1)
            pz = select_lagged_parents(panel, "Z", cfg)
            px = select_lagged_parents(panel, "X", cfg)
            edge = mci_edge_test(panel, ("X", 2), "Z", pz, px, cfg)
            if edge is not None:
                retained += 1
        assert retained / seeds <= 0.1

    def test_independent_pair_size(self):
        cfg = SubgraphConfig(tau_max=4, alpha=0.01)
        retained = 0
        seeds = 200
        for seed in range(seeds):
            panel = noise_panel(seed, v=2)
            pa = select_lagged_parents(panel, "w0", cfg)
            pb = select_lagged_parents(panel, "w1", cfg)
            edge = mci_edge_test(panel, ("w0", 2), "w1", pb, pa, cfg)
            if edge is not None:
                retained += 1
        assert retained / seeds <= 0.03 + 0.02

    def test_alpha_monotonicity(self):
        # an edge surviving at a low alpha always survives at a higher one
        # (parent sets held fixed)
        panel = chain_panel(seed=3)
        cfg = SubgraphConfig(tau_max=8, alpha=0.01)
        py = select_lagged_parents(panel, "Y", cfg)
        px = select_lagged_parents(panel, "X", cfg)
        for tau in range(1, 5):
            low = mci_edge_test(panel, ("X", tau), "Y", py, px, cfg)
            high = mci_edge_test(panel, ("X", tau), "Y", py, px, SubgraphConfig(alpha=0.1))
            if low is not None:
                assert high is not None

    def test_duplicate_conditioner_counted_once(self):
        # the target parent (a, 3) is also the source parent (a, 1) shifted
        # by the tested lag 2: one series, conditioned on and counted once
        rng = np.random.default_rng(12)
        t = 200
        a, x, y = rng.standard_normal((3, t))
        x[1:] += 0.8 * a[:-1]
        y[2:] += 0.5 * x[:-2]
        y[3:] += 0.5 * a[:-3]
        panel = KpiPanel(ticks=np.arange(t), kpi_names=("a", "x", "y"), values=np.column_stack([a, x, y]))
        edge = mci_edge_test(panel, ("x", 2), "y", (("a", 3),), (("a", 1),), SubgraphConfig(alpha=0.5))
        n = t - 3
        want = reference_ci_test(x[1 : t - 2], y[3:], given=[a[: t - 3]])
        assert edge.r == pytest.approx(want.r, rel=1e-12, abs=0.0)
        assert edge.p == pytest.approx(want.p, rel=1e-12, abs=0.0)
        # Fisher's z has n - |set S| - 3 degrees of freedom
        z = math.atanh(edge.r)
        assert edge.p == pytest.approx(normal_two_sided(z * math.sqrt(n - 1 - 3)), rel=1e-12, abs=0.0)
        assert edge.p != pytest.approx(normal_two_sided(z * math.sqrt(n - 2 - 3)), rel=1e-6, abs=0.0)

    def test_insufficient_overlap(self):
        panel = noise_panel(0, t=400)
        tiny = KpiPanel(
            ticks=panel.ticks[:6],
            kpi_names=("w0", "w1"),
            values=np.column_stack([panel.column("w0"), panel.column("w1")])[:6],
        )
        with pytest.raises(AnalysisError, match="insufficient overlap"):
            mci_edge_test(tiny, ("w0", 3), "w1", (), (), SubgraphConfig(alpha=0.05))


class TestBuildSubgraph:
    def test_single_node_graph(self):
        panel = noise_panel(0, v=1, t=300)
        graph = build_subgraph(panel, ["w0"], SubgraphConfig(tau_max=4, alpha=0.05))
        assert graph.nodes == ("w0",)
        assert graph.edges == ()

    def test_cascade_recovered(self):
        hits = 0
        for seed in range(10):
            panel = chain_panel(seed=seed)
            graph = build_subgraph(panel, ["X", "Y", "Z"], SubgraphConfig(tau_max=4, alpha=0.01))
            if {("X", "Y", 2), ("Y", "Z", 2)} <= graph.edge_keys():
                hits += 1
        assert hits >= 9

    def test_duplicate_node(self):
        panel = noise_panel(0)
        with pytest.raises(DataError, match="duplicate node"):
            build_subgraph(panel, ["w0", "w0"], SubgraphConfig(tau_max=2, alpha=0.05))

    def test_window_bound_holds_for_every_draw(self):
        # 2 * tau_max + 2 * max_cond + 3 = 25 ticks with the defaults covers
        # the most lags and conditioners one MCI test can need: at 26 ticks
        # every draw builds, and at 25 every draw is refused before any
        # selection runs, whichever parents it would have selected
        spec = ScmSpec(
            nodes=("a", "b", "c", "d"),
            edges=(("a", "b", 1, 0.9), ("b", "c", 8, 0.9), ("c", "d", 3, 0.8)),
        )
        cfg = SubgraphConfig()
        for seed in range(40):
            panel = generate(spec, horizon=26, seed=seed)
            assert build_subgraph(panel, panel.kpi_names, cfg).nodes == panel.kpi_names
            short = KpiPanel(ticks=panel.ticks[:25], kpi_names=panel.kpi_names, values=panel.values[:25])
            with pytest.raises(AnalysisError, match="need more than 25 ticks .*, got 25$"):
                build_subgraph(short, panel.kpi_names, cfg)

    def test_one_gram_call_per_mci_group(self, monkeypatch):
        groups, lstsq, qr_calls = [], [], []
        _, mci = record_mci(monkeypatch)
        qr = np.linalg.qr

        def counted_stacked_gram_ci(blocks, n):
            if mci:
                rows = set(np.broadcast_to(n, len(blocks)).tolist())
                groups.append((blocks.shape[1] - 2, rows, len(blocks)))
            return stacked_gram_ci(blocks, n)

        def counted_batch_ci(x_matrix, y, given=()):
            if mci:
                lstsq.append(len(given))
            return batch_ci(x_matrix, y, given=given)

        def counted_qr(*args, **kwargs):
            qr_calls.append(True)
            return qr(*args, **kwargs)

        monkeypatch.setattr(subgraph, "stacked_gram_ci", counted_stacked_gram_ci)
        monkeypatch.setattr(subgraph, "batch_ci", counted_batch_ci)
        monkeypatch.setattr(np.linalg, "qr", counted_qr)
        panel = derived_panel(21)
        cfg = SubgraphConfig()
        graph = build_subgraph(panel, panel.kpi_names, cfg)
        monkeypatch.undo()
        # one stacked_gram_ci call per |S| group, some of them pooling tests
        # with different numbers of rows, and no QR anywhere
        sizes = [k for k, _, _ in groups]
        assert len(set(sizes)) == len(sizes) > 1
        assert max(len(rows) for _, rows, _ in groups) > 1
        assert qr_calls == []
        parents = {name: select_lagged_parents(panel, name, cfg) for name in panel.kpi_names}
        links = [(s, lag, t) for t in parents for s, lag in parents[t] if s != t]
        assert sum(size for _, _, size in groups) == len(links)
        # the derived KPI's MCI set goes to batch_ci on the rows
        assert lstsq and min(lstsq) >= 3
        # and every edge is what the one-link call finds
        for edge in graph.edges:
            one = mci_edge_test(panel, (edge.source, edge.lag), edge.target,
                                parents[edge.target], parents[edge.source], cfg)
            assert one == edge

    def test_chunked_gather_changes_no_bit(self, monkeypatch):
        # one test per chunk, at an alpha that makes nearly every test an
        # edge. k018 -> k015 given k019 and both its inputs is declined by
        # the kernel; here it sits amid a gather of its shape, so that its
        # row answer must land in a later chunk's place
        panel = derived_panel(21)
        cond = (("k019", 3), ("k016", 3), ("k017", 3), ("k013", 8))
        shaped = [(f"k{i:03d}", 2, "k015", cond) for i in (*range(13), 18, 20, 21)]
        tests = mci_tests(panel, SubgraphConfig()) + shaped
        every = SubgraphConfig(alpha=1 - 1e-12)
        whole = subgraph._mci_edges(panel, tests, every)
        declined, chunks = [], []
        stacked = subgraph.stacked_gram_ci

        def counted_stacked_gram_ci(blocks, n):
            r, z, answered = stacked(blocks, n)
            declined.append(np.count_nonzero(~answered))
            return r, z, answered

        class Windows:
            """A gather's row windows, recording the tests of each chunk."""

            def __init__(self, windows):
                self.windows = windows

            def __getitem__(self, key):
                out = self.windows[key]
                if out.ndim == 3:  # a chunk's [x, y, *S] series, not a declined test's
                    chunks.append(len(out))
                return out

        window_view = subgraph.sliding_window_view
        monkeypatch.setattr(subgraph, "stacked_gram_ci", counted_stacked_gram_ci)
        monkeypatch.setattr(subgraph, "sliding_window_view", lambda *a, **kw: Windows(window_view(*a, **kw)))
        monkeypatch.setattr(subgraph, "MCI_CHUNK_VALUES", 1)
        chunked = subgraph._mci_edges(panel, tests, every)
        # one kernel call per |S|, over chunks of one test each
        assert chunks == [1] * len(tests)
        assert len(declined) == len({len(cond) for *_, cond in tests}) and sum(declined) >= 2
        assert ("k018", "k015", 2) in {e.key for e in whole}
        assert len(whole) > len(tests) // 2
        assert [(e.key, bits(e.r, e.p)) for e in chunked] == [(e.key, bits(e.r, e.p)) for e in whole]

    def test_tail_work_follows_the_mci_tests(self, monkeypatch):
        # a window shaped like the benchmark's compare-wide: 50 KPIs, 120
        # ticks, tau_max 8. The screen decides its tests from Fisher's z and
        # takes the normal tail only for those in the band around the cut;
        # MCI takes it for every test, in one kernel call per |S|
        panel = screen_panel(143, 50, 120)
        cfg = SubgraphConfig(tau_max=8)
        lo, hi = stats._tail_cut(cfg.alpha)  # computed once per alpha, before counting
        tails, decided, band, kernel = [], [], [], []
        _, mci = record_mci(monkeypatch)
        erfc, decide = math.erfc, subgraph.fisher_p_above

        def counted_decide(z, alpha):
            x = np.abs(z) * stats._SQRT1_2
            decided.append(x.size)
            band.append(np.count_nonzero(~((x < lo) | (x > hi))))
            return decide(z, alpha)

        def counted_stacked_gram_ci(blocks, n):
            if mci:
                kernel.append((blocks.shape[1] - 2, len(blocks)))
            return stacked_gram_ci(blocks, n)

        monkeypatch.setattr(math, "erfc", lambda v: tails.append(v) or erfc(v))
        monkeypatch.setattr(subgraph, "fisher_p_above", counted_decide)
        monkeypatch.setattr(subgraph, "stacked_gram_ci", counted_stacked_gram_ci)
        build_subgraph(panel, panel.kpi_names, cfg)
        monkeypatch.undo()
        tests = mci_tests(panel, cfg)
        assert len(tests) > 100 and sum(decided) > 20_000
        assert len(tails) <= len(tests) + sum(band)
        # a tail for every screen test, as the screen took before, would be
        # 23 170 calls here
        assert len(tails) < sum(decided) / 20
        sizes = [k for k, _ in kernel]
        assert sorted(sizes) == sorted({len(cond) for *_, cond in tests})
        assert sum(size for _, size in kernel) == len(tests)

    def test_mci_gather_memory_is_bounded(self):
        # 25 KPIs x 20 000 ticks: gathering each group at once held every
        # test's [x, y, *S] rows, about 36 MB of traced peak here; a chunk
        # holds at most MCI_CHUNK_VALUES values (8 MiB)
        panel = screen_panel(0, 25, 20_000)
        cfg = SubgraphConfig()
        tests = mci_tests(panel, cfg)
        assert len(tests) > 100
        tracemalloc.start()
        try:
            edges = subgraph._mci_edges(panel, tests, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert edges
        assert peak < 10 * 2**20

    def test_edges_always_lagged(self):
        panel = chain_panel(seed=5)
        graph = build_subgraph(panel, ["X", "Y", "Z"], SubgraphConfig(tau_max=4, alpha=0.05))
        assert all(e.lag >= 1 for e in graph.edges)
        assert all(e.source != e.target for e in graph.edges)

    def test_deterministic(self):
        panel = chain_panel(seed=6)
        cfg = SubgraphConfig(tau_max=4, alpha=0.01)
        a = build_subgraph(panel, ["X", "Y", "Z"], cfg)
        b = build_subgraph(panel, ["X", "Y", "Z"], cfg)
        assert a.edge_keys() == b.edge_keys()

    def test_cascade_scenario_graph_recovered(self):
        # the benchmark cascade's lag-8 chain is recovered with exact lags
        spec = cascade_scenario().spec
        truth = {("cce_load", "prb_util", 8), ("prb_util", "dl_throughput", 8)}
        hits = 0
        for seed in range(10):
            panel = generate(spec, horizon=1000, seed=seed)
            graph = build_subgraph(
                panel,
                ("cce_load", "prb_util", "dl_throughput"),
                SubgraphConfig(tau_max=8, alpha=0.01),
            )
            if truth <= graph.edge_keys():
                hits += 1
        assert hits >= 9

    def test_hard_pin_severs_edges_across_states(self):
        # diffing per-state graphs exposes the structurally severed link
        spec = cascade_scenario().spec
        nodes = ("cce_load", "prb_util", "dl_throughput")
        removed_hits = 0
        for seed in range(20):
            panel, _ = inject(
                spec,
                [InterventionSpec("prb_util", "hard", onset=1000, value=6.0)],
                horizon=2000,
                seed=seed,
            )
            labeled = label_states(panel, 1000, normal_len=1000, abnormal_len=1000)
            cfg = SubgraphConfig(tau_max=8, alpha=0.01)
            normal = build_subgraph(labeled.window_panel("normal"), nodes, cfg)
            abnormal = build_subgraph(labeled.window_panel("abnormal"), nodes, cfg)
            if ("cce_load", "prb_util", 8) in graph_diff(normal, abnormal).removed:
                removed_hits += 1
        assert removed_hits >= 16  # >= 80% of replications


class TestGraphDiff:
    def graph(self, nodes, keys):
        edges = tuple(
            LaggedEdge(source=s, target=t, lag=lag, r=0.5, p=0.001) for s, t, lag in keys
        )
        return CausalSubgraph(nodes=tuple(nodes), edges=edges)

    def test_identical(self):
        g = self.graph(("a", "b"), [("a", "b", 1)])
        diff = graph_diff(g, g)
        assert diff.added == () and diff.removed == ()
        assert diff.common == (("a", "b", 1),)

    def test_added_edge(self):
        g1 = self.graph(("a", "b"), [])
        g2 = self.graph(("a", "b"), [("a", "b", 2)])
        diff = graph_diff(g1, g2)
        assert diff.added == (("a", "b", 2),)
        assert diff.removed == ()

    def test_disjoint_sets(self):
        g1 = self.graph(("a", "b", "c"), [("a", "b", 1), ("b", "c", 1)])
        g2 = self.graph(
            ("a", "b", "c"), [("a", "c", 1), ("c", "b", 2), ("a", "b", 3)]
        )
        diff = graph_diff(g1, g2)
        assert len(diff.removed) == 2
        assert len(diff.added) == 3
        assert diff.common == ()

    def test_antisymmetry(self):
        g1 = self.graph(("a", "b"), [("a", "b", 1)])
        g2 = self.graph(("a", "b"), [("b", "a", 1)])
        fwd = graph_diff(g1, g2)
        rev = graph_diff(g2, g1)
        assert fwd.added == rev.removed
        assert fwd.removed == rev.added

    def test_node_mismatch(self):
        g1 = self.graph(("a", "b"), [])
        g2 = self.graph(("a", "c"), [])
        with pytest.raises(DataError, match="node universes differ"):
            graph_diff(g1, g2)


class TestDot:
    def test_deterministic_and_flagged(self):
        g = CausalSubgraph(
            nodes=("b", "a"),
            edges=(LaggedEdge("b", "a", 2, r=0.71, p=0.001),),
        )
        dot = to_dot(g, flagged_nodes={"a"}, flagged_edges={("b", "a", 2)})
        assert dot.index('"a"') < dot.index('"b"')  # lexicographic nodes
        assert 'intervention=true' in dot
        assert 'sequence=true' in dot
        assert 'label="lag=2, r=0.710"' in dot
        assert to_dot(g, flagged_nodes={"a"}, flagged_edges={("b", "a", 2)}) == dot
