import sys
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from rcseq import rcd
from rcseq.errors import AnalysisError, ConfigError
from rcseq.panel import KpiPanel, label_states
from rcseq.rcd import (
    CandidateSet,
    CiOracle,
    FrequencyTable,
    RcdConfig,
    first_shuffles,
    hierarchical_refine,
    local_skeleton,
    partition,
    rcd_multi_run,
    rcd_runs,
    rcd_single_run,
)
from rcseq.config import DEFAULT_N_SET
from rcseq.scm import make_scenario, single_root_scenario
from rcseq.stats import batch_ci, ci_test, fisher_p, stacked_gram_ci
from rcseq.tuner import run_grid


def noise_labeled(seed, n_kpis=4, t=240):
    rng = np.random.default_rng(seed)
    panel = KpiPanel(
        ticks=np.arange(t),
        kpi_names=tuple(f"n{i}" for i in range(n_kpis)),
        values=rng.standard_normal((t, n_kpis)),
    )
    return label_states(panel, t // 2, normal_len=t // 2, abnormal_len=t // 2)


def root_copies_labeled(seed, n_copies=8, t=240):
    """A root that shifts with F and noisy copies of it: at g=2 only the
    copies chunked with the root drop out, so every refinement pass still
    removes KPIs."""
    rng = np.random.default_rng(seed)
    root = rng.standard_normal(t)
    root[t // 2 :] += 1.5
    panel = KpiPanel(
        ticks=np.arange(t),
        kpi_names=("root", *(f"copy{i}" for i in range(n_copies))),
        values=np.column_stack([root] + [root + rng.standard_normal(t) for _ in range(n_copies)]),
    )
    return label_states(panel, t // 2, normal_len=t // 2, abnormal_len=t // 2)


def scenario_labeled(seed):
    panel, _ = single_root_scenario().build(seed)
    return label_states(panel, 120, normal_len=120, abnormal_len=120)


def autocorrelated_labeled(seed, v=30, t=240, phi=0.9):
    """A root that steps up with F, its lag-2 child, and v - 3 AR(1) KPIs at
    phi, which drift with F over so few ticks and stay dependent on it at
    levels 1-3; the last KPI is an affine copy of the child, so the blocks
    that hold both are declined."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((t, v))
    for i in range(1, t):
        x[i, 2:] += phi * x[i - 1, 2:]
    x[t // 2 :, 0] += 1.5
    x[2:, 1] += 0.8 * x[:-2, 0]
    x[:, -1] = 2.0 * x[:, 1] + 1.0
    names = ("root", "child", *(f"ar{i:02d}" for i in range(v - 3)), "derived")
    panel = KpiPanel(ticks=np.arange(t), kpi_names=names, values=x)
    return label_states(panel, t // 2, normal_len=t // 2, abnormal_len=t // 2)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            RcdConfig(g=1)
        with pytest.raises(ConfigError):
            RcdConfig(n_runs=0)
        with pytest.raises(ConfigError):
            RcdConfig(alpha=1.0)
        with pytest.raises(ConfigError):
            RcdConfig(seed=-1)

    def test_paper_defaults(self):
        cfg = RcdConfig()
        assert cfg.g == 5 and cfg.n_runs == 10


class TestPartition:
    def test_even_split(self):
        rng = np.random.default_rng(0)
        names = [f"k{i}" for i in range(6)]
        chunks = partition(names, 3, rng)
        assert len(chunks) == 2
        assert sorted(sum(chunks, [])) == sorted(names)
        assert all(len(c) == 3 for c in chunks)

    def test_uneven_split(self):
        rng = np.random.default_rng(1)
        chunks = partition([f"k{i}" for i in range(5)], 3, rng)
        assert sorted(len(c) for c in chunks) == [2, 3]

    def test_degenerate_single_chunk(self):
        rng = np.random.default_rng(2)
        names = ["a", "b", "c"]
        chunks = partition(names, 10, rng)
        assert len(chunks) == 1
        assert sorted(chunks[0]) == names

    def test_deterministic_given_rng_state(self):
        names = [f"k{i}" for i in range(9)]
        a = partition(names, 4, np.random.default_rng(7))
        b = partition(names, 4, np.random.default_rng(7))
        assert a == b

    def test_chunks_match_array_split(self):
        for v in range(1, 30):
            for g in (2, 3, 5, 7):
                names = [f"k{i}" for i in range(v)]
                chunks = partition(names, g, np.random.default_rng(v))
                shuffled = [names[i] for i in np.random.default_rng(v).permutation(v)]
                expected = np.array_split(shuffled, -(-v // g))
                assert chunks == [c.tolist() for c in expected]

    def test_run_names_are_plain_str(self):
        # refinement passes at g=2 re-partition survivors, so every path
        # through partition feeds the candidate sets
        labeled = root_copies_labeled(0)
        runs = rcd_runs(labeled, RcdConfig(g=2, n_runs=3, seed=0))
        names = [k for run in runs for k in (*run.kpis, *dict(run.p_values))]
        assert names
        assert all(type(k) is str for k in names)


class TestLocalSkeleton:
    def test_size_control_on_pure_noise(self):
        # survivor rate per KPI should be near or below alpha
        alpha = 0.05
        hits = 0
        runs = 500
        for seed in range(runs):
            labeled = noise_labeled(seed)
            surv, _ = local_skeleton(CiOracle(labeled), labeled.panel.kpi_names, alpha, 3)
            if "n0" in surv:
                hits += 1
        assert hits / runs <= 0.075

    def test_true_cause_survives(self):
        hits = 0
        for seed in range(100):
            labeled = scenario_labeled(seed)
            surv, _ = local_skeleton(
                CiOracle(labeled), ["rrc_users", "cce_util", "sinr_avg"], alpha=0.05, max_cond=3
            )
            if "rrc_users" in surv:
                hits += 1
        assert hits >= 95

    def test_perfect_indicator(self):
        rng = np.random.default_rng(5)
        t = 200
        fnode_col = np.r_[np.zeros(t // 2), np.ones(t // 2)]
        panel = KpiPanel(
            ticks=np.arange(t),
            kpi_names=("mirror", "noise"),
            values=np.column_stack([fnode_col, rng.standard_normal(t)]),
        )
        labeled = label_states(panel, t // 2, normal_len=t // 2, abnormal_len=t // 2)
        surv, _ = local_skeleton(CiOracle(labeled), ["mirror", "noise"], alpha=0.05, max_cond=3)
        assert "mirror" in surv
        assert surv["mirror"] < 1e-12

    @staticmethod
    def small_labeled(normal_len, abnormal_len, n_kpis):
        t = normal_len + abnormal_len
        panel = KpiPanel(
            ticks=np.arange(t),
            kpi_names=tuple("abcdefghi"[:n_kpis]),
            values=np.random.default_rng(6).standard_normal((t, n_kpis)),
        )
        return label_states(panel, normal_len, normal_len=normal_len, abnormal_len=abnormal_len)

    def test_small_sample_level_skipped(self):
        # pooled n=6: levels 0-2 run, level l >= 3 needs n > l + 3; alpha 1
        # drops no member, so the loop reaches every level up to max_cond
        labeled = self.small_labeled(3, 3, 5)
        surv, warnings = local_skeleton(CiOracle(labeled), "abcde", alpha=1.0, max_cond=4)
        assert sorted(surv) == list("abcde")
        assert all(0.0 < p <= 1.0 for p in surv.values())
        assert warnings == [
            "conditioning level 3 skipped: pooled sample n=6 too small",
            "conditioning level 4 skipped: pooled sample n=6 too small",
        ]

    def test_pooled_n3_is_an_analysis_error(self):
        # no CI test can run at n <= 3, so there is no discovery to report
        labeled = self.small_labeled(1, 2, 3)
        with pytest.raises(AnalysisError, match=r"n=3 is too small .* need n > 3"):
            CiOracle(labeled)

    def test_run_lists_each_warning_once(self):
        # pooled n=6 skips levels 3 and 4 in every chunk, refinement pass
        # and final pass that reaches them; a run reports each skip once
        labeled = self.small_labeled(3, 3, 9)
        cfg = RcdConfig(g=5, max_cond=4, alpha=0.999, n_runs=4)
        for run in rcd_runs(labeled, cfg):
            assert len(run.kpis) == 9
            assert run.warnings == (
                "conditioning level 3 skipped: pooled sample n=6 too small",
                "conditioning level 4 skipped: pooled sample n=6 too small",
            )


def reference_local_skeleton(oracle, chunk, alpha, max_cond):
    """The skeleton loop as it was before level 0 read the marginal map and
    each level asked its tests at once: every level, level 0 included, asks
    the oracle for one subset at a time and stops at a member's first
    p > alpha."""
    chunk = list(chunk)
    if not chunk:
        raise ConfigError("chunk must be non-empty")
    n = oracle.f.size
    adjacency = list(chunk)
    p_max = {name: 0.0 for name in chunk}
    warnings = []

    for level in range(max_cond + 1):
        if level > len(adjacency) - 1:
            break
        if n <= level + 3:
            warnings.append(
                f"conditioning level {level} skipped: pooled sample n={n} too small"
            )
            continue
        removed = []
        for name in adjacency:
            others = [o for o in adjacency if o != name]
            for subset in combinations(others, level):
                [p] = oracle.p_values([(name, subset)])
                p_max[name] = max(p_max[name], p)
                if p > alpha:
                    removed.append(name)
                    break
        if removed:
            adjacency = [a for a in adjacency if a not in removed]
    return {name: p_max[name] for name in adjacency}, warnings


def assert_same_skeleton(got, want):
    (surv, warnings), (ref_surv, ref_warnings) = got, want
    assert list(surv) == list(ref_surv)
    assert [p.hex() for p in surv.values()] == [p.hex() for p in ref_surv.values()]
    assert warnings == ref_warnings


class StubOracle:
    """An oracle with set marginal p's and one p for every conditional test."""

    def __init__(self, marginal, conditional=0.0, n=100):
        self.f = np.zeros(n)
        self.marginal = dict(marginal)
        self.conditional = conditional

    def p_values(self, keys):
        return [self.conditional if subset else self.marginal[name] for name, subset in keys]


class TestSkeletonEquivalence:
    @pytest.mark.parametrize("scenario", ["cascade", "single_root", "null"])
    def test_random_chunks_match_reference(self, scenario):
        rng = np.random.default_rng(sum(map(ord, scenario)))
        for seed in range(6):
            panel, _ = make_scenario(scenario).build(seed)
            labeled = label_states(panel, 120, normal_len=120, abnormal_len=120)
            oracle = CiOracle(labeled)
            names = list(panel.kpi_names)
            for _ in range(12):
                chunk = [names[i] for i in rng.permutation(len(names))[: rng.integers(1, len(names) + 1)]]
                for alpha in (0.01, 0.05, 0.2):
                    for max_cond in range(4):
                        assert_same_skeleton(
                            local_skeleton(oracle, chunk, alpha, max_cond),
                            reference_local_skeleton(oracle, chunk, alpha, max_cond),
                        )

    @pytest.mark.parametrize("marginal_p", [0.05, 0.0])
    @pytest.mark.parametrize("max_cond", [0, 1, 3])
    def test_marginal_p_on_the_edge(self, marginal_p, max_cond):
        # p == alpha does not reject, so the member stays; p == 0.0 stays
        # with p_max 0.0
        oracle = StubOracle({"a": marginal_p, "b": marginal_p, "c": 0.9})
        surv, warnings = local_skeleton(oracle, ["c", "b", "a"], 0.05, max_cond)
        assert surv == {"b": marginal_p, "a": marginal_p} and warnings == []
        assert_same_skeleton(
            (surv, warnings), reference_local_skeleton(oracle, ["c", "b", "a"], 0.05, max_cond)
        )

    def test_small_sample_warnings_match_reference(self):
        oracle = StubOracle({k: 0.01 for k in "abcde"}, conditional=0.02, n=6)
        for max_cond in range(6):
            assert_same_skeleton(
                local_skeleton(oracle, "edcba", 0.05, max_cond),
                reference_local_skeleton(oracle, "edcba", 0.05, max_cond),
            )

    def test_tuner_grid_matches_reference(self, monkeypatch):
        panel, _ = single_root_scenario(extra_noise=15).build(143)
        labeled = label_states(panel, 120, normal_len=120, abnormal_len=120)
        assert panel.n_kpis == 20

        def grid():
            return run_grid(labeled, range(3, 21), DEFAULT_N_SET, RcdConfig(), 143).counts

        counts = grid()
        monkeypatch.setattr(rcd, "local_skeleton", reference_local_skeleton)
        assert np.array_equal(counts, grid())


class TestAutocorrelatedPanel:
    def test_memo_entries_keep_one_block_bits(self):
        # each conditional p has the bits of its block asked alone, or of
        # ci_test on the rows where that block is declined
        labeled = autocorrelated_labeled(0)
        oracle = CiOracle(labeled)
        rcd_runs(labeled, RcdConfig(g=8, n_runs=4, seed=0), oracle=oracle)
        order, n = oracle.order, oracle.f.size
        conditional = {key: p for key, p in oracle._p.items() if key[1]}
        assert len(conditional) > 1000
        assert max(len(subset) for _, subset in conditional) == 3
        declined = 0
        for (name, subset), p in conditional.items():
            idx = [order[name], len(order), *(order[s] for s in subset)]
            _, z, (answered,) = stacked_gram_ci(oracle.gram[np.ix_(idx, idx)][np.newaxis], n)
            (want,) = fisher_p(z)
            if not answered:
                declined += 1
                want = ci_test(oracle.column(name), oracle.f, [oracle.column(s) for s in subset]).p
            assert p.hex() == float(want).hex(), (name, subset)
        assert declined

    def test_random_chunks_match_reference(self):
        # the reference asks its own oracle one test at a time
        labeled = autocorrelated_labeled(1)
        oracle, ref_oracle = CiOracle(labeled), CiOracle(labeled)
        names = list(labeled.panel.kpi_names)
        rng = np.random.default_rng(1)
        for _ in range(8):
            chunk = [names[i] for i in rng.permutation(len(names))[: rng.integers(5, 13)]]
            for alpha in (0.01, 0.05, 0.2):
                assert_same_skeleton(
                    local_skeleton(oracle, chunk, alpha, 3),
                    reference_local_skeleton(ref_oracle, chunk, alpha, 3),
                )
        assert max(len(subset) for _, subset in ref_oracle._p) == 3

    def test_memo_hits_do_not_touch_numpy(self, monkeypatch):
        labeled = autocorrelated_labeled(0)
        oracle = CiOracle(labeled)
        chunk = list(labeled.panel.kpi_names[:10])
        want = local_skeleton(oracle, chunk, 0.05, 3)
        monkeypatch.setattr(rcd, "np", None)
        assert local_skeleton(oracle, chunk, 0.05, 3) == want


class TestLevelZeroMechanism:
    def test_discovery_asks_no_marginal_p_value(self, monkeypatch):
        # level 0 reads oracle.marginal; p_values only answers conditional
        # tests, each call holds one level's subsets, and makes at most one
        # kernel call
        sizes, kernel_calls = [], []
        p_values, stacked = CiOracle.p_values, rcd.stacked_gram_ci

        def recorded(self, keys):
            sizes.append({len(subset) for _, subset in keys})
            return p_values(self, keys)

        def counted(blocks, n):
            kernel_calls.append(len(blocks))
            return stacked(blocks, n)

        monkeypatch.setattr(CiOracle, "p_values", recorded)
        monkeypatch.setattr(rcd, "stacked_gram_ci", counted)
        panel, _ = make_scenario("cascade").build(0)
        labeled = label_states(panel, 120, normal_len=120, abnormal_len=120)
        rcd_runs(labeled, RcdConfig(g=3, n_runs=8, seed=0))
        assert sizes and all(len(call) == 1 and 0 not in call for call in sizes)
        assert 0 < len(kernel_calls) <= len(sizes) and all(kernel_calls)

    def test_marginal_p_value_still_answers(self):
        oracle = CiOracle(scenario_labeled(0))
        keys = [(name, ()) for name in oracle.marginal]
        assert oracle.p_values(keys) == list(oracle.marginal.values())

    def test_skeleton_is_called_through_the_module_binding(self, monkeypatch):
        # every computed screen is a call of rcd.local_skeleton from the
        # oracle's screen memo
        callers = []
        skeleton = rcd.local_skeleton

        def recorded(*args):
            callers.append(sys._getframe(1).f_code.co_name)
            return skeleton(*args)

        monkeypatch.setattr(rcd, "local_skeleton", recorded)
        rcd_runs(root_copies_labeled(0), RcdConfig(g=2, n_runs=3, seed=0))
        assert callers and set(callers) == {"screen"}


def tune_shape_labeled(seed, t=240):
    """The tune benchmark's panel shape: a root pinned at 6 over the abnormal
    window, its lag-2 mediator, the SLA metric at lag 2 after that, and 5
    noise KPIs centred within each window, so that none of them passes
    level 0."""
    rng = np.random.default_rng(seed)
    half = t // 2
    x = rng.standard_normal((t, 8))
    x[half:, 0] = 6.0
    x[2:, 1] += 0.9 * x[:-2, 0]
    x[2:, 2] -= 0.9 * x[:-2, 1]
    for window in (slice(0, half), slice(half, t)):
        x[window, 3:] -= x[window, 3:].mean(axis=0)
    names = ("rrc_users", "cce_util", "dl_throughput", "sinr_avg", "rach_rate",
             "mac_bler_1", "mac_bler_2", "mac_bler_3")
    panel = KpiPanel(ticks=np.arange(t), kpi_names=names, values=x)
    return label_states(panel, half, normal_len=half, abnormal_len=half)


def record_screens(monkeypatch):
    """Record each screen's level-0 survivors, as a sorted tuple, and the
    chunk of each `local_skeleton` call the memo makes."""
    asked, computed = [], []
    screen, skeleton = CiOracle.screen, rcd.local_skeleton

    def recorded_screen(self, chunk, alpha, max_cond):
        asked.append(tuple(sorted(n for n in chunk if not self.marginal[n] > alpha)))
        return screen(self, chunk, alpha, max_cond)

    def recorded_skeleton(oracle, chunk, alpha, max_cond):
        computed.append(tuple(chunk))
        return skeleton(oracle, chunk, alpha, max_cond)

    monkeypatch.setattr(CiOracle, "screen", recorded_screen)
    monkeypatch.setattr(rcd, "local_skeleton", recorded_skeleton)
    return asked, computed


class TestScreenMemo:
    @staticmethod
    def assert_screen_matches(labeled, chunks, alphas, max_conds):
        """The memo against local_skeleton on its own oracle: the survivor
        set and warnings of the chunk in its order, and every bit of the
        chunk in panel order."""
        oracle, ref_oracle = CiOracle(labeled), CiOracle(labeled)
        order = oracle.order
        for chunk in chunks:
            in_panel_order = sorted(chunk, key=order.__getitem__)
            for alpha in alphas:
                for max_cond in max_conds:
                    got = oracle.screen(chunk, alpha, max_cond)
                    surv, warnings = local_skeleton(ref_oracle, chunk, alpha, max_cond)
                    assert set(got[0]) == set(surv) and got[1] == warnings
                    assert_same_skeleton(
                        got, local_skeleton(ref_oracle, in_panel_order, alpha, max_cond)
                    )
                    # a hit gives the bits of the miss
                    assert_same_skeleton(oracle.screen(chunk[::-1], alpha, max_cond), got)

    @staticmethod
    def random_chunks(names, rng, count, smallest=1):
        return [
            [names[i] for i in rng.permutation(len(names))[: rng.integers(smallest, len(names) + 1)]]
            for _ in range(count)
        ]

    @pytest.mark.parametrize("scenario", ["cascade", "single_root", "null"])
    def test_scenario_chunks_match_local_skeleton(self, scenario):
        rng = np.random.default_rng(sum(map(ord, scenario)))
        for seed in range(4):
            panel, _ = make_scenario(scenario).build(seed)
            labeled = label_states(panel, 120, normal_len=120, abnormal_len=120)
            chunks = self.random_chunks(list(panel.kpi_names), rng, 10)
            self.assert_screen_matches(labeled, chunks, (0.01, 0.05, 0.2), range(4))

    def test_autocorrelated_chunks_match_local_skeleton(self):
        labeled = autocorrelated_labeled(2)
        rng = np.random.default_rng(2)
        chunks = self.random_chunks(list(labeled.panel.kpi_names)[:14], rng, 6, smallest=5)
        self.assert_screen_matches(labeled, chunks, (0.01, 0.05, 0.2), (1, 3))

    def test_small_sample_skip_matches_local_skeleton(self):
        # pooled n=6 skips levels 3 and 4 on every chunk that reaches them
        labeled = TestLocalSkeleton.small_labeled(3, 3, 5)
        chunks = ["edcba", "bd", "ace", "a"]
        self.assert_screen_matches(labeled, chunks, (0.5, 1.0), range(6))
        surv, warnings = CiOracle(labeled).screen("edcba", 1.0, 4)
        assert list(surv) == list("abcde")
        assert warnings == [
            "conditioning level 3 skipped: pooled sample n=6 too small",
            "conditioning level 4 skipped: pooled sample n=6 too small",
        ]

    def test_sweep_computes_each_level_zero_set_once(self, monkeypatch):
        labeled = tune_shape_labeled(143)
        asked, computed = record_screens(monkeypatch)
        run_grid(labeled, range(3, 9), DEFAULT_N_SET, RcdConfig(), 143, ("dl_throughput",))
        # one computed skeleton per distinct set of two or more survivors,
        # each called with its members in panel order
        assert len(computed) == len(set(computed))
        assert {tuple(sorted(chunk)) for chunk in computed} == {s for s in asked if len(s) > 1}
        order = labeled.panel.kpi_names
        assert all(list(c) == sorted(c, key=order.index) for c in computed)
        assert len(asked) > 1000 and len(computed) == 1

    def test_warm_oracle_computes_no_skeleton(self, monkeypatch):
        labeled = autocorrelated_labeled(0)
        cfg = RcdConfig(g=6, n_runs=6, seed=1)
        oracle = CiOracle(labeled)
        asked, computed = record_screens(monkeypatch)
        first = rcd_runs(labeled, cfg, oracle=oracle)
        assert computed and len(computed) == len(set(computed))
        computed.clear()
        assert rcd_runs(labeled, cfg, oracle=oracle) == first
        assert computed == [] and len(asked) > 0


LEVEL_3_SKIPPED = "conditioning level 3 skipped: pooled sample n=6 too small"


def reference_refine(oracle, survivor_union, g, alpha, max_cond, rng):
    """hierarchical_refine with no memo: every screen is local_skeleton of
    its chunk in panel order, and the final candidate set is built from
    local_skeleton directly, with the warnings of every pass in order."""
    order = oracle.order

    def screen(chunk):
        return local_skeleton(oracle, sorted(chunk, key=order.__getitem__), alpha, max_cond)

    survivors = sorted(survivor_union, key=order.__getitem__)
    warnings, passes = [], 0
    while len(survivors) > g:
        if passes == rcd.MAX_REFINE_PASSES:
            warnings.append(
                f"refinement stopped at the {passes}-pass cap with {len(survivors)} KPIs left"
            )
            break
        passes += 1
        kept = []
        for chunk in partition(survivors, g, rng):
            surv, warn = screen(chunk)
            kept.extend(surv)
            warnings.extend(warn)
        if len(kept) == len(survivors):
            break
        survivors = sorted(kept, key=order.__getitem__)
    final = {}
    if survivors:
        final, warn = screen(survivors)
        warnings.extend(warn)
    kept = sorted(final, key=order.__getitem__)
    return CandidateSet(
        kpis=tuple(kept),
        p_values=tuple((name, float(final[name])) for name in kept),
        warnings=tuple(warnings),
    )


def reference_runs(labeled, cfg, exclude=()):
    """rcd_runs with no memo, on its own oracle: each run screens its chunks
    with local_skeleton, refines through reference_refine and lists its
    warnings once each, in the order first seen."""
    oracle = CiOracle(labeled)
    order = oracle.order
    names = list(rcd.discovery_kpis(labeled, exclude))
    runs = []
    for i in range(cfg.n_runs):
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, i]))
        union, warnings = set(), []
        for chunk in partition(names, cfg.g, rng):
            chunk = sorted(chunk, key=order.__getitem__)
            surv, warn = local_skeleton(oracle, chunk, cfg.alpha, cfg.max_cond)
            union.update(surv)
            warnings.extend(warn)
        result = reference_refine(oracle, union, cfg.g, cfg.alpha, cfg.max_cond, rng)
        warnings.extend(result.warnings)
        runs.append(replace(result, warnings=tuple(dict.fromkeys(warnings))))
    return runs


def assert_same_runs(got, want):
    """Candidate sets equal bit for bit: KPIs, the hex of every p, warnings."""
    assert len(got) == len(want)
    for run, ref in zip(got, want):
        assert run.kpis == ref.kpis
        assert [(k, p.hex()) for k, p in run.p_values] == [(k, p.hex()) for k, p in ref.p_values]
        assert run.warnings == ref.warnings


class TestFinalPassMemo:
    @staticmethod
    def assert_runs_match(labeled, g_values, alphas, max_conds, n_runs=6, exclude=()):
        """Every run on one shared oracle, across the configs, against the
        reference on its own."""
        oracle = CiOracle(labeled)
        for g in g_values:
            for alpha in alphas:
                for max_cond in max_conds:
                    cfg = RcdConfig(g=g, alpha=alpha, max_cond=max_cond, n_runs=n_runs, seed=g)
                    assert_same_runs(
                        rcd_runs(labeled, cfg, exclude, oracle=oracle),
                        reference_runs(labeled, cfg, exclude),
                    )

    @pytest.mark.parametrize("scenario", ["cascade", "single_root", "null"])
    def test_scenario_runs_match_reference(self, scenario):
        for seed in range(3):
            panel, _ = make_scenario(scenario).build(seed)
            labeled = label_states(panel, 120, normal_len=120, abnormal_len=120)
            self.assert_runs_match(labeled, (2, 3, 5), (0.01, 0.05, 0.2), (0, 1, 3))

    def test_autocorrelated_runs_match_reference(self):
        # unions above g: the runs make refinement passes
        self.assert_runs_match(autocorrelated_labeled(0), (4, 8), (0.01, 0.05, 0.2), (1, 3), 4)

    def test_tune_shape_runs_match_reference(self):
        self.assert_runs_match(
            tune_shape_labeled(143), (3, 5, 8), (0.01, 0.05, 0.2), (0, 1, 3), 8, ("dl_throughput",)
        )

    def test_refinement_warnings_come_first(self):
        # pooled n=6 skips levels 3 and 4 in every pass that reaches them;
        # hierarchical_refine lists its passes' warnings, then the final
        # pass's, and every run lists each warning once
        labeled = TestLocalSkeleton.small_labeled(3, 3, 9)
        oracle, ref_oracle = CiOracle(labeled), CiOracle(labeled)
        names = labeled.panel.kpi_names
        for max_cond in range(6):
            for seed in range(3):
                rng = first_shuffles([[seed]], 0).stream(0)
                ref_rng = np.random.default_rng(np.random.SeedSequence([seed]))
                got = hierarchical_refine(names, oracle, 5, 0.999, max_cond, rng)
                want = reference_refine(ref_oracle, names, 5, 0.999, max_cond, ref_rng)
                assert_same_runs([got], [want])
                # the chunks of 5 and 4 and the final pass each skip level 3
                assert got.warnings.count(LEVEL_3_SKIPPED) == (3 if max_cond >= 3 else 0)
        self.assert_runs_match(labeled, (2, 4, 5), (0.5, 0.999), range(6), 4)

    def test_pass_cap_warning_comes_first(self, monkeypatch):
        monkeypatch.setattr(rcd, "MAX_REFINE_PASSES", 1)
        labeled = root_copies_labeled(0)
        self.assert_runs_match(labeled, (2, 3), (0.05,), (1, 3), 3)
        oracle = CiOracle(labeled)
        runs = rcd_runs(labeled, RcdConfig(g=2, n_runs=3, seed=2), oracle=oracle)
        cap = "refinement stopped at the 1-pass cap"
        assert all(run.warnings[0].startswith(cap) for run in runs)

    def test_empty_union(self):
        oracle = CiOracle(noise_labeled(0))
        # a union of at most g members is not shuffled, so it needs no stream
        empty = hierarchical_refine([], oracle, 3, 0.05, 3, None)
        assert empty == CandidateSet(kpis=(), p_values=(), warnings=())
        assert oracle.candidates((), 0.05, 3) is empty

    def test_one_object_per_member_set(self):
        # the key is the members in panel order, alpha and max_cond
        labeled = autocorrelated_labeled(1)
        oracle, ref_oracle = CiOracle(labeled), CiOracle(labeled)
        names = list(labeled.panel.kpi_names)
        rng = np.random.default_rng(1)
        for _ in range(6):
            members = [names[i] for i in rng.permutation(len(names))[: rng.integers(2, 9)]]
            for alpha in (0.01, 0.2):
                for max_cond in (0, 3):
                    got = oracle.candidates(members, alpha, max_cond)
                    assert oracle.candidates(members[::-1], alpha, max_cond) is got
                    # g = len(members): the reference makes no pass, so draws nothing
                    want = reference_refine(
                        ref_oracle, members, len(members), alpha, max_cond, None
                    )
                    assert_same_runs([got], [want])

    def test_sweep_builds_each_final_set_once(self, monkeypatch):
        labeled = tune_shape_labeled(143)
        built, finals, runs = [], [], []
        candidates, runs_of = CiOracle.candidates, rcd.rcd_runs

        def counted(*args, **kwargs):
            built.append(CandidateSet(*args, **kwargs))
            return built[-1]

        def recorded_candidates(self, survivors, alpha, max_cond):
            key = (tuple(sorted(survivors)), alpha, max_cond)
            finals.append((key, candidates(self, survivors, alpha, max_cond)))
            return finals[-1][1]

        def recorded_runs(*args, **kwargs):
            result = runs_of(*args, **kwargs)
            runs.extend(result)
            return result

        monkeypatch.setattr(rcd, "CandidateSet", counted)
        monkeypatch.setattr(CiOracle, "candidates", recorded_candidates)
        monkeypatch.setattr(rcd, "rcd_runs", recorded_runs)
        run_grid(labeled, range(3, 9), DEFAULT_N_SET, RcdConfig(), 143, ("dl_throughput",))
        objects = {}
        for key, result in finals:
            assert objects.setdefault(key, result) is result
        assert len(runs) == len(finals) > 1000
        assert len(built) == len(objects) == 1
        # with no warnings to add, a run is its final pass's object
        assert all(run is result for run, (_, result) in zip(runs, finals))


class TestHierarchicalRefine:
    def test_small_union_single_final_pass(self):
        labeled = scenario_labeled(0)
        rng = np.random.default_rng(0)
        oracle = CiOracle(labeled)
        result = hierarchical_refine(
            ["rrc_users", "cce_util"], oracle, g=3, alpha=0.05, max_cond=3, rng=rng
        )
        direct, _ = local_skeleton(oracle, ["rrc_users", "cce_util"], 0.05, 3)
        assert set(result.kpis) == set(direct)

    def test_true_cause_retained(self):
        hits = 0
        for seed in range(100):
            labeled = scenario_labeled(seed)
            rng = np.random.default_rng(seed)
            result = hierarchical_refine(
                list(labeled.panel.kpi_names), CiOracle(labeled), g=3, alpha=0.05,
                max_cond=3, rng=rng,
            )
            if "rrc_users" in result.kpis:
                hits += 1
        assert hits >= 90

    def test_pass_cap_warns(self, monkeypatch):
        labeled = root_copies_labeled(0)

        def cap_warnings():
            result = hierarchical_refine(
                labeled.panel.kpi_names, CiOracle(labeled), g=2, alpha=0.05, max_cond=3,
                rng=np.random.default_rng(0),
            )
            assert result.kpis == ("root",)
            return [w for w in result.warnings if "cap" in w]

        assert cap_warnings() == []
        monkeypatch.setattr("rcseq.rcd.MAX_REFINE_PASSES", 1)
        assert cap_warnings() == ["refinement stopped at the 1-pass cap with 8 KPIs left"]

    def test_empty_union_is_valid(self):
        labeled = noise_labeled(0)
        result = hierarchical_refine(
            [], CiOracle(labeled), g=3, alpha=0.05, max_cond=3, rng=np.random.default_rng(0)
        )
        assert result.kpis == ()


class TestMultiRun:
    def test_determinism(self):
        labeled = scenario_labeled(3)
        cfg = RcdConfig(g=3, n_runs=5, alpha=0.05, seed=11)
        a = rcd_multi_run(labeled, cfg)
        b = rcd_multi_run(labeled, cfg)
        assert a.kpi_names == b.kpi_names
        assert np.array_equal(a.counts, b.counts)

    def test_proportions_and_counting(self):
        rng = np.random.default_rng(9)
        t = 240
        fnode_col = np.r_[np.zeros(t // 2), np.ones(t // 2)]
        panel = KpiPanel(
            ticks=np.arange(t),
            kpi_names=("mirror", "n1", "n2"),
            values=np.column_stack([fnode_col, rng.standard_normal((t, 2))]),
        )
        labeled = label_states(panel, 120, normal_len=120, abnormal_len=120)
        table = rcd_multi_run(labeled, RcdConfig(g=2, n_runs=10, seed=1))
        assert table.proportion("mirror") == 1.0
        assert np.all(table.proportions <= 1.0)
        assert np.all(table.counts <= table.n_runs)

    def test_true_cause_frequency(self):
        labeled = scenario_labeled(7)
        table = rcd_multi_run(labeled, RcdConfig(g=3, n_runs=30, alpha=0.05, seed=7))
        assert table.proportion("rrc_users") >= 0.8

    def test_exclusion(self):
        labeled = scenario_labeled(1)
        cfg = RcdConfig(g=3, n_runs=3, seed=0)
        table = rcd_multi_run(labeled, cfg, exclude=("dl_throughput",))
        assert "dl_throughput" not in table.kpi_names
        for cand in rcd_runs(labeled, cfg, exclude=("dl_throughput",)):
            assert "dl_throughput" not in cand.kpis

    def test_degenerate_g_equals_global_pass(self):
        labeled = scenario_labeled(2)
        v = len(labeled.panel.kpi_names)
        cfg = RcdConfig(g=v, n_runs=1, alpha=0.05, seed=5)
        oracle = CiOracle(labeled)
        run = rcd_single_run(oracle, cfg, 0)
        # replicate manually: one global skeleton pass then refinement,
        # consuming the identically derived RNG stream
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0]))
        chunks = partition(list(labeled.panel.kpi_names), v, rng)
        assert len(chunks) == 1
        union, _ = local_skeleton(oracle, chunks[0], cfg.alpha, cfg.max_cond)
        manual = hierarchical_refine(
            union, oracle, v, cfg.alpha, cfg.max_cond, rng
        )
        assert run.kpis == manual.kpis

    def test_null_runs_mostly_empty(self):
        # union bound: P(non-empty) <~ V * alpha on independent noise
        empties = 0
        runs = 200
        for seed in range(runs):
            labeled = noise_labeled(seed + 1000)
            cand = rcd_single_run(CiOracle(labeled), RcdConfig(g=3, n_runs=1, seed=seed), 0)
            if not cand.kpis:
                empties += 1
        assert empties / runs >= 0.7

    def test_no_foreign_kpis(self):
        labeled = scenario_labeled(0)
        for cand in rcd_runs(labeled, RcdConfig(g=3, n_runs=5, seed=3)):
            assert set(cand.kpis) <= set(labeled.panel.kpi_names)


class TestFrequencyTable:
    def test_validation(self):
        with pytest.raises(ConfigError):
            FrequencyTable(kpi_names=("a",), counts=np.array([5]), n_runs=3)

    def test_no_runs_rejected(self):
        with pytest.raises(ConfigError, match="n_runs must be >= 1"):
            FrequencyTable(kpi_names=("a",), counts=np.array([0]), n_runs=0)

    def test_proportion_lookup(self):
        table = FrequencyTable(kpi_names=("a", "b"), counts=np.array([4, 0]), n_runs=10)
        assert table.proportion("a") == 0.4
        assert table.proportion("b") == 0.0

    def test_value_equality(self):
        def table(counts, names=("a", "b", "c"), n_runs=10):
            return FrequencyTable(kpi_names=names, counts=np.array(counts), n_runs=n_runs)

        assert table([4, 0, 7]) == table([4, 0, 7])
        assert table([4, 0, 7]) != table([4, 1, 7])
        assert table([4, 0, 7]) != table([4, 0, 7], names=("a", "b", "d"))
        assert table([4, 0, 7]) != table([4, 0, 7], n_runs=11)
        assert table([4, 0, 7]) != "table"


def count_kernel_keys(monkeypatch):
    """Wrap rcd's CI kernels to record the exact input of each test: the
    marginal batch, and each Gram block of a conditional test, in order."""
    keys = {"stacked_gram_ci": [], "batch_marginal_ci": []}
    stacked_gram_ci, batch_marginal_ci = rcd.stacked_gram_ci, rcd.batch_marginal_ci

    def key(*arrays):
        return tuple((a.shape, np.ascontiguousarray(a).tobytes()) for a in arrays)

    def counted_stacked_gram_ci(blocks, n):
        keys["stacked_gram_ci"].extend((*key(block), n) for block in blocks)
        return stacked_gram_ci(blocks, n)

    def counted_batch_marginal_ci(x_matrix, y):
        keys["batch_marginal_ci"].append(key(x_matrix, y))
        return batch_marginal_ci(x_matrix, y)

    monkeypatch.setattr(rcd, "stacked_gram_ci", counted_stacked_gram_ci)
    monkeypatch.setattr(rcd, "batch_marginal_ci", counted_batch_marginal_ci)
    return keys


class TestCiMemo:
    def labeled(self):
        panel, _ = single_root_scenario(extra_noise=3).build(5)
        return label_states(panel, 120, normal_len=120, abnormal_len=120)

    def test_each_test_computed_once_per_call(self, monkeypatch):
        labeled = self.labeled()
        cfg = RcdConfig(g=3, n_runs=24, seed=4)
        keys = count_kernel_keys(monkeypatch)
        for i in range(cfg.n_runs):
            rcd_single_run(CiOracle(labeled), cfg, i)
        solo = {kernel: list(calls) for kernel, calls in keys.items()}
        for kernel, calls in keys.items():
            # run alone, the runs repeat tests, so the memo has work to save
            assert len(calls) > len(set(calls)) > 0, kernel
            calls.clear()

        rcd_runs(labeled, cfg)
        first = {kernel: list(calls) for kernel, calls in keys.items()}
        # every marginal p of the call comes from one batch over the panel
        assert len(first["batch_marginal_ci"]) == 1
        for kernel, calls in first.items():
            assert len(calls) == len(set(calls)) == len(set(solo[kernel])), kernel

        # a second call starts from an empty memo and computes every test again
        rcd_runs(labeled, cfg)
        for kernel, calls in keys.items():
            assert calls == first[kernel] * 2, kernel

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("g", [2, 3, 5])
    @pytest.mark.parametrize("scenario", ["cascade", "single_root"])
    def test_shared_memo_equals_runs_alone(self, scenario, g, seed):
        panel, _ = make_scenario(scenario).build(seed)
        labeled = label_states(panel, 120, normal_len=120, abnormal_len=120)
        cfg = RcdConfig(g=g, n_runs=8, seed=seed)
        alone = [rcd_single_run(CiOracle(labeled), cfg, i) for i in range(cfg.n_runs)]
        assert rcd_runs(labeled, cfg) == alone

    @pytest.mark.parametrize("v", [5, 9, 13, 17, 21, 25])
    def test_marginal_p_matches_chunk_batches(self, v):
        # one batch over the panel against the per-chunk batches the
        # screen once ran: equal to rounding, and the same decisions
        rng = np.random.default_rng(v)
        t, alpha = 224, 0.05
        values = rng.standard_normal((t, v))
        values[t // 2 :, : v // 2] += rng.uniform(0.0, 0.6, v // 2)
        panel = KpiPanel(
            ticks=np.arange(t), kpi_names=tuple(f"k{i}" for i in range(v)), values=values
        )
        oracle = CiOracle(label_states(panel, t // 2, normal_len=t // 2, abnormal_len=t // 2))
        assert oracle.f.size == 224
        for g in range(2, v + 1):
            for chunk in partition(panel.kpi_names, g, rng):
                x_matrix = np.column_stack([oracle.column(name) for name in chunk])
                expected = batch_ci(x_matrix, oracle.f)[1]
                got = np.array(oracle.p_values([(name, ()) for name in chunk]))
                np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)
                assert np.array_equal(got > alpha, expected > alpha)

    def test_declined_gram_blocks_fall_back_to_ci_test(self, monkeypatch):
        # derived KPIs make the blocks that hold them with their inputs
        # collinear; only those tests reach rcd's ci_test binding, and each
        # p is the least-squares kernel's
        rng = np.random.default_rng(12)
        t = 240
        values = rng.standard_normal((t, 5))
        values[t // 2 :, :3] += 1.0
        values[:, 3] = values[:, 0]
        values[:, 4] = 2.0 * values[:, 0] - 0.5 * values[:, 1] + 1.0
        names = ("a", "b", "c", "copy", "affine")
        panel = KpiPanel(ticks=np.arange(t), kpi_names=names, values=values)
        oracle = CiOracle(label_states(panel, t // 2, normal_len=t // 2, abnormal_len=t // 2))
        fallbacks = []
        ci_test = rcd.ci_test

        def counted(x, y, given=()):
            fallbacks.append(len(given))
            return ci_test(x, y, given=given)

        monkeypatch.setattr(rcd, "ci_test", counted)
        keys = {
            ("b", ("a",)): False,
            ("c", ("a", "b")): False,
            ("b", ("a", "copy")): True,
            ("copy", ("a",)): True,
            ("c", ("b", "affine", "a")): True,
            ("affine", ("a", "b")): True,
        }
        for size in (1, 2, 3):
            # one call per subset size, as a level asks, with answered and
            # declined blocks side by side in its stack
            group = {key: declined for key, declined in keys.items() if len(key[1]) == size}
            before = len(fallbacks)
            got = oracle.p_values(list(group))
            assert fallbacks[before:] == [size] * sum(group.values())
            for ((name, subset), declined), p in zip(group.items(), got):
                given = [oracle.column(s) for s in subset]
                want = batch_ci(oracle.column(name).reshape(-1, 1), oracle.f, given=given)[1][0]
                if declined:
                    assert p == want
                else:
                    assert p == pytest.approx(want, rel=1e-9) and (p > 0.05) == (want > 0.05)
        # a KPI its set explains is degenerate: p = 1
        assert oracle.p_values([("copy", ("a",))]) == oracle.p_values([("affine", ("a", "b"))]) == [1.0]

    def test_oracle_of_another_panel_rejected(self):
        labeled, other = self.labeled(), self.labeled()
        cfg = RcdConfig(g=3, n_runs=2, seed=0)
        for discover in (rcd_runs, rcd_multi_run):
            with pytest.raises(ValueError, match="different labeled panel"):
                discover(labeled, cfg, oracle=CiOracle(other))
