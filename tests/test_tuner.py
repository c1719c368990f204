import re

import numpy as np
import pytest

from published_rows import PUBLISHED_ROWS
from rcseq import rcd, tuner
from rcseq.errors import AnalysisError, ConfigError
from rcseq.panel import label_states
from rcseq.rcd import RcdConfig, rcd_multi_run, seed_states
from rcseq.scm import make_scenario, single_root_scenario
from rcseq.stats import binomial_sd
from rcseq.tuner import (
    McGrid,
    TuningRow,
    consolidate,
    estimate_p,
    prominent_sources,
    run_grid,
    select_g,
    select_n,
    tuning_rows,
    variance_trend,
)
from test_rcd import count_kernel_keys


def grid_from_proportions(mapping, n_values, kpi="k"):
    """Build a one-KPI grid whose cell proportions are exactly `mapping[g][n]`."""
    g_values = tuple(sorted(mapping))
    counts = np.zeros((len(g_values), len(n_values), 1), dtype=np.int64)
    for gi, g in enumerate(g_values):
        for ni, n in enumerate(n_values):
            p = mapping[g][n] if isinstance(mapping[g], dict) else mapping[g]
            c = p * n
            assert abs(c - round(c)) < 1e-9, "proportion * n must be integral"
            counts[gi, ni, 0] = round(c)
    return McGrid(g_values=g_values, n_values=tuple(n_values), kpi_names=(kpi,), counts=counts)


def scenario_labeled(seed):
    panel, _ = single_root_scenario().build(seed)
    return label_states(panel, 120, normal_len=120, abnormal_len=120)


class TestRunGrid:
    def test_counting_and_shape(self):
        labeled = scenario_labeled(0)
        grid = run_grid(
            labeled, g_values=(3,), n_values=(10,), base_cfg=RcdConfig(), seed=1
        )
        assert grid.counts.shape == (1, 1, 5)
        assert 0 <= grid.proportion(3, 10, "rrc_users") <= 1.0

    def test_determinism(self):
        labeled = scenario_labeled(1)
        kw = dict(g_values=(3, 4), n_values=(10, 15), base_cfg=RcdConfig(), seed=9)
        a = run_grid(labeled, **kw)
        b = run_grid(labeled, **kw)
        assert np.array_equal(a.counts, b.counts)

    def test_cell_independence(self):
        # recomputing a single cell reproduces the big grid's cell exactly
        labeled = scenario_labeled(2)
        big = run_grid(
            labeled, g_values=(3, 4), n_values=(10, 15), base_cfg=RcdConfig(), seed=4
        )
        small = run_grid(
            labeled, g_values=(4,), n_values=(15,), base_cfg=RcdConfig(), seed=4
        )
        gi, ni = big.g_values.index(4), big.n_values.index(15)
        assert np.array_equal(big.counts[gi, ni], small.counts[0, 0])

    @staticmethod
    def cells_alone(labeled, g_values, n_values, seed):
        """Each cell's counts from rcd_multi_run with a fresh oracle."""
        return [
            rcd_multi_run(
                labeled, RcdConfig(g=g, n_runs=n, seed=int(seed_states([[seed, g, n]], 1)[0, 0]))
            ).counts
            for g in g_values
            for n in n_values
        ]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("scenario", ["cascade", "single_root"])
    def test_shared_oracle_equals_cells_alone(self, scenario, seed):
        panel, _ = make_scenario(scenario).build(seed)
        labeled = label_states(panel, 120, normal_len=120, abnormal_len=120)
        g_values, n_values = (2, 3, 4, 5), (4, 7)
        grid = run_grid(labeled, g_values, n_values, RcdConfig(), seed=seed)
        alone = self.cells_alone(labeled, g_values, n_values, seed)
        assert np.array_equal(grid.counts, np.reshape(alone, grid.counts.shape))

    def test_each_test_computed_once_per_sweep(self, monkeypatch):
        labeled = scenario_labeled(3)
        g_values, n_values = (2, 3, 4), (5, 8)
        keys = count_kernel_keys(monkeypatch)
        self.cells_alone(labeled, g_values, n_values, seed=2)
        alone = {kernel: set(calls) for kernel, calls in keys.items()}
        for kernel, calls in keys.items():
            # cells computed alone repeat each other's tests
            assert len(calls) > len(alone[kernel]) > 0, kernel
            calls.clear()

        run_grid(labeled, g_values, n_values, RcdConfig(), seed=2)
        for kernel, calls in keys.items():
            assert len(calls) == len(set(calls)), kernel
            assert set(calls) == alone[kernel], kernel

    @pytest.mark.parametrize(
        "g_values, n_values", [((3,), (4,)), ((2, 3), (4, 7)), ((2, 3, 5), (1, 4, 9))]
    )
    def test_sweep_seeds_in_two_batches(self, monkeypatch, g_values, n_values):
        # one batch seeds the cells, one every run of every cell, each as
        # one uint32 array of words with a row per entropy
        batches = []
        seed_states = rcd.seed_states

        def counted(entropies, n_words):
            entropies = list(entropies)
            batches.append((len(entropies), n_words))
            words = seed_states(entropies, n_words)
            assert words.dtype == np.uint32 and words.shape == (len(entropies), n_words)
            return words

        monkeypatch.setattr(rcd, "seed_states", counted)
        monkeypatch.setattr(tuner, "seed_states", counted)
        run_grid(scenario_labeled(4), g_values, n_values, RcdConfig(), seed=4)
        cells = len(g_values) * len(n_values)
        assert batches == [(cells, 1), (len(g_values) * sum(n_values), 8)]

    @pytest.mark.parametrize(
        "g_values, n_values, bad",
        [
            ((3.7,), (10,), "g_values[0]"),
            ((3,), (10.9, 15), "n_values[0]"),
            ((3,), (10, 15.0), "n_values[1]"),
            ((True,), (10,), "g_values[0]"),
            ((3,), (10, "15"), "n_values[1]"),
        ],
        ids=["float-g", "float-n", "integral-float-n", "bool-g", "str-n"],
    )
    def test_non_integer_sweep_values_rejected(self, g_values, n_values, bad):
        labeled = scenario_labeled(0)
        with pytest.raises(ConfigError, match=re.escape(bad)):
            run_grid(labeled, g_values, n_values, RcdConfig(), seed=0)

    @pytest.mark.parametrize(
        "n_values, bad", [((-5,), "n_values[0]"), ((10, 0), "n_values[1]")], ids=["negative", "zero"]
    )
    def test_n_below_one_rejected(self, n_values, bad):
        labeled = scenario_labeled(0)
        with pytest.raises(ConfigError, match=re.escape(f"{bad} must be >= 1")):
            run_grid(labeled, (3,), n_values, RcdConfig(), seed=0)

    @pytest.mark.parametrize(
        "g_values, n_values, bad",
        [((3, 3, 4), (10, 15), "g_values[1]"), ((3,), (10, 15, 10), "n_values[2]")],
        ids=["g", "n"],
    )
    def test_repeated_sweep_value_rejected(self, g_values, n_values, bad):
        labeled = scenario_labeled(0)
        with pytest.raises(ConfigError, match=re.escape(f"{bad} repeats")):
            run_grid(labeled, g_values, n_values, RcdConfig(), seed=0)

    @pytest.mark.parametrize(
        "g_values, n_values, key", [((), (10,), "g_values"), ((3,), (), "n_values")]
    )
    def test_empty_sweep_rejected(self, g_values, n_values, key):
        labeled = scenario_labeled(0)
        with pytest.raises(ConfigError, match=f"^{key} must be non-empty$"):
            run_grid(labeled, g_values, n_values, RcdConfig(), seed=0)

    def test_g_bounds_checked(self):
        labeled = scenario_labeled(0)
        with pytest.raises(ConfigError, match="exceed"):
            run_grid(labeled, (99,), (10,), RcdConfig(), seed=0)

    def test_scenario_true_cause_dominates_noise(self):
        labeled = scenario_labeled(5)
        grid = run_grid(
            labeled, g_values=(3, 4), n_values=(10, 15, 20), base_cfg=RcdConfig(), seed=5
        )
        for g in (3, 4):
            assert estimate_p(grid, "rrc_users", g) > estimate_p(grid, "sinr_avg", g)


@pytest.mark.parametrize(
    "g_values, n_values, bad",
    [((True,), (2,), "g_values[0]"), ((3,), (2.5,), "n_values[0]")],
    ids=["bool-g", "float-n"],
)
def test_grid_rejects_non_integer_values(g_values, n_values, bad):
    with pytest.raises(ConfigError, match=re.escape(bad)):
        McGrid(g_values=g_values, n_values=n_values, kpi_names=("k",), counts=[[[0]]])


@pytest.mark.parametrize(
    "g_values, n_values, counts, bad",
    [
        ((3,), (0,), [[[0]]], "n_values[0] must be >= 1"),
        ((3,), (2,), [[[5]]], "counts must lie in [0, n]"),
        ((3,), (2,), [[[-1]]], "counts must lie in [0, n]"),
        ((3,), (10, 2), [[[4], [3]]], "counts must lie in [0, n]"),
        ((3, 3), (2,), [[[0]], [[0]]], "g_values[1] repeats"),
        ((3,), (2, 2), [[[0], [0]]], "n_values[1] repeats"),
    ],
    ids=["n-zero", "count-above-n", "count-negative", "count-above-its-n", "repeated-g", "repeated-n"],
)
def test_grid_rejects_tables_the_sweep_cannot_produce(g_values, n_values, counts, bad):
    with pytest.raises(ConfigError, match=re.escape(bad)):
        McGrid(g_values=g_values, n_values=n_values, kpi_names=("k",), counts=counts)


@pytest.mark.parametrize(
    "g_values, n_values, key", [((), (10,), "g_values"), ((3,), (), "n_values")]
)
def test_grid_rejects_an_empty_sweep(g_values, n_values, key):
    # an empty axis would build, and tuning_rows or variance_trend fail later
    counts = np.zeros((len(g_values), len(n_values), 1), dtype=np.int64)
    with pytest.raises(ConfigError, match=f"^{key} must be non-empty$"):
        McGrid(g_values=g_values, n_values=n_values, kpi_names=("k",), counts=counts)


def test_grid_value_equality():
    def grid(last, names=("a", "b"), g_values=(3, 4)):
        counts = [[[1, 2], [3, 4]], [[5, 6], [7, last]]]
        return McGrid(g_values=g_values, n_values=(10, 20), kpi_names=names, counts=counts)

    assert grid(8) == grid(8)
    assert grid(8) != grid(9)
    assert grid(8) != grid(8, names=("a", "c"))
    assert grid(8) != grid(8, g_values=(3, 5))
    assert grid(8) != "grid"


class TestEstimateP:
    def test_constant_mean(self):
        grid = grid_from_proportions({3: 0.4}, n_values=(10, 20, 40))
        assert estimate_p(grid, "k", 3) == pytest.approx(0.4)

    def test_two_value_mean(self):
        grid = grid_from_proportions({3: {10: 0.2, 20: 0.6}}, n_values=(10, 20))
        assert estimate_p(grid, "k", 3) == pytest.approx(0.4)

    def test_all_zero(self):
        grid = grid_from_proportions({3: 0.0}, n_values=(10, 20))
        assert estimate_p(grid, "k", 3) == 0.0

    def test_missing_g(self):
        grid = grid_from_proportions({3: 0.0}, n_values=(10, 20))
        with pytest.raises(AnalysisError, match="not swept"):
            estimate_p(grid, "k", 7)


class TestVarianceTrend:
    def test_decreasing_variance_reliable(self):
        # constant p across n makes variance p(1-p)/n strictly decreasing
        grid = grid_from_proportions({3: 0.4, 4: 0.4, 5: 0.4}, n_values=(10, 20, 40))
        res = variance_trend(grid, "k")
        assert res.negative_fraction == 1.0
        assert res.reliable

    def test_constant_zero_unreliable(self):
        grid = grid_from_proportions({3: 0.0, 4: 0.0}, n_values=(10, 20, 40))
        res = variance_trend(grid, "k")
        assert all(s == 0.0 for _, s in res.slopes)
        assert not res.reliable

    def test_too_few_n_values(self):
        grid = grid_from_proportions({3: 0.4}, n_values=(10,))
        with pytest.raises(AnalysisError, match="at least 3"):
            variance_trend(grid, "k")

    def test_variance_shares_binomial_kernel(self):
        grid = grid_from_proportions({3: {10: 0.3, 20: 0.4, 40: 0.2}}, n_values=(10, 20, 40))
        # the trend regression consumes exactly binomial_sd(P, n)^2 values
        p = [0.3, 0.4, 0.2]
        expected = [binomial_sd(pv, n) ** 2 for pv, n in zip(p, (10, 20, 40))]
        slope = np.polyfit([10, 20, 40], expected, 1)[0]
        res = variance_trend(grid, "k")
        assert res.slopes[0][1] == pytest.approx(slope)

    @pytest.mark.parametrize("kind", ["random", "all-0", "all-1"])
    def test_slopes_match_per_column_fits(self, kind):
        # each slope has the bits of its own column's fit, for sweeps of up
        # to 12 n values (from 8 on, one fit of several columns can differ
        # in the last bit) and with columns repeated across g
        rng = np.random.default_rng(len(kind))
        for _ in range(25):
            n_values = tuple(sorted(rng.choice(np.arange(1, 500), rng.integers(3, 13), False).tolist()))
            g_values = tuple(range(2, 2 + int(rng.integers(1, 14))))
            n = np.array(n_values)[:, None]
            shape = (len(g_values), len(n_values), 3)
            if kind == "random":
                # few distinct columns per KPI, as on real sweeps
                distinct = rng.integers(0, n + 1, size=(3, *shape[1:]))
                counts = distinct[rng.integers(0, 3, len(g_values))]
            else:
                counts = np.broadcast_to(n if kind == "all-1" else 0, shape)
            grid = McGrid(g_values, n_values, ("a", "b", "c"), counts)
            x = np.asarray(n_values, dtype=float)
            for ki, kpi in enumerate(grid.kpi_names):
                res = variance_trend(grid, kpi)
                assert [g for g, _ in res.slopes] == list(g_values)
                for gi, (_, slope) in enumerate(res.slopes):
                    p = grid.proportions[gi, :, ki]
                    variance = [binomial_sd(pv, nv) ** 2 for pv, nv in zip(p, n_values)]
                    assert slope.hex() == float(np.polyfit(x, variance, 1)[0]).hex()


class TestSelectG:
    def test_odd_median(self):
        grid = grid_from_proportions({3: 0.2, 4: 0.5, 5: 0.8}, n_values=(10, 20))
        assert select_g(grid, "k") == (4, 0.5)

    def test_even_takes_lower_middle(self):
        grid = grid_from_proportions(
            {3: 0.2, 4: 0.4, 5: 0.6, 6: 0.8}, n_values=(10, 20)
        )
        assert select_g(grid, "k") == (4, pytest.approx(0.4))

    def test_all_equal_takes_smallest_g(self):
        grid = grid_from_proportions({3: 0.3, 4: 0.3, 5: 0.3, 6: 0.3}, n_values=(10, 20))
        g, p = select_g(grid, "k")
        assert g == 3
        assert p == pytest.approx(0.3)


class TestSelectN:
    def test_max_proportional_reduction(self):
        grid = grid_from_proportions(
            {3: {10: 0.5, 15: 0.4, 20: 0.1, 25: 0.08}}, n_values=(10, 15, 20, 25)
        )
        # variances 0.025, 0.016, 0.0045, 0.00294 -> max proportional drop at 20
        assert select_n(grid, "k", 3) == 20

    def test_non_decreasing_variance_yields_zero(self):
        grid = grid_from_proportions({3: {10: 0.1, 20: 0.5}}, n_values=(10, 20))
        assert select_n(grid, "k", 3) == 0

    def test_all_zero_variance_yields_zero(self):
        # p = 1 everywhere: every pair is skipped, sentinel n = 0
        grid = grid_from_proportions({3: 1.0}, n_values=(10, 20, 40))
        assert select_n(grid, "k", 3) == 0

    def test_absolute_mode(self):
        grid = grid_from_proportions(
            {3: {10: 0.5, 15: 0.4, 20: 0.1, 25: 0.08}}, n_values=(10, 15, 20, 25)
        )
        assert select_n(grid, "k", 3, mode="absolute") == 20
        with pytest.raises(ConfigError):
            select_n(grid, "k", 3, mode="bogus")


class TestProminentAndConsolidate:
    def test_published_rows_selection(self):
        prominent = prominent_sources(PUBLISHED_ROWS, p_thr=0.4)
        assert set(prominent) == {"RRC_Connected_Users_DL", "CCE_Utilization_AVG"}
        params = consolidate(PUBLISHED_ROWS, prominent)
        assert params.g_star == 3
        assert params.n_star == 20

    def test_poor_source_excluded(self):
        rows = [TuningRow("x", 4, 0.50, 0)]  # n=0 and p<1: poor
        assert prominent_sources(rows, p_thr=0.4) == ()

    def test_certain_source_with_zero_n_included(self):
        rows = [TuningRow("x", 3, 1.00, 0)]
        assert prominent_sources(rows, p_thr=0.4) == ("x",)

    def test_empty_rows(self):
        assert prominent_sources([], p_thr=0.4) == ()

    def test_monotone_in_threshold(self):
        thresholds = (0.1, 0.2, 0.4, 0.6, 0.9)
        sets = [set(prominent_sources(PUBLISHED_ROWS, p_thr=t)) for t in thresholds]
        for bigger, smaller in zip(sets, sets[1:]):
            assert smaller <= bigger

    def test_consolidate_single_row(self):
        rows = [TuningRow("x", 5, 0.9, 40)]
        params = consolidate(rows, ("x",))
        assert (params.g_star, params.n_star) == (5, 40)

    def test_consolidate_maxima(self):
        rows = [TuningRow("a", 3, 0.9, 50), TuningRow("b", 7, 0.8, 10)]
        params = consolidate(rows, ("a", "b"))
        assert (params.g_star, params.n_star) == (7, 50)

    def test_consolidate_empty_errors(self):
        with pytest.raises(AnalysisError, match="no prominent sources"):
            consolidate(PUBLISHED_ROWS, ())


class TestTuningRows:
    def test_rows_cover_grid_kpis(self):
        labeled = scenario_labeled(4)
        grid = run_grid(
            labeled, g_values=(3, 4), n_values=(10, 15), base_cfg=RcdConfig(), seed=3
        )
        rows = tuning_rows(grid)
        assert [r.kpi for r in rows] == list(grid.kpi_names)
        for row in rows:
            assert 0.0 <= row.p_hat <= 1.0
            assert row.n_opt in (0, *grid.n_values)
