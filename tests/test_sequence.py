import numpy as np
import pytest

from rcseq.errors import AnalysisError, ConfigError
from rcseq.panel import KpiPanel, label_states
from rcseq.scm import cascade_scenario
from rcseq.sequence import (
    CisConfig,
    DeviationEvent,
    assemble_cis,
    detect_events,
    deviation_traces,
    direction_at_onset,
    order_events,
    window_offsets,
)
from rcseq.stats import ks_two_sample
from rcseq.subgraph import CausalSubgraph, LaggedEdge


def step_change_labeled(seed, t0=160, shift=5.0, t=240, n_kpis=3):
    """KPI 0 steps by `shift` at absolute tick t0; others stay white noise."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((t, n_kpis))
    values[t0:, 0] += shift
    panel = KpiPanel(
        ticks=np.arange(t),
        kpi_names=tuple(f"k{i}" for i in range(n_kpis)),
        values=values,
    )
    return label_states(panel, 120, normal_len=120, abnormal_len=120)


def cascade_labeled(seed):
    sc = cascade_scenario()
    panel, truth = sc.build(seed)
    return label_states(panel, 140, normal_len=120, abnormal_len=120, lead_ticks=20), truth


def event(kpi, onset, d=0.9, direction=1):
    return DeviationEvent(
        kpi=kpi, onset_tick=onset, direction=direction, ks_d=d, p_adj=0.01,
    )


class TestCisConfig:
    @pytest.mark.parametrize("kwargs, key", [({"z_thr": 0.0}, "z_thr"), ({"alpha": 5.0}, "alpha")])
    def test_out_of_range_rejected(self, kwargs, key):
        # library callers get the checks a config file gets
        with pytest.raises(ConfigError, match=rf"^cis\.{key} "):
            CisConfig(**kwargs)


class TestWindows:
    def test_offsets(self):
        assert window_offsets(40, 16, 4) == [0, 4, 8, 12, 16, 20, 24]

    def test_window_minimum(self):
        with pytest.raises(AnalysisError, match=">= 8"):
            window_offsets(40, 4, 2)


def constant_labeled(normal_len, abnormal_len, values=None):
    """One KPI k0 on a normal window followed by an abnormal window."""
    t = normal_len + abnormal_len
    values = np.arange(float(t)) if values is None else values
    panel = KpiPanel(ticks=np.arange(t), kpi_names=("k0",), values=values[:, None])
    return label_states(panel, normal_len, normal_len=normal_len, abnormal_len=abnormal_len)


class TestRollingKsOnset:
    def test_step_change_found(self):
        # detected onset within one window width of the true change point
        hit = 0
        for seed in range(50):
            labeled = step_change_labeled(seed)
            events = detect_events(
                labeled,
                ["k0"],
                CisConfig(alpha=0.1, window=16, stride=4, correction="bonferroni"),
            )
            # true change at absolute tick 160
            if events and abs(events[0].onset_tick - 160) <= 16:
                hit += 1
        assert hit >= 45

    def test_no_change_mostly_none(self):
        nones = 0
        for seed in range(50):
            labeled = step_change_labeled(seed)
            events = detect_events(
                labeled,
                ["k1"],
                CisConfig(alpha=0.1, window=16, stride=4, correction="bh_fdr"),
            )
            if not events:
                nones += 1
        assert nones >= 45

    def test_identical_segments_all_zero_d(self):
        cfg = CisConfig(alpha=0.1, window=32, stride=1, correction="none")
        labeled = constant_labeled(32, 32, np.tile(np.arange(32.0), 2))
        assert detect_events(labeled, ["k0"], cfg) == ()
        # a disjoint abnormal segment is a hit, and the event carries that
        # window's uncorrected K-S result
        baseline, segment = np.arange(32.0), np.arange(32.0) + 100.0
        labeled = constant_labeled(32, 32, np.r_[baseline, segment])
        (event,) = detect_events(labeled, ["k0"], cfg)
        res = ks_two_sample(segment, baseline)
        assert (event.onset_tick, event.ks_d, event.p_adj) == (32, res.d, res.p_raw)

    def test_short_baseline_rejected(self):
        with pytest.raises(AnalysisError, match=r"baseline window \(4 ticks\).*\(16\)"):
            detect_events(constant_labeled(4, 20), ["k0"], CisConfig(window=16))

    def test_short_segment_rejected(self):
        with pytest.raises(AnalysisError, match=r"abnormal window \(4 ticks\).*\(16\)"):
            detect_events(constant_labeled(20, 4), ["k0"], CisConfig(window=16))


class TestDirection:
    def test_up_down(self):
        series = np.r_[np.zeros(10), np.full(16, 5.0)]
        assert direction_at_onset(series, 10, 16, mu=0.0, sigma=1.0, z_thr=3.0) == 1
        series = np.r_[np.zeros(10), np.full(16, -5.0)]
        assert direction_at_onset(series, 10, 16, mu=0.0, sigma=1.0, z_thr=3.0) == -1

    def test_hard_constant_normal_window(self):
        # sigma = 0: the sign of the raw difference, however small
        series = np.full(30, 7.0)
        assert direction_at_onset(series, 0, 16, mu=2.0, sigma=0.0, z_thr=3.0) == 1
        assert direction_at_onset(series, 0, 16, mu=7.5, sigma=0.0, z_thr=3.0) == -1
        assert direction_at_onset(series, 0, 16, mu=7.0, sigma=0.0, z_thr=3.0) == 0

    def test_small_shift_codes_zero(self):
        series = np.full(30, 1.0)
        assert direction_at_onset(series, 0, 16, mu=0.0, sigma=1.0, z_thr=3.0) == 0

    @pytest.mark.parametrize(
        "level, code", [(10.0, 0), (16.0, 0), (16.4, 1), (4.0, 0), (2.0, -1)]
    )
    def test_strict_threshold(self, level, code):
        # mu = 10, sigma = 2: z = 3 and z = -3 sit on the boundary and code 0
        series = np.full(16, level)
        assert direction_at_onset(series, 0, 16, mu=10.0, sigma=2.0, z_thr=3.0) == code

    def test_affine_invariance(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            series = rng.normal(size=16)
            mu = rng.normal(scale=3.0)
            sigma = rng.uniform(0.1, 5)
            z_thr = rng.uniform(0.1, 3)
            z = (series.mean() - mu) / sigma
            if abs(abs(z) - z_thr) < 1e-9:
                continue  # rounding may move a mean that sits on the boundary
            a, b = rng.uniform(0.1, 10), rng.normal()
            code = direction_at_onset(series, 0, 16, mu, sigma, z_thr)
            moved = direction_at_onset(a * series + b, 0, 16, a * mu + b, a * sigma, z_thr)
            assert moved == code == int(z > z_thr) - int(z < -z_thr)

    @pytest.mark.parametrize(
        "sigma, z_thr, match",
        [(1.0, 0.0, "z_thr"), (1.0, -3.0, "z_thr"), (0.0, 0.0, "z_thr"), (-1.0, 3.0, "sigma")],
        ids=["zero-z_thr", "negative-z_thr", "zero-z_thr-zero-sigma", "negative-sigma"],
    )
    def test_bad_arguments(self, sigma, z_thr, match):
        with pytest.raises(ValueError, match=match):
            direction_at_onset(np.zeros(16), 0, 16, mu=0.0, sigma=sigma, z_thr=z_thr)


class TestDetectEvents:
    def test_cascade_order_and_onsets(self):
        ok = 0
        for seed in range(20):
            labeled, truth = cascade_labeled(seed)
            events = detect_events(
                labeled,
                kpis=labeled.panel.kpi_names,
                cfg=CisConfig(alpha=0.1, window=16, stride=4, correction="bh_fdr"),
            )
            ordered = order_events(events)
            names = [e.kpi for e in ordered]
            try:
                good = (
                    names.index("cce_load")
                    < names.index("prb_util")
                    < names.index("dl_throughput")
                )
            except ValueError:
                good = False
            if good:
                for e in ordered:
                    true_onset = truth.onset_of(e.kpi)
                    if true_onset is not None and abs(e.onset_tick - true_onset) > 16:
                        good = False
            if good:
                ok += 1
        assert ok >= 18

    def test_alpha_monotone_event_sets(self):
        for seed in range(10):
            labeled, _ = cascade_labeled(seed)
            tight = detect_events(labeled, labeled.panel.kpi_names, CisConfig(alpha=0.05))
            loose = detect_events(labeled, labeled.panel.kpi_names, CisConfig(alpha=0.1))
            assert {e.kpi for e in tight} <= {e.kpi for e in loose}

    def test_empty_kpi_list(self):
        labeled, _ = cascade_labeled(0)
        assert detect_events(labeled, [], CisConfig()) == ()

    def test_direction_signs_on_cascade_traces(self):
        # once the forward window clears the transition, the per-tick codes
        # settle on the true deviation signs
        labeled, _ = cascade_labeled(1)
        events = detect_events(labeled, labeled.panel.kpi_names, CisConfig())
        traces, kpis = deviation_traces(labeled, events, labeled.panel.kpi_names, CisConfig())
        at = 180  # deep inside the deviated region
        assert traces[at, kpis.index("cce_load")] == 1  # soft shift upward
        assert traces[at, kpis.index("prb_util")] == 1  # pinned above its mean
        assert traces[at, kpis.index("dl_throughput")] == -1  # throughput collapse


class TestOrderEvents:
    def test_sort_by_onset(self):
        ordered = order_events([event("B", 120), event("A", 50)])
        assert [e.kpi for e in ordered] == ["A", "B"]

    def test_tie_broken_by_statistic(self):
        ordered = order_events([event("weak", 50, d=0.4), event("strong", 50, d=0.9)])
        assert [e.kpi for e in ordered] == ["strong", "weak"]

    def test_tie_broken_by_name_last(self):
        ordered = order_events([event("b", 50, d=0.5), event("a", 50, d=0.5)])
        assert [e.kpi for e in ordered] == ["a", "b"]

    def test_single_event(self):
        assert [e.kpi for e in order_events([event("x", 1)])] == ["x"]


class TestAssembleCis:
    def graph(self):
        return CausalSubgraph(
            nodes=("A", "B", "SLA", "N"),
            edges=(
                LaggedEdge("A", "B", 2, 0.8, 0.001),
                LaggedEdge("B", "SLA", 2, -0.8, 0.001),
            ),
        )

    def test_cascade_flags_both_edges(self):
        report = assemble_cis(
            self.graph(),
            [event("A", 10), event("B", 14), event("SLA", 18)],
            sla_metric="SLA",
        )
        assert report.flagged_nodes == ("A", "B", "SLA")
        assert set(report.flagged_edges) == {("A", "B", 2), ("B", "SLA", 2)}

    def test_event_without_edges(self):
        report = assemble_cis(self.graph(), [event("N", 5)], sla_metric="SLA")
        assert report.flagged_nodes == ("N",)
        assert report.flagged_edges == ()

    def test_empty_steps(self):
        report = assemble_cis(self.graph(), [], sla_metric="SLA")
        assert report.steps == ()
        assert report.flagged_nodes == ()

    def test_onset_rule_blocks_reverse_edges(self):
        report = assemble_cis(
            self.graph(), [event("A", 30), event("B", 10)], sla_metric="SLA"
        )
        assert ("A", "B", 2) not in report.flagged_edges

    def test_unknown_step_kpi(self):
        with pytest.raises(AnalysisError, match="stage mismatch"):
            assemble_cis(self.graph(), [event("ghost", 3)], sla_metric="SLA")

    def test_missing_sla(self):
        with pytest.raises(AnalysisError, match="SLA metric"):
            assemble_cis(self.graph(), [], sla_metric="nope")


class TestTraces:
    def test_zero_before_onset_and_for_quiet_kpis(self):
        labeled, _ = cascade_labeled(0)
        events = [event("cce_load", 130)]
        traces, kpis = deviation_traces(labeled, events, ["cce_load", "sinr_avg"], CisConfig())
        col = traces[:, kpis.index("cce_load")]
        assert np.all(col[:130] == 0)
        assert np.all(col[140:220] == 1)  # +4 sigma soft shift reads as +1
        assert np.all(traces[:, kpis.index("sinr_avg")] == 0)

    def test_values_in_code_alphabet(self):
        labeled, _ = cascade_labeled(2)
        events = detect_events(labeled, labeled.panel.kpi_names, CisConfig())
        traces, _ = deviation_traces(labeled, events, labeled.panel.kpi_names, CisConfig())
        assert set(np.unique(traces)) <= {-1, 0, 1}

    @staticmethod
    def per_tick_traces(labeled, events, kpis, cfg):
        """Each tick's direction code from its own forward window, clipped
        at the end of the abnormal window."""
        by_kpi = {e.kpi: e for e in events}
        end = labeled.abnormal_window[1]
        traces = np.zeros((labeled.panel.n_ticks, len(kpis)), dtype=np.int8)
        for j, kpi in enumerate(kpis):
            if kpi not in by_kpi:
                continue
            baseline = labeled.normal_values(kpi)
            mu, sigma = float(baseline.mean()), float(baseline.std(ddof=1))
            series = labeled.panel.column(kpi)[:end]
            for tick in range(by_kpi[kpi].onset_tick, end):
                traces[tick, j] = direction_at_onset(series, tick, cfg.window, mu, sigma, cfg.z_thr)
        return traces

    @pytest.mark.parametrize("window", [8, 16, 24, 130])
    def test_match_per_tick_reference(self, window):
        cfg = CisConfig(window=window, z_thr=1.0)
        for seed in range(3):
            labeled, _ = cascade_labeled(seed)
            kpis = list(labeled.panel.kpi_names)
            a0, a1 = labeled.abnormal_window
            # onsets early, inside the last window (clipped windows only), and at the last tick
            events = [event(kpi, onset) for kpi, onset in zip(kpis, (a0, a0 + 37, a1 - 5, a1 - 1))]
            traces, _ = deviation_traces(labeled, events, kpis, cfg)
            assert np.array_equal(traces, self.per_tick_traces(labeled, events, kpis, cfg))

    def test_constant_normal_window_matches_per_tick_reference(self):
        # sigma = 0: the direction is the sign of the raw difference
        rng = np.random.default_rng(4)
        values = np.r_[np.full(40, 2.0), rng.normal(2.0, 1.0, 40)]
        labeled = constant_labeled(40, 40, values)
        events = [event("k0", 42)]
        traces, _ = deviation_traces(labeled, events, ["k0"], CisConfig())
        assert np.array_equal(traces, self.per_tick_traces(labeled, events, ["k0"], CisConfig()))
        assert set(traces[42:, 0]) == {-1, 1}
