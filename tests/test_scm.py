import re

import numpy as np
import pytest

from rcseq.errors import AnalysisError, ConfigError
from rcseq.scm import (
    InterventionSpec,
    ScmSpec,
    cascade_scenario,
    generate,
    inject,
    make_scenario,
    null_scenario,
    scenario_from_mapping,
    single_root_scenario,
    verify_do_equivalence,
)


TOY = {
    "name": "toy",
    "nodes": ["p", "q", "r"],
    "edges": [["p", "q", 1, 0.8]],
    "noise_sd": 1.0,
    "interventions": [{"target": "p", "kind": "hard", "onset": 120, "value": 5.0}],
    "horizon": 240,
    "normal_len": 100,
    "abnormal_len": 100,
}


def chain_spec():
    return ScmSpec(
        nodes=("A", "B", "C"),
        edges=(("A", "B", 1, 0.9), ("B", "C", 1, 0.9)),
        noise_sd=1.0,
    )


class TestSpecValidation:
    def test_lag_zero_rejected(self):
        with pytest.raises(ConfigError, match="lag >= 1"):
            ScmSpec(nodes=("A", "B"), edges=(("A", "B", 0, 0.5),))

    def test_unknown_edge_node(self):
        with pytest.raises(ConfigError, match="unknown node"):
            ScmSpec(nodes=("A",), edges=(("A", "Z", 1, 0.5),))

    def test_descendants(self):
        spec = chain_spec()
        assert spec.lag_distances("A").keys() == {"A", "B", "C"}
        assert spec.lag_distances("B").keys() == {"B", "C"}
        assert spec.lag_distances("C").keys() == {"C"}

    def test_lag_distances(self):
        spec = ScmSpec(
            nodes=("A", "B", "C"),
            edges=(("A", "B", 2, 0.5), ("B", "C", 3, 0.5), ("A", "C", 9, 0.5)),
        )
        assert spec.lag_distances("A") == {"A": 0, "B": 2, "C": 5}
        assert spec.lag_distances("C") == {"C": 0}

    @pytest.mark.parametrize(
        "kwargs, key",
        [
            ({"edges": (("A", "B", 2.7, 0.5),)}, "edges[0][2]"),
            ({"edges": (("A", "B", True, 0.5),)}, "edges[0][2]"),
            ({"edges": (("A", "B", "2", 0.5),)}, "edges[0][2]"),
            ({"edges": (("A", "B", 1, "0.5"),)}, "edges[0][3]"),
            ({"noise_sd": "12"}, "noise_sd"),
            ({"noise_sd": True}, "noise_sd"),
            ({"noise_sd": (1.0, "2")}, "noise_sd[1] must be a number, got '2'"),
        ],
        ids=["float-lag", "bool-lag", "str-lag", "str-weight", "str-sd", "bool-sd", "str-sd-item"],
    )
    def test_mistyped_value_rejected(self, kwargs, key):
        with pytest.raises(ConfigError, match=re.escape(key)):
            ScmSpec(nodes=("A", "B"), **kwargs)

    def test_unstable_spec_errors(self):
        spec = ScmSpec(nodes=("X",), edges=(("X", "X", 1, 1.5),))
        with pytest.raises(AnalysisError, match="unstable"):
            generate(spec, horizon=500, seed=0)


class TestGenerate:
    def test_determinism(self):
        spec = chain_spec()
        a = generate(spec, horizon=200, seed=42)
        b = generate(spec, horizon=200, seed=42)
        assert np.array_equal(a.values, b.values)
        c = generate(spec, horizon=200, seed=43)
        assert not np.array_equal(a.values, c.values)

    def test_root_mean_lln_bound(self):
        spec = ScmSpec(nodes=("X",))
        panel = generate(spec, horizon=10_000, seed=1)
        assert abs(panel.column("X").mean()) < 4 / np.sqrt(10_000)

    def test_lagged_cross_correlation(self):
        spec = ScmSpec(
            nodes=("X", "Y"), edges=(("X", "Y", 1, 0.9),), noise_sd=(1.0, 0.05)
        )
        panel = generate(spec, horizon=4000, seed=2)
        x = panel.column("X")
        y = panel.column("Y")
        r = np.corrcoef(x[:-1], y[1:])[0, 1]
        assert r > 0.8

    def test_horizon_must_exceed_max_lag(self):
        spec = ScmSpec(nodes=("A", "B"), edges=(("A", "B", 10, 0.5),))
        with pytest.raises(ConfigError, match="horizon"):
            generate(spec, horizon=10, seed=0)


class TestInject:
    def test_hard_pin_constant_from_onset(self):
        spec = chain_spec()
        panel, truth = inject(
            spec, [InterventionSpec("B", "hard", onset=100, value=7.0)], 300, seed=5
        )
        b = panel.column("B")
        assert np.all(b[100:] == 7.0)
        assert not np.all(b[:100] == 7.0)
        assert truth.interventions[0].target == "B"

    def test_soft_shift_moves_mean(self):
        spec = ScmSpec(nodes=("X",))
        panel, _ = inject(
            spec, [InterventionSpec("X", "soft", onset=500, shift=5.0)], 1000, seed=6
        )
        x = panel.column("X")
        delta = x[500:].mean() - x[:500].mean()
        assert 4.0 <= delta <= 6.0

    def test_empty_interventions_identical_to_generate(self):
        spec = chain_spec()
        panel, truth = inject(spec, [], 200, seed=7)
        ref = generate(spec, 200, seed=7)
        assert np.array_equal(panel.values, ref.values)
        assert truth.propagation == ()

    def test_pre_onset_identical_to_generate(self):
        spec = chain_spec()
        panel, _ = inject(
            spec, [InterventionSpec("A", "hard", onset=150, value=4.0)], 300, seed=8
        )
        ref = generate(spec, 300, seed=8)
        assert np.array_equal(panel.values[:150], ref.values[:150])

    def test_onset_beyond_horizon(self):
        spec = chain_spec()
        with pytest.raises(ConfigError, match="onset"):
            inject(spec, [InterventionSpec("A", "hard", onset=300, value=1.0)], 200, 0)

    def test_propagation_order(self):
        spec = chain_spec()
        _, truth = inject(
            spec, [InterventionSpec("A", "hard", onset=50, value=5.0)], 200, seed=9
        )
        assert truth.propagation == (("A", 50), ("B", 51), ("C", 52))
        assert truth.onset_of("C") == 52

    def test_ground_truth_edges_equal_spec_support(self):
        spec = chain_spec()
        _, truth = inject(spec, [], 100, seed=0)
        assert truth.edges == spec.edges


class TestDoEquivalence:
    def test_chain_intervene_middle(self):
        # chain A -> B -> C, intervene B: A consistent, C shifted
        verdicts = {
            v.node: v
            for v in verify_do_equivalence(
                chain_spec(),
                InterventionSpec("B", "hard", onset=1000, value=6.0),
                horizon=2000,
                seed=11,
                alpha=0.01,
            )
        }
        assert verdicts["A"].verdict == "consistent"
        assert not verdicts["A"].expect_shift
        assert verdicts["C"].verdict == "shifted"
        assert verdicts["C"].expect_shift

    def test_root_with_no_sampled_descendants(self):
        spec = ScmSpec(nodes=("R", "U", "V"))
        verdicts = verify_do_equivalence(
            spec,
            InterventionSpec("R", "hard", onset=1000, value=9.0),
            horizon=2000,
            seed=12,
        )
        others = [v for v in verdicts if v.node != "R"]
        assert all(v.verdict == "consistent" for v in others)

    def test_target_itself_shifts_when_far_from_mean(self):
        spec = ScmSpec(nodes=("X",))
        verdicts = verify_do_equivalence(
            spec,
            InterventionSpec("X", "hard", onset=1000, value=4.0),  # > 3 sd away
            horizon=2000,
            seed=13,
        )
        assert verdicts[0].verdict == "shifted"

    def test_soft_rejected(self):
        with pytest.raises(ConfigError, match="hard"):
            verify_do_equivalence(
                chain_spec(),
                InterventionSpec("B", "soft", onset=100, shift=1.0),
                horizon=500,
                seed=0,
            )


class TestScenarios:
    def test_names(self):
        for name in ("single_root", "cascade", "null"):
            sc = make_scenario(name)
            assert sc.name == name

    def test_unknown_name_lists_available(self):
        with pytest.raises(ConfigError, match="cascade"):
            make_scenario("bogus")

    def test_single_root_extra_noise(self):
        sc = single_root_scenario(extra_noise=3)
        assert len(sc.spec.nodes) == 8

    def test_cascade_truth_ordering(self):
        sc = cascade_scenario()
        _, truth = sc.build(seed=0)
        order = [n for n, _ in truth.propagation]
        assert order == ["cce_load", "prb_util", "dl_throughput"]
        assert truth.onset_of("cce_load") == 124
        assert truth.onset_of("prb_util") == 132
        assert truth.onset_of("dl_throughput") == 140

    def test_null_has_no_interventions(self):
        sc = null_scenario()
        assert sc.interventions == ()

    def test_build_deterministic(self):
        sc = cascade_scenario()
        a, _ = sc.build(seed=3)
        b, _ = sc.build(seed=3)
        assert np.array_equal(a.values, b.values)

    def test_scenario_from_mapping_round_trip(self):
        doc = {
            "name": "toy",
            "nodes": ["p", "q"],
            "edges": [["p", "q", 1, 0.5]],
            "noise_sd": 1.0,
            "sla": {"metric": "q", "comparator": "<", "threshold": -3.0,
                    "min_duration_ticks": 2},
            "interventions": [{"target": "p", "kind": "hard", "onset": 50, "value": 4.0}],
            "horizon": 100,
            "normal_len": 40,
            "abnormal_len": 40,
            "lead_ticks": 0,
        }
        sc = scenario_from_mapping(doc)
        panel, truth = sc.build(seed=1)
        assert panel.kpi_names == ("p", "q")
        assert truth.onset_of("q") == 51

    @pytest.mark.parametrize(
        "doc",
        [
            {"nodes": ["a"]},
            {**TOY, "interventions": [{"target": "p", "kind": "hard", "onset": 120,
                                       "value": "abc"}]},
            {**TOY, "interventions": [{"target": "p", "kind": "hard", "onset": 120.7,
                                       "value": 5.0}]},
            {**TOY, "noise_sd": "123"},
            {**TOY, "edges": [["p", "q", 2.7, 0.8]]},
        ],
        ids=["no-horizon", "value-abc", "onset-120.7", "noise_sd-str", "lag-2.7"],
    )
    def test_scenario_from_mapping_malformed(self, doc):
        with pytest.raises(ConfigError, match="malformed"):
            scenario_from_mapping(doc)
