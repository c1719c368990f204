"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line. Criterion 7's reliable-verdict clause
is known-unattainable on clean synthetic data: with a strong fault the
cause is found in every run, so P is identically 1, the estimated variance
p(1-p)/n is identically 0, and no strictly negative slopes exist. It is
implemented faithfully and left red rather than weakened; the reliability
machinery itself is exercised on non-degenerate grids in test_tuner.py.
"""

import json
import os
import time

import numpy as np
import pytest

from published_rows import PUBLISHED_ROWS
from rcseq.cli import main
from rcseq.panel import label_states
from rcseq.rcd import RcdConfig, rcd_multi_run
from rcseq.scm import (
    InterventionSpec,
    ScmSpec,
    cascade_scenario,
    generate,
    single_root_scenario,
    verify_do_equivalence,
)
from rcseq.sequence import CisConfig, detect_events, order_events
from rcseq.stats import binomial_sd, ks_two_sample
from rcseq.subgraph import SubgraphConfig, build_subgraph
from rcseq.tuner import (
    consolidate,
    estimate_p,
    prominent_sources,
    run_grid,
    variance_trend,
)


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} {detail}".rstrip())
    return ok


def scenario1_labeled(seed, extra_noise=0):
    panel, truth = single_root_scenario(extra_noise=extra_noise).build(seed)
    return label_states(panel, 120, normal_len=120, abnormal_len=120), truth


def cascade_labeled(seed):
    panel, truth = cascade_scenario().build(seed)
    labeled = label_states(panel, 140, normal_len=120, abnormal_len=120, lead_ticks=20)
    return labeled, truth


def test_criterion_01_ks_oracle_equivalence():
    """1000 random sample pairs: d equals the O(n*m) ECDF-sup brute force."""
    start = time.monotonic()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        n1 = int(rng.integers(3, 201))
        n2 = int(rng.integers(3, 201))
        a = rng.normal(loc=rng.uniform(-2, 2), scale=rng.uniform(0.5, 2), size=n1)
        b = rng.normal(loc=rng.uniform(-2, 2), scale=rng.uniform(0.5, 2), size=n2)
        pooled = np.concatenate([a, b])
        fa = np.mean(a[:, None] <= pooled[None, :], axis=0)
        fb = np.mean(b[:, None] <= pooled[None, :], axis=0)
        brute = float(np.max(np.abs(fa - fb)))
        worst = max(worst, abs(ks_two_sample(a, b).d - brute))
    elapsed = time.monotonic() - start
    ok = worst < 1e-12 and elapsed < 10.0
    assert report(1, ok, f"(max |d - oracle| = {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_02_binomial_sd_properties():
    start = time.monotonic()
    assert binomial_sd(0.0, 17) == 0.0
    assert binomial_sd(1.0, 17) == 0.0
    grid = np.linspace(0.0, 1.0, 201)
    vals = [binomial_sd(p, 30) for p in grid]
    assert np.argmax(vals) == 100  # p = 0.5
    for p in (0.1, 0.5, 0.9):
        seq = [binomial_sd(p, n) for n in range(1, 200)]
        assert all(a > b for a, b in zip(seq, seq[1:]))
    assert binomial_sd(0.5, 25) == 0.1
    elapsed = time.monotonic() - start
    assert report(2, elapsed < 1.0, f"(spot value exact, {elapsed:.2f}s)")


def test_criterion_03_published_selection_logic():
    prominent = prominent_sources(PUBLISHED_ROWS, p_thr=0.4)
    params = consolidate(PUBLISHED_ROWS, prominent)
    ok = (
        set(prominent) == {"RRC_Connected_Users_DL", "CCE_Utilization_AVG"}
        and params.g_star == 3
        and params.n_star == 20
    )
    assert report(3, ok, f"(prominent={sorted(prominent)}, g*={params.g_star}, n*={params.n_star})")


def test_criterion_04_synthetic_root_cause_recovery():
    start = time.monotonic()
    good = 0
    for seed in range(20):
        labeled, _ = scenario1_labeled(seed)
        table = rcd_multi_run(
            labeled,
            RcdConfig(g=3, n_runs=30, alpha=0.05, seed=seed),
            exclude=("dl_throughput",),
        )
        freq = table.proportion("rrc_users")
        noise = max(table.proportion("sinr_avg"), table.proportion("rach_rate"))
        if freq >= 0.8 and freq > noise:
            good += 1
    elapsed = time.monotonic() - start
    ok = good >= 18 and elapsed < 60.0
    assert report(4, ok, f"({good}/20 replications, {elapsed:.1f}s)")


def test_criterion_05_sequence_ordering():
    start = time.monotonic()
    good = 0
    for seed in range(20):
        labeled, truth = cascade_labeled(seed)
        steps = order_events(
            detect_events(
                labeled,
                labeled.panel.kpi_names,
                CisConfig(window=16, stride=4, alpha=0.1, correction="bh_fdr"),
            )
        )
        names = [e.kpi for e in steps]
        try:
            ordered = (
                names.index("cce_load")
                < names.index("prb_util")
                < names.index("dl_throughput")
            )
        except ValueError:
            ordered = False
        onsets_ok = ordered and all(
            abs(e.onset_tick - truth.onset_of(e.kpi)) <= 16
            for e in steps
            if truth.onset_of(e.kpi) is not None
        )
        if ordered and onsets_ok:
            good += 1
    elapsed = time.monotonic() - start
    ok = good >= 18 and elapsed < 60.0
    assert report(5, ok, f"({good}/20 replications, {elapsed:.1f}s)")


def test_criterion_06_cis_alpha_monotonicity():
    violations = 0
    for seed in range(20):
        labeled, _ = cascade_labeled(seed)
        tight = {
            e.kpi
            for e in detect_events(labeled, labeled.panel.kpi_names, CisConfig(alpha=0.05))
        }
        loose = {
            e.kpi
            for e in detect_events(labeled, labeled.panel.kpi_names, CisConfig(alpha=0.1))
        }
        if not tight <= loose:
            violations += 1
    assert report(6, violations == 0, f"({violations} violations over 20 replications)")


def _criterion7_grids():
    for seed in range(20):
        labeled, _ = scenario1_labeled(seed, extra_noise=3)
        yield run_grid(
            labeled,
            g_values=range(3, 9),
            n_values=(10, 15, 20, 25, 30, 40, 50),
            base_cfg=RcdConfig(alpha=0.05, seed=seed),
            seed=seed,
            exclude=("dl_throughput",),
        )


def test_criterion_07_noise_probability_bound():
    """Criterion 7, attainable clause: a designated pure-noise KPI stays
    below 0.1 estimated probability at every g for n = 50, and the true
    cause stays above 0.8 and dominates the noise at every g."""
    start = time.monotonic()
    ok = True
    for grid in _criterion7_grids():
        for g in grid.g_values:
            noise_p = grid.proportion(g, 50, "sinr_avg")
            cause_p = grid.proportion(g, 50, "rrc_users")
            if noise_p >= 0.1 or cause_p <= noise_p or cause_p < 0.8:
                ok = False
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 300.0
    assert report("7a", ok, f"(noise p-hat < 0.1 at every g, n=50; {elapsed:.1f}s)")


def test_criterion_07_variance_trend_reliability():
    """Criterion 7, unattainable clause, implemented as stated and left red.

    The hard-pinned root is detected in every run of every cell, so
    P[g,n] == 1.0, the estimated variance p(1-p)/n == 0, every OLS slope is 0.0,
    and the >=90%-strictly-negative verdict can never hold on this data.
    Detection within a fixed panel varies only through the random chunking,
    and the refinement's final full-set pass re-confronts every candidate
    pair deterministically, so a strong fault cannot yield the fractional
    detection proportions the declining-variance verdict presumes.
    """
    start = time.monotonic()
    reliable = 0
    for grid in _criterion7_grids():
        if variance_trend(grid, "rrc_users").reliable:
            reliable += 1
    elapsed = time.monotonic() - start
    assert report(
        "7b",
        reliable >= 18 and elapsed < 300.0,
        f"({reliable}/20 reliable verdicts; degenerate P==1 grid, {elapsed:.1f}s)",
    )


def test_criterion_08_subgraph_recovery():
    start = time.monotonic()
    chain = ScmSpec(
        nodes=("X", "Y", "Z"),
        edges=(("X", "Y", 2, 0.9), ("Y", "Z", 2, 0.9)),
        noise_sd=1.0,
    )
    truth = {("X", "Y", 2), ("Y", "Z", 2)}
    tp = fp = 0
    for seed in range(50):
        panel = generate(chain, horizon=1000, seed=seed)
        graph = build_subgraph(panel, chain.nodes, SubgraphConfig(tau_max=8, alpha=0.01))
        for key in graph.edge_keys():
            if key in truth:
                tp += 1
            else:
                fp += 1
    recall = tp / (len(truth) * 50)
    precision = tp / max(tp + fp, 1)

    null_spec = ScmSpec(nodes=("u", "v", "w"))
    false_edges = 0
    possible = 3 * 2 * 8 * 50  # ordered cross pairs x lags x seeds
    for seed in range(50):
        panel = generate(null_spec, horizon=1000, seed=1000 + seed)
        false_edges += len(build_subgraph(panel, null_spec.nodes, SubgraphConfig(8, 0.01)).edges)
    false_rate = false_edges / possible
    elapsed = time.monotonic() - start
    ok = precision >= 0.9 and recall >= 0.9 and false_rate <= 0.03 and elapsed < 120.0
    assert report(
        8,
        ok,
        f"(precision={precision:.3f}, recall={recall:.3f}, "
        f"null false-edge rate={false_rate:.4f}, {elapsed:.1f}s)",
    )


def test_criterion_09_do_equivalence():
    start = time.monotonic()
    spec = ScmSpec(
        nodes=("A", "B", "C", "D", "E"),
        edges=(("A", "B", 1, 0.9), ("B", "C", 1, 0.9)),
        noise_sd=1.0,
    )
    intervention = InterventionSpec("B", "hard", onset=1000, value=6.0)
    consistent = 0
    non_descendant_tests = 0
    descendants_ok = True
    for seed in range(50):
        verdicts = verify_do_equivalence(spec, intervention, 2000, seed, alpha=0.01)
        for v in verdicts:
            if v.node == "B":
                continue
            if v.expect_shift:
                descendants_ok = descendants_ok and v.verdict == "shifted"
            else:
                non_descendant_tests += 1
                consistent += v.verdict == "consistent"
    rate = consistent / non_descendant_tests
    elapsed = time.monotonic() - start
    ok = rate >= 0.95 and descendants_ok and elapsed < 60.0
    assert report(
        9,
        ok,
        f"(non-descendants consistent {rate:.3f}, descendants all shifted="
        f"{descendants_ok}, {elapsed:.1f}s)",
    )


def test_criterion_10_byte_determinism(tmp_path):
    max_jobs = str(os.cpu_count() or 4)
    run_all_files = (
        "cis.json",
        "subgraph.dot",
        "deviation_traces.csv",
        "histograms.csv",
        "run_metadata.json",
    )
    for args, out in (
        (["run-all", "--scenario", "cascade", "--seed", "11"], "ra1"),
        (["run-all", "--scenario", "cascade", "--seed", "11"], "ra2"),
        (["run-all", "--scenario", "cascade", "--seed", "11", "--jobs", max_jobs], "ra3"),
    ):
        assert main(args + ["--out", str(tmp_path / out)]) == 0
    tune_cfg = tmp_path / "tune.yaml"
    tune_cfg.write_text(
        "input: {scenario: single_root}\nseed: 11\n"
        "mc: {g_values: [3, 4], n_values: [10, 15, 20]}\n"
    )
    for out in ("t1", "t2"):
        assert main(["tune", "--config", str(tune_cfg), "--out", str(tmp_path / out)]) == 0
    assert (
        main(
            ["tune", "--config", str(tune_cfg), "--jobs", max_jobs,
             "--out", str(tmp_path / "t3")]
        )
        == 0
    )
    ok = True
    for name in run_all_files:
        base = (tmp_path / "ra1" / name).read_bytes()
        ok = ok and base == (tmp_path / "ra2" / name).read_bytes()
        ok = ok and base == (tmp_path / "ra3" / name).read_bytes()
    for name in ("tuning.csv", "tuning_params.json"):
        base = (tmp_path / "t1" / name).read_bytes()
        ok = ok and base == (tmp_path / "t2" / name).read_bytes()
        ok = ok and base == (tmp_path / "t3" / name).read_bytes()
    assert report(10, ok, f"(run-all and tune bundles, jobs up to {max_jobs})")
