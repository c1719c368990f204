"""Report helpers: the Freedman-Diaconis histogram edges and the traces
writer."""

import csv
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rcseq.config import CisConfig
from rcseq.report import MAX_HISTOGRAM_BINS, OutputBundle, fd_bin_edges, write_traces_csv
from rcseq.sequence import detect_events, deviation_traces
from test_ci_equivalence import scenario_case

ROOT = Path(__file__).resolve().parents[1]


def assert_numpy_edges(values):
    got = fd_bin_edges(values)
    want = np.histogram_bin_edges(np.asarray(values, dtype=float), bins="fd")
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestFdBinEdges:
    @pytest.mark.parametrize("name, seed", [("cascade", 11), ("cascade", 3), ("single_root", 3)])
    def test_scenario_cases_match_numpy_bitwise(self, name, seed):
        # the pooled windows write_histograms_csv bins for every KPI; the
        # golden run-all cases run cascade at seed 11
        labeled, _ = scenario_case(name, seed)
        for kpi in labeled.panel.kpi_names:
            assert_numpy_edges(np.concatenate([labeled.normal_values(kpi), labeled.abnormal_values(kpi)]))

    def test_seeded_samples_match_numpy_bitwise(self):
        rng = np.random.default_rng(404)
        for n in [1, 2, 3, 4, 5, 7, 8, 9, 10, 11, 16, 17, 240, 1000, 1001]:
            for scale in (1e-3, 1.0, 1e6):
                sample = rng.normal(loc=rng.uniform(-5, 5), scale=scale, size=n)
                assert_numpy_edges(sample)
                assert_numpy_edges(np.round(sample / scale, 1))  # many ties
                assert_numpy_edges(np.round(sample / scale))  # integer-valued
            assert_numpy_edges(rng.standard_cauchy(n))
            assert_numpy_edges(np.full(n, 2.5))  # a constant KPI: one bin
        # a zero IQR with a nonzero range is one bin as well
        assert_numpy_edges(np.array([0.0] * 9 + [1.0]))
        # here the bin count turns on the last bit of the upper quartile,
        # which numpy interpolates down from the upper neighbour (g >= 0.5)
        assert_numpy_edges(np.array([0.02, -0.07, 0.03, 0.04, -0.01, 0.01, 0.02, 0.04]))

    def test_bin_count_is_bounded(self):
        # a near-constant KPI with a short spike: a tiny IQR next to a wide
        # range, for which the Freedman-Diaconis rule asks for 1 118 943 bins
        sample = np.random.default_rng(0).normal(0.0, 1e-4, 240)
        sample[100:106] += 50.0
        edges = fd_bin_edges(sample)
        assert edges.size == MAX_HISTOGRAM_BINS + 1
        assert edges[0] == sample.min() and edges[-1] == sample.max()
        assert np.all(np.diff(edges) > 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_raises_numpys_error(self, bad):
        sample = np.array([0.5, bad, -1.0, 2.0])
        with pytest.raises(ValueError) as want:
            np.histogram_bin_edges(sample, bins="fd")
        with pytest.raises(ValueError) as got:
            fd_bin_edges(sample)
        assert str(got.value) == str(want.value)


def test_run_all_does_not_import_numpy_ma(tmp_path):
    # np.percentile imports numpy.ma; no stage of run-all needs it
    code = (
        "import sys\n"
        "from rcseq.cli import main\n"
        f"assert main(['run-all', '--scenario', 'cascade', '--seed', '11', '--out', {str(tmp_path / 'out')!r}]) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"
    assert (tmp_path / "out" / "histograms.csv").is_file()


def reference_traces_csv(path, ticks, traces, kpis):
    """The traces writer as it was: one csv.writer row per tick."""
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("tick", *kpis))
        for tick, row in zip(ticks, traces):
            writer.writerow((int(tick), *(int(v) for v in row)))


def assert_traces_bytes(tmp_path, ticks, traces, kpis):
    with OutputBundle(tmp_path / "out") as bundle:
        write_traces_csv(bundle, ticks, traces, kpis)
    reference_traces_csv(tmp_path / "reference.csv", ticks, traces, kpis)
    got = (tmp_path / "out" / "deviation_traces.csv").read_bytes()
    want = (tmp_path / "reference.csv").read_bytes()
    assert hashlib.sha256(got).hexdigest() == hashlib.sha256(want).hexdigest()
    return got


class TestTracesCsv:
    def test_long_trace_matches_row_writer(self, tmp_path):
        # 10^5 ticks of -1, 0 and +1 in the int8 traces deviation_traces
        # returns, on epoch-second ticks
        rng = np.random.default_rng(7)
        ticks = 1_700_000_000 + 60 * np.arange(100_000, dtype=np.int64)
        traces = rng.integers(-1, 2, size=(ticks.size, 7), dtype=np.int8)
        got = assert_traces_bytes(tmp_path, ticks, traces, [f"k{i}" for i in range(7)])
        assert got.count(b"\r\n") == ticks.size + 1
        assert {b"-1", b"0", b"1"} <= set(got.replace(b"\r\n", b",").split(b","))

    @pytest.mark.parametrize("name, seed", [("cascade", 11), ("single_root", 3)])
    def test_scenario_traces_match_row_writer(self, tmp_path, name, seed):
        labeled, _ = scenario_case(name, seed)
        kpis = labeled.panel.kpi_names
        cfg = CisConfig()
        traces, kpis = deviation_traces(labeled, detect_events(labeled, kpis, cfg), kpis, cfg)
        assert traces.any()
        assert_traces_bytes(tmp_path, labeled.panel.ticks, traces, kpis)

    def test_no_kpis(self, tmp_path):
        ticks = np.arange(5, dtype=np.int64)
        assert assert_traces_bytes(tmp_path, ticks, np.zeros((5, 0), np.int8), []) == (
            b"tick\r\n0\r\n1\r\n2\r\n3\r\n4\r\n"
        )
