"""Report helpers: the Freedman-Diaconis histogram edges."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rcseq.report import fd_bin_edges
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
