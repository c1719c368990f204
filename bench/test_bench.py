"""Self-tests of the benchmark harness.

    python3 -m pytest bench -q

They check the generator, the tracer's wrappers and self-time arithmetic,
and that a reduced configuration of every workload passes its output
checks, traced and untraced, with identical output bytes.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
from gen import first_breach, write_inputs
from tracer import LAYER_HOOKS, Tracer, summarize
from workloads import WORKLOADS


def _smoke(workload):
    """The workload with the Monte Carlo grid cut to two small cells."""
    if "mc" not in workload.spec.extra_config:
        return workload
    spec = dataclasses.replace(
        workload.spec, extra_config={"mc": {"g_values": [3, 4], "n_values": [10, 15, 20]}}
    )
    return dataclasses.replace(workload, spec=spec)


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_generator_is_deterministic_per_seed(tmp_path):
    spec = WORKLOADS["incident-multi"].spec
    write_inputs(spec, 7, tmp_path / "a")
    write_inputs(spec, 7, tmp_path / "b")
    write_inputs(spec, 8, tmp_path / "c")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert (tmp_path / "a" / "panel.csv").read_bytes() != (tmp_path / "c" / "panel.csv").read_bytes()


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_generated_breach_lies_in_range(tmp_path, name):
    spec = WORKLOADS[name].spec
    for seed in range(5):
        truth = write_inputs(spec, seed, tmp_path / str(seed))
        lo, hi = spec.breach_range
        assert lo <= truth["breach"] <= hi


def test_first_breach_needs_min_duration():
    sla = {"comparator": ">", "threshold": 1.0, "min_duration_ticks": 3}
    assert first_breach(np.array([2, 2, 0, 2, 2, 2, 0]), sla) == 3
    assert first_breach(np.array([2, 2, 0, 2]), sla) is None


def test_summarize_subtracts_direct_children():
    dump = {
        "names": ["outer", "inner", "inner", "leaf"],
        "parents": [-1, 0, 0, 2],
        "starts": [0, 10, 50, 60],
        "ends": [100, 30, 90, 70],
        "counters": {"x": 3},
    }
    out = summarize(dump)
    assert out["outer_s"] == pytest.approx(40e-9)
    assert out["inner_s"] == pytest.approx(50e-9)
    assert out["leaf_s"] == pytest.approx(10e-9)
    assert out["inner.calls"] == 2
    assert out["x"] == 3


def test_times_scale_by_their_own_iteration_reference():
    def sample(jobs, t, ref):
        return {"ok": True, "jobs": jobs, "traced": False, "cold_s": t, "setup_s": t,
                "run_s": t, "peak_rss_mb": 100.0, "reference_s": ref}

    base = run.REFERENCE_S
    samples = [sample(1, 1.0, base), sample(2, 0.5, base),
               sample(1, 2.0, 2 * base), sample(2, 1.0, 2 * base)]
    metrics = run.end_to_end(samples, run.scaled)
    assert metrics["cold_s"] == pytest.approx(1.0)
    assert metrics["run_jobs2_s"] == pytest.approx(0.5)
    assert metrics["setup_s"] == pytest.approx(0.75)
    assert run.end_to_end(samples, run.as_measured)["cold_s"] == pytest.approx(1.5)


def test_wrappers_are_removed_afterwards(monkeypatch):
    monkeypatch.syspath_prepend(str(run.ROOT / "src"))
    originals = {}
    for module_name, attr, _, _ in LAYER_HOOKS:
        module = importlib.import_module(module_name)
        for a in vars(module):
            if a == attr or (attr.endswith("*") and a.startswith(attr[:-1])):
                originals[(module_name, a)] = getattr(module, a)
    tracer = Tracer().install(LAYER_HOOKS)
    patched = [k for k, fn in originals.items()
               if getattr(importlib.import_module(k[0]), k[1]) is not fn]
    tracer.uninstall()
    assert sorted(patched) == sorted(originals)
    for (module_name, a), fn in originals.items():
        assert getattr(importlib.import_module(module_name), a) is fn


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_passes_checks_and_traced_bytes_match(tmp_path, name):
    workload = _smoke(WORKLOADS[name])
    write_inputs(workload.spec, 3, tmp_path)
    plain = run.run_command(workload, tmp_path, 0, jobs=1, traced=False)
    traced = run.run_command(workload, tmp_path, 1, jobs=1, traced=True)
    assert plain["ok"], plain["problems"]
    assert traced["ok"], traced["problems"]
    assert plain["hashes"] == traced["hashes"]
    assert traced["layers"]["panel.load_csv.calls"] == 1


def test_benchmark_json_matches_the_code():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in doc["workloads"]} <= set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER_UNITS
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_reference_runs(tmp_path):
    assert run.run_reference(tmp_path) > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "incident-long",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    lines = proc.stdout.strip().splitlines()
    with pytest.raises((json.JSONDecodeError, IndexError)):
        json.loads(lines[-1])
