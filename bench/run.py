"""rcseq benchmark: closed-loop CLI workloads with output checks.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace {0,1}

NAME is one of the workloads in workloads.py, or `all` to run every one
in turn. One client sends one command at a time, each in a fresh process,
for S seconds. Every iteration runs reference.py and then the command with
`--jobs 1` and with `--jobs 2`, and the end-to-end metrics are reported.
With `--trace 1` every iteration adds a traced `--jobs 1` run, and the
per-layer metrics are reported. Timings are medians, scaled by the
reference's speed (see REFERENCE_S). Each output is checked against the
generator's ground truth and must be byte-identical across all runs.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics (name -> value, unit). A fuller record (samples,
output SHA-256s, environment) goes to .bench_results/ in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from gen import write_inputs
from tracer import summarize
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".bench_work"
RESULTS_DIR = ROOT / ".bench_results"
# A command may run this long past --seconds before it is killed, so that a
# hung command still ends the run well within three minutes.
GRACE_S = 90.0

# Nominal time of reference.py, close to its time on an unloaded 2-vCPU
# Intel Xeon VM (Python 3.11, numpy 2.4, scipy 1.17). Every timing is
# scaled by REFERENCE_S over the run's median reference time: on a shared
# host that runs slower or faster for minutes at a time, the reference and
# the program slow down alike, and the scaling cancels that out.
REFERENCE_S = 1.25

END_TO_END_UNITS = {
    "cold_s": "s",
    "setup_s": "s",
    "run_s": "s",
    "run_jobs2_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics; counters absent from a workload's trace read 0.
PER_LAYER_UNITS = {
    "import.rcseq_cli_s": "s",
    "panel.load_csv_s": "s",
    "panel.label_s": "s",
    "rcd.rcd_runs_s": "s",
    "rcd.local_skeleton_s": "s",
    "rcd.local_skeleton.calls": "count",
    "stats.ci_test.rcd.calls": "count",
    "stats.ci_test.rcd.distinct": "count",
    "stats.ci_test.rcd.distinct_ratio": "ratio",
    "stats.ci_test.rcd_s": "s",
    "stats.batch_marginal_ci.rcd.columns": "count",
    "stats.batch_marginal_ci.rcd.distinct_columns": "count",
    "stats.batch_marginal_ci.rcd_s": "s",
    "stats.ci_test.subgraph.calls": "count",
    "stats.ci_test.subgraph.distinct": "count",
    "stats.ci_test.subgraph.distinct_ratio": "ratio",
    "stats.ci_test.subgraph_s": "s",
    "stats.ks_two_sample.calls": "count",
    "stats.ks_two_sample_s": "s",
    "subgraph.build_subgraph_s": "s",
    "subgraph.select_lagged_parents_s": "s",
    "subgraph.mci_edge_test.calls": "count",
    "subgraph.mci_edge_test_s": "s",
    "subgraph.edges": "count",
    "sequence.detect_events_s": "s",
    "sequence.deviation_traces_s": "s",
    "tuner.run_grid_s": "s",
    "tuner.cells": "count",
    "tuner.rcd_runs": "count",
    "tuner.pool_speedup": "ratio",
    "report.write_s": "s",
    "report.bytes": "bytes",
    "trace.overhead": "ratio",
}

# Counters that must repeat exactly between traced runs.
EXACT_COUNTERS = (
    "rcd.local_skeleton.calls",
    "stats.ci_test.rcd.calls",
    "stats.ci_test.rcd.distinct",
    "stats.batch_marginal_ci.rcd.columns",
    "stats.batch_marginal_ci.rcd.distinct_columns",
    "stats.ci_test.subgraph.calls",
    "stats.ci_test.subgraph.distinct",
    "stats.ks_two_sample.calls",
    "subgraph.mci_edge_test.calls",
    "subgraph.edges",
    "tuner.cells",
    "tuner.rcd_runs",
)


def environment() -> dict:
    """Machine and library facts that bear on the timings."""
    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    versions = {}
    for dist in ("numpy", "scipy", "PyYAML"):
        try:
            versions[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            versions[dist] = None
    blas = None
    try:
        import numpy

        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        pass
    thread_vars = (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    )
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        **versions,
        "blas": blas,
        "blas_threads_env": {k: os.environ.get(k) for k in thread_vars},
    }


def _hash_outputs(out_dir: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
    }


def _spawn(cmd, cwd: Path, timeout: float) -> tuple[int, str, int, int]:
    """Run a fresh process to completion: (exit code, stderr tail, spawn
    and exit stamps in monotonic ns). A process still running after
    `timeout` seconds is killed with its process group and reads as -9."""
    spawn = time.monotonic_ns()
    # its own process group, so a hung command is killed with its pool workers
    proc = subprocess.Popen(
        cmd, cwd=cwd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        _, stderr = proc.communicate(timeout=timeout)
    except BaseException as exc:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if not isinstance(exc, subprocess.TimeoutExpired):
            raise
        return -9, f"killed after {timeout:.0f} s", spawn, time.monotonic_ns()
    exit_ns = time.monotonic_ns()
    return proc.returncode, stderr.decode(errors="replace").strip()[-400:], spawn, exit_ns


def run_reference(work: Path, timeout: float = GRACE_S) -> float | None:
    """Wall time of one fresh reference.py process, or None if it failed."""
    rc, _, spawn, exit_ns = _spawn(
        [sys.executable, str(BENCH_DIR / "reference.py")], work, timeout
    )
    return (exit_ns - spawn) / 1e9 if rc == 0 else None


def run_command(workload, work: Path, index: int, jobs: int, traced: bool,
                timeout: float = GRACE_S) -> dict:
    """Spawn one fresh rcseq process, wait for it and check its output."""
    out_dir = work / f"out_{index}"
    result_path = work / f"result_{index}.json"
    cmd = [
        sys.executable, str(BENCH_DIR / "child.py"), str(ROOT), str(result_path),
        "traced" if traced else "plain", "--",
        workload.command, "--config", "config.yaml", "--out", out_dir.name,
        "--jobs", str(jobs),
    ]
    rc, stderr, spawn, exit_ns = _spawn(cmd, work, timeout)
    sample = {"jobs": jobs, "traced": traced, "ok": False, "problems": []}
    if rc != 0 or not result_path.exists():
        sample["problems"].append(f"exit {rc}: {stderr}")
        return sample
    res = json.loads(result_path.read_text(encoding="utf-8"))
    if res["setup_end"] is None:
        sample["problems"].append("set-up end not seen: rcseq.cli.load_csv was not called")
        return sample
    try:
        truth = json.loads((work / "truth.json").read_text(encoding="utf-8"))
        sample["problems"] = workload.check(out_dir, truth)
    except (OSError, ValueError, LookupError, TypeError) as exc:
        sample["problems"].append(f"output check could not read the output: {exc!r}")
    sample["hashes"] = _hash_outputs(out_dir)
    sample["report_bytes"] = sum(p.stat().st_size for p in out_dir.iterdir())
    sample["cold_s"] = (exit_ns - spawn) / 1e9
    sample["setup_s"] = (res["setup_end"] - spawn) / 1e9
    sample["run_s"] = (res["end"] - res["setup_end"]) / 1e9
    sample["import_s"] = (res["import_end"] - res["import_start"]) / 1e9
    sample["peak_rss_mb"] = res["maxrss_kb"] / 1024.0
    if res["trace"] is not None:
        sample["layers"] = summarize(res["trace"])
    shutil.rmtree(out_dir)
    result_path.unlink()
    sample["ok"] = not sample["problems"]
    return sample


def _median(values):
    values = list(values)
    return statistics.median(values) if values else None


def _byte_problems(samples) -> None:
    """Every checked output must match the first one byte for byte
    (repeats, --jobs 1 vs 2, traced vs untraced)."""
    ref = next((s["hashes"] for s in samples if "hashes" in s), None)
    for s in samples:
        if "hashes" in s and s["hashes"] != ref:
            diff = sorted(k for k in set(ref) | set(s["hashes"])
                          if ref.get(k) != s["hashes"].get(k))
            s["problems"].append(f"output bytes differ from the first run: {diff}")
            s["ok"] = False


def _counter_problems(traced) -> list[str]:
    problems = []
    for key in EXACT_COUNTERS:
        values = {s["layers"].get(key, 0) for s in traced}
        if len(values) > 1:
            problems.append(f"counter {key} differs between traced runs: {sorted(values)}")
    return problems


def scaled(sample) -> float:
    """Factor that turns the sample's times into times on a machine where
    reference.py takes REFERENCE_S, using the reference run in the same
    iteration (the host's speed drifts within a run too)."""
    return REFERENCE_S / sample["reference_s"]


def as_measured(sample) -> float:
    return 1.0


def end_to_end(samples, factor) -> dict:
    """Medians of the untraced processes, times multiplied by factor(sample)."""
    plain1 = [s for s in samples if s["ok"] and s["jobs"] == 1 and not s["traced"]]
    jobs2 = [s for s in samples if s["ok"] and s["jobs"] == 2]
    if not plain1 or not jobs2:
        return {}
    return {
        "cold_s": _median(s["cold_s"] * factor(s) for s in plain1),
        # set-up precedes the pool, so every untraced process contributes
        "setup_s": _median(s["setup_s"] * factor(s) for s in plain1 + jobs2),
        "run_s": _median(s["run_s"] * factor(s) for s in plain1),
        "run_jobs2_s": _median(s["run_s"] * factor(s) for s in jobs2),
        "peak_rss_mb": _median(s["peak_rss_mb"] for s in plain1),
    }


def per_layer(samples, factor) -> dict:
    """Per-layer medians and counts; times multiplied by factor(sample)."""
    ok = [s for s in samples if s["ok"]]
    traced = [s for s in ok if s["traced"]]
    plain1 = [s for s in ok if s["jobs"] == 1 and not s["traced"]]
    jobs2 = [s for s in ok if s["jobs"] == 2]
    if not traced or not plain1 or not jobs2:
        return {}
    metrics = {}
    for key in PER_LAYER_UNITS:
        if key.endswith("_s"):
            metrics[key] = _median(s["layers"].get(key, 0) * factor(s) for s in traced)
        else:
            metrics[key] = traced[0]["layers"].get(key, 0)
    metrics["import.rcseq_cli_s"] = _median(s["import_s"] * factor(s) for s in ok)
    for prefix in ("stats.ci_test.rcd", "stats.ci_test.subgraph"):
        calls = metrics[prefix + ".calls"]
        metrics[prefix + ".distinct_ratio"] = metrics[prefix + ".distinct"] / calls if calls else 0.0
    run1 = _median(s["run_s"] * factor(s) for s in plain1)
    metrics["tuner.pool_speedup"] = run1 / _median(s["run_s"] * factor(s) for s in jobs2)
    metrics["trace.overhead"] = _median(s["run_s"] * factor(s) for s in traced) / run1
    metrics["report.bytes"] = traced[0]["report_bytes"]
    return metrics


def run_workload(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Closed loop: one command at a time in fresh processes, iterating
    while the next iteration would end nearer to `seconds` than this one
    (at least one iteration)."""
    work = WORK_DIR / f"{workload.name}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    plan = [(1, False), (2, False)] + ([(1, True)] if trace else [])
    samples: list[dict] = []
    reference_s: list[float] = []
    load_before = os.getloadavg()
    try:
        write_inputs(workload.spec, seed, work)
        start = time.monotonic()
        deadline = start + seconds + GRACE_S
        iteration_s = []
        while True:
            t0 = time.monotonic()
            ref = run_reference(work, max(1.0, deadline - time.monotonic()))
            reference_s.append(ref)
            for jobs, traced in plan:
                timeout = max(1.0, deadline - time.monotonic())
                sample = run_command(workload, work, len(samples), jobs, traced, timeout)
                sample["reference_s"] = ref
                if ref is None and sample["ok"]:
                    sample["problems"].append("reference.py failed in this iteration")
                    sample["ok"] = False
                samples.append(sample)
            iteration_s.append(time.monotonic() - t0)
            # stop where the expected end of the next iteration is nearest
            if time.monotonic() - start + statistics.median(iteration_s) / 2 >= seconds:
                break
        measured_s = time.monotonic() - start
    finally:
        shutil.rmtree(work, ignore_errors=True)
    _byte_problems(samples)
    problems = [p for s in samples for p in s["problems"]]
    if trace:
        problems += _counter_problems([s for s in samples if s["ok"] and s["traced"]])
    summarize_run = per_layer if trace else end_to_end
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    metrics = summarize_run(samples, scaled)
    failed = sum(1 for s in samples if not s["ok"])
    return {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "correct": not problems and len(metrics) == len(units),
        "attempted": len(samples),
        "failed": failed,
        "measured_s": measured_s,
        "metrics": {k: {"value": metrics.get(k), "unit": u} for k, u in units.items()},
        "as_measured": summarize_run(samples, as_measured),
        "reference_s": reference_s,
        "problems": problems,
        "output_sha256": next((s["hashes"] for s in samples if "hashes" in s), None),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "samples": samples,
    }


def _print_result(result: dict) -> None:
    print(f"== {result['workload']} (seed {result['seed']}, trace {result['trace']}, "
          f"{result['attempted']} commands in {result['measured_s']:.1f} s)")
    for name, m in result["metrics"].items():
        measured = result["as_measured"].get(name)
        note = f"  (as measured: {measured:.4f})" if name.endswith("_s") and measured else ""
        print(f"  {name:<46} {m['value']!s:>22} {m['unit']}{note}")
    print(f"  {'fail_frac':<46} {result['failed'] / result['attempted']:>22} "
          f"({result['failed']}/{result['attempted']} commands failed)")
    for problem in dict.fromkeys(result["problems"]):
        print(f"  PROBLEM: {problem}")
    refs = [r for r in result["reference_s"] if r is not None]
    print(f"  reference.py median {_median(refs)} s over {len(refs)} iterations; "
          f"times are scaled to a reference time of {REFERENCE_S} s")
    print(f"  load average before {result['loadavg_before']}, after {result['loadavg_after']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so the running command is killed and scratch removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "rcseq" / "cli.py").is_file():
        print(f"rcseq sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True))
    results = [
        run_workload(WORKLOADS[n], args.seed, args.seconds, bool(args.trace)) for n in names
    ]
    RESULTS_DIR.mkdir(exist_ok=True)
    for result in results:
        _print_result(result)
        path = RESULTS_DIR / f"{result['workload']}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps({"environment": env, **result}, indent=1) + "\n")
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": m for r in results for k, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
