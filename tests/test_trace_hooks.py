"""The benchmark's tracer (bench/tracer.py) wraps rcseq functions where
their callers look them up, by module and attribute name. A refactor that
drops or moves one of those bindings, or stops calling through it, must
fail here, not only in the benchmark's own tests."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from rcseq.cli import main

ROOT = Path(__file__).resolve().parents[1]


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


TRACER = _load_tracer()
HOOKS = list(dict.fromkeys((m, a) for m, a, _, _ in TRACER.SETUP_HOOKS + TRACER.LAYER_HOOKS))


@pytest.mark.parametrize("module_name, attr", HOOKS, ids=[f"{m}.{a}" for m, a in HOOKS])
def test_hook_resolves_to_rcseq_callable(module_name, attr):
    module = importlib.import_module(module_name)
    # "write_*" stands for every write_ function the module binds, as in the tracer
    names = (
        sorted(a for a in vars(module) if a.startswith(attr[:-1]))
        if attr.endswith("*")
        else [attr]
    )
    assert names, f"{module_name} binds nothing matching {attr}"
    for name in names:
        fn = getattr(module, name, None)
        assert callable(fn), f"{module_name}.{name} is not a callable"
        source = Path(inspect.getfile(fn)).resolve()
        assert source.parent == ROOT / "src" / "rcseq", f"{module_name}.{name} is defined in {source}"


def traced(*args):
    """Run one rcseq command in-process under every layer hook."""
    tracer = TRACER.Tracer().install(TRACER.LAYER_HOOKS)
    try:
        assert main([str(a) for a in args]) == 0
    finally:
        tracer.uninstall()
    return tracer


def test_hooks_see_the_work_of_tune_and_run_all(tmp_path):
    cfg = tmp_path / "tune.yaml"
    cfg.write_text("input: {scenario: single_root}\nmc: {g_values: [3, 4], n_values: [2, 3, 4]}\n")
    tune = traced("tune", "--config", cfg, "--out", tmp_path / "tune")
    assert tune.counters["tuner.cells"] == 2 * 3
    assert tune.counters["tuner.rcd_runs"] == 2 * (2 + 3 + 4)
    run_all = traced("run-all", "--scenario", "single_root", "--out", tmp_path / "run-all")
    assert "rcd.rcd_runs" in run_all.names
