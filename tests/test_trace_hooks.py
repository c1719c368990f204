"""The benchmark's tracer (bench/tracer.py) wraps rcseq functions where
their callers look them up, by module and attribute name. A refactor that
drops or moves one of those bindings must fail here, not only in the
benchmark's own tests."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _tracer_hooks():
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return list(dict.fromkeys((m, a) for m, a, _, _ in tracer.SETUP_HOOKS + tracer.LAYER_HOOKS))


HOOKS = _tracer_hooks()


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
