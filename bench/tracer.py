"""Spans and work counters around calls into rcseq's public functions.

The tracer wraps functions where their callers look them up (the modules
bind names at import, so `rcseq.cli.build_subgraph` and
`rcseq.subgraph.build_subgraph` are separate bindings) and restores the
originals on `uninstall`. Spans (name, start, end, parent) stay in memory
until the traced process writes them out. Nothing inside `src/rcseq` is
changed.

Argument hashing for the `distinct` counts runs outside the measured call,
inside a `trace.count` span, so it is excluded from every layer's self
time and shows up as tracing overhead instead.
"""

from __future__ import annotations

import hashlib
import importlib
import time

import numpy as np

COUNT_SPAN = "trace.count"


def _digest(array) -> bytes:
    data = np.ascontiguousarray(array, dtype=float)
    return hashlib.blake2b(data.data, digest_size=16).digest()


def _ci_key(args, kwargs):
    x, y = args[0], args[1]
    given = kwargs.get("given", args[2] if len(args) > 2 else ())
    # the conditioning set is a set: its order does not make a test distinct
    return _digest(x), _digest(y), tuple(sorted(_digest(g) for g in given))


class Tracer:
    """Collects spans and counters for one traced process."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.counters: dict[str, int] = {}
        self._distinct: dict[str, set] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.starts.append(time.monotonic_ns())
        self.ends.append(0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.monotonic_ns()
        self._stack.pop()

    def _wrap(self, name, fn, count):
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                idx = self._open(COUNT_SPAN)
                try:
                    count(self, args, kwargs, result)
                finally:
                    self._close(idx)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- counters ---------------------------------------------------------

    def add(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def add_distinct(self, key: str, item) -> None:
        seen = self._distinct.setdefault(key, set())
        if item not in seen:
            seen.add(item)
            self.add(key)

    # -- installation -----------------------------------------------------

    def install(self, hooks) -> "Tracer":
        """Patch every (module, attribute, span name, counter) hook; an
        attribute of "write_*" patches every `write_` function the module
        binds."""
        for module_name, attr, name, count in hooks:
            module = importlib.import_module(module_name)
            attrs = (
                sorted(a for a in vars(module) if a.startswith(attr[:-1]))
                if attr.endswith("*")
                else [attr]
            )
            for a in attrs:
                original = getattr(module, a)
                self._patched.append((module, a, original))
                setattr(module, a, self._wrap(name, original, count))
        return self

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def dump(self) -> dict:
        return {
            "names": self.names,
            "parents": self.parents,
            "starts": self.starts,
            "ends": self.ends,
            "counters": dict(sorted(self.counters.items())),
        }


# -- counter callbacks ----------------------------------------------------

def _count_ci(prefix):
    def count(tracer, args, kwargs, result):
        tracer.add_distinct(prefix + ".distinct", _ci_key(args, kwargs))

    return count


def _count_batch(prefix):
    def count(tracer, args, kwargs, result):
        x = np.asarray(args[0], dtype=float)
        hy = _digest(args[1])
        tracer.add(prefix + ".columns", x.shape[1])
        for j in range(x.shape[1]):
            tracer.add_distinct(prefix + ".distinct_columns", (_digest(x[:, j]), hy))

    return count


def _count_edges(tracer, args, kwargs, result):
    tracer.add("subgraph.edges", len(result.edges))


def _count_cells(tracer, args, kwargs, result):
    tracer.add("tuner.cells", len(result.g_values) * len(result.n_values))


def _count_runs(tracer, args, kwargs, result):
    tracer.add("tuner.rcd_runs", result.n_runs)


# The set-up boundary: the end of the first `panel.load_csv` span. Untraced
# runs install only this hook, to time set-up without tracing anything else.
SETUP_HOOKS = (("rcseq.cli", "load_csv", "panel.load_csv", None),)

LAYER_HOOKS = SETUP_HOOKS + (
    ("rcseq.cli", "apply_sla_rule", "panel.label", None),
    ("rcseq.cli", "label_states", "panel.label", None),
    ("rcseq.cli", "rcd_runs", "rcd.rcd_runs", None),
    ("rcseq.rcd", "rcd_runs", "rcd.rcd_runs", None),
    ("rcseq.rcd", "local_skeleton", "rcd.local_skeleton", None),
    ("rcseq.rcd", "ci_test", "stats.ci_test.rcd", _count_ci("stats.ci_test.rcd")),
    ("rcseq.rcd", "batch_marginal_ci", "stats.batch_marginal_ci.rcd",
     _count_batch("stats.batch_marginal_ci.rcd")),
    ("rcseq.subgraph", "ci_test", "stats.ci_test.subgraph",
     _count_ci("stats.ci_test.subgraph")),
    ("rcseq.sequence", "ks_two_sample", "stats.ks_two_sample", None),
    ("rcseq.cli", "build_subgraph", "subgraph.build_subgraph", _count_edges),
    ("rcseq.subgraph", "select_lagged_parents", "subgraph.select_lagged_parents", None),
    ("rcseq.subgraph", "mci_edge_test", "subgraph.mci_edge_test", None),
    ("rcseq.cli", "detect_events", "sequence.detect_events", None),
    ("rcseq.cli", "deviation_traces", "sequence.deviation_traces", None),
    ("rcseq.cli", "run_grid", "tuner.run_grid", _count_cells),
    ("rcseq.tuner", "rcd_multi_run", "tuner.rcd_multi_run", _count_runs),
    ("rcseq.cli", "write_*", "report.write", None),
)


def summarize(dump: dict) -> dict[str, float]:
    """Per-span-name self time (seconds) and call count, plus the counters.

    Calls of one thread nest, so a span's direct children never overlap and
    its self time is its duration minus the sum of theirs.
    """
    names, parents = dump["names"], dump["parents"]
    durations = [e - s for s, e in zip(dump["starts"], dump["ends"])]
    self_ns = list(durations)
    for idx, parent in enumerate(parents):
        if parent >= 0:
            self_ns[parent] -= durations[idx]
    out: dict[str, float] = {}
    for name, ns in zip(names, self_ns):
        out[name + "_s"] = out.get(name + "_s", 0.0) + ns / 1e9
        out[name + ".calls"] = out.get(name + ".calls", 0) + 1
    out.update(dump["counters"])
    return out
