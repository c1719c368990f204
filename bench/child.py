"""Run one rcseq CLI command in a fresh process and record its timeline.

    python3 child.py ROOT RESULT_JSON {plain,traced} -- RCSEQ_ARGS...

Imports `rcseq` from ROOT/src (and refuses any other copy), runs
`rcseq.cli.main(RCSEQ_ARGS)` in the current directory and writes
RESULT_JSON with monotonic-clock stamps and peak RSS; the parent
stamped the spawn on the same clock. `plain` installs only the set-up hook
(the end of `load_csv`); `traced` installs every layer hook and adds the
spans and counters.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def main(argv) -> int:
    root, result_path, mode, sep, *cli_args = argv
    if sep != "--" or mode not in ("plain", "traced"):
        raise SystemExit("usage: child.py ROOT RESULT_JSON {plain,traced} -- ARGS...")
    src = Path(root, "src").resolve()
    sys.path.insert(0, str(src))
    import_start = time.monotonic_ns()
    import rcseq.cli

    import_end = time.monotonic_ns()
    if Path(rcseq.cli.__file__).resolve().parents[1] != src:
        raise SystemExit(f"imported rcseq from {rcseq.cli.__file__}, not from {src}")

    from tracer import LAYER_HOOKS, SETUP_HOOKS, Tracer

    tracer = Tracer().install(LAYER_HOOKS if mode == "traced" else SETUP_HOOKS)
    try:
        rc = rcseq.cli.main(cli_args)
    finally:
        end = time.monotonic_ns()
        tracer.uninstall()
    dump = tracer.dump()
    result = {
        "import_start": import_start,
        "import_end": import_end,
        "setup_end": dump["ends"][dump["names"].index("panel.load_csv")]
        if "panel.load_csv" in dump["names"]
        else None,
        "end": end,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": dump if mode == "traced" else None,
    }
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
