"""Command-line pipeline orchestration.

Subcommands: synth, label, discover, subgraph, sequence, tune,
compare-states, run-all. Exit codes: 0 success, 2 configuration error,
3 data error, 4 analysis error.

Each command loads only the stage modules it runs (`COMMAND_STAGES`):
`main` imports them once the command is known, before it reads any input.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import sys
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

from . import __version__
from .config import FLAG_KEYS, PipelineConfig, load_config, read_yaml
from .errors import AnalysisError, ConfigError, DataError, RcseqError
from .panel import LabeledPanel, SlaRule, apply_sla_rule, label_states, load_csv, save_csv
from .report import (
    OutputBundle,
    diff_to_dict,
    runs_to_dict,
    subgraph_to_dict,
    write_cis,
    write_cis_dot,
    write_frequency_csv,
    write_histograms_csv,
    write_json,
    write_subgraph_dot,
    write_traces_csv,
    write_tuning_csv,
    write_tuning_params,
)

if TYPE_CHECKING:
    # the stage names are bound at run time by _load_stages
    from .rcd import FrequencyTable, discovery_kpis, rcd_runs
    from .scm import Scenario
    from .sequence import CisReport, assemble_cis, detect_events, deviation_traces
    from .subgraph import CausalSubgraph, build_subgraph, graph_diff
    from .tuner import consolidate, prominent_sources, run_grid, tuning_rows, variance_trend

# The names this module takes from each stage module. `main` binds the ones
# of the command's stages as globals of this module, where the commands
# look them up when they call them.
STAGE_NAMES = {
    "rcd": ("FrequencyTable", "discovery_kpis", "rcd_runs"),
    "subgraph": ("CausalSubgraph", "build_subgraph", "graph_diff"),
    "sequence": ("CisReport", "assemble_cis", "detect_events", "deviation_traces"),
    "tuner": ("consolidate", "prominent_sources", "run_grid", "tuning_rows", "variance_trend"),
}

# The stage modules each command runs; label and synth run none (scenario
# input loads the simulator, rcseq.scm, on its own).
COMMAND_STAGES = {
    "synth": (),
    "label": (),
    "discover": ("rcd",),
    "subgraph": ("rcd", "subgraph"),
    "sequence": ("rcd", "subgraph", "sequence"),
    "tune": ("rcd", "tuner"),
    "compare-states": ("subgraph",),
    "run-all": ("rcd", "subgraph", "sequence"),
}

_STAGE_OF = {name: stage for stage, names in STAGE_NAMES.items() for name in names}


def _stage_module(stage: str):
    return importlib.import_module(f".{stage}", __package__)


def _load_stages(command: str) -> None:
    """Import the command's stage modules and bind the names it takes from
    them. A name that is bound already, such as a wrapper a tracer put in
    its place, is kept."""
    for stage in COMMAND_STAGES[command]:
        module = _stage_module(stage)
        for name in STAGE_NAMES[stage]:
            globals().setdefault(name, getattr(module, name))


def __getattr__(name: str):
    # Resolves a stage name that no command has bound yet, importing its
    # module. It exists only for the benchmark's tracer (bench/tracer.py),
    # which reads and patches names such as `rcd_runs` and `build_subgraph`
    # on this module before `main` runs; delete it with that patching.
    if name not in _STAGE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_stage_module(_STAGE_OF[name]), name)


EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_ANALYSIS = 4


def _load_scenario(cfg: PipelineConfig) -> Scenario | None:
    if not (cfg.scenario or cfg.scenario_file):
        return None
    # the simulator is loaded only for scenario input and synth
    from .scm import make_scenario, scenario_from_mapping

    if cfg.scenario:
        return make_scenario(cfg.scenario)
    return scenario_from_mapping(read_yaml(cfg.scenario_file, "scenario file") or {})


def _load_input(cfg: PipelineConfig):
    """Resolve the configured input into (panel, sla, scenario-or-None)."""
    scenario = _load_scenario(cfg)
    if scenario is not None:
        panel, _ = scenario.build(cfg.seed)
        sla = cfg.sla or scenario.spec.sla
        if sla is None:
            raise ConfigError("scenario defines no SLA rule and none was configured")
        return panel, sla, scenario
    if cfg.input_csv:
        panel = load_csv(
            cfg.input_csv,
            missing=cfg.missing,
            granularity_seconds=cfg.granularity_seconds,
        )
        if cfg.sla is None:
            raise ConfigError("CSV input requires an sla section in the config")
        return panel, cfg.sla, None
    raise ConfigError("no input configured: set input.csv, input.scenario, or input.scenario_file")


_CSV_GEOMETRY = {"normal_len": 120, "abnormal_len": 120, "lead_ticks": 0}


def _label_geometry(cfg: PipelineConfig, scenario: Scenario | None):
    """(normal_len, abnormal_len, lead_ticks): a setting the config leaves
    unset takes the scenario's value, or _CSV_GEOMETRY's for CSV input."""
    fallback = _CSV_GEOMETRY if scenario is None else {k: getattr(scenario, k) for k in _CSV_GEOMETRY}
    return tuple(
        fallback[key] if getattr(cfg.label, key) is None else getattr(cfg.label, key)
        for key in _CSV_GEOMETRY
    )


def _stage_label(cfg: PipelineConfig, panel, sla: SlaRule, scenario):
    """Returns (labeled, breaches) or (None, []) when the SLA never breaches."""
    breaches = apply_sla_rule(panel, sla)
    if not breaches:
        return None, []
    if cfg.label.breach_index >= len(breaches):
        raise DataError(
            f"breach_index {cfg.label.breach_index} out of range "
            f"({len(breaches)} breach ranges found)"
        )
    normal_len, abnormal_len, lead = _label_geometry(cfg, scenario)
    labeled = label_states(
        panel,
        breaches[cfg.label.breach_index],
        normal_len,
        abnormal_len,
        lead_ticks=lead,
    )
    return labeled, breaches


def _labeled_or_fail(cfg: PipelineConfig, what: str) -> tuple[LabeledPanel, SlaRule]:
    """Load and label the input; an SLA that never breaches is a data error."""
    panel, sla, scenario = _load_input(cfg)
    labeled, _ = _stage_label(cfg, panel, sla, scenario)
    if labeled is None:
        raise DataError(f"no SLA breach found; nothing to {what}")
    return labeled, sla


def _rcd_exclude(cfg: PipelineConfig, sla: SlaRule) -> tuple[str, ...]:
    return () if cfg.include_sla_in_rcd else (sla.metric,)


def _stage_discover(cfg: PipelineConfig, labeled: LabeledPanel, sla: SlaRule):
    exclude = _rcd_exclude(cfg, sla)
    runs = rcd_runs(labeled, cfg.rcd, exclude=exclude)
    names = discovery_kpis(labeled, exclude)
    table = FrequencyTable.from_runs(names, runs)
    candidates = [
        kpi
        for kpi, proportion in zip(names, table.proportions)
        if proportion >= cfg.candidate_threshold
    ]
    return table, runs, candidates


def _scan_set(candidates, sla: SlaRule) -> list[str]:
    return list(dict.fromkeys([*candidates, sla.metric]))


def _cis_config_echo(cfg: PipelineConfig) -> dict:
    return {
        "cis_alpha": cfg.cis.alpha,
        "window": cfg.cis.window,
        "stride": cfg.cis.stride,
        "correction": cfg.cis.correction,
        "z_thr": cfg.cis.z_thr,
    }


def _metadata(cfg: PipelineConfig, **extra) -> dict:
    doc = {"version": __version__, "config": cfg.echo()}
    doc.update(extra)
    return doc


def cmd_synth(cfg: PipelineConfig) -> int:
    with OutputBundle(cfg.out_dir) as bundle:
        scenario = _load_scenario(cfg)
        if scenario is None:
            raise ConfigError("synth requires input.scenario or input.scenario_file")
        panel, truth = scenario.build(cfg.seed)
        save_csv(panel, bundle.path(f"{scenario.name}_panel.csv"))
        write_json(
            bundle.path(f"{scenario.name}_truth.json"),
            {
                "scenario": scenario.name,
                "seed": cfg.seed,
                "horizon": scenario.horizon,
                "normal_len": scenario.normal_len,
                "abnormal_len": scenario.abnormal_len,
                "lead_ticks": scenario.lead_ticks,
                "sla": asdict(scenario.spec.sla) if scenario.spec.sla else None,
                "interventions": [asdict(iv) for iv in truth.interventions],
                "edges": [list(e) for e in truth.edges],
                "propagation": [[n, t] for n, t in truth.propagation],
            },
        )
    return EXIT_OK


def cmd_label(cfg: PipelineConfig) -> int:
    with OutputBundle(cfg.out_dir) as bundle:
        panel, sla, scenario = _load_input(cfg)
        labeled, breaches = _stage_label(cfg, panel, sla, scenario)
        write_json(
            bundle.path("labels.json"),
            {
                "sla": asdict(sla),
                "breaches": [list(b) for b in breaches],
                "normal_window": list(labeled.normal_window) if labeled else None,
                "abnormal_window": list(labeled.abnormal_window) if labeled else None,
            },
        )
    return EXIT_OK


def cmd_discover(cfg: PipelineConfig) -> int:
    with OutputBundle(cfg.out_dir) as bundle:
        labeled, sla = _labeled_or_fail(cfg, "discover")
        table, runs, candidates = _stage_discover(cfg, labeled, sla)
        write_frequency_csv(bundle, table)
        write_json(
            bundle.path("rcd_runs.json"),
            _metadata(cfg, candidates=candidates, runs=runs_to_dict(runs)),
        )
    return EXIT_OK


def cmd_subgraph(cfg: PipelineConfig) -> int:
    with OutputBundle(cfg.out_dir) as bundle:
        labeled, sla = _labeled_or_fail(cfg, "analyze")
        _, _, candidates = _stage_discover(cfg, labeled, sla)
        graph = build_subgraph(
            labeled.window_panel("normal"), _scan_set(candidates, sla), cfg.subgraph
        )
        write_subgraph_dot(bundle, graph, "subgraph.dot")
        write_json(bundle.path("subgraph.json"), subgraph_to_dict(graph))
    return EXIT_OK


@dataclass(frozen=True)
class PipelineRun:
    """What `sequence` and `run-all` report from one labeled breach."""

    labeled: LabeledPanel
    breaches: list
    table: FrequencyTable
    runs: list
    candidates: list
    nodes: list
    events: tuple
    report: CisReport


def _run_pipeline(cfg: PipelineConfig) -> PipelineRun | None:
    """Shared label -> discover -> subgraph -> sequence execution; None when
    the SLA never breaches."""
    panel, sla, scenario = _load_input(cfg)
    labeled, breaches = _stage_label(cfg, panel, sla, scenario)
    if labeled is None:
        return None
    table, runs, candidates = _stage_discover(cfg, labeled, sla)
    nodes = _scan_set(candidates, sla)
    graph = build_subgraph(labeled.window_panel("normal"), nodes, cfg.subgraph)
    events = detect_events(labeled, nodes, cfg.cis)
    report = assemble_cis(graph, events, sla.metric, config=_cis_config_echo(cfg))
    return PipelineRun(
        labeled=labeled,
        breaches=breaches,
        table=table,
        runs=runs,
        candidates=candidates,
        nodes=nodes,
        events=events,
        report=report,
    )


def _write_sequence(
    bundle: OutputBundle, cfg: PipelineConfig, state: PipelineRun | None
) -> None:
    """cis.json and deviation_traces.csv; with no breach, a cis.json with no
    steps and no traces."""
    if state is None:
        empty = CisReport((), CausalSubgraph((), ()), (), (), _cis_config_echo(cfg))
        write_cis(bundle, empty)
        return
    write_cis(bundle, state.report)
    traces, kpis = deviation_traces(state.labeled, state.events, state.nodes, cfg.cis)
    write_traces_csv(bundle, state.labeled.panel.ticks, traces, kpis)


def cmd_sequence(cfg: PipelineConfig) -> int:
    with OutputBundle(cfg.out_dir) as bundle:
        state = _run_pipeline(cfg)
        _write_sequence(bundle, cfg, state)
    return EXIT_OK


def cmd_run_all(cfg: PipelineConfig) -> int:
    with OutputBundle(cfg.out_dir) as bundle:
        state = _run_pipeline(cfg)
        _write_sequence(bundle, cfg, state)
        if state is None:
            write_json(
                bundle.path("run_metadata.json"),
                _metadata(cfg, breaches=[], no_breach=True),
            )
            return EXIT_OK
        labeled = state.labeled
        write_cis_dot(bundle, state.report)
        write_histograms_csv(bundle, labeled, state.nodes)
        write_json(
            bundle.path("run_metadata.json"),
            _metadata(
                cfg,
                breaches=[list(b) for b in state.breaches],
                normal_window=list(labeled.normal_window),
                abnormal_window=list(labeled.abnormal_window),
                candidates=state.candidates,
                frequencies=dict(
                    zip(state.table.kpi_names, state.table.proportions.tolist())
                ),
                runs=runs_to_dict(state.runs),
            ),
        )
    return EXIT_OK


def cmd_tune(cfg: PipelineConfig) -> int:
    with OutputBundle(cfg.out_dir) as bundle:
        labeled, sla = _labeled_or_fail(cfg, "tune against")
        v = labeled.panel.n_kpis
        g_values = cfg.mc.g_values
        if g_values is None:
            g_values = tuple(range(3, v + 1))
            if not g_values:
                raise ConfigError(
                    f"mc.g_values defaults to 3..V, which is empty for this panel's {v} KPIs;"
                    " set mc.g_values"
                )
        for i, g in enumerate(g_values):
            if g > v:
                raise ConfigError(
                    f"mc.g_values[{i}] must not exceed the panel KPI count ({v}), got {g}"
                )
        grid = run_grid(
            labeled,
            g_values=g_values,
            n_values=cfg.mc.n_values,
            base_cfg=cfg.rcd,
            seed=cfg.seed,
            exclude=_rcd_exclude(cfg, sla),
        )
        rows = tuning_rows(grid, n_mode=cfg.mc.n_mode)
        prominent = prominent_sources(rows, p_thr=cfg.mc.p_thr)
        params = None
        if prominent:
            params = consolidate(rows, prominent)
        trends = None
        if len(grid.n_values) >= 3:
            trends = [variance_trend(grid, kpi) for kpi in grid.kpi_names]
        write_tuning_csv(bundle, rows)
        write_tuning_params(bundle, params, trends, cfg.mc.p_thr)
    return EXIT_OK


def cmd_compare_states(cfg: PipelineConfig) -> int:
    with OutputBundle(cfg.out_dir) as bundle:
        labeled, _ = _labeled_or_fail(cfg, "compare")
        nodes = tuple(labeled.panel.kpi_names)
        normal = build_subgraph(labeled.window_panel("normal"), nodes, cfg.subgraph)
        abnormal = build_subgraph(labeled.window_panel("abnormal"), nodes, cfg.subgraph)
        diff = graph_diff(normal, abnormal)
        write_subgraph_dot(bundle, normal, "subgraph_normal.dot")
        write_subgraph_dot(bundle, abnormal, "subgraph_abnormal.dot")
        write_json(bundle.path("graph_diff.json"), diff_to_dict(diff))
    return EXIT_OK


COMMANDS = {
    "synth": cmd_synth,
    "label": cmd_label,
    "discover": cmd_discover,
    "subgraph": cmd_subgraph,
    "sequence": cmd_sequence,
    "tune": cmd_tune,
    "compare-states": cmd_compare_states,
    "run-all": cmd_run_all,
}


def _common_options() -> argparse.ArgumentParser:
    """The options every subcommand takes, as a parent parser."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="YAML config file")
    common.add_argument("--seed", type=int, help="master seed override")
    common.add_argument("--out", help="output directory override")
    common.add_argument("--jobs", type=int, help="accepted for compatibility; has no effect")
    common.add_argument("--cis-alpha", type=float, help="CIS significance override")
    common.add_argument("--input", help="input panel CSV (overrides config)")
    common.add_argument("--scenario", help="canned scenario name (overrides config)")
    common.add_argument("--scenario-file", help="declarative scenario YAML (overrides config)")
    return common


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rcseq",
        description="Root-cause sequence analysis for multivariate KPI telemetry",
    )
    parser.add_argument("--version", action="version", version=f"rcseq {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)
    help_text = {
        "synth": "generate a synthetic fault scenario (panel CSV + ground truth JSON)",
        "label": "evaluate the SLA rule and emit the window labeling",
        "discover": "run root-cause discovery and emit the frequency table",
        "subgraph": "build the normal-state causal subgraph over the candidates",
        "sequence": "emit the causal intervention sequence report",
        "tune": "Monte Carlo parameter sweep and consolidated g*/n*",
        "compare-states": "diff normal-state vs abnormal-state subgraphs",
        "run-all": "full pipeline: label, discover, subgraph, sequence, reports",
    }
    common = _common_options()
    for name, fn in COMMANDS.items():
        sub = subparsers.add_parser(name, help=help_text[name], parents=[common])
        sub.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    """Process entry point of the `rcseq` command; returns its exit code.

    Once the arguments name the command, `main` imports the stage modules
    it runs (`COMMAND_STAGES`; `label`, `synth`, `--help` and `--version`
    import none) and then calls `gc.freeze()`, before it reads the config
    or any input. Every object alive then (the interpreter's, numpy's,
    PyYAML's and rcseq's modules, classes and functions, the command's
    stage modules included, all made by import) moves to the collector's
    permanent generation. Those objects live until the process ends, and
    frozen, they are skipped by the collections the interpreter runs at
    exit, so a fresh process no longer tears them down one by one. Objects
    that `main` creates after the freeze are collected as before.

    A long-lived caller, such as a service or a test run, should call the
    stage functions (`load_csv`, `rcd_runs`, `build_subgraph`, ...)
    directly, or call `gc.unfreeze()` after `main`, so that its own garbage
    alive at the call is not kept for the rest of the process.
    """
    args = build_parser().parse_args(argv)
    _load_stages(args.command)
    gc.freeze()
    try:
        cfg = load_config(args.config, **{f: getattr(args, f) for f in FLAG_KEYS})
        return args.fn(cfg)
    except ConfigError as exc:
        print(f"rcseq: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"rcseq: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (AnalysisError, RcseqError) as exc:
        print(f"rcseq: analysis error: {exc}", file=sys.stderr)
        return EXIT_ANALYSIS


if __name__ == "__main__":
    sys.exit(main())
