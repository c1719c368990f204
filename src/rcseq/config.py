"""Pipeline configuration: defaults, YAML loading, and CLI flags.

The config file is a YAML document with one section per stage
(input/sla/label/rcd/subgraph/cis/mc/output) plus top-level seed and jobs;
every value has a default, so an empty file (or none at all) is valid for
scenario-driven runs. Command-line flags are written into the parsed
mapping, so both pass the same checks.

Every section's dataclass is defined here, the stages' own (`RcdConfig`,
`SubgraphConfig`, `CisConfig`) included, so that reading a config loads no
analysis module. `rcd`, `subgraph` and `sequence` re-export theirs.
"""

from __future__ import annotations

from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import yaml

from .errors import ConfigError, DataError, FieldError, unreadable
from .panel import MISSING_POLICIES, SlaRule


@dataclass(frozen=True)
class LabelConfig:
    """Window geometry; None fields fall back to the scenario's geometry
    (or to 120/120/0 for CSV input)."""

    normal_len: int | None = None
    abnormal_len: int | None = None
    lead_ticks: int | None = None
    breach_index: int = 0

    def __post_init__(self):
        for what in ("normal_len", "abnormal_len"):
            if getattr(self, what) is not None and getattr(self, what) < 1:
                raise ConfigError(f"label.{what} must be >= 1 tick")
        if self.lead_ticks is not None and self.lead_ticks < 0:
            raise ConfigError("label.lead_ticks must be non-negative")
        if self.breach_index < 0:
            raise ConfigError("label.breach_index must be non-negative")


@dataclass(frozen=True)
class RcdConfig:
    """Discovery parameters: chunk size g, number of runs, CI significance,
    conditioning-set cap, and the base seed all RNG streams derive from."""

    g: int = 5
    n_runs: int = 10
    alpha: float = 0.05
    max_cond: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.g < 2:
            raise ConfigError(f"rcd.g must be >= 2, got {self.g}")
        if self.n_runs < 1:
            raise ConfigError(f"rcd.n_runs must be positive, got {self.n_runs}")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"rcd.alpha must lie in (0, 1), got {self.alpha}")
        if self.max_cond < 0:
            raise ConfigError(f"rcd.max_cond must be non-negative, got {self.max_cond}")
        if self.seed < 0:
            raise ConfigError(f"rcd.seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class SubgraphConfig:
    """Subgraph parameters: the largest lag tested, the CI significance
    level, and the cap on each conditioning set."""

    tau_max: int = 8
    alpha: float = 0.05
    max_cond: int = 3

    def __post_init__(self):
        if self.tau_max < 1:
            raise ConfigError(f"subgraph.tau_max must be >= 1, got {self.tau_max}")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"subgraph.alpha must lie in (0, 1), got {self.alpha}")
        if self.max_cond < 0:
            raise ConfigError(f"subgraph.max_cond must be non-negative, got {self.max_cond}")


CORRECTIONS = ("bonferroni", "bh_fdr", "none")


@dataclass(frozen=True)
class CisConfig:
    """Onset-scan parameters: the significance level the adjusted p must
    clear, the K-S window and its stride in ticks, the multiple-testing
    correction, and the |z| that codes a deviation direction."""

    alpha: float = 0.1
    window: int = 16
    stride: int = 4
    correction: str = "bh_fdr"
    z_thr: float = 3.0

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"cis.alpha must lie in (0, 1), got {self.alpha}")
        if self.window < 8:
            raise ConfigError(f"cis.window must be >= 8 ticks, got {self.window}")
        if self.stride < 1:
            raise ConfigError(f"cis.stride must be >= 1, got {self.stride}")
        if self.correction not in CORRECTIONS:
            raise ConfigError(
                f"cis.correction must be one of {CORRECTIONS}, got {self.correction!r}"
            )
        if self.z_thr <= 0:
            raise ConfigError(f"cis.z_thr must be positive, got {self.z_thr}")


DEFAULT_N_SET = (10, 15, 20, 25, 30, 40, 50)


def check_sweep(values, key: str, least: int) -> None:
    """Reject an empty sweep, and a sweep value below `least` or equal to an
    earlier one, naming it as key[i]: a repeat would enter the tuner's
    statistics twice."""
    if not values:
        raise ConfigError(f"{key} must be non-empty")
    for i, value in enumerate(values):
        if value < least:
            raise ConfigError(f"{key}[{i}] must be >= {least}, got {value}")
        if value in values[:i]:
            raise ConfigError(f"{key}[{i}] repeats the value {value}")


@dataclass(frozen=True)
class McConfig:
    """Monte Carlo sweep; g_values None means 3..V for the loaded panel."""

    g_values: tuple[int, ...] | None = None
    n_values: tuple[int, ...] = DEFAULT_N_SET
    p_thr: float = 0.4
    n_mode: str = "proportional"

    def __post_init__(self):
        if self.g_values is not None:
            check_sweep(self.g_values, "mc.g_values", least=2)
        check_sweep(self.n_values, "mc.n_values", least=1)
        if not 0.0 <= self.p_thr <= 1.0:
            raise ConfigError("mc.p_thr must lie in [0, 1]")
        if self.n_mode not in ("proportional", "absolute"):
            raise ConfigError("mc.n_mode must be 'proportional' or 'absolute'")


@dataclass(frozen=True)
class PipelineConfig:
    """Effective settings. A field's metadata `key` is where the config file
    keeps it, when that is not the field name."""

    input_csv: str | None = field(default=None, metadata={"key": "input.csv"})
    scenario: str | None = field(default=None, metadata={"key": "input.scenario"})
    scenario_file: str | None = field(default=None, metadata={"key": "input.scenario_file"})
    missing: str = field(default="fail", metadata={"key": "input.missing"})
    granularity_seconds: int = field(default=15, metadata={"key": "input.granularity_seconds"})
    sla: SlaRule | None = None
    label: LabelConfig = field(default_factory=LabelConfig)
    rcd: RcdConfig = field(default_factory=RcdConfig)
    subgraph: SubgraphConfig = field(default_factory=SubgraphConfig)
    cis: CisConfig = field(default_factory=CisConfig)
    mc: McConfig = field(default_factory=McConfig)
    candidate_threshold: float = 0.5
    include_sla_in_rcd: bool = False
    seed: int = 0
    out_dir: str = field(default="out", metadata={"key": "output.dir"})
    jobs: int = 1  # accepted for compatibility; nothing reads it

    def __post_init__(self):
        if self.missing not in MISSING_POLICIES:
            raise ConfigError(f"input.missing must be one of {MISSING_POLICIES}")
        if self.granularity_seconds < 1:
            raise ConfigError("input.granularity_seconds must be >= 1")
        if not 0.0 <= self.candidate_threshold <= 1.0:
            raise ConfigError("candidate_threshold must lie in [0, 1]")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1")

    def echo(self) -> dict:
        """JSON-safe dump of the effective analysis settings, for report
        provenance. The output directory and `jobs`, which is accepted for
        compatibility and read by nothing, are excluded so that reruns are
        byte-identical regardless of where they write and what they pass."""
        doc = asdict(self)
        doc.pop("out_dir", None)
        doc.pop("jobs", None)
        return doc


_SCALARS = {bool: "true or false", int: "an integer", float: "a number", str: "a string"}


def _join(what: str, key) -> str:
    return f"{what}.{key}" if what else str(key)


def _mapping(value, what: str) -> dict:
    """A parsed YAML section; an empty one (null) reads as {}."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{what or 'config'} must be a mapping, got {value!r}")
    return value


def read_value(tp, value, key: str):
    """`value` checked against the annotation `tp`: int takes an integer,
    float any number (widened to float), bool and str their own type, and a
    bool is no number. Tuples read from lists, `X | None` takes null, and a
    dataclass reads from a mapping (null: all defaults) or is passed built."""
    if isinstance(tp, UnionType):
        args = get_args(tp)
        if value is None and type(None) in args:
            return None
        arms = [arg for arg in args if arg is not type(None)]
        if isinstance(value, (list, tuple)):
            # only a tuple arm can read a list, and its error names the bad item
            arms = [arg for arg in arms if get_origin(arg) is tuple] or arms
        for arg in arms:
            try:
                return read_value(arg, value, key)
            except ConfigError as exc:
                error = exc
        raise error
    if is_dataclass(tp):
        return value if isinstance(value, tp) else read_mapping(tp, value, key)
    if get_origin(tp) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{key} must be a list, got {value!r}")
        args = get_args(tp)
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        elif len(args) != len(value):
            raise ConfigError(f"{key} must be a list of {len(args)} items, got {value!r}")
        return tuple(
            read_value(arg, item, f"{key}[{i}]")
            for i, (arg, item) in enumerate(zip(args, value))
        )
    if isinstance(value, (int, float) if tp is float else tp) and (
        tp is bool or not isinstance(value, bool)
    ):
        return float(value) if tp is float else value
    raise ConfigError(f"{key} must be {_SCALARS[tp]}, got {value!r}")


def read_mapping(cls, doc, what: str):
    """The dataclass `cls` built from a parsed YAML mapping.

    Every key must name a field; a field whose metadata holds a dotted `key`
    (such as "input.csv") is read from that sub-mapping. Each value must fit
    its field's annotation, and fields left out keep their defaults. Errors
    are ConfigErrors naming the key, dotted below `what`.
    """
    hints = get_type_hints(cls)
    by_key = {f.metadata.get("key", f.name): f for f in fields(cls) if f.init}
    groups = {key.split(".")[0] for key in by_key if "." in key}
    flat = {}
    for key, value in _mapping(doc, what).items():
        if key in groups:
            section = _mapping(value, _join(what, key))
            flat.update((f"{key}.{sub}", item) for sub, item in section.items())
        else:
            flat[key] = value
    values = {}
    for key, value in flat.items():
        if key not in by_key:
            raise ConfigError(f"unknown key {_join(what, key)}")
        name = by_key[key].name
        values[name] = read_value(hints[name], value, _join(what, key))
    for key, f in by_key.items():
        if f.name not in values and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"missing key {_join(what, key)}")
    try:
        return cls(**values)
    except (DataError, FieldError) as exc:
        # a data class such as SlaRule or ScmSpec names the field, and `what` its section
        raise ConfigError(_join(what, exc)) from exc


def config_from_mapping(doc) -> PipelineConfig:
    """PipelineConfig from a parsed config; rcd.seed defaults to the seed."""
    cfg = read_mapping(PipelineConfig, doc, "")
    if "seed" in ((doc or {}).get("rcd") or {}):
        return cfg
    return replace(cfg, rcd=replace(cfg.rcd, seed=cfg.seed))


# The config keys each command-line flag sets, by argparse dest. An input flag
# names the input source, so it also clears the other two.
FLAG_KEYS = {
    "seed": ("seed", "rcd.seed"),
    "out": ("output.dir",),
    "jobs": ("jobs",),
    "cis_alpha": ("cis.alpha",),
    "input": ("input.csv",),
    "scenario": ("input.scenario",),
    "scenario_file": ("input.scenario_file",),
}


def read_yaml(path, what: str):
    """The parsed document of the YAML file at `path` that the user named as
    their `what` ("config file", "scenario file"). A file that is missing,
    unreadable or not YAML is a ConfigError naming its path."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ConfigError(f"{what} not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise unreadable(ConfigError, what, path, exc) from None
    try:
        return yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"could not parse {what} {path}: {exc}") from exc


def load_config(path=None, **flags) -> PipelineConfig:
    """The config file at `path` (None: all defaults) with the command-line
    `flags` (FLAG_KEYS names; None means not given) written into it."""
    doc = {} if path is None else _mapping(read_yaml(path, "config file"), "")
    for flag, value in flags.items():
        if value is None:
            continue
        for dotted in FLAG_KEYS[flag]:
            section, _, key = dotted.rpartition(".")
            target = doc
            if section:
                target = doc[section] = dict(_mapping(doc.get(section), section))
            if section == "input":
                target.update(csv=None, scenario=None, scenario_file=None)
            target[key] = value
    return config_from_mapping(doc)
