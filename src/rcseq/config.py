"""Pipeline configuration: defaults, YAML loading, and CLI overrides.

The config file is a YAML document with one section per stage
(input/sla/label/rcd/subgraph/cis/mc/output) plus top-level seed and jobs;
every value has a default, so an empty file (or none at all) is valid for
scenario-driven runs.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import yaml

from .errors import ConfigError, DataError
from .panel import MISSING_POLICIES, SlaRule
from .rcd import RcdConfig
from .tuner import DEFAULT_N_SET


@dataclass(frozen=True)
class LabelConfig:
    """Window geometry; None fields fall back to the scenario's geometry
    (or to 120/120/0 for CSV input)."""

    normal_len: int | None = None
    abnormal_len: int | None = None
    lead_ticks: int | None = None
    breach_index: int = 0

    def __post_init__(self):
        for name in ("normal_len", "abnormal_len", "lead_ticks"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, int):
                raise ConfigError(f"label {name} must be an integer, got {value!r}")
        if self.breach_index < 0:
            raise ConfigError("breach_index must be non-negative")


@dataclass(frozen=True)
class SubgraphConfig:
    tau_max: int = 8
    alpha: float = 0.05
    max_cond: int = 3

    def __post_init__(self):
        if self.tau_max < 1:
            raise ConfigError("tau_max must be >= 1")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError("subgraph alpha must lie in (0, 1)")
        if self.max_cond < 0:
            raise ConfigError("max_cond must be non-negative")


@dataclass(frozen=True)
class CisConfig:
    alpha: float = 0.1
    window: int = 16
    stride: int = 4
    correction: str = "bh_fdr"
    z_thr: float = 3.0

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError("cis alpha must lie in (0, 1)")
        if self.window < 8:
            raise ConfigError("cis window must be >= 8 ticks")
        if self.stride < 1:
            raise ConfigError("cis stride must be >= 1")
        if self.correction not in ("bonferroni", "bh_fdr", "none"):
            raise ConfigError(f"unknown correction {self.correction!r}")
        if self.z_thr <= 0:
            raise ConfigError("z threshold must be positive")


@dataclass(frozen=True)
class McConfig:
    """Monte Carlo sweep; g_values None means 3..V for the loaded panel."""

    g_values: tuple[int, ...] | None = None
    n_values: tuple[int, ...] = DEFAULT_N_SET
    p_thr: float = 0.4
    n_mode: str = "proportional"

    def __post_init__(self):
        if not self.n_values:
            raise ConfigError("mc n_values must be non-empty")
        if self.n_mode not in ("proportional", "absolute"):
            raise ConfigError("mc n_mode must be 'proportional' or 'absolute'")
        if self.g_values is not None:
            object.__setattr__(self, "g_values", tuple(int(g) for g in self.g_values))
        object.__setattr__(self, "n_values", tuple(int(n) for n in self.n_values))


@dataclass(frozen=True)
class PipelineConfig:
    input_csv: str | None = None
    scenario: str | None = None
    scenario_file: str | None = None
    missing: str = "fail"
    granularity_seconds: int = 15
    sla: SlaRule | None = None
    label: LabelConfig = field(default_factory=LabelConfig)
    rcd: RcdConfig = field(default_factory=RcdConfig)
    subgraph: SubgraphConfig = field(default_factory=SubgraphConfig)
    cis: CisConfig = field(default_factory=CisConfig)
    mc: McConfig = field(default_factory=McConfig)
    candidate_threshold: float = 0.5
    include_sla_in_rcd: bool = False
    seed: int = 0
    out_dir: str = "out"
    jobs: int = 1

    def __post_init__(self):
        if self.missing not in MISSING_POLICIES:
            raise ConfigError(f"missing policy must be one of {MISSING_POLICIES}")
        if not 0.0 <= self.candidate_threshold <= 1.0:
            raise ConfigError("candidate_threshold must lie in [0, 1]")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1")

    def echo(self) -> dict:
        """JSON-safe dump of the effective analysis settings, for report
        provenance. Execution details that must not influence results
        (output directory, worker count) are excluded so that reruns are
        byte-identical regardless of where and how wide they execute."""
        doc = asdict(self)
        doc["sla"] = asdict(self.sla) if self.sla else None
        doc.pop("out_dir", None)
        doc.pop("jobs", None)
        return doc


def _section(doc: dict, name: str) -> dict:
    section = doc.get(name) or {}
    if not isinstance(section, dict):
        raise ConfigError(f"config section {name!r} must be a mapping")
    return dict(section)


def _build(cls, section: dict, what: str):
    try:
        return cls(**section)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {what} config: {exc}") from exc


def _typed(convert, value, what: str):
    """convert(value), reporting a malformed value as a ConfigError."""
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{what} must be {convert.__name__}, got {value!r}") from exc


def config_from_mapping(doc: dict) -> PipelineConfig:
    doc = dict(doc or {})
    inp = _section(doc, "input")
    sla_doc = _section(doc, "sla")
    sla = None
    if sla_doc:
        try:
            sla = SlaRule.from_mapping(sla_doc)
        except KeyError as exc:
            raise ConfigError(f"sla section missing field: {exc}") from exc
        except (TypeError, ValueError, DataError) as exc:
            raise ConfigError(f"bad sla config: {exc}") from exc
    include_sla_in_rcd = doc.get("include_sla_in_rcd", False)
    if not isinstance(include_sla_in_rcd, bool):
        raise ConfigError(
            f"include_sla_in_rcd must be true or false, got {include_sla_in_rcd!r}"
        )
    seed = _typed(int, doc.get("seed", 0), "seed")
    out = _section(doc, "output")
    rcd_section = _section(doc, "rcd")
    # the top-level seed is the master seed; rcd keeps its own only when set
    rcd_section.setdefault("seed", seed)
    return PipelineConfig(
        input_csv=inp.get("csv"),
        scenario=inp.get("scenario"),
        scenario_file=inp.get("scenario_file"),
        missing=inp.get("missing", "fail"),
        granularity_seconds=_typed(
            int, inp.get("granularity_seconds", 15), "input.granularity_seconds"
        ),
        sla=sla,
        label=_build(LabelConfig, _section(doc, "label"), "label"),
        rcd=_build(RcdConfig, rcd_section, "rcd"),
        subgraph=_build(SubgraphConfig, _section(doc, "subgraph"), "subgraph"),
        cis=_build(CisConfig, _section(doc, "cis"), "cis"),
        mc=_build(McConfig, _section(doc, "mc"), "mc"),
        candidate_threshold=_typed(
            float, doc.get("candidate_threshold", 0.5), "candidate_threshold"
        ),
        include_sla_in_rcd=include_sla_in_rcd,
        seed=seed,
        out_dir=str(out.get("dir", "out")),
        jobs=_typed(int, doc.get("jobs", 1), "jobs"),
    )


def load_config(path=None) -> PipelineConfig:
    if path is None:
        return PipelineConfig()
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        doc = yaml.safe_load(path.read_text(encoding="utf-8"))
    except yaml.YAMLError as exc:
        raise ConfigError(f"could not parse config {path}: {exc}") from exc
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise ConfigError(f"config root must be a mapping, got {type(doc).__name__}")
    return config_from_mapping(doc)


def apply_overrides(
    cfg: PipelineConfig,
    *,
    seed: int | None = None,
    out_dir: str | None = None,
    jobs: int | None = None,
    cis_alpha: float | None = None,
    input_csv: str | None = None,
    scenario: str | None = None,
    scenario_file: str | None = None,
) -> PipelineConfig:
    """Fold command-line flags over a loaded config."""
    if seed is not None:
        cfg = replace(cfg, seed=seed, rcd=replace(cfg.rcd, seed=seed))
    if out_dir is not None:
        cfg = replace(cfg, out_dir=out_dir)
    if jobs is not None:
        cfg = replace(cfg, jobs=jobs)
    if cis_alpha is not None:
        cfg = replace(cfg, cis=replace(cfg.cis, alpha=cis_alpha))
    if input_csv is not None:
        cfg = replace(cfg, input_csv=input_csv, scenario=None, scenario_file=None)
    if scenario is not None:
        cfg = replace(cfg, scenario=scenario, input_csv=None, scenario_file=None)
    if scenario_file is not None:
        cfg = replace(cfg, scenario_file=scenario_file, input_csv=None, scenario=None)
    return cfg
