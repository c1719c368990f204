"""Linear lagged structural causal model simulator with fault injection.

Generates ground-truth multivariate KPI panels from a lagged linear SCM
(Gaussian noise, all edges at lag >= 1, so the graph is acyclic by time
ordering), injects hard or soft interventions at scheduled ticks, and
verifies the do-equivalence assumption: nodes that are not descendants of a
hard-intervened node keep their pre-onset distribution.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import get_type_hints

import numpy as np

from .config import read_mapping, read_value
from .errors import AnalysisError, ConfigError, FieldError
from .panel import KpiPanel, SlaRule
from .stats import ks_two_sample

_OVERFLOW_GUARD = 1e9


@dataclass(frozen=True)
class ScmSpec:
    """Node names, lagged linear coefficients, and per-node noise levels.

    Edges are (parent, child, lag, weight) with lag >= 1. An optional SLA
    metric with its breach rule rides along so scenarios are self-contained.
    """

    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str, int, float], ...] = ()
    noise_sd: tuple[float, ...] | float = 1.0
    sla: SlaRule | None = None

    def __post_init__(self):
        # values are checked against the annotations, as in scenario files
        hints = get_type_hints(ScmSpec)
        for f in fields(self):
            value = read_value(hints[f.name], getattr(self, f.name), f.name)
            object.__setattr__(self, f.name, value)
        nodes = self.nodes
        if len(set(nodes)) != len(nodes) or not nodes:
            raise FieldError("nodes must be unique and non-empty")
        for i, (parent, child, lag, _) in enumerate(self.edges):
            if parent not in nodes or child not in nodes:
                raise FieldError(f"edges[{i}] references unknown node: {parent}->{child}")
            if lag < 1:
                raise FieldError(f"edges[{i}] ({parent}->{child}) must have lag >= 1, got {lag}")
        sds = self.noise_sd
        if isinstance(sds, float):
            sds = (sds,) * len(nodes)
        elif len(sds) != len(nodes):
            raise FieldError("noise_sd must give one value per node")
        if any(s <= 0 for s in sds):
            raise FieldError(f"noise_sd must be positive, got {self.noise_sd!r}")
        if self.sla is not None and self.sla.metric not in nodes:
            raise FieldError(f"sla.metric {self.sla.metric!r} is not a node")
        object.__setattr__(self, "noise_sd", sds)

    @property
    def max_lag(self) -> int:
        return max((lag for _, _, lag, _ in self.edges), default=1)

    def lag_distances(self, source: str) -> dict[str, int]:
        """Minimum total lag along a directed path from `source` to every
        node it reaches; `source` itself is at 0."""
        dist = {source: 0}
        frontier = {source}
        while frontier:
            nxt = set()
            for parent, child, lag, _ in self.edges:
                if parent not in frontier:
                    continue
                tick = dist[parent] + lag
                if child not in dist or tick < dist[child]:
                    dist[child] = tick
                    nxt.add(child)
            frontier = nxt
        return dist


@dataclass(frozen=True)
class InterventionSpec:
    """A scheduled fault: hard pins the target to a constant (severing its
    structural equation), soft shifts the mean and/or scales the noise while
    the parents stay active."""

    target: str
    kind: str
    onset: int
    value: float | None = None
    shift: float = 0.0
    noise_scale: float = 1.0

    def __post_init__(self):
        if self.kind not in ("hard", "soft"):
            raise FieldError(f"kind must be 'hard' or 'soft', got {self.kind!r}")
        if self.kind == "hard" and self.value is None:
            raise FieldError("value is required for a hard intervention")
        if self.noise_scale < 0:
            raise FieldError(f"noise_scale must be non-negative, got {self.noise_scale}")
        if self.onset < 0:
            raise FieldError(f"onset must be non-negative, got {self.onset}")


@dataclass(frozen=True)
class GroundTruth:
    """What was actually injected: interventions (onset order), the true
    lagged edge support, and the expected deviation-propagation order."""

    interventions: tuple[InterventionSpec, ...]
    edges: tuple[tuple[str, str, int, float], ...]
    propagation: tuple[tuple[str, int], ...]  # (node, earliest affected tick)

    def onset_of(self, node: str) -> int | None:
        for name, tick in self.propagation:
            if name == node:
                return tick
        return None


def generate(
    spec: ScmSpec,
    horizon: int,
    seed: int,
) -> KpiPanel:
    """Simulate the observational (fault-free) system for `horizon` ticks:
    the panel of :func:`inject` with no interventions."""
    panel, _ = inject(
        spec,
        (),
        horizon,
        seed,
    )
    return panel


def inject(
    spec: ScmSpec,
    interventions,
    horizon: int,
    seed: int,
) -> tuple[KpiPanel, GroundTruth]:
    """Simulate with scheduled interventions.

    Deterministic in (spec, interventions, horizon, seed); a burn-in of 10x
    the maximum lag is simulated and discarded so the output is
    approximately stationary. Pre-onset ticks do not depend on the
    interventions, and a hard-intervened node is constant from its onset
    onward. Trajectories exceeding `_OVERFLOW_GUARD` flag the model as
    unstable.
    """
    ivs = tuple(interventions)
    targets = [iv.target for iv in ivs]
    if len(set(targets)) != len(targets):
        raise ConfigError("at most one intervention per target node")
    for iv in ivs:
        if iv.target not in spec.nodes:
            raise ConfigError(f"intervention target {iv.target!r} is not a node")
        if iv.onset >= horizon:
            raise ConfigError(
                f"intervention onset {iv.onset} must lie before horizon {horizon}"
            )
    max_lag = spec.max_lag
    if horizon <= max_lag:
        raise ConfigError(f"horizon must exceed the maximum lag ({max_lag})")
    burn = 10 * max_lag
    total = burn + horizon
    idx = {name: i for i, name in enumerate(spec.nodes)}
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((total, len(spec.nodes))) * np.asarray(spec.noise_sd)
    values = noise.copy()
    for t in range(total):
        out_t = t - burn
        for parent, child, lag, w in spec.edges:
            if t >= lag:
                values[t, idx[child]] += w * values[t - lag, idx[parent]]
        for iv in ivs:
            if out_t >= iv.onset:
                j = idx[iv.target]
                if iv.kind == "hard":
                    values[t, j] = iv.value
                else:
                    structural = values[t, j] - noise[t, j]
                    values[t, j] = structural + iv.noise_scale * noise[t, j] + iv.shift
    if not np.all(np.abs(values) < _OVERFLOW_GUARD):
        raise AnalysisError(
            "unstable SCM spec: simulated values exceeded the overflow guard"
        )
    panel = KpiPanel(
        ticks=np.arange(horizon),
        kpi_names=spec.nodes,
        values=values[burn:],
    )
    ordered = tuple(sorted(ivs, key=lambda iv: (iv.onset, iv.target)))
    # earliest tick each node can deviate: intervention onset plus the
    # shortest lag path from any intervened ancestor
    affected: dict[str, int] = {}
    for iv in ivs:
        for node, path in spec.lag_distances(iv.target).items():
            tick = iv.onset + path
            if node not in affected or tick < affected[node]:
                affected[node] = tick
    propagation = tuple(sorted(affected.items(), key=lambda kv: (kv[1], kv[0])))
    truth = GroundTruth(interventions=ordered, edges=spec.edges, propagation=propagation)
    return panel, truth


@dataclass(frozen=True)
class DoNodeVerdict:
    """Per-node outcome of the do-equivalence check."""

    node: str
    d: float
    p: float
    verdict: str  # "shifted" or "consistent"
    expect_shift: bool


def verify_do_equivalence(
    spec: ScmSpec,
    intervention: InterventionSpec,
    horizon: int,
    seed: int,
    *,
    alpha: float = 0.01,
) -> tuple[DoNodeVerdict, ...]:
    """Check distributional invariance under a hard intervention.

    For every node, a two-sample K-S test compares its pre-onset and
    post-onset samples. Nodes outside the intervened node's descendant set
    should be consistent (test fails to reject at `alpha` up to its size);
    the target and its descendants are expected to shift.
    """
    if intervention.kind != "hard":
        raise ConfigError("do-equivalence verification requires a hard intervention")
    if not 0 < intervention.onset < horizon:
        raise ConfigError("onset must split the horizon into two non-empty parts")
    panel, _ = inject(spec, [intervention], horizon, seed)
    shifted_set = spec.lag_distances(intervention.target).keys()
    verdicts = []
    for node in spec.nodes:
        col = panel.column(node)
        res = ks_two_sample(col[: intervention.onset], col[intervention.onset :])
        verdicts.append(
            DoNodeVerdict(
                node=node,
                d=res.d,
                p=res.p_raw,
                verdict="shifted" if res.p_raw <= alpha else "consistent",
                expect_shift=node in shifted_set,
            )
        )
    return tuple(verdicts)


@dataclass(frozen=True)
class Scenario:
    """A canned benchmark: spec, scheduled faults, and labeling geometry.

    `lead_ticks` is the expected gap between the abnormal-window start and
    the SLA breach onset, so that leading indicators deviate inside the
    analyzed window.
    """

    name: str
    spec: ScmSpec
    interventions: tuple[InterventionSpec, ...]
    horizon: int
    normal_len: int
    abnormal_len: int
    lead_ticks: int

    def build(self, seed: int) -> tuple[KpiPanel, GroundTruth]:
        return inject(self.spec, self.interventions, self.horizon, seed)


def single_root_scenario(extra_noise: int = 0) -> Scenario:
    """One hard-intervened root driving the SLA metric through a mediator,
    plus pure-noise KPIs: 5 nodes by default, `extra_noise` more if asked."""
    noise_nodes = ["sinr_avg", "rach_rate"]
    noise_nodes += [f"mac_bler_{i}" for i in range(1, extra_noise + 1)]
    nodes = ("rrc_users", "cce_util", "dl_throughput", *noise_nodes)
    spec = ScmSpec(
        nodes=nodes,
        edges=(
            ("rrc_users", "cce_util", 2, 0.9),
            ("cce_util", "dl_throughput", 2, -0.9),
        ),
        noise_sd=1.0,
        sla=SlaRule("dl_throughput", "<", -2.5, 4),
    )
    # the breach onset jitters a few ticks around 124; lead 8 with slightly
    # shortened windows keeps the labeling feasible for every seed
    return Scenario(
        name="single_root",
        spec=spec,
        interventions=(InterventionSpec("rrc_users", "hard", onset=120, value=6.0),),
        horizon=240,
        normal_len=112,
        abnormal_len=112,
        lead_ticks=8,
    )


def cascade_scenario() -> Scenario:
    """Two-stage cascade: a soft load shift, then a hard utilization pin,
    then the SLA breach, each one propagation lag apart."""
    spec = ScmSpec(
        nodes=("cce_load", "prb_util", "dl_throughput", "sinr_avg", "rach_rate"),
        edges=(
            ("cce_load", "prb_util", 8, 0.9),
            ("prb_util", "dl_throughput", 8, -0.9),
        ),
        noise_sd=1.0,
        sla=SlaRule("dl_throughput", "<", -3.0, 4),
    )
    return Scenario(
        name="cascade",
        spec=spec,
        interventions=(
            InterventionSpec("cce_load", "soft", onset=124, shift=4.0),
            InterventionSpec("prb_util", "hard", onset=132, value=6.0),
        ),
        horizon=240,
        normal_len=120,
        abnormal_len=120,
        lead_ticks=20,
    )


def null_scenario() -> Scenario:
    """The single-root graph with no intervention; the SLA never breaches."""
    base = single_root_scenario()
    return Scenario(
        name="null",
        spec=base.spec,
        interventions=(),
        horizon=240,
        normal_len=120,
        abnormal_len=120,
        lead_ticks=0,
    )


SCENARIOS = {
    "single_root": single_root_scenario,
    "cascade": cascade_scenario,
    "null": null_scenario,
}


def make_scenario(name: str) -> Scenario:
    try:
        return SCENARIOS[name]()
    except KeyError:
        raise ConfigError(
            f"unknown scenario {name!r}; available: {', '.join(sorted(SCENARIOS))}"
        ) from None


def scenario_from_mapping(doc: dict) -> Scenario:
    """Build a scenario from a declarative mapping (parsed YAML/JSON).

    Keys: name, nodes, edges [(parent, child, lag, weight)], noise_sd,
    sla {metric, comparator, threshold, min_duration_ticks},
    interventions [{target, kind, onset, value|shift|noise_scale}],
    horizon, normal_len, abnormal_len, lead_ticks. The ScmSpec keys sit
    beside the Scenario ones, and `read_mapping` checks every value.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"malformed scenario spec: expected a mapping, got {doc!r}")
    outer = {f.name for f in fields(Scenario)} - {"spec"}
    rest = {k: v for k, v in doc.items() if k in outer}
    try:
        spec = read_mapping(ScmSpec, {k: v for k, v in doc.items() if k not in outer}, "scenario")
        return read_mapping(
            Scenario,
            {"name": "custom", "interventions": [], "lead_ticks": 0, **rest, "spec": spec},
            "scenario",
        )
    except ConfigError as exc:
        raise ConfigError(f"malformed scenario spec: {exc}") from exc
