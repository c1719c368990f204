"""Normal-state lagged causal subgraph over the root-cause candidates.

Two-stage time-series discovery: per-target lagged condition selection
(iterative partial-correlation screening against the strongest current
parents), then a momentary-conditional-independence check of every
surviving link conditioned on the set of both endpoints' parents. All
edges carry a lag of at least one tick, so the graph is acyclic by
construction.

A window's work is a few array operations: one lagged design shared by
every target, one kernel call for every target's level 0, one QR per
screening level, and one batched QR per group of MCI tests with the same
rows and conditioning-set size.

Self-dependencies (a KPI explaining itself at some lag) participate as
conditioning context but are not emitted as subgraph edges; the subgraph
relates distinct indicators.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import AnalysisError, ConfigError, DataError
from .panel import KpiPanel
# ci_test is no longer called here; the binding stays for the benchmark's
# tracer (bench/tracer.py), which hooks it by this module's name
from .stats import ci_test, marginal_ci, screen_ci, stacked_ci  # noqa: F401

__all__ = [
    "SubgraphConfig",
    "LaggedEdge",
    "CausalSubgraph",
    "GraphDiff",
    "select_lagged_parents",
    "mci_edge_test",
    "build_subgraph",
    "graph_diff",
    "to_dot",
]


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


@dataclass(frozen=True)
class LaggedEdge:
    """Directed lagged edge source -> target with its MCI statistics."""

    source: str
    target: str
    lag: int
    r: float
    p: float

    def __post_init__(self):
        if self.lag < 1:
            raise DataError(f"edge lag must be >= 1, got {self.lag}")

    @property
    def key(self) -> tuple[str, str, int]:
        return (self.source, self.target, self.lag)


@dataclass(frozen=True)
class CausalSubgraph:
    """Candidate KPIs plus the SLA indicator, joined by lagged edges."""

    nodes: tuple[str, ...]
    edges: tuple[LaggedEdge, ...]

    def __post_init__(self):
        nodes = tuple(self.nodes)
        if len(set(nodes)) != len(nodes):
            raise DataError("duplicate node")
        for edge in self.edges:
            if edge.source not in nodes or edge.target not in nodes:
                raise DataError(f"edge endpoint missing from node list: {edge.key}")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "edges", tuple(self.edges))

    def edge_keys(self) -> set[tuple[str, str, int]]:
        return {e.key for e in self.edges}


@dataclass(frozen=True)
class GraphDiff:
    """Set difference of two subgraphs on (source, target, lag) triples."""

    added: tuple[tuple[str, str, int], ...]
    removed: tuple[tuple[str, str, int], ...]
    common: tuple[tuple[str, str, int], ...]


def _lagged_design(panel: KpiPanel, nodes, tau_max: int):
    """The matrix of every (node, lag) candidate's series aligned on rows
    tau_max..T, one column per candidate, and the candidates in column
    order, which is sorted order."""
    t = panel.n_ticks
    names = sorted(set(nodes))
    idx = [panel.index_of(name) for name in names]
    design = np.empty((t - tau_max, len(names), tau_max))
    for tau in range(1, tau_max + 1):
        design[:, :, tau - 1] = panel.values[tau_max - tau : t - tau, idx]
    keys = [(name, tau) for name in names for tau in range(1, tau_max + 1)]
    return design.reshape(t - tau_max, -1), keys


# Screening sweeps select_lagged_parents makes at most per target.
MAX_PARENT_SWEEPS = 10


def select_lagged_parents(
    panel: KpiPanel,
    target: str,
    cfg: SubgraphConfig,
    nodes=None,
) -> tuple[tuple[str, int], ...]:
    """Screen all lagged candidates (X, tau) for the target.

    Starting from every (X, tau) with tau in 1..cfg.tau_max, each candidate
    is tested against the target conditioned on the `level` strongest other
    survivors, for level = 0..cfg.max_cond; candidates with p > cfg.alpha
    drop out after each level. Level 0 is one `stats.marginal_ci` call over
    every candidate, in the first sweep only: a survivor has passed its
    marginal test, and no later sweep can change it. Each level >= 1 is one
    `stats.screen_ci` call, which answers a candidate outside the top
    `level` and each one inside it from one regression on the level + 1
    strongest (a collinear top takes the kernel's grouped `batch_ci`
    route); a level whose top an earlier sweep screened is skipped, as its
    tests would repeat. The sweep repeats until the survivor set is stable,
    at most MAX_PARENT_SWEEPS times; stopping there while the set still
    changes emits a RuntimeWarning. Returns the surviving (X, tau) pairs
    ranked by strength (minimum |r| across their tests), strongest first.
    """
    nodes = tuple(nodes) if nodes is not None else panel.kpi_names
    if target not in nodes:
        raise DataError(f"target {target!r} is not in the node set")
    t = panel.n_ticks
    minimum = cfg.tau_max + cfg.max_cond + 3
    if t <= minimum:
        raise AnalysisError(
            f"window too short for parent selection: need more than {minimum} ticks, got {t}"
        )
    y = panel.column(target)[cfg.tau_max:]
    design, keys = _lagged_design(panel, nodes, cfg.tau_max)
    r, p = marginal_ci(design, [y])
    return _screen_parents(design, keys, y, (r[0], p[0]), target, cfg)


def _screen_parents(design, keys, y, marginal, target, cfg):
    """The screen of :func:`select_lagged_parents` for one target, on the
    window's lagged design and keys as `_lagged_design` builds them, with
    the level-0 (r, p) of every column against y already computed."""
    # candidates are column indices, in (name, lag) order
    alive = np.ones(len(keys), dtype=bool)
    strength = np.full(len(keys), np.inf)

    def ranked():
        # strongest first; a stable sort breaks ties in (name, lag) order
        cands = np.flatnonzero(alive)
        return cands[np.argsort(-strength[cands], kind="stable")]

    screened = set()  # every top a level has screened, as ordered tuples
    for sweep in range(MAX_PARENT_SWEEPS):
        before = alive.copy()
        if sweep == 0:
            # level 0 runs once: a survivor has passed its marginal test,
            # and no later sweep can change that test
            r, p = marginal
            strength = np.minimum(strength, np.abs(r))
            alive[p > cfg.alpha] = False
        for level in range(1, cfg.max_cond + 1):
            top = ranked()[: level + 1]
            if top.size <= level:
                break
            # a top screened in an earlier sweep would rerun that call's
            # tests, and every survivor passed them
            key = tuple(top.tolist())
            if key in screened:
                continue
            screened.add(key)
            # a candidate outside top[:level] is conditioned on top[:level],
            # one inside it on the rest of top; every test of the level is
            # set up before any runs, so removals take effect after it
            outside = alive.copy()
            outside[top[:level]] = False
            cands = np.flatnonzero(outside)
            r, p = screen_ci(design[:, cands], y, design[:, top])
            cands = np.concatenate([cands, top[:level]])
            strength[cands] = np.minimum(strength[cands], np.abs(r))
            alive[cands[p > cfg.alpha]] = False
        if np.array_equal(alive, before):
            break
    else:
        warnings.warn(
            f"parent selection for {target!r} stopped at the {MAX_PARENT_SWEEPS}-sweep cap"
            f" with {np.count_nonzero(alive)} candidates left and the set still changing",
            RuntimeWarning,
            stacklevel=3,
        )
    return tuple(keys[c] for c in ranked().tolist())


def mci_edge_test(
    panel: KpiPanel,
    source: tuple[str, int],
    target: str,
    parents_of_target,
    parents_of_source,
    cfg: SubgraphConfig,
) -> LaggedEdge | None:
    """Momentary conditional independence check of one lagged link.

    X(t - tau) vs Y(t), conditioned on the set of the strongest parents of
    Y (the tested link excluded) and the strongest parents of X shifted by
    tau: a series that is both is conditioned on, and counted in Fisher's
    degrees of freedom, once. Parents are (name, lag) pairs, strongest
    first, as :func:`select_lagged_parents` returns them, at most
    cfg.max_cond of each. Returns the edge iff p <= cfg.alpha.
    """
    x_name, tau = source
    if tau < 1:
        raise AnalysisError(f"lag must be >= 1, got {tau}")
    cond = _mci_conditioners(source, parents_of_target, parents_of_source, cfg)
    edges = _mci_edges(panel, [(x_name, tau, target, cond)], cfg)
    return edges[0] if edges else None


def _mci_conditioners(source, parents_of_target, parents_of_source, cfg):
    """The conditioning set of the MCI test of source -> target, as
    (name, lag) pairs with lags counted back from the target's time."""
    x_name, tau = source
    cond_target = [p for p in parents_of_target if p != (x_name, tau)][: cfg.max_cond]
    # the source's parents, shifted by tau; one that is also a target
    # parent is conditioned on once
    cond_source = [(name, lag + tau) for name, lag in list(parents_of_source)[: cfg.max_cond]]
    return tuple(dict.fromkeys(cond_target + cond_source))


def _mci_edges(panel: KpiPanel, tests, cfg: SubgraphConfig) -> list[LaggedEdge]:
    """Run MCI tests, each a (source, tau, target, conditioners) tuple, and
    return the edges with p <= cfg.alpha, in test order within each group.

    Tests with the same number of aligned rows and of conditioners form a
    group, and each group is one :func:`stats.stacked_ci` call, one batched
    QR, on series gathered from the panel in one indexing operation.
    """
    t = panel.n_ticks
    groups = {}
    for test in tests:
        _, tau, _, cond = test
        t0 = max([tau] + [lag for _, lag in cond])
        groups.setdefault((t - t0, len(cond)), []).append(test)
    # the panel behind a column of ones, so that one indexing operation
    # gathers a group's [1, S, x, y] stack
    values = np.ones((t, len(panel.kpi_names) + 1))
    values[:, 1:] = panel.values
    edges = []
    for (rows, k), members in groups.items():
        if rows <= k + 3:
            raise AnalysisError(
                f"insufficient overlap after lag alignment: {rows} rows for {k} conditioners"
            )
        # each test's series as (column, lag) pairs; a series starts `lag`
        # rows before the group's first target row
        cols = np.array([
            [0]
            + [panel.index_of(name) + 1 for name, _ in cond]
            + [panel.index_of(x_name) + 1, panel.index_of(target) + 1]
            for x_name, _, target, cond in members
        ])
        lags = np.array([[0] + [lag for _, lag in cond] + [tau, 0] for _, tau, _, cond in members])
        stack = sliding_window_view(values, rows, axis=0)[t - rows - lags, cols]
        r, p = stacked_ci(stack.transpose(0, 2, 1))
        for (x_name, tau, target, _), r_i, p_i in zip(members, r.tolist(), p.tolist()):
            if p_i <= cfg.alpha:
                edges.append(LaggedEdge(source=x_name, target=target, lag=tau, r=r_i, p=p_i))
    return edges


def _select_all_parents(panel: KpiPanel, nodes, cfg: SubgraphConfig):
    """select_lagged_parents for every node, as a dict: one lagged design
    serves every target's screen, and one kernel call answers every
    target's level 0. The design and the level-0 arrays are released on
    return, before the MCI stacks are gathered, which keeps a run's peak
    memory where it was with one design per target."""
    design, keys = _lagged_design(panel, nodes, cfg.tau_max)
    ys = [panel.column(name)[cfg.tau_max:] for name in nodes]
    r, p = marginal_ci(design, ys)
    return {
        name: _screen_parents(design, keys, y, (r[i], p[i]), name, cfg)
        for i, (name, y) in enumerate(zip(nodes, ys))
    }


def build_subgraph(
    normal_panel: KpiPanel,
    nodes,
    cfg: SubgraphConfig,
) -> CausalSubgraph:
    """Parent selection for every node, then MCI over every surviving
    cross-KPI link; deterministic for fixed inputs. Every node's screen
    shares one lagged design and one level-0 kernel call, and the MCI
    tests run as stacks. The window must be longer than
    2 * tau_max + 2 * max_cond + 3 ticks, what the largest MCI test can
    need."""
    nodes = tuple(nodes)
    if len(set(nodes)) != len(nodes):
        raise DataError("duplicate node")
    for name in nodes:
        normal_panel.index_of(name)  # raises on unknown names
    # an MCI test aligns up to 2 * tau_max lags and conditions on up to
    # 2 * max_cond parents; check that once, before any selection runs
    t = normal_panel.n_ticks
    minimum = 2 * cfg.tau_max + 2 * cfg.max_cond + 3
    if t <= minimum:
        raise AnalysisError(
            f"window too short for the lagged subgraph: need more than {minimum} ticks"
            f" (2 * tau_max + 2 * max_cond + 3), got {t}"
        )
    parents = _select_all_parents(normal_panel, nodes, cfg)
    # every surviving cross-KPI link, self-dependencies being conditioning
    # context only
    tests = [
        (source, lag, target, _mci_conditioners((source, lag), parents[target], parents[source], cfg))
        for target in nodes
        for source, lag in parents[target]
        if source != target
    ]
    edges = _mci_edges(normal_panel, tests, cfg)
    edges.sort(key=lambda e: e.key)
    return CausalSubgraph(nodes=nodes, edges=tuple(edges))


def graph_diff(g_normal: CausalSubgraph, g_abnormal: CausalSubgraph) -> GraphDiff:
    """Edge-set difference on (source, target, lag) triples; the normal
    graph is the baseline, so edges unique to the abnormal graph are
    'added' and edges unique to the normal graph are 'removed'."""
    if set(g_normal.nodes) != set(g_abnormal.nodes):
        only_n = sorted(set(g_normal.nodes) - set(g_abnormal.nodes))
        only_a = sorted(set(g_abnormal.nodes) - set(g_normal.nodes))
        raise DataError(
            f"node universes differ: only in normal {only_n}, only in abnormal {only_a}"
        )
    normal = g_normal.edge_keys()
    abnormal = g_abnormal.edge_keys()
    return GraphDiff(
        added=tuple(sorted(abnormal - normal)),
        removed=tuple(sorted(normal - abnormal)),
        common=tuple(sorted(normal & abnormal)),
    )


def to_dot(
    graph: CausalSubgraph,
    flagged_nodes=(),
    flagged_edges=(),
) -> str:
    """Deterministic DOT rendering; nodes and edges in lexicographic order.

    Flagged nodes carry intervention=true, flagged edges sequence=true
    (flagged_edges holds (source, target, lag) triples).
    """
    flagged_nodes = set(flagged_nodes)
    flagged_edges = set(flagged_edges)
    lines = ["digraph causal_subgraph {", "  rankdir=LR;"]
    for node in sorted(graph.nodes):
        attrs = [f'label="{node}"']
        if node in flagged_nodes:
            attrs.append("intervention=true")
        lines.append(f'  "{node}" [{", ".join(attrs)}];')
    for edge in sorted(graph.edges, key=lambda e: e.key):
        attrs = [f'label="lag={edge.lag}, r={edge.r:.3f}"', f"lag={edge.lag}"]
        if edge.key in flagged_edges:
            attrs.append("sequence=true")
        lines.append(f'  "{edge.source}" -> "{edge.target}" [{", ".join(attrs)}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
