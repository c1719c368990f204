"""Normal-state lagged causal subgraph over the root-cause candidates.

Two-stage time-series discovery: per-target lagged condition selection
(iterative partial-correlation screening against the strongest current
parents), then a momentary-conditional-independence check of every
surviving link conditioned on the set of both endpoints' parents. All
edges carry a lag of at least one tick, so the graph is acyclic by
construction.

A window's work is a few array operations: one lagged design shared by
every target, one kernel call for every target's level 0, and one call of
the stacked Gram-block kernel per screening round and per MCI
conditioning-set size. The targets' screens advance in lockstep: a round
is one (sweep, level) step of every target still screening, and each
target keeps its own state, so no target's parents depend on the others.
The screen only compares p with alpha, so it decides from Fisher's z
(`stats.fisher_p_above`) and takes the normal tail only for the few tests
near the cut; MCI reports each edge's p (`stats.fisher_p`).

Self-dependencies (a KPI explaining itself at some lag) participate as
conditioning context but are not emitted as subgraph edges; the subgraph
relates distinct indicators.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# SubgraphConfig is defined with the other config sections and re-exported here
from .config import SubgraphConfig
from .errors import AnalysisError, DataError
from .panel import KpiPanel
# ci_test is no longer called here; the binding stays for the benchmark's
# tracer (bench/tracer.py), which hooks it by this module's name
from .stats import (  # noqa: F401
    batch_ci,
    ci_test,
    fisher_p,
    fisher_p_above,
    marginal_ci,
    stacked_gram_ci,
)

__all__ = [
    "SubgraphConfig",
    "LaggedEdge",
    "CausalSubgraph",
    "GraphDiff",
    "select_lagged_parents",
    "mci_edge_test",
    "build_subgraph",
    "graph_diff",
]


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


# Screening sweeps the parent screen makes at most per target.
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
    marginal test, and no later sweep can change it. A candidate outside
    the top `level` is conditioned on them, and each one inside on the rest
    of the level + 1 strongest. Each level >= 1 is one
    `stats.stacked_gram_ci` call on the tests' Gram blocks; a block it
    declines (a copied or derived KPI next to its inputs) is answered by
    `stats.batch_ci` on the rows. A level whose top an earlier sweep screened is skipped, as its
    tests would repeat. The sweep repeats until the survivor set is stable,
    at most MAX_PARENT_SWEEPS times; stopping there while the set still
    changes emits a RuntimeWarning. Returns the surviving (X, tau) pairs
    ranked by strength (minimum |r| across their tests), strongest first.

    This is the lockstep screen of :func:`build_subgraph` with one target:
    each of that call's rounds is one `stats.stacked_gram_ci` call over
    every target, and the target gets the parents it gets here.
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
    return _select_all_parents(panel, nodes, (target,), cfg)[target]


def _select_all_parents(panel: KpiPanel, nodes, targets, cfg: SubgraphConfig):
    """The parent screen of :func:`select_lagged_parents` for every target,
    with the (X, tau) candidates of every node. Returns the parents as a
    dict. Each target that stops at the sweep cap with its set still
    changing emits one RuntimeWarning, attributed to the caller of the
    public function that called this.

    One lagged design serves every target, and one `stats.marginal_ci`
    call answers every target's level 0. The targets' screens then advance
    in lockstep, one (sweep, level) round at a time: every target still
    sweeping whose top of that level is new joins the round, and one
    `stats.stacked_gram_ci` call answers the round (:func:`_screen_round`).
    Each target keeps its own survivors, strengths, screened tops and
    stopping rule, so no target's parents depend on the others. The design
    is released on return, before the MCI stacks are gathered.
    """
    design, keys = _lagged_design(panel, nodes, cfg.tau_max)
    ys = [panel.column(name)[cfg.tau_max:] for name in targets]
    strength, z0 = marginal_ci(design, ys)
    # row i holds target i's candidates, column indices in (name, lag) order;
    # a candidate's strength starts at its level-0 |r|
    np.abs(strength, out=strength)
    alive = np.ones((len(targets), len(keys)), dtype=bool)
    screened = [set() for _ in targets]  # each target's screened tops
    # the later levels' Gram blocks take centered series
    design -= design.mean(axis=0)
    ys = np.array(ys)
    ys -= ys.mean(axis=1, keepdims=True)

    def ranked(i):
        # strongest first; a stable sort breaks ties in (name, lag) order
        cands = np.flatnonzero(alive[i])
        return cands[np.argsort(-strength[i, cands], kind="stable")]

    sweeping = np.arange(len(targets))  # targets whose set may still change
    for sweep in range(MAX_PARENT_SWEEPS):
        before = alive.copy()
        if sweep == 0:
            # level 0 runs once: a survivor has passed its marginal test,
            # and no later sweep can change that test
            alive[fisher_p_above(z0, cfg.alpha)] = False
        levelling = sweeping.tolist()
        for level in range(1, cfg.max_cond + 1):
            members, tops, outsides = [], [], []
            # a target whose survivors cannot fill the top ends its sweep
            levelling = [i for i in levelling if np.count_nonzero(alive[i]) > level]
            for i in levelling:
                top = ranked(i)[: level + 1]
                # a top screened in an earlier sweep would rerun that
                # round's tests, and every survivor passed them
                key = tuple(top.tolist())
                if key in screened[i]:
                    continue
                screened[i].add(key)
                # every test of the round is set up before any runs, so
                # removals take effect after it
                outside = alive[i].copy()
                outside[top[:level]] = False
                members.append(i)
                tops.append(top)
                outsides.append(np.flatnonzero(outside))
            if not members:
                continue
            rows, xs, r, drop = _screen_round(design, ys, members, tops, outsides, cfg.alpha)
            strength[rows, xs] = np.minimum(strength[rows, xs], np.abs(r))
            alive[rows[drop], xs[drop]] = False
        sweeping = sweeping[(alive[sweeping] != before[sweeping]).any(axis=1)]
        if not sweeping.size:
            break
    for i in sweeping.tolist():
        warnings.warn(
            f"parent selection for {targets[i]!r} stopped at the {MAX_PARENT_SWEEPS}-sweep cap"
            f" with {np.count_nonzero(alive[i])} candidates left and the set still changing",
            RuntimeWarning,
            stacklevel=3,
        )
    return {name: tuple(keys[c] for c in ranked(i).tolist()) for i, name in enumerate(targets)}


def _screen_round(design, ys, members, tops, outsides, alpha):
    """One screening round. Target members[m], with the series
    ys[members[m]] and the level + 1 design columns tops[m], strongest
    first, has each design column of outsides[m] tested given
    top[:level], then each top[j], j < level, given the rest of top.
    design and ys are centered. Returns (rows, xs, r, drop): the target
    and the tested column of every test, member after member, with its r
    and whether its p exceeds alpha.

    A test's Gram block [x, y, *given] takes x's squared norm, x's cross
    products with z = [y, top] and z's own Gram, so each member costs two
    small products and no target's Gram over all its survivors is built:
    a round's memory follows its number of tests. One
    `stats.stacked_gram_ci` call answers the round, and
    `stats.fisher_p_above` decides its tests from their z. The blocks it
    declines (a copied or derived KPI next to its inputs) run as one
    `stats.batch_ci` call on the rows per (target, conditioning set), and
    are decided from their p.
    """
    level = len(tops[0]) - 1
    tops = np.asarray(tops)
    sizes = [o.size + level for o in outsides]
    xs = np.concatenate([c for outside, top in zip(outsides, tops) for c in (outside, top[:level])])
    at = np.repeat(np.arange(len(members)), sizes)  # each test's member
    ends = np.cumsum(sizes)
    z = np.empty((len(members), design.shape[0], level + 2))
    z[:, :, 0] = ys[members]
    z[:, :, 1:] = design[:, tops].transpose(1, 0, 2)
    cross = np.concatenate([design[:, xs[end - size : end]].T @ zm for zm, size, end in zip(z, sizes, ends)])
    core = z.transpose(0, 2, 1) @ z
    # each test's given as positions in top: top[:level] for a column
    # outside it, and the rest of top for each top[j], j < level
    slots = np.tile(np.arange(level), (xs.size, 1))
    inside = [np.delete(np.arange(level + 1), j) for j in range(level)]
    slots[(ends[:, np.newaxis] - level + np.arange(level)).ravel()] = np.tile(inside, (len(members), 1))
    # the columns of z in a test's block: y, then its given
    sel = np.column_stack([np.zeros(xs.size, dtype=np.intp), 1 + slots])
    blocks = np.empty((xs.size, level + 2, level + 2))
    blocks[:, 0, 0] = np.einsum("ij,ij->j", design, design)[xs]
    blocks[:, 0, 1:] = blocks[:, 1:, 0] = cross[np.arange(xs.size)[:, np.newaxis], sel]
    blocks[:, 1:, 1:] = core[at[:, np.newaxis, np.newaxis], sel[:, :, np.newaxis], sel[:, np.newaxis, :]]
    r, z, answered = stacked_gram_ci(blocks, design.shape[0])
    drop = fisher_p_above(z, alpha)
    rows = np.asarray(members)[at]
    givens = tops[at[:, np.newaxis], slots]
    groups = {}
    for t in np.flatnonzero(~answered).tolist():
        groups.setdefault((rows[t], tuple(givens[t].tolist())), []).append(t)
    for (i, given), tests in groups.items():
        r[tests], p = batch_ci(design[:, xs[tests]], ys[i], given=list(design[:, given].T))
        drop[tests] = p > alpha
    return rows, xs, r, drop


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


# The most values one MCI gather holds. The tests of a gather, those with
# the same number of aligned rows and of conditioners, whose [x, y, *S]
# series need more are gathered in chunks of tests, so MCI's memory is
# bounded whatever the window's length. A gather of a 120-tick window fits
# in one chunk up to 1100 tests.
MCI_CHUNK_VALUES = 1 << 20


def _mci_edges(panel: KpiPanel, tests, cfg: SubgraphConfig) -> list[LaggedEdge]:
    """Run MCI tests, each a (source, tau, target, conditioners) tuple, and
    return the edges with p <= cfg.alpha, group by group, in test order
    within each gather.

    Tests with the same number of conditioners form a group, and one
    `stats.stacked_gram_ci` call answers a group from the Gram blocks of
    its tests' centered series, each block with its own number of aligned
    rows. The series come from the panel one gather at a time, the tests
    of a group with the same number of rows, in one indexing operation per
    chunk of at most MCI_CHUNK_VALUES values; only the small blocks are
    pooled. A block's answer does not depend on the other blocks of its
    call, so neither the pooling nor the chunking changes a bit. A block
    the kernel declines (a derived KPI next to its inputs, or a constant
    series) is answered by `stats.batch_ci` on that test's uncentered rows.
    """
    t = panel.n_ticks
    column = {name: i for i, name in enumerate(panel.kpi_names)}
    groups = {}
    for test in tests:
        _, tau, _, cond = test
        t0 = max([tau] + [lag for _, lag in cond])
        groups.setdefault(len(cond), {}).setdefault(t - t0, []).append(test)
    edges = []
    for k, gathers in groups.items():
        members, blocks, sources, n = [], [], [], []
        for rows, gather in gathers.items():
            if rows <= k + 3:
                raise AnalysisError(
                    f"insufficient overlap after lag alignment: {rows} rows for {k} conditioners"
                )
            # each test's series as (column, lag) pairs; a series starts
            # `lag` rows before the gather's first target row
            cols = np.array([
                [column[x_name], column[target]] + [column[name] for name, _ in cond]
                for x_name, _, target, cond in gather
            ])
            lags = np.array([[tau, 0] + [lag for _, lag in cond] for _, tau, _, cond in gather])
            windows = sliding_window_view(panel.values, rows, axis=0)
            starts = t - rows - lags
            chunk = max(1, MCI_CHUNK_VALUES // ((k + 2) * rows))
            for lo in range(0, len(gather), chunk):
                stack = windows[starts[lo : lo + chunk], cols[lo : lo + chunk]]
                stack -= stack.mean(axis=2, keepdims=True)
                blocks.append(stack @ stack.transpose(0, 2, 1))
                del stack  # released before the next chunk is gathered
            members.extend(gather)
            sources.extend((windows, s, c) for s, c in zip(starts, cols))
            n.extend([rows] * len(gather))
        r, z, answered = stacked_gram_ci(np.concatenate(blocks), np.array(n))
        p = fisher_p(z)
        # the stacks were centered in place, so a declined test's rows are
        # gathered again
        for i in np.flatnonzero(~answered).tolist():
            windows, starts, cols = sources[i]
            x, y, *given = windows[starts, cols]
            r[i : i + 1], p[i : i + 1] = batch_ci(x[:, np.newaxis], y, given=given)
        for (x_name, tau, target, _), r_i, p_i in zip(members, r.tolist(), p.tolist()):
            if p_i <= cfg.alpha:
                edges.append(LaggedEdge(source=x_name, target=target, lag=tau, r=r_i, p=p_i))
    return edges


def build_subgraph(
    normal_panel: KpiPanel,
    nodes,
    cfg: SubgraphConfig,
) -> CausalSubgraph:
    """Parent selection for every node, then MCI over every surviving
    cross-KPI link; deterministic for fixed inputs. Every node's screen
    shares one lagged design and one level-0 kernel call, the screens
    advance in lockstep with one `stats.stacked_gram_ci` call per (sweep,
    level) round, and the MCI tests take one more call per
    conditioning-set size. The screen decides each test from its Fisher z
    (`stats.fisher_p_above`), calling the normal tail only near the cut,
    and MCI takes every test's p (`stats.fisher_p`). Each node gets the
    parents :func:`select_lagged_parents` gives it, and each node whose
    screen stops at the sweep cap with its set still changing emits one
    RuntimeWarning. The window must be longer than
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
    parents = _select_all_parents(normal_panel, nodes, nodes, cfg)
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
