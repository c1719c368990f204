"""Monte Carlo parameter tuning for the discovery engine.

Sweeps chunk size g and run count n, recording each KPI's causal-source
proportion P[g, n]; convergence is judged by regressing the estimated
variance p(1-p)/n against n per g (reliable when at least 90% of the fitted
slopes are negative). Per KPI, the selected g is the one whose mean
proportion is the median across g, the optimal n is the sweep value with
the greatest proportional variance reduction, and the per-KPI choices
consolidate to global parameters as maxima over the prominent-source set.
The sweep runs in one process, all of its cells share one CI oracle, and
the shuffle streams of all of its runs are seeded, and their first
permutations drawn, as one `rcd.first_shuffles` batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .config import check_sweep, read_value
from .errors import AnalysisError, ConfigError
from .panel import LabeledPanel, read_only_copy, value_eq
from .rcd import CiOracle, RcdConfig, discovery_kpis, first_shuffles, rcd_multi_run, seed_states
from .stats import binomial_sd

__all__ = [
    "McGrid",
    "TuningRow",
    "TrendResult",
    "ConsolidatedParams",
    "run_grid",
    "estimate_p",
    "variance_trend",
    "select_g",
    "select_n",
    "tuning_rows",
    "prominent_sources",
    "consolidate",
]


@dataclass(frozen=True)
class McGrid:
    """Causal-source counts per (g, n, KPI) from the Monte Carlo sweep, and
    the read-only proportions counts / n, computed once."""

    g_values: tuple[int, ...]
    n_values: tuple[int, ...]
    kpi_names: tuple[str, ...]
    counts: np.ndarray  # shape (len(g_values), len(n_values), len(kpi_names))
    proportions: np.ndarray = field(init=False, repr=False, compare=False)

    __eq__ = value_eq

    def __post_init__(self):
        for what, least in (("g_values", 2), ("n_values", 1)):
            values = read_value(tuple[int, ...], tuple(getattr(self, what)), what)
            check_sweep(values, what, least)
            object.__setattr__(self, what, values)
        counts = read_only_copy(self.counts, np.int64)
        shape = (len(self.g_values), len(self.n_values), len(self.kpi_names))
        if counts.shape != shape:
            raise ConfigError(f"counts must have shape {shape}, got {counts.shape}")
        n = np.asarray(self.n_values)[:, None]  # broadcasts over the g and KPI axes
        if counts.min(initial=0) < 0 or np.any(counts > n):
            raise ConfigError("counts must lie in [0, n] for their n")
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "kpi_names", tuple(self.kpi_names))
        object.__setattr__(self, "proportions", read_only_copy(counts / n, float))

    def proportion(self, g: int, n: int, kpi: str) -> float:
        gi = self.g_values.index(g)
        ni = self.n_values.index(n)
        ki = self.kpi_names.index(kpi)
        return float(self.counts[gi, ni, ki] / n)


@dataclass(frozen=True)
class TuningRow:
    """Per-KPI tuning outcome: selected g, estimated probability, optimal n
    (0 means no variance reduction was observed)."""

    kpi: str
    g: int
    p_hat: float
    n_opt: int


@dataclass(frozen=True)
class TrendResult:
    """Variance-vs-n regression slopes per g and the reliability verdict."""

    kpi: str
    slopes: tuple[tuple[int, float], ...]
    negative_fraction: float
    reliable: bool


@dataclass(frozen=True)
class ConsolidatedParams:
    """Global discovery parameters: maxima over the prominent-source rows."""

    g_star: int
    n_star: int
    prominent: tuple[str, ...]


def run_grid(
    labeled: LabeledPanel,
    g_values,
    n_values,
    base_cfg: RcdConfig,
    seed: int,
    exclude=(),
) -> McGrid:
    """Execute the (g, n) sweep; each cell runs rcd_multi_run with the seed
    word 0 of SeedSequence([seed, g, n]) gives, so cells are independent
    and the grid is deterministic. The sweep seeds in two batches: one for
    its cells, and one `first_shuffles` call that seeds every run of every
    cell and draws its first shuffle, run i of a cell with seed s taking
    the stream of entropy [s, i]; each cell's rcd_multi_run call receives
    its own runs' lanes, and only a run that refines builds its stream. The
    cells share one CI oracle, so each distinct test, screen and final
    candidate set is computed once per sweep."""
    g_values = read_value(tuple[int, ...], tuple(g_values), "g_values")
    n_values = read_value(tuple[int, ...], tuple(n_values), "n_values")
    check_sweep(g_values, "g_values", least=2)
    check_sweep(n_values, "n_values", least=1)
    n_values = tuple(sorted(n_values))
    if any(g > labeled.panel.n_kpis for g in g_values):
        raise ConfigError(
            f"g values must not exceed the panel KPI count ({labeled.panel.n_kpis})"
        )
    oracle = CiOracle(labeled)
    names = discovery_kpis(labeled, exclude)
    cells = [(g, n) for g in g_values for n in n_values]
    cell_seeds = seed_states([[seed, g, n] for g, n in cells], 1)[:, 0].tolist()
    # every run of every cell in one batch; each cell takes its n lanes in turn
    shuffles = first_shuffles(
        ([cell_seed, i] for (_, n), cell_seed in zip(cells, cell_seeds) for i in range(n)),
        len(names),
    )
    counts = []
    start = 0
    for (g, n), cell_seed in zip(cells, cell_seeds):
        cfg = replace(base_cfg, g=g, n_runs=n, seed=cell_seed)
        table = rcd_multi_run(
            labeled, cfg, exclude, oracle=oracle, shuffles=shuffles[start : start + n]
        )
        counts.append(table.counts)
        start += n
    counts = np.reshape(counts, (len(g_values), len(n_values), len(names)))
    return McGrid(g_values=g_values, n_values=n_values, kpi_names=names, counts=counts)


def estimate_p(grid: McGrid, kpi: str, g: int) -> float:
    """Mean of P[g, n] over the swept n values for this g."""
    if g not in grid.g_values:
        raise AnalysisError(f"g={g} was not swept (grid has {grid.g_values})")
    gi = grid.g_values.index(g)
    ki = grid.kpi_names.index(kpi)
    return float(grid.proportions[gi, :, ki].mean())


RELIABLE_SLOPE_FRACTION = 0.9


def variance_trend(grid: McGrid, kpi: str) -> TrendResult:
    """OLS slope of the estimated variance p(1-p)/n against n, per g.

    The KPI is a reliable causal source when at least RELIABLE_SLOPE_FRACTION
    of the per-g slopes are strictly negative.
    """
    if len(grid.n_values) < 3:
        raise AnalysisError(
            f"variance trend needs at least 3 swept n values, got {len(grid.n_values)}"
        )
    ki = grid.kpi_names.index(kpi)
    x = np.asarray(grid.n_values, dtype=float)
    # equal columns have equal fits, so each distinct column is fitted once;
    # one fit of several columns would take LAPACK's multi-column path, whose
    # last bits can differ from a one-column fit's
    fits: dict[tuple[float, ...], float] = {}
    slopes = []
    for g, column in zip(grid.g_values, grid.proportions[:, :, ki].tolist()):
        key = tuple(column)
        if key not in fits:
            variance = [binomial_sd(p, n) ** 2 for p, n in zip(column, grid.n_values)]
            fits[key] = float(np.polyfit(x, variance, 1)[0])
        slopes.append((g, fits[key]))
    negative = sum(1 for _, s in slopes if s < 0.0)
    fraction = negative / len(slopes)
    return TrendResult(
        kpi=kpi,
        slopes=tuple(slopes),
        negative_fraction=fraction,
        reliable=fraction >= RELIABLE_SLOPE_FRACTION,
    )


def select_g(grid: McGrid, kpi: str) -> tuple[int, float]:
    """The g whose per-g mean proportion is the median estimate.

    With an even number of estimates the lower of the two middle values is
    taken; ties on the estimate resolve to the smaller g.
    """
    estimates = [(estimate_p(grid, kpi, g), g) for g in grid.g_values]
    values = sorted(p for p, _ in estimates)
    median_value = values[(len(values) - 1) // 2]
    candidates = [g for p, g in estimates if p == median_value]
    return min(candidates), median_value


def select_n(grid: McGrid, kpi: str, g: int, *, mode: str = "proportional") -> int:
    """The swept n with the greatest variance reduction from its predecessor.

    Reduction between consecutive n values is proportional by default
    ((prev - cur) / prev, pairs with prev = 0 skipped) or absolute
    (prev - cur). Returns 0 when no pair shows a strictly positive
    reduction.
    """
    if mode not in ("proportional", "absolute"):
        raise ConfigError(f"mode must be 'proportional' or 'absolute', got {mode!r}")
    if g not in grid.g_values:
        raise AnalysisError(f"g={g} was not swept (grid has {grid.g_values})")
    gi = grid.g_values.index(g)
    ki = grid.kpi_names.index(kpi)
    variances = [
        binomial_sd(float(grid.proportions[gi, ni, ki]), n) ** 2
        for ni, n in enumerate(grid.n_values)
    ]
    best_n = 0
    best_reduction = 0.0
    for k in range(1, len(grid.n_values)):
        prev, cur = variances[k - 1], variances[k]
        if mode == "proportional":
            if prev == 0.0:
                continue
            reduction = (prev - cur) / prev
        else:
            reduction = prev - cur
        if reduction > best_reduction:
            best_reduction = reduction
            best_n = grid.n_values[k]
    return best_n


def tuning_rows(grid: McGrid, *, n_mode: str = "proportional") -> list[TuningRow]:
    """One row per KPI: selected g, estimated p, optimal n."""
    rows = []
    for kpi in grid.kpi_names:
        g, p_hat = select_g(grid, kpi)
        rows.append(
            TuningRow(kpi=kpi, g=g, p_hat=p_hat, n_opt=select_n(grid, kpi, g, mode=n_mode))
        )
    return rows


def prominent_sources(rows, p_thr: float = 0.4) -> tuple[str, ...]:
    """KPIs with estimated p above the threshold that are not poor sources
    (poor: n = 0 with p < 1)."""
    return tuple(
        row.kpi
        for row in rows
        if row.p_hat > p_thr and not (row.n_opt == 0 and row.p_hat < 1.0)
    )


def consolidate(rows, prominent) -> ConsolidatedParams:
    """Global g*/n*: maxima of the prominent rows' selections."""
    prominent = tuple(prominent)
    if not prominent:
        raise AnalysisError("no prominent sources; lower p_thr or increase data")
    chosen = [row for row in rows if row.kpi in prominent]
    missing = set(prominent) - {row.kpi for row in chosen}
    if missing:
        raise AnalysisError(f"prominent KPIs missing from rows: {sorted(missing)}")
    return ConsolidatedParams(
        g_star=max(row.g for row in chosen),
        n_star=max(row.n_opt for row in chosen),
        prominent=prominent,
    )
