"""KPI panel ingestion, SLA rule evaluation, and normal/abnormal labeling.

A panel is a rectangular multivariate time series: one row per tick at a
uniform granularity, one column per named KPI. Window arithmetic (breach
ranges, normal/abnormal windows, onsets) is positional, i.e. expressed in
row indices; for the usual 0..T-1 tick column the two coincide.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, fields
from datetime import datetime
from pathlib import Path

import numpy as np

from .errors import DataError, unreadable

_COMPARATORS = {
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
}

MISSING_POLICIES = ("fail", "drop-row", "linear-interpolate")


def read_only_copy(value, dtype) -> np.ndarray:
    """A copy of `value` as a `dtype` array that cannot be written to."""
    array = np.array(value, dtype=dtype)
    array.setflags(write=False)
    return array


def value_eq(self, other) -> bool:
    """`__eq__` of a dataclass record that holds arrays: the fields that take
    part in comparison are equal one by one, arrays by value (the generated
    `__eq__` would take an array comparison as a truth value)."""
    if type(other) is not type(self):
        return NotImplemented
    pairs = [(getattr(self, f.name), getattr(other, f.name)) for f in fields(self) if f.compare]
    return all(np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b for a, b in pairs)


@dataclass(frozen=True)
class KpiPanel:
    """Immutable T x V panel of finite KPI values on strictly increasing ticks;
    a tick is an integer inside the int64 range."""

    ticks: np.ndarray
    kpi_names: tuple[str, ...]
    values: np.ndarray

    __eq__ = value_eq

    def __post_init__(self):
        try:
            raw = np.asarray(self.ticks)
            with np.errstate(invalid="ignore"):
                ticks = read_only_copy(raw, np.int64)
            # a fractional, non-finite or out-of-range tick changes in the cast
            integral = bool(np.all(ticks == raw))
        except (TypeError, ValueError, OverflowError):
            integral = False
        if not integral:
            raise DataError("ticks must be integers inside the int64 range")
        values = read_only_copy(self.values, float)
        if values.ndim != 2:
            raise DataError("values must be a 2-d matrix")
        if ticks.ndim != 1 or ticks.shape[0] != values.shape[0]:
            raise DataError("ticks must align with the value rows")
        if ticks.size == 0:
            raise DataError("panel has no rows")
        if np.any(ticks[1:] <= ticks[:-1]):
            raise DataError("ticks must be strictly increasing")
        names = tuple(self.kpi_names)
        if len(set(names)) != len(names):
            raise DataError("duplicate KPI name")
        if len(names) != values.shape[1]:
            raise DataError("kpi_names must match the value columns")
        if not np.all(np.isfinite(values)):
            raise DataError("panel values must all be finite")
        object.__setattr__(self, "ticks", ticks)
        object.__setattr__(self, "kpi_names", names)
        object.__setattr__(self, "values", values)
        # index_of's lookup table; not a field, so ==, repr and value_eq
        # ignore it
        object.__setattr__(self, "_columns", {name: i for i, name in enumerate(names)})

    @property
    def n_ticks(self) -> int:
        return self.values.shape[0]

    @property
    def n_kpis(self) -> int:
        return self.values.shape[1]

    def index_of(self, name: str) -> int:
        try:
            return self._columns[name]
        except (KeyError, TypeError):
            raise DataError(f"unknown metric: {name!r}") from None

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.index_of(name)]


_COMPARATOR_ALIASES = {"≤": "<=", "≥": ">="}


@dataclass(frozen=True)
class SlaRule:
    """Service-level rule: breach when `metric <comparator> threshold` holds
    continuously for at least min_duration_ticks."""

    metric: str
    comparator: str
    threshold: float
    min_duration_ticks: int = 1

    def __post_init__(self):
        comparator = _COMPARATOR_ALIASES.get(self.comparator, self.comparator)
        if comparator not in _COMPARATORS:
            raise DataError(
                f"comparator must be one of {sorted(_COMPARATORS)}, got {self.comparator!r}"
            )
        object.__setattr__(self, "comparator", comparator)
        if self.min_duration_ticks < 0:
            raise DataError("min_duration_ticks must be non-negative")


@dataclass(frozen=True)
class LabeledPanel:
    """Panel plus its two analysis windows, as half-open row ranges; the
    normal window precedes the abnormal one and the two are disjoint."""

    panel: KpiPanel
    normal_window: tuple[int, int]
    abnormal_window: tuple[int, int]

    def __post_init__(self):
        t = self.panel.n_ticks
        n0, n1 = self.normal_window
        a0, a1 = self.abnormal_window
        if not (0 <= n0 < n1 <= t and 0 <= a0 < a1 <= t):
            raise DataError("windows must be non-empty and lie inside the panel")
        if n1 > a0:
            raise DataError("normal window must precede the abnormal window")
        object.__setattr__(self, "normal_window", (int(n0), int(n1)))
        object.__setattr__(self, "abnormal_window", (int(a0), int(a1)))

    @property
    def fnode(self) -> np.ndarray:
        """Binary failure indicator: 1 exactly on the abnormal window."""
        fnode = np.zeros(self.panel.n_ticks, dtype=np.uint8)
        fnode[self.abnormal_slice] = 1
        return fnode

    @property
    def normal_slice(self) -> slice:
        return slice(*self.normal_window)

    @property
    def abnormal_slice(self) -> slice:
        return slice(*self.abnormal_window)

    def pooled_rows(self) -> np.ndarray:
        """Row indices of both analysis windows, normal first."""
        return np.r_[
            np.arange(*self.normal_window), np.arange(*self.abnormal_window)
        ]

    def normal_values(self, name: str) -> np.ndarray:
        return self.panel.column(name)[self.normal_slice]

    def abnormal_values(self, name: str) -> np.ndarray:
        return self.panel.column(name)[self.abnormal_slice]

    def window_panel(self, which: str) -> KpiPanel:
        """Sub-panel of one analysis window ('normal' or 'abnormal')."""
        if which not in ("normal", "abnormal"):
            raise DataError(f"window must be 'normal' or 'abnormal', got {which!r}")
        sl = self.normal_slice if which == "normal" else self.abnormal_slice
        return KpiPanel(
            ticks=self.panel.ticks[sl],
            kpi_names=self.panel.kpi_names,
            values=self.panel.values[sl],
        )


def _parse_tick_cell(cell: str, line_no: int):
    cell = cell.strip()
    try:
        tick = int(cell)
    except ValueError:
        pass
    else:
        if not -(2**63) <= tick < 2**63:
            raise DataError(f"line {line_no}: tick {cell!r} is outside the int64 range")
        return tick, "int"
    try:
        return datetime.fromisoformat(cell), "iso"
    except ValueError:
        raise DataError(
            f"line {line_no}: cannot parse timestamp {cell!r} as integer tick or ISO-8601"
        ) from None


def _normalize_ticks(raw, kinds, line_nos, granularity_seconds: int) -> np.ndarray:
    if len(set(kinds)) > 1:
        raise DataError("mixed integer and ISO-8601 timestamps are not supported")
    if kinds[0] == "int":
        return np.asarray(raw, dtype=np.int64)
    base = raw[0]
    aware = base.utcoffset() is not None
    ticks = []
    for ts, line_no in zip(raw, line_nos):
        if (ts.utcoffset() is not None) != aware:
            raise DataError(
                f"line {line_no}: timestamp {ts.isoformat()} "
                f"{'has no' if aware else 'has a'} UTC offset, unlike line {line_nos[0]}"
            )
        seconds = (ts - base).total_seconds()
        steps = seconds / granularity_seconds
        if abs(steps - round(steps)) > 1e-9:
            raise DataError(
                f"line {line_no}: timestamp {ts.isoformat()} is not aligned to the "
                f"{granularity_seconds}s granularity"
            )
        ticks.append(int(round(steps)))
    return np.asarray(ticks, dtype=np.int64)


def _resolve_missing(values: np.ndarray, ticks: np.ndarray, names, line_nos, policy: str):
    """Apply the configured missing-value policy; returns (values, ticks,
    kept) where kept indexes the rows that remain."""
    kept = np.arange(values.shape[0])
    nan_mask = np.isnan(values)
    if not nan_mask.any():
        return values, ticks, kept
    if policy == "fail":
        row, col = np.argwhere(nan_mask)[0]
        raise DataError(
            f"missing value at line {line_nos[row]}, column {names[col]!r} "
            "(policy 'fail'; use 'drop-row' or 'linear-interpolate')"
        )
    if policy == "drop-row":
        keep = ~nan_mask.any(axis=1)
        return values[keep], ticks[keep], kept[keep]
    # linear interpolation between the nearest present neighbors per column
    for col in range(values.shape[1]):
        v = values[:, col]
        missing = np.isnan(v)
        if not missing.any():
            continue
        if missing[0] or missing[-1]:
            row = 0 if missing[0] else len(v) - 1
            raise DataError(
                f"missing value at line {line_nos[row]}, column {names[col]!r} "
                "has no neighbor on both sides to interpolate"
            )
        idx = np.arange(len(v))
        v[missing] = np.interp(idx[missing], idx[~missing], v[~missing])
    return values, ticks, kept


def _read_header(reader, path: Path) -> tuple[str, ...]:
    """The KPI names of the CSV's header row, checked."""
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"{path}: empty file") from None
    if len(header) < 2:
        raise DataError(f"{path}: header must name a tick column and at least one KPI")
    names = tuple(h.strip() for h in header[1:])
    if "" in names:
        column = names.index("") + 2
        raise DataError(f"{path}: header column {column} has no KPI name")
    if len(set(names)) != len(names):
        raise DataError("duplicate KPI name in header")
    return names


def _read_table(fh, n_kpis: int):
    """(ticks, values) of the data rows after the header, read by numpy's C
    parser; None unless every tick is an integer, strictly increasing, and
    every value finite."""
    dtype = np.dtype([("tick", np.int64), ("values", np.float64, (n_kpis,))])
    try:
        # a header-only file warns rather than raising
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(fh, dtype=dtype, delimiter=",", comments=None, ndmin=1)
    except (ValueError, Warning):
        return None
    ticks, values = table["tick"], table["values"]
    if np.any(ticks[1:] <= ticks[:-1]) or not np.isfinite(values).all():
        return None
    return ticks, values


def _read_rows(reader, names):
    """Per data row of the CSV, its tick, tick kind, values and line number."""
    width = len(names) + 1
    raw_ticks, kinds, rows, line_nos = [], [], [], []
    for row in reader:
        # the file line the record ends on; a quoted cell may span lines
        line_no = reader.line_num
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != width:
            raise DataError(f"line {line_no}: expected {width} fields, got {len(row)}")
        tick, kind = _parse_tick_cell(row[0], line_no)
        raw_ticks.append(tick)
        kinds.append(kind)
        parsed = []
        for name, cell in zip(names, row[1:]):
            cell = cell.strip()
            if cell == "":
                parsed.append(math.nan)
                continue
            try:
                parsed.append(float(cell))
            except ValueError:
                raise DataError(
                    f"line {line_no}: cannot parse value {cell!r} for KPI {name!r}"
                ) from None
        rows.append(parsed)
        line_nos.append(line_no)
    return raw_ticks, kinds, rows, line_nos


def load_csv(
    path,
    *,
    missing: str = "fail",
    granularity_seconds: int = 15,
) -> KpiPanel:
    """Load a panel from CSV: header row, column 1 = timestamp/tick,
    remaining columns = KPI floats.

    Timestamps may be integers (used as ticks directly) or ISO-8601 strings
    (normalized to ticks at `granularity_seconds`). Empty cells are resolved
    per `missing`: 'fail' (default), 'drop-row', or 'linear-interpolate'.

    The header is checked first, then the data rows take one of two routes
    that give the same panel. Rows that all have an integer tick, strictly
    increasing, and a finite number in every KPI column are read in one
    pass of numpy's C parser (`np.loadtxt`). Every other file is read by the
    Python row parser: ISO-8601 ticks, empty, `nan` or `inf` cells, quoted
    cells, `1_000`, `#` in a cell, whitespace-only or ragged rows, unordered
    ticks, a header-only file and bytes that are not UTF-8. Its errors name
    the file line at fault.
    """
    if missing not in MISSING_POLICIES:
        raise DataError(f"missing policy must be one of {MISSING_POLICIES}, got {missing!r}")
    if granularity_seconds <= 0:
        raise DataError("granularity_seconds must be positive")
    path = Path(path)
    if not path.exists():
        raise DataError(f"input file not found: {path}")
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            names = _read_header(csv.reader(fh), path)
            table = _read_table(fh, len(names))
            if table is None:
                fh.seek(0)
                reader = csv.reader(fh)
                next(reader)  # the header, checked above
                raw_ticks, kinds, rows, line_nos = _read_rows(reader, names)
    except (OSError, UnicodeDecodeError) as exc:
        raise unreadable(DataError, "input file", path, exc) from None
    if table is not None:
        return KpiPanel(ticks=table[0], kpi_names=names, values=table[1])
    if not rows:
        raise DataError(f"{path}: no data rows")
    values = np.asarray(rows, dtype=float)
    ticks = _normalize_ticks(raw_ticks, kinds, line_nos, granularity_seconds)
    values, ticks, kept = _resolve_missing(values, ticks, names, line_nos, missing)
    if values.shape[0] == 0:
        raise DataError(f"{path}: every row was dropped by the missing-value policy")
    unordered = ticks[1:] <= ticks[:-1]
    if unordered.any():
        bad = int(np.argmax(unordered)) + 1
        row, prev = kept[bad], kept[bad - 1]
        now, before = raw_ticks[row], raw_ticks[prev]
        if kinds[0] == "iso":
            now, before = now.isoformat(), before.isoformat()
        raise DataError(
            f"line {line_nos[row]}: timestamps not strictly increasing ({now} after {before})"
        )
    return KpiPanel(
        ticks=ticks,
        kpi_names=names,
        values=values,
    )


def save_csv(panel: KpiPanel, path) -> None:
    """Write a panel to CSV with full float precision (round-trip safe)."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("tick", *panel.kpi_names))
        for tick, row in zip(panel.ticks, panel.values):
            writer.writerow((int(tick), *(repr(float(v)) for v in row)))


def apply_sla_rule(panel: KpiPanel, rule: SlaRule) -> list[tuple[int, int]]:
    """Maximal half-open row ranges where the rule holds continuously for at
    least min_duration_ticks. Depends only on the named metric column."""
    series = panel.column(rule.metric)
    mask = _COMPARATORS[rule.comparator](series, rule.threshold)
    # the padded mask changes value where a run starts and one past its end
    runs = np.flatnonzero(np.diff(np.r_[False, mask, False])).reshape(-1, 2)
    runs = runs[runs[:, 1] - runs[:, 0] >= rule.min_duration_ticks]
    return [(start, end) for start, end in runs.tolist()]


def label_states(
    panel: KpiPanel,
    breach,
    normal_len: int,
    abnormal_len: int,
    *,
    lead_ticks: int = 0,
) -> LabeledPanel:
    """Label normal/abnormal windows around a breach onset.

    The abnormal window starts `lead_ticks` before the breach onset and
    spans abnormal_len ticks; the normal window of normal_len ticks ends
    exactly where the abnormal window starts.
    """
    breach_start = breach[0] if isinstance(breach, (tuple, list)) else int(breach)
    if normal_len < 1 or abnormal_len < 1:
        raise DataError("window lengths must be at least 1 tick")
    if lead_ticks < 0:
        raise DataError("lead_ticks must be non-negative")
    abnormal_start = breach_start - lead_ticks
    if abnormal_start - normal_len < 0:
        raise DataError(
            f"insufficient preceding data: need {normal_len} ticks before "
            f"tick {abnormal_start}, only {max(abnormal_start, 0)} available"
        )
    abnormal_end = abnormal_start + abnormal_len
    if abnormal_end > panel.n_ticks:
        raise DataError(
            f"insufficient following data: need {abnormal_len} ticks from "
            f"tick {abnormal_start}, only {panel.n_ticks - abnormal_start} available"
        )
    return LabeledPanel(
        panel=panel,
        normal_window=(abnormal_start - normal_len, abnormal_start),
        abnormal_window=(abnormal_start, abnormal_end),
    )
