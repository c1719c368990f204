import dataclasses
import operator

import numpy as np
import pytest

from rcseq import panel as panel_module
from rcseq.errors import DataError
from rcseq.panel import (
    KpiPanel,
    LabeledPanel,
    SlaRule,
    apply_sla_rule,
    label_states,
    load_csv,
    save_csv,
)


def write_csv(tmp_path, text, name="panel.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def reference_breach_runs(mask, min_duration_ticks):
    """Maximal runs of True in the mask, one tick at a time, as half-open
    ranges at least min_duration_ticks long."""
    ranges = []
    start = None
    for i, hit in enumerate(mask):
        if hit and start is None:
            start = i
        elif not hit and start is not None:
            ranges.append((start, i))
            start = None
    if start is not None:
        ranges.append((start, len(mask)))
    return [(s, e) for s, e in ranges if e - s >= min_duration_ticks]


def make_panel(values, names=None):
    values = np.asarray(values, dtype=float)
    names = tuple(names or (f"k{i}" for i in range(values.shape[1])))
    return KpiPanel(ticks=np.arange(values.shape[0]), kpi_names=names, values=values)


class TestLoadCsv:
    def test_basic_parse(self, tmp_path):
        p = write_csv(tmp_path, "t,A,B\n0,1.0,2.0\n1,1.5,2.5\n2,2.0,3.0\n")
        panel = load_csv(p)
        assert panel.n_ticks == 3
        assert panel.n_kpis == 2
        assert panel.kpi_names == ("A", "B")
        assert np.array_equal(panel.column("A"), [1.0, 1.5, 2.0])

    def test_empty_kpi_name_names_column(self, tmp_path):
        p = write_csv(tmp_path, "tick,,b\n0,1.0,2.0\n")
        with pytest.raises(DataError, match="header column 2 has no KPI name"):
            load_csv(p)

    def test_duplicate_kpi_name(self, tmp_path):
        p = write_csv(tmp_path, "t,A,A\n0,1,2\n")
        with pytest.raises(DataError, match="duplicate KPI name"):
            load_csv(p)

    def test_linear_interpolation(self, tmp_path):
        p = write_csv(tmp_path, "t,A\n0,1.0\n1,\n2,3.0\n")
        panel = load_csv(p, missing="linear-interpolate")
        assert panel.column("A")[1] == 2.0

    def test_missing_fails_by_default(self, tmp_path):
        p = write_csv(tmp_path, "t,A\n0,1.0\n1,\n2,3.0\n")
        with pytest.raises(DataError, match="line 3.*'A'"):
            load_csv(p)

    def test_missing_drop_row(self, tmp_path):
        p = write_csv(tmp_path, "t,A,B\n0,1.0,5.0\n1,,6.0\n2,3.0,7.0\n")
        panel = load_csv(p, missing="drop-row")
        assert panel.n_ticks == 2
        assert np.array_equal(panel.ticks, [0, 2])

    def test_edge_missing_not_interpolatable(self, tmp_path):
        p = write_csv(tmp_path, "t,A\n0,\n1,2.0\n")
        with pytest.raises(DataError, match="line 2"):
            load_csv(p, missing="linear-interpolate")

    def test_malformed_value_names_line(self, tmp_path):
        p = write_csv(tmp_path, "t,A\n0,1.0\n1,oops\n")
        with pytest.raises(DataError, match="line 3"):
            load_csv(p)

    def test_ragged_row(self, tmp_path):
        p = write_csv(tmp_path, "t,A,B\n0,1.0\n")
        with pytest.raises(DataError, match="line 2"):
            load_csv(p)

    def test_non_monotone_timestamps(self, tmp_path):
        p = write_csv(tmp_path, "t,A\n0,1.0\n2,2.0\n1,3.0\n")
        with pytest.raises(DataError, match="strictly increasing"):
            load_csv(p)

    @pytest.mark.parametrize(
        "text, line, tick",
        [("t,A\n0,1\n99999999999999999999,2\n", 3, "99999999999999999999"),
         ("t,A\n-9223372036854775809,1\n0,2\n", 2, "-9223372036854775809")],
        ids=["above", "below"],
    )
    def test_tick_outside_int64_names_line(self, tmp_path, text, line, tick):
        p = write_csv(tmp_path, text)
        with pytest.raises(DataError, match=f"^line {line}: tick '{tick}' is outside"):
            load_csv(p)

    def test_int64_extreme_ticks(self, tmp_path):
        # their difference does not fit in int64
        p = write_csv(tmp_path, "t,A\n-9223372036854775808,1\n9223372036854775807,2\n")
        assert load_csv(p).ticks.tolist() == [-(2**63), 2**63 - 1]
        with pytest.raises(DataError, match="strictly increasing"):
            KpiPanel(ticks=[2**63 - 1, -(2**63)], kpi_names=("a",), values=[[1.0], [2.0]])

    def test_iso_timestamps_normalize(self, tmp_path):
        p = write_csv(
            tmp_path,
            "time,A\n2025-01-01T00:00:00,1.0\n2025-01-01T00:00:15,2.0\n"
            "2025-01-01T00:00:30,3.0\n",
        )
        panel = load_csv(p, granularity_seconds=15)
        assert np.array_equal(panel.ticks, [0, 1, 2])

    def test_utc_designator_equals_zero_offset(self, tmp_path):
        # "Z" is read by datetime.fromisoformat from Python 3.11 on
        rows = [("00:00", 1.0), ("00:15", 2.0), ("00:30", 4.0)]
        zulu = "".join(f"2024-01-01T00:{t}Z,{v}\n" for t, v in rows)
        offset = "".join(f"2024-01-01T00:{t}+00:00,{v}\n" for t, v in rows)
        panel = load_csv(write_csv(tmp_path, "time,A\n" + zulu, "z.csv"))
        assert panel == load_csv(write_csv(tmp_path, "time,A\n" + offset, "offset.csv"))
        assert panel.ticks.tolist() == [0, 1, 2]

    def test_iso_off_grid(self, tmp_path):
        p = write_csv(
            tmp_path,
            "time,A\n2025-01-01T00:00:00,1.0\n2025-01-01T00:00:07,2.0\n",
        )
        with pytest.raises(DataError, match="granularity"):
            load_csv(p, granularity_seconds=15)

    @pytest.mark.parametrize(
        "first, second",
        [("2024-01-01T00:00:00+00:00", "2024-01-01T00:00:15"),
         ("2024-01-01T00:00:00", "2024-01-01T00:00:15+00:00")],
        ids=["aware-then-naive", "naive-then-aware"],
    )
    def test_mixed_time_zones_name_line(self, tmp_path, first, second):
        p = write_csv(tmp_path, f"time,A\n{first},1.0\n{second},2.0\n")
        with pytest.raises(DataError, match="line 3: .*UTC offset, unlike line 2"):
            load_csv(p)

    def test_granularity_must_be_positive(self, tmp_path):
        p = write_csv(tmp_path, "time,A\n2025-01-01T00:00:00,1.0\n2025-01-01T00:00:15,2.0\n")
        for granularity in (0, -15):
            with pytest.raises(DataError, match="granularity_seconds must be positive"):
                load_csv(p, granularity_seconds=granularity)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_csv(tmp_path / "nope.csv")

    def test_round_trip_value_identical(self, tmp_path):
        rng = np.random.default_rng(31)
        panel = make_panel(rng.normal(size=(40, 3)) * 1234.5678, names=("a", "b", "c"))
        out = tmp_path / "rt.csv"
        save_csv(panel, out)
        back = load_csv(out)
        assert back.kpi_names == panel.kpi_names
        assert np.array_equal(back.ticks, panel.ticks)
        assert np.array_equal(back.values, panel.values)


def panel_outcome(path, missing):
    """A loaded panel as (ticks, names, value bytes), or its DataError text."""
    try:
        panel = load_csv(path, missing=missing)
    except DataError as exc:
        return str(exc)
    return panel.ticks.tobytes(), panel.kpi_names, panel.values.tobytes()


def no_row_parser(*args):
    raise AssertionError("the row parser read a well-formed file")


# (id, CSV text, missing policy, read by numpy's C parser)
ROUTE_CASES = [
    ("crlf", "t,a,b\r\n0,1.5,2\r\n1,2.5,3\r\n", "fail", True),
    ("no-final-newline", "t,a\n0,1\n1,2", "fail", True),
    ("single-row", "t,a,b\n0,1,2\n", "fail", True),
    ("single-kpi", "t,a\n0,1\n1,2\n2,3\n", "fail", True),
    ("number-forms", "t,a,b,c\n0,-0.0,1e-320,.5\n1,5.,+1, 2.25 \n", "fail", True),
    ("blank-line", "t,a\n0,1\n\n1,2\n", "fail", True),
    ("inf", "t,a\n0,1\n1,inf\n", "fail", False),
    ("nan-fail", "t,a\n0,1\n1,nan\n2,3\n", "fail", False),
    ("nan-drop-row", "t,a\n0,1\n1,nan\n2,3\n", "drop-row", False),
    ("nan-interpolate", "t,a\n0,1\n1,nan\n2,3\n", "linear-interpolate", False),
    ("hash-in-cell", "t,a\n0,1#2\n", "fail", False),
    ("quoted-cell", 't,a\n0,"1.5"\n1,2\n', "fail", False),
    ("underscore", "t,a\n0,1_000\n", "fail", False),
    ("empty-cell", "t,a\n0,1\n1,\n2,3\n", "fail", False),
    ("short-row", "t,a,b\n0,1\n", "fail", False),
    ("whitespace-row", "t,a\n0,1\n   \n1,2\n", "fail", False),
    ("iso-ticks", "time,a\n2025-01-01T00:00:00,1\n2025-01-01T00:00:15,2\n", "fail", False),
    ("float-tick", "t,a\n1.0,1\n", "fail", False),
    ("unordered-ticks", "t,a\n0,1\n0,2\n", "fail", False),
    ("int64-extremes", "t,a\n-9223372036854775808,1\n9223372036854775807,2\n", "fail", True),
]


class TestLoadCsvRoutes:
    @pytest.mark.parametrize(
        "text, missing, fast", [c[1:] for c in ROUTE_CASES], ids=[c[0] for c in ROUTE_CASES]
    )
    def test_same_result_as_row_parser(self, tmp_path, monkeypatch, text, missing, fast):
        p = tmp_path / "panel.csv"
        p.write_bytes(text.encode("utf-8"))
        with monkeypatch.context() as m:
            m.setattr(panel_module, "_read_table", lambda fh, n_kpis: None)
            want = panel_outcome(p, missing)
        if fast:
            monkeypatch.setattr(panel_module, "_read_rows", no_row_parser)
        assert panel_outcome(p, missing) == want

    def test_well_formed_file_skips_row_parser(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(7)
        panel = make_panel(rng.normal(size=(300, 6)), names=tuple("abcdef"))
        save_csv(panel, tmp_path / "p.csv")
        monkeypatch.setattr(panel_module, "_read_rows", no_row_parser)
        back = load_csv(tmp_path / "p.csv")
        assert back.ticks.tobytes() == panel.ticks.tobytes()
        assert back.values.tobytes() == panel.values.tobytes()

    @pytest.mark.filterwarnings("error")
    def test_header_only_file(self, tmp_path):
        p = write_csv(tmp_path, "t,a,b\n")
        with pytest.raises(DataError, match="no data rows"):
            load_csv(p)

    def test_tick_order_error_after_dropped_row(self, tmp_path):
        # line 3 is dropped, so the repeated tick is the 4th row kept
        p = write_csv(tmp_path, "tick,a\n0,1\n1,\n2,3\n\n3,4\n3,5\n")
        want = r"^line 7: timestamps not strictly increasing \(3 after 3\)$"
        with pytest.raises(DataError, match=want):
            load_csv(p, missing="drop-row")

    def test_error_line_counts_lines_inside_quoted_cells(self, tmp_path):
        p = write_csv(tmp_path, 't,a\n0,"1\n"\n1,x\n')
        with pytest.raises(DataError, match="^line 4: cannot parse value 'x'"):
            load_csv(p)

    def test_tick_order_error_after_blank_line(self, tmp_path):
        p = write_csv(tmp_path, "tick,a\n0,1\n\n\n1,2\n0,3\n")
        want = r"^line 6: timestamps not strictly increasing \(0 after 1\)$"
        with pytest.raises(DataError, match=want):
            load_csv(p)


class TestPanelInvariants:
    def test_values_read_only(self):
        panel = make_panel([[1.0, 2.0]])
        with pytest.raises(ValueError):
            panel.values[0, 0] = 9.0

    def test_non_finite_rejected(self):
        with pytest.raises(DataError, match="finite"):
            make_panel([[1.0], [np.inf]])

    @pytest.mark.parametrize(
        "ticks",
        [[0.5, 1.5, 2.7], [0.0, np.nan], [0.0, np.inf], [0.0, 2.0**63], [0, 2**63], [0, 2**70],
         np.array([0, 2**63], dtype=np.uint64)],
        ids=["fractional", "nan", "inf", "float-2^63", "int-2^63", "int-2^70", "uint64-2^63"],
    )
    def test_tick_not_an_int64_integer_rejected(self, ticks):
        with pytest.raises(DataError, match="ticks must be integers inside the int64 range"):
            KpiPanel(ticks=ticks, kpi_names=("a",), values=[[1.0]] * len(ticks))

    def test_integral_float_ticks_accepted(self):
        panel = KpiPanel(ticks=[-(2.0**63), 3.0], kpi_names=("a",), values=[[1.0], [2.0]])
        assert panel.ticks.dtype == np.int64
        assert panel.ticks.tolist() == [-(2**63), 3]

    def test_restrict_preserves_order(self):
        panel = make_panel([[1.0, 2.0, 3.0]], names=("a", "b", "c"))
        sub = panel.restrict(["c", "a"])
        assert sub.kpi_names == ("c", "a")
        assert np.array_equal(sub.values, [[3.0, 1.0]])


    def test_index_of(self):
        panel = make_panel([[1.0, 2.0, 3.0]], names=("a", "b", "c"))
        assert [panel.index_of(n) for n in ("c", "a", "b")] == [2, 0, 1]
        assert panel.index_of(np.str_("b")) == 1
        for unknown in ("d", 0, ["a"]):
            with pytest.raises(DataError, match="unknown metric"):
                panel.index_of(unknown)

    def test_lookup_table_is_not_a_field(self):
        # index_of's table stays out of the dataclass fields, so repr and
        # equality read the fields only
        panel = make_panel([[1.0, 2.0]], names=("a", "b"))
        assert [f.name for f in dataclasses.fields(panel)] == ["ticks", "kpi_names", "values"]
        assert repr(panel).startswith("KpiPanel(ticks=array([0]), kpi_names=('a', 'b'), values=")
        assert "_columns" not in repr(panel)
        assert dataclasses.replace(panel, kpi_names=("b", "a")).index_of("a") == 1


class TestValueEquality:
    """KpiPanel and LabeledPanel compare by value, arrays included."""

    def panel(self, names=("a", "b"), ticks=(0, 1, 2, 3), last=8.0):
        values = [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, last]]
        return KpiPanel(ticks=np.array(ticks), kpi_names=names, values=np.array(values))

    def test_kpi_panel(self):
        assert self.panel() == self.panel()
        assert self.panel() != self.panel(last=9.0)
        assert self.panel() != self.panel(names=("a", "c"))
        assert self.panel() != self.panel(ticks=(0, 1, 2, 4))
        assert self.panel() != "panel"

    def test_labeled_panel(self):
        def labeled(panel, normal=(0, 2)):
            return LabeledPanel(panel=panel, normal_window=normal, abnormal_window=(2, 4))

        assert labeled(self.panel()) == labeled(self.panel())
        assert labeled(self.panel()) != labeled(self.panel(last=9.0))
        assert labeled(self.panel()) != labeled(self.panel(names=("a", "c")))
        assert labeled(self.panel()) != labeled(self.panel(), normal=(1, 2))


class TestApplySlaRule:
    def test_breach_range(self):
        panel = make_panel(np.array([[600.0], [480.0], [470.0], [520.0]]), names=("DL",))
        rule = SlaRule(metric="DL", comparator="<", threshold=500.0, min_duration_ticks=2)
        assert apply_sla_rule(panel, rule) == [(1, 3)]

    def test_no_breach(self):
        panel = make_panel(np.array([[600.0], [700.0]]), names=("DL",))
        rule = SlaRule("DL", "<", 500.0, 2)
        assert apply_sla_rule(panel, rule) == []

    def test_maximal_run(self):
        panel = make_panel(np.array([[450.0], [450.0], [450.0]]), names=("DL",))
        rule = SlaRule("DL", "<", 500.0, 2)
        assert apply_sla_rule(panel, rule) == [(0, 3)]

    def test_short_runs_filtered(self):
        panel = make_panel(
            np.array([[450.0], [600.0], [450.0], [450.0], [600.0]]), names=("DL",)
        )
        rule = SlaRule("DL", "<", 500.0, 2)
        assert apply_sla_rule(panel, rule) == [(2, 4)]

    def test_unknown_metric(self):
        panel = make_panel([[1.0]], names=("A",))
        with pytest.raises(DataError, match="unknown metric.*'B'"):
            apply_sla_rule(panel, SlaRule("B", "<", 0.0, 1))

    def test_idempotent_and_column_local(self):
        rng = np.random.default_rng(4)
        values = rng.normal(size=(50, 3))
        panel = make_panel(values, names=("a", "b", "c"))
        rule = SlaRule("b", ">", 0.5, 2)
        first = apply_sla_rule(panel, rule)
        assert apply_sla_rule(panel, rule) == first
        # perturbing other columns must not change the result
        perturbed = values.copy()
        perturbed[:, [0, 2]] += 100.0
        assert apply_sla_rule(make_panel(perturbed, names=("a", "b", "c")), rule) == first

    @pytest.mark.parametrize("comparator", ["<", "<=", ">", ">="])
    def test_matches_reference_runs(self, comparator):
        compare = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}
        rng = np.random.default_rng(17)
        for _ in range(200):
            # a few distinct levels, so every comparator meets ties at the threshold
            values = rng.integers(0, 4, size=(int(rng.integers(1, 40)), 1)).astype(float)
            panel = make_panel(values, names=("m",))
            mask = [compare[comparator](v, 2.0) for v in values[:, 0]]
            for min_duration in range(5):
                rule = SlaRule("m", comparator, 2.0, min_duration)
                assert apply_sla_rule(panel, rule) == reference_breach_runs(mask, min_duration)

    def test_bad_comparator(self):
        with pytest.raises(DataError, match="comparator"):
            SlaRule("A", "!=", 0.0, 1)

    def test_unicode_comparators_normalized(self):
        assert SlaRule("A", "≤", 0.0, 1).comparator == "<="
        assert SlaRule("A", "≥", 0.0, 1).comparator == ">="


class TestLabelStates:
    def test_paper_scale_windows(self):
        panel = make_panel(np.zeros((240, 1)))
        labeled = label_states(panel, 120, normal_len=120, abnormal_len=120)
        assert labeled.normal_window == (0, 120)
        assert labeled.abnormal_window == (120, 240)
        assert int(labeled.fnode[:120].sum()) == 0
        assert int(labeled.fnode[120:].sum()) == 120

    def test_insufficient_preceding(self):
        panel = make_panel(np.zeros((240, 1)))
        with pytest.raises(DataError, match="insufficient preceding.*50"):
            label_states(panel, 50, normal_len=120, abnormal_len=60)

    def test_insufficient_following(self):
        panel = make_panel(np.zeros((100, 1)))
        with pytest.raises(DataError, match="insufficient following"):
            label_states(panel, 90, normal_len=10, abnormal_len=60)

    def test_minimal_case(self):
        panel = make_panel(np.zeros((2, 1)))
        labeled = label_states(panel, 1, normal_len=1, abnormal_len=1)
        assert np.array_equal(labeled.fnode, [0, 1])

    def test_breach_range_accepted(self):
        panel = make_panel(np.zeros((240, 1)))
        labeled = label_states(panel, (120, 140), normal_len=100, abnormal_len=100)
        assert labeled.abnormal_window == (120, 220)

    def test_lead_offset(self):
        panel = make_panel(np.zeros((240, 1)))
        labeled = label_states(panel, 140, normal_len=100, abnormal_len=100, lead_ticks=20)
        assert labeled.abnormal_window == (120, 220)
        assert labeled.normal_window == (20, 120)

    def test_partition_counts(self):
        panel = make_panel(np.zeros((200, 1)))
        labeled = label_states(panel, 100, normal_len=80, abnormal_len=90)
        a0, a1 = labeled.abnormal_window
        n0, n1 = labeled.normal_window
        assert int(labeled.fnode.sum()) == a1 - a0 == 90
        assert (n1 - n0) == 80
        assert np.all(labeled.fnode[n0:n1] == 0)
