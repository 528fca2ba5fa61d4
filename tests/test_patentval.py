import contextlib
import csv
import datetime as dt
import io
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.integrate import quad

from newsvar import cli, patentval
from newsvar.errors import DataError, NumericalError
from newsvar.panel import parse_quarter, quarter_range
from newsvar.patentval import (
    InnovationIndex,
    PatentEvent,
    PatentEvents,
    _mills_ratio,
    assign_values,
    build_index,
    filter_value,
    index_stats,
    load_events,
    quarter_of,
    write_index,
)


def quadrature_value(window_return, sigma_v, sigma_e, market_cap):
    """Numerical-integration oracle: integrate prior times likelihood on
    v >= 0 directly. The integrand is shifted by its grid maximum before
    exponentiating purely for numerical range; the ratio is shift-invariant.
    """

    def log_weight(v):
        return -0.5 * (v / sigma_v) ** 2 - 0.5 * ((window_return - v) / sigma_e) ** 2

    upper = 12.0 * sigma_v + max(window_return, 0.0)
    grid = np.linspace(0.0, upper, 20001)
    shift = log_weight(grid).max()
    mode = float(grid[np.argmax(log_weight(grid))])

    def weight(v):
        return math.exp(log_weight(v) - shift)

    den, _ = quad(weight, 0.0, upper, points=[mode], limit=200)
    num, _ = quad(lambda v: v * weight(v), 0.0, upper, points=[mode], limit=200)
    return market_cap * num / den


def parameter_grid():
    returns = np.linspace(-0.08, 0.10, 10)
    grid = [
        (float(r), sv, se)
        for sv in (0.01, 0.02, 0.05, 0.1, 0.2)
        for se in (0.01, 0.05)
        for r in returns
    ]
    assert len(grid) == 100
    return grid


class TestFilterValue:
    def test_example_point_matches_quadrature(self):
        got = filter_value(0.01, 0.02, 0.02, 1e9)
        want = quadrature_value(0.01, 0.02, 0.02, 1e9)
        assert got == pytest.approx(want, rel=1e-6)

    def test_quadrature_oracle_on_full_grid(self):
        for r, sv, se in parameter_grid():
            got = filter_value(r, sv, se, 1.0)
            want = quadrature_value(r, sv, se, 1.0)
            assert got == pytest.approx(want, rel=1e-6), (r, sv, se)

    def test_monotone_increasing_in_return(self):
        for sv in (0.01, 0.05, 0.2):
            for se in (0.01, 0.05):
                values = [
                    filter_value(r, sv, se, 1.0)
                    for r in np.linspace(-0.08, 0.10, 10)
                ]
                assert all(a < b for a, b in zip(values, values[1:]))

    def test_always_strictly_positive(self):
        for r, sv, se in parameter_grid():
            assert filter_value(r, sv, se, 1.0) > 0.0

    def test_vanishing_signal_limit(self):
        # as the prior scale goes to zero the filtered value collapses
        value = filter_value(0.05, 1e-10, 0.02, 1.0)
        assert 0.0 < value < 2e-10

    def test_large_return_limit(self):
        # Mills term vanishes: value approaches cap * delta * r
        sv, se, r = 0.02, 0.02, 10.0
        delta = sv**2 / (sv**2 + se**2)
        assert filter_value(r, sv, se, 1.0) == pytest.approx(delta * r, rel=1e-8)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            filter_value(0.01, 0.0, 0.02, 1.0)
        with pytest.raises(ValueError):
            filter_value(0.01, 0.02, -1.0, 1.0)
        with pytest.raises(ValueError):
            filter_value(0.01, 0.02, 0.02, 0.0)


def event(day, firm="acme", green=False, ret=0.01, cap=1e9, value=None):
    return PatentEvent(
        grant_date=dt.date.fromisoformat(day),
        firm_id=firm,
        green=green,
        window_return=ret,
        market_cap=cap,
        value=value,
    )


class TestBuildIndex:
    def test_no_events_gives_zero_series(self):
        idx = build_index([], "1999Q1", "2000Q4")
        assert idx.dates == [
            "1999Q1", "1999Q2", "1999Q3", "1999Q4",
            "2000Q1", "2000Q2", "2000Q3", "2000Q4",
        ]
        assert_array_equal(idx.gpbii, np.zeros(8))
        assert_array_equal(idx.ngpbii, np.zeros(8))

    def test_single_green_event(self):
        idx = build_index(
            [event("1999-05-01", green=True, value=5.0)], "1999Q1", "1999Q4"
        )
        assert_array_equal(idx.gpbii, [0.0, 5.0, 0.0, 0.0])
        assert_array_equal(idx.ngpbii, np.zeros(4))

    def test_same_quarter_events_add(self):
        events = [
            event("1999-04-02", green=True, value=2.0),
            event("1999-06-28", firm="other", green=True, value=3.0),
        ]
        idx = build_index(events, "1999Q2", "1999Q2")
        assert_array_equal(idx.gpbii, [5.0])

    def test_green_and_non_green_kept_apart(self):
        events = [
            event("1999-04-02", green=True, value=2.0),
            event("1999-05-02", firm="b", green=False, value=7.0),
        ]
        idx = build_index(events, "1999Q2", "1999Q2")
        assert_array_equal(idx.gpbii, [2.0])
        assert_array_equal(idx.ngpbii, [7.0])

    def test_event_outside_range_rejected(self):
        with pytest.raises(DataError, match="outside index range"):
            build_index([event("1998-01-01", value=1.0)], "1999Q1", "1999Q4")

    def test_unvalued_event_rejected(self):
        with pytest.raises(DataError, match="no value"):
            build_index([event("1999-02-01")], "1999Q1", "1999Q4")

    def test_negative_value_rejected(self):
        with pytest.raises(DataError, match="negative value"):
            build_index([event("1999-02-01", value=-1.0)], "1999Q1", "1999Q4")

    def test_conservation_is_exact_for_representable_values(self):
        # dyadic values sum without rounding at every stage
        rng = np.random.default_rng(0)
        events = []
        total = 0.0
        day = dt.date(1990, 1, 1)
        for i in range(500):
            day = day + dt.timedelta(days=int(rng.integers(0, 30)))
            value = float(rng.integers(1, 1 << 30)) / 64.0
            total += value
            events.append(
                event(day.isoformat(), firm=f"f{i}", green=bool(i % 3), value=value)
            )
        idx = build_index(events, quarter_of(events[0].grant_date),
                          quarter_of(events[-1].grant_date))
        assert math.fsum(list(idx.gpbii) + list(idx.ngpbii)) == total

    def test_quarter_of_calendar_dates(self):
        assert quarter_of(dt.date(1999, 1, 1)) == "1999Q1"
        assert quarter_of(dt.date(1999, 3, 31)) == "1999Q1"
        assert quarter_of(dt.date(1999, 4, 1)) == "1999Q2"
        assert quarter_of(dt.date(1999, 12, 31)) == "1999Q4"


class TestAssignValues:
    def test_values_filled_with_filter(self):
        events = [event("1999-05-01", ret=0.02, cap=2e9)]
        out = assign_values(events, sigma_v=0.02, default_sigma_e=0.02)
        assert out[0].value == pytest.approx(
            filter_value(0.02, 0.02, 0.02, 2e9), rel=1e-15
        )

    def test_same_firm_day_split_equally(self):
        events = [
            event("1999-05-01", green=True, ret=0.02),
            event("1999-05-01", green=False, ret=0.02),
        ]
        out = assign_values(events, 0.02, 0.02)
        total = filter_value(0.02, 0.02, 0.02, 1e9)
        assert out[0].value == pytest.approx(total / 2.0, rel=1e-15)
        assert out[0].value == out[1].value

    def test_per_event_noise_scale_wins_over_default(self):
        ev = event("1999-05-01", ret=0.02)
        ev.sigma_e = 0.1
        out = assign_values([ev], 0.02, 0.02)
        assert out[0].value == pytest.approx(
            filter_value(0.02, 0.02, 0.1, 1e9), rel=1e-15
        )

    def test_inconsistent_same_day_rows_rejected(self):
        events = [
            event("1999-05-01", ret=0.02),
            event("1999-05-01", ret=0.03),
        ]
        with pytest.raises(DataError, match="inconsistent window data"):
            assign_values(events, 0.02, 0.02)


class TestIndexStats:
    def test_identical_series(self):
        values = np.array([1.0, 2.0, 4.0, 3.0])
        idx = InnovationIndex(
            dates=["1999Q1", "1999Q2", "1999Q3", "1999Q4"],
            gpbii=values.copy(),
            ngpbii=values.copy(),
        )
        stats = index_stats(idx)
        assert stats.level_correlation == pytest.approx(1.0, abs=1e-12)
        assert stats.growth_correlation == pytest.approx(1.0, abs=1e-12)
        assert_allclose(stats.ratio, np.ones(4))

    def test_proportional_series_at_five_percent(self):
        rng = np.random.default_rng(1)
        base = np.exp(rng.normal(size=40)) + 1.0
        idx = InnovationIndex(
            dates=[f"{1990 + i // 4}Q{i % 4 + 1}" for i in range(40)],
            gpbii=0.05 * base,
            ngpbii=base.copy(),
        )
        stats = index_stats(idx)
        assert stats.level_correlation == pytest.approx(1.0, abs=1e-12)
        assert_allclose(stats.ratio, np.full(40, 0.05), rtol=1e-12)

    def test_independent_series_near_zero_correlation(self):
        rng = np.random.default_rng(2)
        t = 10_000
        idx = InnovationIndex(
            dates=[f"{1000 + i // 4}Q{i % 4 + 1}" for i in range(t)],
            gpbii=np.exp(rng.normal(size=t) * 0.3) + 0.5,
            ngpbii=np.exp(rng.normal(size=t) * 0.3) + 0.5,
        )
        stats = index_stats(idx)
        assert abs(stats.level_correlation) < 0.03
        assert abs(stats.growth_correlation) < 0.03

    def test_zero_non_green_quarter_rejected(self):
        idx = InnovationIndex(
            dates=["1999Q1", "1999Q2", "1999Q3"],
            gpbii=np.ones(3),
            ngpbii=np.array([1.0, 0.0, 1.0]),
        )
        with pytest.raises(DataError, match="1999Q2"):
            index_stats(idx)

    def test_zero_variance_rejected(self):
        idx = InnovationIndex(
            dates=["1999Q1", "1999Q2", "1999Q3"],
            gpbii=np.ones(3),
            ngpbii=np.ones(3),
        )
        with pytest.raises(NumericalError, match="zero-variance"):
            index_stats(idx)


class TestEventsIo:
    def test_round_trip_through_csv(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text(
            "grant_date,firm_id,green,window_return,market_cap,sigma_e\n"
            "1999-05-01,acme,1,0.02,1000000000.0,\n"
            "1999-06-01,zorg,0,-0.01,5000000000.0,0.05\n",
            encoding="utf-8",
        )
        events = load_events(path)
        assert len(events) == 2
        assert events[0].green and not events[1].green
        assert events[0].sigma_e is None
        assert events[1].sigma_e == 0.05

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("grant_date,firm_id\n1999-05-01,acme\n", encoding="utf-8")
        with pytest.raises(DataError, match="missing columns"):
            load_events(path)

    def test_bad_green_flag_rejected(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text(
            "grant_date,firm_id,green,window_return,market_cap\n"
            "1999-05-01,acme,yes,0.02,1e9\n",
            encoding="utf-8",
        )
        with pytest.raises(DataError, match="green flag"):
            load_events(path)

    @staticmethod
    def write_rows(tmp_path, *rows):
        path = tmp_path / "events.csv"
        path.write_text(
            "grant_date,firm_id,green,window_return,market_cap,sigma_e\n"
            + "".join(row + "\n" for row in rows),
            encoding="utf-8",
        )
        return path

    GOOD = "1999-05-01,acme,1,0.02,1e9,"

    def test_bad_grant_date_names_row(self, tmp_path):
        path = self.write_rows(tmp_path, self.GOOD, "1999-13-01,acme,1,0.02,1e9,")
        with pytest.raises(DataError, match=r"^row 3: bad grant_date '1999-13-01'$"):
            load_events(path)

    @pytest.mark.parametrize(
        "day", ["19990501", "1999-W17-6", "1999W176", "1999-5-01", "１９９９-05-01"]
    )
    def test_only_yyyy_mm_dd_grant_dates(self, tmp_path, day):
        # before: Python 3.11's date.fromisoformat read the basic and ISO
        # week spellings, which 3.10 refuses
        path = self.write_rows(tmp_path, self.GOOD, self.GOOD, f"{day},acme,1,0.02,1e9,")
        with pytest.raises(DataError, match=rf"^row 4: bad grant_date '{day}'$"):
            load_events(path)

    def test_non_numeric_cell_names_row(self, tmp_path):
        path = self.write_rows(
            tmp_path, self.GOOD, self.GOOD, "1999-05-02,acme,0,abc,1e9,"
        )
        with pytest.raises(DataError, match=r"^row 4: non-numeric cell$"):
            load_events(path)

    @pytest.mark.parametrize("cap", ["0", "-5e8", "0.0"])
    def test_non_positive_market_cap_names_row(self, tmp_path, cap):
        path = self.write_rows(tmp_path, self.GOOD, f"1999-05-02,zorg,0,0.01,{cap},")
        with pytest.raises(DataError, match=r"^row 3: market_cap must be > 0$"):
            load_events(path)

    def test_first_bad_row_is_named_across_columns(self, tmp_path):
        # a bad cap on row 3 is reported before a bad date on row 4
        path = self.write_rows(
            tmp_path, self.GOOD, "1999-05-02,zorg,0,0.01,x,", "1999-02-30,acme,1,0.02,1e9,"
        )
        with pytest.raises(DataError, match=r"^row 3: non-numeric cell$"):
            load_events(path)

    @pytest.mark.parametrize(
        "row, column",
        [
            ("1999-05-02,zorg,0,nan,1e9,", "window_return"),
            ("1999-05-02,zorg,0,-inf,1e9,", "window_return"),
            ("1999-05-02,zorg,0,0.01,inf,", "market_cap"),
            ("1999-05-02,zorg,0,0.01,NaN,", "market_cap"),
            ("1999-05-02,zorg,0,0.01,1e9,nan", "sigma_e"),
            ("1999-05-02,zorg,0,0.01,1e9,Infinity", "sigma_e"),
        ],
    )
    def test_non_finite_cell_names_row(self, tmp_path, row, column):
        path = self.write_rows(tmp_path, self.GOOD, self.GOOD, row)
        with pytest.raises(DataError, match=rf"^row 4: {column} must be finite$"):
            load_events(path)

    @pytest.mark.parametrize("sigma", ["0", "-0.05"])
    def test_non_positive_sigma_e_names_row(self, tmp_path, sigma):
        path = self.write_rows(tmp_path, self.GOOD, f"1999-05-02,zorg,0,0.01,1e9,{sigma}")
        with pytest.raises(DataError, match=r"^row 3: sigma_e must be > 0$"):
            load_events(path)

    def test_short_row_missing_required_cells_names_row(self, tmp_path):
        path = self.write_rows(tmp_path, self.GOOD, "1999-05-02,zorg,0")
        with pytest.raises(DataError, match=r"^row 3: missing cells$"):
            load_events(path)

    def test_short_row_without_sigma_e_uses_default(self, tmp_path):
        path = self.write_rows(tmp_path, "1999-05-02,zorg,0,0.01,1e9", self.GOOD)
        events = load_events(path)
        assert [e.sigma_e for e in events] == [None, None]

    def test_blank_lines_are_skipped(self, tmp_path):
        path = self.write_rows(tmp_path, self.GOOD, "", "1999-02-30,acme,1,0.02,1e9,")
        with pytest.raises(DataError, match=r"^row 3: bad grant_date"):
            load_events(path)

    def test_blocks_keep_rows_and_row_numbers(self, tmp_path, monkeypatch):
        rows = [f"1999-05-{day:02d},f{day % 3},{day % 2},0.0{day},1e9,{'0.03' if day % 4 else ''}"
                for day in range(1, 11)]
        whole = load_events(self.write_rows(tmp_path, *rows))
        monkeypatch.setattr(patentval, "_BLOCK_ROWS", 3)
        assert list(load_events(self.write_rows(tmp_path, *rows))) == list(whole)
        rows[7] = "1999-05-08,f2,0,oops,1e9,"
        with pytest.raises(DataError, match=r"^row 9: non-numeric cell$"):
            load_events(self.write_rows(tmp_path, *rows))

    def test_index_csv_feeds_panel_loader(self, tmp_path):
        from newsvar.panel import load_panel

        idx = build_index(
            [event("1999-05-01", green=True, value=5.0)], "1999Q1", "1999Q4"
        )
        path = tmp_path / "index.csv"
        write_index(idx, path)
        panel = load_panel(path)
        assert panel.names == ["gpbii", "ngpbii"]
        assert_array_equal(panel.column("gpbii"), [0.0, 5.0, 0.0, 0.0])


class TestPatentEvents:
    EVENTS = [
        PatentEvent(dt.date(1999, 5, 1), "acme", True, 0.02, 1e9),
        PatentEvent(dt.date(1969, 12, 31), "zorg", False, -0.5, 3e9, sigma_e=0.05),
        PatentEvent(dt.date(2001, 1, 1), "acme", False, 0.0, 2e9, value=4.5),
    ]

    def test_stack_round_trip(self):
        stacked = PatentEvents.stack(self.EVENTS)
        assert len(stacked) == 3
        assert list(stacked) == self.EVENTS
        assert stacked[-1] == self.EVENTS[-1]
        assert PatentEvents.stack(stacked) is stacked
        assert np.isnan(stacked.sigma_e[0]) and np.isnan(stacked.value[0])

    def test_empty_stack(self):
        assert len(PatentEvents.stack([])) == 0
        assert len(assign_values([], 0.02, 0.02)) == 0

    def test_inconsistent_columns_rejected(self):
        stacked = PatentEvents.stack(self.EVENTS)
        with pytest.raises(ValueError, match="inconsistent event columns"):
            PatentEvents(*(stacked.grant_date[:2],) + tuple(
                getattr(stacked, name)
                for name in ("firm_id", "green", "window_return", "market_cap", "sigma_e", "value")
            ))

    def test_assign_values_sorts_stably(self):
        events = [
            event("1999-05-02", firm="b", green=True),
            event("1999-05-01", firm="z", green=True),
            event("1999-05-02", firm="a", green=False),
            event("1999-05-02", firm="b", green=False),
            event("1999-05-02", firm="b", green=True),
        ]
        out = assign_values(events, 0.02, 0.02)
        assert [(e.firm_id, e.green) for e in out] == [
            ("z", True), ("a", False), ("b", True), ("b", False), ("b", True),
        ]
        assert out[2].value == out[3].value == out[4].value

    def test_first_inconsistent_group_in_input_is_named(self):
        # the 2000 group appears first in the input, the 1999 group sorts first
        events = [
            event("2000-01-03", firm="late", ret=0.01),
            event("1999-01-04", firm="early", ret=0.01),
            event("2000-01-03", firm="late", ret=0.02),
            event("1999-01-04", firm="early", ret=0.02),
        ]
        with pytest.raises(DataError, match="firm late on 2000-01-03"):
            assign_values(events, 0.02, 0.02)

    def test_first_bad_event_in_grant_order_is_named(self):
        events = [event("1999-03-01", firm="b"), event("1999-02-01", firm="a")]
        with pytest.raises(DataError, match="for a on 1999-02-01 has no value"):
            build_index(events, "1999Q1", "1999Q4")


def _write_oracle_events(path, seed=17, groups=12_000):
    """Shuffled grant events: same-day groups of 1-4 grants sharing return,
    cap and noise scale, a per-row sigma_e on a third of the groups, and
    returns down to -3, where Phi(z) underflows and only erfcx keeps the
    Mills ratio finite."""
    rng = np.random.default_rng(seed)
    first = dt.date(1950, 1, 1).toordinal()
    days, firms = np.divmod(rng.choice(70 * 365 * 300, groups, replace=False), 300)
    size = rng.integers(1, 5, groups)
    ret = np.where(
        rng.uniform(size=groups) < 0.1,
        rng.uniform(-3.0, -0.2, groups),
        rng.normal(0.001, 0.01, groups),
    )
    cap = np.exp(rng.normal(21.0, 1.5, groups))
    sigma = np.where(rng.uniform(size=groups) < 0.33, rng.uniform(0.005, 0.1, groups), np.nan)
    rows = []
    for g in range(groups):
        day = dt.date.fromordinal(first + int(days[g])).isoformat()
        sigma_cell = "" if np.isnan(sigma[g]) else repr(float(sigma[g]))
        for _ in range(size[g]):
            green = int(rng.uniform() < 0.35)
            rows.append(
                f"{day},firm{firms[g]},{green},{float(ret[g])!r},{float(cap[g])!r},{sigma_cell}\n"
            )
    rows = [rows[i] for i in rng.permutation(len(rows))]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("grant_date,firm_id,green,window_return,market_cap,sigma_e\n")
        fh.writelines(rows)
    return len(rows)


def _reference_index(path, sigma_v, default_sigma_e):
    """Event-by-event index: one scalar filter_value call per (firm, day)
    group, an equal split, and an fsum per (quarter, green) bucket."""
    groups = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            key = (row["firm_id"], dt.date.fromisoformat(row["grant_date"]))
            groups.setdefault(key, []).append(row)
    buckets = {}
    for (_, day), rows in groups.items():
        lead = rows[0]
        sigma_e = float(lead["sigma_e"]) if lead["sigma_e"] else default_sigma_e
        total = filter_value(
            float(lead["window_return"]), sigma_v, sigma_e, float(lead["market_cap"])
        )
        for row in rows:
            key = (quarter_of(day), row["green"] == "1")
            buckets.setdefault(key, []).append(total / len(rows))
    quarters = sorted({q for q, _ in buckets}, key=parse_quarter)
    dates = quarter_range(quarters[0], quarters[-1])

    def series(green):
        return np.array([math.fsum(buckets.get((d, green), [])) for d in dates])

    return InnovationIndex(dates=dates, gpbii=series(True), ngpbii=series(False))


class TestColumnarOracle:
    @pytest.fixture(scope="class")
    def events_file(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("oracle") / "events.csv"
        count = _write_oracle_events(path)
        assert 20_000 <= count <= 40_000
        return path

    def test_index_equals_event_by_event_reference_bitwise(self, events_file):
        events = load_events(events_file)
        # the data exercise grouping, per-row noise scales and erfcx
        assert np.isfinite(events.sigma_e).mean() > 0.2
        assert events.window_return.min() < -2.0
        ref = _reference_index(events_file, 0.02, 0.03)
        idx = build_index(assign_values(events, 0.02, 0.03), ref.dates[0], ref.dates[-1])
        assert idx.dates == ref.dates
        assert idx.gpbii.tobytes() == ref.gpbii.tobytes()
        assert idx.ngpbii.tobytes() == ref.ngpbii.tobytes()

    def test_cli_index_csv_is_byte_identical_to_reference(self, events_file, tmp_path):
        config = tmp_path / "run.yaml"
        config.write_text(
            f"out: {tmp_path / 'out'}\nseed: 0\nindex:\n  events: {events_file}\n"
            "  sigma_v: 0.02\n  sigma_e: 0.03\n",
            encoding="utf-8",
        )
        assert cli.main(["index", "--config", str(config)]) == 0
        write_index(_reference_index(events_file, 0.02, 0.03), tmp_path / "ref.csv")
        assert (tmp_path / "out" / "index.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_list_and_columnar_inputs_agree(self, events_file):
        events = load_events(events_file)
        from_columns = assign_values(events, 0.02, 0.03)
        from_list = assign_values(list(events), 0.02, 0.03)
        assert list(from_list) == list(from_columns)
        assert from_list.value.tobytes() == from_columns.value.tobytes()
        start, end = "1949Q1", "2021Q4"
        a = build_index(from_columns, start, end)
        b = build_index(list(from_columns), start, end)
        assert a.gpbii.tobytes() == b.gpbii.tobytes()
        assert a.ngpbii.tobytes() == b.ngpbii.tobytes()

    def test_assign_values_counts_one_filter_call(self, events_file, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return filter_value(*args)

        monkeypatch.setattr(patentval, "filter_value", counted)
        assign_values(load_events(events_file), 0.02, 0.03)
        assert len(calls) == 1


def _load_through_cli(path):
    """``load_events`` as the index command meets it: runs ``index`` on
    ``path``; a file the command refuses must be exit 3, and its message
    is raised again as the DataError the loader gave."""
    config = path.parent / "cli_run.yaml"
    config.write_text(
        f"out: {path.parent / 'cli_out'}\nseed: 0\nindex:\n  events: {path}\n"
        "  sigma_v: 0.02\n  sigma_e: 0.02\n",
        encoding="utf-8",
    )
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["index", "--config", str(config)])
    if code == 0:
        return patentval.load_events(path)
    assert code == 3, stderr.getvalue()
    raise DataError(stderr.getvalue().removeprefix("data error: ").removesuffix("\n"))


class TestEventsIoThroughCli(TestEventsIo):
    """Every TestEventsIo case again, with each load going through the
    index command: a malformed events file exits 3 with the parser's
    message, never 4 through a numpy error."""

    @pytest.fixture(autouse=True)
    def through_cli(self, monkeypatch):
        monkeypatch.setitem(globals(), "load_events", _load_through_cli)


def _write_benchmark_shaped_events(path, count=3000):
    """Events laid out as the benchmark generator writes them: no sigma_e
    column, sorted by (day, firm), firms named firm<k>, floats as repr."""
    rng = np.random.default_rng(5)
    first = np.datetime64("1961-01-01")
    day = np.sort(rng.integers(0, 56 * 365, count))
    dates = np.datetime_as_string(first + day).tolist()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("grant_date,firm_id,green,window_return,market_cap\n")
        fh.writelines(
            f"{d},firm{f},{g},{float(r)!r},{float(c)!r}\n"
            for d, f, g, r, c in zip(
                dates,
                rng.integers(0, 400, count).tolist(),
                (rng.uniform(size=count) < 0.35).astype(int).tolist(),
                0.004 * rng.standard_normal(count),
                np.exp(rng.normal(22.0, 1.0, count)),
            )
        )


def assert_same_events(got, want):
    for name in ("grant_date", "green", "window_return", "market_cap", "sigma_e", "value"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert got.firm_id.dtype == want.firm_id.dtype == object
    assert got.firm_id.tolist() == want.firm_id.tolist()


def _outcome(load, path):
    try:
        return load(path)
    except DataError as exc:
        return str(exc)


def assert_same_outcome(got, want):
    """Both loads raised the same DataError message, or gave equal columns."""
    if isinstance(got, str) or isinstance(want, str):
        assert got == want
    else:
        assert_same_events(got, want)


_DATES = ["1999-05-01", "2016-12-31", "1961-01-01", "0001-01-01", "9999-12-31"]
_ODD_DATES = [
    "1961-01", "19610101", "0000-01-01", "1961-02-29", "2000-02-29", "1900-02-29",
    "1999-13-01", "1999-04-31", "1999-5-1", " 1999-05-01", "1999-05-01\u3000",
    "\u0661999-05-01", "1999-05-01T00", "1999-05-010", "", "1999-05-01\x00",
    "1999\u201005\u201001", '"1999-05-01"',
]
_FLOATS = ["0.02", "-0.01", "1e9", "3012345678.123456", "5e-324", "1.7976931348623157e308"]
_ODD_FLOATS = [
    "1_0", "\u0661", "\u0661.5", "nan", "inf", "-inf", "Infinity", "NaN", " 0.5",
    "0.5\u3000", "\u20000.5", "\x1c0.5", "0.5\x1f", "\x0b0.5", "\x850.5", "0.5\xa0", "",
    " ", "1e400", "1e-400", "0", "-0.0", "-1", "abc", "0x10", "1,5", "0.5\x00", '"0.5"',
]
_FIRMS = ["acme", "firm299", "Acme Corp", "f", "x" * 31, "\xe9t\xe9", "\ufeffacme"]
_ODD_FIRMS = [
    "", " acme", "acme ", "acme\u3000", "\u2028acme", "acme\x85", "a\x1cb", "\x1facme",
    "x" * 32, "y" * 200, "a\x00", "\x00", 'a"b', '"acme"', "a,b", "a\x0bb", "a\x0cb",
    "a\u2029",
]
_GREENS = ["0", "1"]
_ODD_GREENS = [" 1", "1 ", "2", "01", "", "\u0661", "true", "0\x00", '"1"']


_CELLS = {
    "grant_date": (_DATES, _ODD_DATES),
    "firm_id": (_FIRMS, _ODD_FIRMS),
    "green": (_GREENS, _ODD_GREENS),
    "window_return": (_FLOATS, _ODD_FLOATS),
    "market_cap": (_FLOATS[2:], _ODD_FLOATS),
    "sigma_e": (["", "0.05", "0.003"], _ODD_FLOATS),
    "note": (["x", ""], ['"', "\r\n", ","]),
}
_ODD_TEXT = st.text(st.sampled_from("0x1- \t\u3000\x1c\x00\",\r\n\x85\u0661_"), max_size=12)


@st.composite
def events_files(draw):
    """Bytes of a valid events file with up to three oddities: an odd
    cell; a row short, long, blank, or blank but for whitespace; a row of
    quoted cells; a column dropped or repeated; a BOM. Columns come in any
    order, with or without sigma_e and an extra column, and lines end in
    LF, CRLF or a lone CR. Few oddities keep many files clean enough for
    the fast path, so that one odd cell is met among valid ones."""
    names = list(patentval._REQUIRED)
    names += draw(st.sampled_from([[], ["sigma_e"], ["note"], ["sigma_e", "note"]]))
    names = draw(st.permutations(names))
    rows = [
        [draw(st.sampled_from(_CELLS[name][0])) for name in names]
        for _ in range(draw(st.integers(0, 6)))
    ]
    bom = ""
    for _ in range(draw(st.integers(0, 3))):
        odd = draw(st.sampled_from(["cell"] * 6 + ["shape", "quote", "columns", "bom"]))
        row = rows[draw(st.integers(0, len(rows) - 1))] if rows else None
        if odd == "cell" and row:
            j = draw(st.integers(0, len(row) - 1))
            odd_cells = _CELLS[names[j] if j < len(names) else "note"][1]
            row[j] = draw(st.one_of(st.sampled_from(odd_cells), _ODD_TEXT))
        elif odd == "shape" and row is not None:
            shape = draw(st.sampled_from(["short", "long", "blank", "spaces"]))
            if shape == "short":
                del row[draw(st.integers(0, max(len(row) - 1, 0))):]
            elif shape == "long":
                row.append(draw(st.sampled_from(_CELLS["note"][0] + _CELLS["note"][1])))
            else:
                row[:] = [] if shape == "blank" else [draw(st.sampled_from([" ", "\t", "\u3000"]))]
        elif odd == "quote" and row is not None:
            row[:] = ['"' + cell.replace('"', '""') + '"' for cell in row]
        elif odd == "columns":
            names = names[1:] if draw(st.booleans()) else names + [draw(st.sampled_from(names))]
        elif odd == "bom":
            bom = "\ufeff"
    end = draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
    text = bom + end.join(",".join(cells) for cells in [names] + rows)
    if draw(st.booleans()):
        text += end
    return text.encode("utf-8")


def assert_fast_path_exact(path):
    """The fast path hands ``path`` on (None) or reads it as the parser
    does, error included; ``load_events`` always reads it as the parser."""
    want = _outcome(patentval._parse_rows, path)
    fast = _outcome(patentval._load_columnar, path)
    for got in (_outcome(load_events, path),) + (() if fast is None else (fast,)):
        assert_same_outcome(got, want)


class TestColumnarReader:
    """The numpy fast path of ``load_events`` against the csv parser."""

    @settings(max_examples=400, deadline=None)
    @given(data=events_files(), chars=st.sampled_from([1, 7, 40, 1 << 20]))
    def test_fast_path_equals_parser(self, tmp_path_factory, data, chars):
        path = tmp_path_factory.mktemp("fuzz") / "events.csv"
        path.write_bytes(data)
        with mock.patch.object(patentval, "_FAST_CHARS", chars):
            assert_fast_path_exact(path)

    @pytest.mark.parametrize("name, cell", [
        (name, cell) for name in (*patentval._REQUIRED, "sigma_e") for cell in _CELLS[name][1]
    ])
    def test_one_odd_cell_among_valid_rows(self, tmp_path, name, cell):
        header = [*patentval._REQUIRED, "sigma_e"]
        good = [_CELLS[column][0][0] for column in header]
        odd = [cell if column == name else value for column, value in zip(header, good)]
        path = tmp_path / "events.csv"
        path.write_text(
            "".join(",".join(row) + "\n" for row in (header, good, odd, good)),
            encoding="utf-8",
            newline="",
        )
        assert_fast_path_exact(path)

    @pytest.mark.parametrize("chars", [1 << 14, 1 << 20])
    def test_fast_path_is_taken(self, tmp_path, monkeypatch, chars):
        oracle = tmp_path / "oracle.csv"
        _write_oracle_events(oracle)
        shaped = tmp_path / "shaped.csv"
        _write_benchmark_shaped_events(shaped)
        want = {path: patentval._parse_rows(path) for path in (oracle, shaped)}

        def parse_block(*args):
            raise AssertionError("the csv parser ran")

        monkeypatch.setattr(patentval, "_FAST_CHARS", chars)
        monkeypatch.setattr(patentval, "_parse_block", parse_block)
        for path, events in want.items():
            assert_same_events(load_events(path), events)
        # the oracle file gives empty and given sigma_e cells
        assert 0 < np.isnan(want[oracle].sigma_e).sum() < len(want[oracle])

    HEADER = b"grant_date,firm_id,green,window_return,market_cap"

    @pytest.mark.parametrize("data", [
        HEADER + b'\n"1999-05-01",acme,1,0.02,1e9\n',
        HEADER + b"\r\n1999-05-01,acme,1,0.02,1e9\r\n",
        HEADER + b"\n1999-05-01,acme,1,0.02,1e9\n\n",
        HEADER + b"\n1999-05-01,acme,1,0.02,1e9",
        HEADER + b",sigma_e\n1999-05-01,acme,1,0.02,1e9\n",
        HEADER + b"\n",
        HEADER + b"\n\n\r\n",
        HEADER + b"\n1999-05-01,acme,1,0.02,1e9\n1999-05-02,\xff,1,0.02,1e9\n",
    ], ids=["quoted", "crlf", "trailing-blank", "no-final-newline", "short-sigma", "no-rows",
            "blank-rows", "not-utf-8"])
    def test_edge_files_load_as_parser_reads_them(self, tmp_path, data):
        path = tmp_path / "events.csv"
        path.write_bytes(data)
        assert_same_outcome(_outcome(load_events, path), _outcome(patentval._parse_rows, path))

    @pytest.mark.parametrize("name", ["market_cap", "sigma_e", "grant_date"])
    def test_duplicate_column_is_data_error(self, tmp_path, capsys, name):
        header = ["grant_date", "firm_id", "green", "window_return", "market_cap", "sigma_e"]
        path = tmp_path / "events.csv"
        path.write_text(
            ",".join(header + [name]) + "\n1999-05-01,acme,1,0.02,1e9,,1999-05-02\n",
            encoding="utf-8",
        )
        message = f"events file has duplicate column {name!r}"
        for load in (load_events, patentval._parse_rows):
            with pytest.raises(DataError, match=f"^{message}$"):
                load(path)
        with pytest.raises(DataError, match=f"^{message}$"):
            _load_through_cli(path)


class TestArrayFilter:
    @staticmethod
    def inputs():
        rng = np.random.default_rng(11)
        size = 3000
        ret = np.concatenate([
            rng.normal(0.0, 0.05, size // 2),
            rng.uniform(-5.0, -0.1, size // 2 - 3),
            [0.0, -0.0, 10.0],
        ])
        sigma_v = rng.choice([0.001, 0.02, 0.3], size)
        sigma_e = rng.uniform(0.001, 0.2, size)
        cap = np.exp(rng.normal(20.0, 3.0, size))
        return ret, sigma_v, sigma_e, cap

    def test_array_equals_scalar_calls_to_zero_ulp(self):
        arrays = self.inputs()
        got = filter_value(*arrays)
        want = np.array([filter_value(*map(float, args)) for args in zip(*arrays)])
        assert got.tobytes() == want.tobytes()

    def test_scalar_sigma_v_broadcasts(self):
        ret, _, sigma_e, cap = self.inputs()
        got = filter_value(ret, 0.02, sigma_e, cap)
        want = np.array([filter_value(float(r), 0.02, float(s), float(c))
                         for r, s, c in zip(ret, sigma_e, cap)])
        assert got.tobytes() == want.tobytes()

    def test_scalar_inputs_give_float(self):
        assert type(filter_value(0.01, 0.02, 0.02, 1e9)) is float
        assert type(_mills_ratio(-3.0)) is float

    def test_mills_ratio_array_equals_scalar(self):
        z = np.concatenate([np.linspace(-1e3, 40.0, 2001), [-1e300, 0.0]])
        want = np.array([_mills_ratio(float(v)) for v in z])
        assert _mills_ratio(z).tobytes() == want.tobytes()
        assert np.all(np.isfinite(want)) and np.all(want >= 0.0)

    def test_any_bad_element_rejected(self):
        ret, sigma_v, sigma_e, cap = self.inputs()
        sigma_e[7] = -1.0
        with pytest.raises(ValueError, match="sigma_v and sigma_e"):
            filter_value(ret, sigma_v, sigma_e, cap)
        cap[5] = 0.0
        with pytest.raises(ValueError, match="market_cap"):
            filter_value(ret, 0.02, 0.02, cap)
