import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from newsvar import panel
from newsvar.errors import DataError, NumericalError
from newsvar.panel import (
    TimeSeriesPanel,
    align_range,
    apply_transforms,
    format_quarter,
    load_panel,
    parse_quarter,
    quarter_labels,
    quarter_range,
    write_panel,
)


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def make_panel(start, values, names=None):
    values = np.asarray(values, dtype=float)
    names = names or [f"v{j}" for j in range(values.shape[1])]
    first = parse_quarter(start)
    dates = [format_quarter(first + i) for i in range(values.shape[0])]
    return TimeSeriesPanel(dates=dates, names=names, values=values)


class TestQuarterArithmetic:
    def test_round_trip(self):
        for label in ("1961Q1", "2016Q4", "1900Q2"):
            assert format_quarter(parse_quarter(label)) == label

    def test_bad_labels(self):
        for label in ("1961", "1961Q5", "1961Q0", "1961-03", "Q1"):
            with pytest.raises(DataError):
                parse_quarter(label)

    def test_range_is_inclusive(self):
        assert quarter_range("1999Q3", "2000Q2") == [
            "1999Q3", "1999Q4", "2000Q1", "2000Q2",
        ]


class TestQuarterLabels:
    @pytest.mark.parametrize(
        "start", ["1999Q1", "1999Q2", "1999Q3", "1999Q4", "9998Q3", "99999Q2"]
    )
    def test_equals_format_quarter(self, start):
        first = parse_quarter(start)
        for count in (0, 1, 2, 3, 4, 5, 8, 9, 41):
            assert quarter_labels(first, count) == [
                format_quarter(s) for s in range(first, first + count)
            ]

    def test_returned_list_is_fresh(self):
        first = parse_quarter("1999Q3")
        labels = quarter_labels(first, 6)
        labels[0] = "changed"
        labels.append("1901Q1")
        assert quarter_labels(first, 6) == [format_quarter(s) for s in range(first, first + 6)]
        assert quarter_labels(first, 6) is not quarter_labels(first, 6)

    def test_range_uses_canonical_labels(self):
        assert quarter_range("09999Q4", " 10000Q2") == ["9999Q4", "10000Q1", "10000Q2"]


def panel_of(dates):
    return TimeSeriesPanel(dates=dates, names=["x"], values=np.zeros((len(dates), 1)))


class TestDateValidation:
    """Outcomes and messages of date validation, fixed before it gained a
    fast path for canonical labels."""

    @pytest.mark.parametrize(
        "dates",
        [
            [" 1900Q1", "1900Q2", "1900Q3"],
            ["01900Q1", "1900Q2"],
            ["1900Q4", "01901Q1 ", "1901Q2"],
            ["1900Q1", "1900Q2", "001900Q3"],
        ],
    )
    def test_padded_and_zero_prefixed_labels_accepted(self, dates):
        panel = panel_of(dates)
        assert panel.dates == dates
        first = parse_quarter(dates[0])
        assert [parse_quarter(d) for d in panel.dates] == list(
            range(first, first + len(dates))
        )

    def test_empty_panel_accepted(self):
        assert panel_of([]).n_periods == 0

    def test_duplicate_message(self):
        with pytest.raises(DataError, match=r"^duplicate date 1961Q2$"):
            panel_of(["1961Q1", "1961Q2", "1961Q2"])
        with pytest.raises(DataError, match=r"^duplicate date 01961Q1$"):
            panel_of(["1961Q1", "01961Q1"])

    def test_gap_message(self):
        with pytest.raises(
            DataError, match=r"^gap in quarterly sequence between 1961Q1 and 1961Q3$"
        ):
            panel_of(["1960Q4", "1961Q1", "1961Q3"])
        with pytest.raises(
            DataError, match=r"^gap in quarterly sequence between 1961Q4 and  1962Q2$"
        ):
            panel_of([" 1961Q4", " 1962Q2"])

    def test_out_of_order_rejected(self):
        with pytest.raises(
            DataError, match=r"^gap in quarterly sequence between 1961Q2 and 1961Q1$"
        ):
            panel_of(["1961Q2", "1961Q1"])

    def test_bad_label_after_good_start_rejected(self):
        with pytest.raises(DataError, match="unparseable quarterly date '1961-03'"):
            panel_of(["1961Q1", "1961-03"])
        with pytest.raises(DataError, match="unparseable"):
            panel_of(["1961Q5", "1962Q1"])

    def test_short_or_long_date_list_rejected(self):
        dates = ["1961Q1", "1961Q2"]
        with pytest.raises(DataError, match="^2 dates for 3 rows$"):
            TimeSeriesPanel(dates=dates, names=["x"], values=np.zeros((3, 1)))
        with pytest.raises(DataError, match="^2 dates for 1 rows$"):
            TimeSeriesPanel(dates=dates, names=["x"], values=np.zeros((1, 1)))


@settings(max_examples=200, deadline=None)
@given(
    first=st.integers(min_value=4, max_value=4 * 99999),
    count=st.integers(min_value=1, max_value=14),
    edits=st.lists(
        st.tuples(
            st.sampled_from(["pad", "zero", "swap", "repeat", "drop", "garble"]),
            st.integers(min_value=0, max_value=13),
        ),
        max_size=3,
    ),
)
def test_validation_matches_label_by_label_reference(first, count, edits):
    # the reference is the label-by-label check: every input it accepts is
    # accepted, and every input it rejects fails with its message
    dates = [format_quarter(s) for s in range(first, first + count)]
    for kind, at in edits:
        i = at % len(dates)
        if kind == "pad":
            dates[i] = f" {dates[i]}"
        elif kind == "zero":
            dates[i] = f"0{dates[i].strip()}"
        elif kind == "swap" and i + 1 < len(dates):
            dates[i], dates[i + 1] = dates[i + 1], dates[i]
        elif kind == "repeat" and i + 1 < len(dates):
            dates[i + 1] = dates[i]
        elif kind == "drop" and len(dates) > 1:
            del dates[i]
        elif kind == "garble":
            dates[i] = dates[i].replace("Q", "-")

    def reference():
        serials = [parse_quarter(d) for d in dates]
        for prev, cur, label in zip(serials, serials[1:], dates[1:]):
            if cur == prev:
                raise DataError(f"duplicate date {label}")
            if cur != prev + 1:
                raise DataError(
                    f"gap in quarterly sequence between {format_quarter(prev)} and {label}"
                )

    try:
        reference()
        expected = None
    except DataError as exc:
        expected = str(exc)
    try:
        panel_of(dates)
        got = None
    except DataError as exc:
        got = str(exc)
    assert got == expected


class TestLoadPanel:
    def test_four_row_csv(self, tmp_path):
        path = write_csv(
            tmp_path / "p.csv",
            "date,gdp,cpi\n1961Q1,1.0,2.0\n1961Q2,1.1,2.1\n1961Q3,1.2,2.2\n1961Q4,1.3,2.3\n",
        )
        panel = load_panel(path)
        assert panel.values.shape == (4, 2)
        assert panel.names == ["gdp", "cpi"]
        assert panel.dates == ["1961Q1", "1961Q2", "1961Q3", "1961Q4"]
        assert_allclose(panel.values[:, 0], [1.0, 1.1, 1.2, 1.3])

    def test_rows_sorted_by_date(self, tmp_path):
        path = write_csv(
            tmp_path / "p.csv",
            "date,x\n1961Q2,2.0\n1961Q1,1.0\n",
        )
        panel = load_panel(path)
        assert panel.dates == ["1961Q1", "1961Q2"]
        assert_allclose(panel.values[:, 0], [1.0, 2.0])

    def test_gap_in_quarters(self, tmp_path):
        path = write_csv(tmp_path / "p.csv", "date,x\n1961Q1,1.0\n1961Q3,2.0\n")
        with pytest.raises(DataError, match="gap in quarterly sequence"):
            load_panel(path)

    def test_na_cell_names_row_and_column(self, tmp_path):
        path = write_csv(
            tmp_path / "p.csv", "date,x,y\n1961Q1,1.0,2.0\n1961Q2,NA,2.0\n"
        )
        with pytest.raises(DataError, match=r"row 3.*column 'x'"):
            load_panel(path)

    def test_duplicate_dates(self, tmp_path):
        path = write_csv(tmp_path / "p.csv", "date,x\n1961Q1,1.0\n1961Q1,2.0\n")
        with pytest.raises(DataError, match="duplicate date"):
            load_panel(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_panel(tmp_path / "nope.csv")

    def test_bad_date(self, tmp_path):
        path = write_csv(tmp_path / "p.csv", "date,x\n1961-01,1.0\n")
        with pytest.raises(DataError, match="unparseable"):
            load_panel(path)

    def test_invalid_utf8_is_data_error(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_bytes(b"date,x\n1961Q1,1.0\n1961Q2,\xff\n")
        with pytest.raises(DataError, match=r"p\.csv is not valid UTF-8"):
            load_panel(path)

    def test_missing_date_column(self, tmp_path):
        path = write_csv(tmp_path / "p.csv", "quarter,x\n1961Q1,1.0\n")
        with pytest.raises(DataError, match="date column"):
            load_panel(path)


class TestTransforms:
    def test_log_level_of_exponentials(self):
        panel = make_panel("1961Q1", np.array([[1.0], [math.e], [math.e**2]]))
        out = apply_transforms(panel, {"v0": "log-level"})
        assert_allclose(out.values[:, 0], [0.0, 100.0, 200.0], atol=1e-12)
        assert out.transforms["v0"] == "log-level"

    def test_growth_of_constant_drops_first_row(self):
        panel = make_panel("1961Q1", np.ones((3, 2)))
        out = apply_transforms(panel, {"v0": "growth-rate"})
        assert out.values.shape == (2, 2)
        assert_array_equal(out.values[:, 0], [0.0, 0.0])
        # the untouched column keeps its (constant) level values
        assert_array_equal(out.values[:, 1], [1.0, 1.0])
        assert out.dates == panel.dates[1:]

    def test_log_of_zero_names_the_date(self):
        panel = make_panel("1961Q1", np.array([[1.0], [0.0], [2.0]]))
        with pytest.raises(DataError, match="1961Q2"):
            apply_transforms(panel, {"v0": "log-level"})

    def test_level_is_identity(self):
        panel = make_panel("1961Q1", np.arange(6.0).reshape(3, 2) + 1)
        out = apply_transforms(panel, {"v0": "level", "v1": "level"})
        assert_array_equal(out.values, panel.values)

    def test_level_does_not_clobber_transform_record(self):
        panel = make_panel("1961Q1", np.ones((3, 1)) * 2.0)
        logged = apply_transforms(panel, {"v0": "log-level"})
        again = apply_transforms(logged, {"v0": "level"})
        assert again.transforms["v0"] == "log-level"
        assert_array_equal(again.values, logged.values)

    def test_unknown_variable(self):
        panel = make_panel("1961Q1", np.ones((3, 1)))
        with pytest.raises(DataError, match="unknown variable"):
            apply_transforms(panel, {"nope": "level"})

    def test_growth_needs_two_rows(self):
        panel = make_panel("1961Q1", np.ones((1, 1)))
        with pytest.raises(DataError, match="at least 2"):
            apply_transforms(panel, {"v0": "growth-rate"})


class TestAlignRange:
    def test_full_span_is_identity(self):
        panel = make_panel("1961Q1", np.arange(8.0).reshape(4, 2))
        out = align_range(panel, panel.dates[0], panel.dates[-1])
        assert out.dates == panel.dates
        assert_array_equal(out.values, panel.values)

    def test_benchmark_sample_has_224_quarters(self):
        # oracle: count quarters inclusive, (2016-1961)*4 + 4
        expected = (2016 - 1961) * 4 + 4
        assert expected == 224
        panel = make_panel("1960Q1", np.arange(240.0).reshape(240, 1))
        out = align_range(panel, "1961Q1", "2016Q4")
        assert out.n_periods == 224
        assert out.dates[0] == "1961Q1"
        assert out.dates[-1] == "2016Q4"

    def test_end_before_panel_start(self):
        panel = make_panel("1961Q1", np.ones((4, 1)))
        with pytest.raises(DataError, match="outside panel span"):
            align_range(panel, "1950Q1", "1950Q4")

    def test_start_after_end(self):
        panel = make_panel("1961Q1", np.ones((4, 1)))
        with pytest.raises(DataError, match="after end"):
            align_range(panel, "1961Q4", "1961Q1")


@settings(max_examples=50, deadline=None)
@given(
    t=st.integers(min_value=1, max_value=12),
    n=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_csv_round_trip_is_exact(tmp_path_factory, t, n, seed):
    rng = np.random.default_rng(seed)
    values = rng.normal(scale=rng.uniform(1e-6, 1e6), size=(t, n))
    panel = make_panel("1987Q3", values)
    path = tmp_path_factory.mktemp("roundtrip") / "panel.csv"
    write_panel(panel, path)
    back = load_panel(path)
    assert back.dates == panel.dates
    assert back.names == panel.names
    assert_array_equal(back.values, panel.values)


@pytest.mark.parametrize("name", [" a", "a ", "a\r", "\ta", "a\n"])
@pytest.mark.parametrize("where", ["variable", "date column"])
def test_write_refuses_names_that_would_not_round_trip(tmp_path, name, where):
    # load_panel strips header names, so " a" or "a\r" would read back as "a"
    panel = make_panel("1990Q1", np.ones((3, 2)), names=[name, "b"] if where == "variable" else None)
    date_column = name if where == "date column" else "date"
    with pytest.raises(DataError, match="whitespace"):
        write_panel(panel, tmp_path / "panel.csv", date_column=date_column)
    assert not (tmp_path / "panel.csv").exists()


def test_names_with_inner_whitespace_round_trip(tmp_path):
    panel = make_panel("1990Q1", np.arange(6.0).reshape(3, 2), names=["green news", "a\tb"])
    write_panel(panel, tmp_path / "panel.csv", date_column="the date")
    back = load_panel(tmp_path / "panel.csv", date_column="the date")
    assert back.names == panel.names
    assert back.dates == panel.dates
    assert_array_equal(back.values, panel.values)


def test_invalid_panel_shapes_rejected():
    with pytest.raises(DataError):
        TimeSeriesPanel(dates=["1961Q1"], names=["a"], values=np.ones((2, 1)))
    with pytest.raises(DataError, match="unique"):
        TimeSeriesPanel(
            dates=["1961Q1"], names=["a", "a"], values=np.ones((1, 2))
        )
    with pytest.raises(DataError, match="non-finite"):
        TimeSeriesPanel(
            dates=["1961Q1"], names=["a"], values=np.array([[np.nan]])
        )


class TestArtifactWritersRefuseNonFinite:
    """Every CSV and JSON artifact goes through write_csv or write_json; a
    non-finite float is refused before the file is opened, so no partial
    file is left. Before, inf went out as 'inf' in a CSV and as the token
    Infinity, which strict JSON parsers refuse, in a JSON file."""

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_csv(self, tmp_path, bad):
        path = tmp_path / "lp_ng.csv"
        rows = [[0, 1.5, 0.25], [1, 2.0, bad]]
        with pytest.raises(NumericalError, match=r"lp_ng.csv: column 'se' of row 2 holds"):
            panel.write_csv(path, ["horizon", "beta", "se"], iter(rows))
        assert not path.exists()

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, np.float64("inf")])
    def test_json(self, tmp_path, bad):
        path = tmp_path / "lp_ng.json"
        payload = {"beta": [0.5, 1.0], "se": [[0.1], [0.2, bad]], "note": "x"}
        with pytest.raises(NumericalError, match=r"lp_ng.json: field se\[1\]\[1\] holds"):
            panel.write_json(payload, path)
        assert not path.exists()

    def test_finite_payloads_keep_their_bytes(self, tmp_path):
        panel.write_json({"b": [1.0, -0.0, 1e-300], "a": {"n": 3, "s": "t"}}, tmp_path / "x.json")
        assert (tmp_path / "x.json").read_text(encoding="utf-8") == (
            '{\n "a": {\n  "n": 3,\n  "s": "t"\n },\n "b": [\n  1.0,\n  -0.0,\n  1e-300\n ]\n}\n'
        )
        panel.write_csv(tmp_path / "x.csv", ["h", "v"], [[0, 0.1], [1, -2.5e-8]])
        assert (tmp_path / "x.csv").read_text(encoding="utf-8") == "h,v\n0,0.1\n1,-2.5e-08\n"
