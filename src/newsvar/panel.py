"""Quarterly panel ingestion, per-variable transforms, and sample alignment.

A panel is a dated T x n matrix of named series. Dates use the unambiguous
``YYYYQn`` format and must form a gap-free quarterly sequence; missing or
non-numeric cells are hard errors rather than silently imputed, because the
downstream VAR requires a balanced panel.
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
import math
import re
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError

TRANSFORMS = ("level", "log-level", "growth-rate")

# Years can exceed 4 digits in long synthetic samples.
_QUARTER_RE = re.compile(r"^(\d{1,6})Q([1-4])$")


def parse_quarter(label: str) -> int:
    """Parse ``YYYYQn`` into a serial quarter index (year*4 + quarter-1)."""
    m = _QUARTER_RE.match(str(label).strip())
    if not m:
        raise DataError(f"unparseable quarterly date {label!r} (expected YYYYQn)")
    year, q = int(m.group(1)), int(m.group(2))
    return year * 4 + (q - 1)


def format_quarter(serial: int) -> str:
    return f"{serial // 4}Q{serial % 4 + 1}"


def quarter_labels(first_serial: int, count: int) -> list[str]:
    """``count`` consecutive labels from serial quarter ``first_serial``,
    equal to ``format_quarter`` of each serial. Returns a fresh list."""
    return list(_quarter_labels(first_serial, count))


# A simulated panel's labels are built for the panel and again to check it.
@functools.lru_cache(maxsize=16)
def _quarter_labels(first_serial: int, count: int) -> tuple[str, ...]:
    """Labels built a year at a time; memoised, so held as a tuple that no
    caller can change."""
    first_year, skip = divmod(first_serial, 4)
    labels = []
    for year in range(first_year, (first_serial + count - 1) // 4 + 1):
        y = str(year)
        labels += (y + "Q1", y + "Q2", y + "Q3", y + "Q4")
    return tuple(labels[skip:skip + count])


def quarter_range(start: str, end: str) -> list[str]:
    """Inclusive list of quarter labels from start to end."""
    a, b = parse_quarter(start), parse_quarter(end)
    if a > b:
        raise DataError(f"start {start} is after end {end}")
    return quarter_labels(a, b - a + 1)


@contextmanager
def open_input(path, kind: str):
    """Open a UTF-8 CSV input for reading. A file that cannot be opened or
    is not valid UTF-8 is a DataError naming the ``kind`` of file and its
    path, so the CLI reports it as bad data."""
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {kind} file {path}: {exc}") from exc
    with fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise DataError(f"{kind} file {path} is not valid UTF-8: {exc.reason}") from None


def write_csv(path, header, rows) -> None:
    """Write a CSV artifact: UTF-8, LF line ends, minimal quoting (a cell
    holding a comma, a quote or a line break is quoted, so such names read
    back), and each float as its ``repr``, which reads back to the same
    double. ``header`` and each row are sequences of cells."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        plain = csv.writer(fh, lineterminator="\n")
        # csv quotes only the line terminator's characters, so a lone
        # carriage return would go out bare; such rows quote every text cell.
        quoted = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_NONNUMERIC)
        for row in itertools.chain([header], rows):
            holds_cr = any(isinstance(cell, str) and "\r" in cell for cell in row)
            (quoted if holds_cr else plain).writerow(row)


def write_json(payload, path) -> None:
    """Write a JSON artifact: UTF-8, sorted keys, one-space indent and a
    trailing newline, so equal payloads give equal bytes."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


@dataclass
class TimeSeriesPanel:
    """Dated quarterly matrix of named variables.

    Invariants: dates strictly increasing with no gaps, ``values`` is
    T x n with only finite entries, names unique. ``transforms`` records
    the transform applied to each variable (all ``level`` on ingestion).
    """

    dates: list[str]
    names: list[str]
    values: np.ndarray
    transforms: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise DataError("panel values must be a 2-D matrix")
        t, n = self.values.shape
        if len(self.dates) != t:
            raise DataError(f"{len(self.dates)} dates for {t} rows")
        if len(self.names) != n:
            raise DataError(f"{len(self.names)} names for {n} columns")
        if len(set(self.names)) != n:
            raise DataError("variable names must be unique")
        # canonical consecutive labels pass with one list comparison; any
        # other input is parsed label by label for the precise error
        canonical = t > 0 and list(self.dates) == quarter_labels(parse_quarter(self.dates[0]), t)
        serials = [] if canonical else [parse_quarter(d) for d in self.dates]
        for prev, cur, label in zip(serials, serials[1:], self.dates[1:]):
            if cur == prev:
                raise DataError(f"duplicate date {label}")
            if cur != prev + 1:
                raise DataError(
                    f"gap in quarterly sequence between {format_quarter(prev)} and {label}"
                )
        if not np.all(np.isfinite(self.values)):
            t_bad, n_bad = np.argwhere(~np.isfinite(self.values))[0]
            raise DataError(
                f"non-finite value for {self.names[n_bad]} at {self.dates[t_bad]}"
            )
        if not self.transforms:
            self.transforms = {name: "level" for name in self.names}

    @property
    def n_periods(self) -> int:
        return self.values.shape[0]

    def column(self, name: str) -> np.ndarray:
        if name not in self.names:
            raise DataError(f"unknown variable {name!r}")
        return self.values[:, self.names.index(name)]


def header_round_trips(name) -> bool:
    """Whether a header name reads back unchanged: load_panel strips each
    one of leading and trailing whitespace."""
    return str(name) == str(name).strip()


def load_panel(path, date_column: str = "date") -> TimeSeriesPanel:
    """Read a panel CSV (header row, one YYYYQn date column, numeric columns).

    Rows are sorted by date before validation, so an out-of-order file is
    accepted as long as the sorted sequence is gap-free.
    """
    with open_input(path, "panel") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"empty panel file {path}") from None
        header = [h.strip() for h in header]
        if date_column not in header:
            raise DataError(f"date column {date_column!r} not found in {header}")
        date_idx = header.index(date_column)
        names = [h for i, h in enumerate(header) if i != date_idx]
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DataError(f"row {lineno}: expected {len(header)} cells, got {len(row)}")
            label = row[date_idx].strip()
            serial = parse_quarter(label)
            cells = []
            for i, cell in enumerate(row):
                if i == date_idx:
                    continue
                try:
                    x = float(cell)
                except ValueError:
                    raise DataError(
                        f"non-numeric value {cell.strip()!r} at row {lineno}, "
                        f"column {header[i]!r}"
                    ) from None
                if not math.isfinite(x):
                    raise DataError(
                        f"non-finite value at row {lineno}, column {header[i]!r}"
                    )
                cells.append(x)
            rows.append((serial, label, cells))
    if not rows:
        raise DataError(f"panel file {path} has no data rows")
    rows.sort(key=lambda r: r[0])
    dates = [label for _, label, _ in rows]
    values = np.array([cells for _, _, cells in rows], dtype=float)
    return TimeSeriesPanel(dates=dates, names=names, values=values)


def write_panel(panel: TimeSeriesPanel, path, date_column: str = "date") -> None:
    """Write a panel CSV that round-trips through load_panel at full precision.

    A header name with leading or trailing whitespace is refused, because
    load_panel strips it and so would read back another name."""
    for name in (date_column, *panel.names):
        if not header_round_trips(name):
            raise DataError(
                f"cannot write header name {name!r}: leading or trailing "
                f"whitespace does not survive load_panel"
            )
    rows = ([date, *row] for date, row in zip(panel.dates, panel.values.tolist()))
    write_csv(path, [date_column, *panel.names], rows)


def apply_transforms(panel: TimeSeriesPanel, spec: dict[str, str]) -> TimeSeriesPanel:
    """Apply per-variable transforms and return a new, aligned panel.

    ``log-level`` maps x to 100*ln(x) so impulse responses read as percent;
    ``growth-rate`` maps x to 100*(ln(x_t) - ln(x_{t-1})) and drops the first
    row of the whole panel to keep all series aligned.
    """
    for name, kind in spec.items():
        if name not in panel.names:
            raise DataError(f"unknown variable {name!r} in transform map")
        if kind not in TRANSFORMS:
            raise DataError(f"unknown transform {kind!r} for {name!r} (use {TRANSFORMS})")
    any_growth = any(kind == "growth-rate" for kind in spec.values())
    if any_growth and panel.n_periods < 2:
        raise DataError("growth-rate transform needs at least 2 periods")

    columns = []
    transforms = dict(panel.transforms)
    for j, name in enumerate(panel.names):
        x = panel.values[:, j]
        kind = spec.get(name, "level")
        if kind == "level":
            # identity on values; keeps any previously recorded transform
            out = x.copy()
        else:
            nonpos = np.nonzero(x <= 0.0)[0]
            if nonpos.size:
                raise DataError(
                    f"non-positive value for {name} at {panel.dates[nonpos[0]]} "
                    f"under {kind} transform"
                )
            logx = 100.0 * np.log(x)
            out = logx if kind == "log-level" else np.diff(logx)
            transforms[name] = kind
        columns.append(out)

    if any_growth:
        t_out = panel.n_periods - 1
        dates = panel.dates[1:]
        columns = [c if c.shape[0] == t_out else c[1:] for c in columns]
    else:
        dates = list(panel.dates)
    return TimeSeriesPanel(
        dates=dates,
        names=list(panel.names),
        values=np.column_stack(columns),
        transforms=transforms,
    )


def align_range(panel: TimeSeriesPanel, start: str, end: str) -> TimeSeriesPanel:
    """Inclusive sub-panel between two quarter labels."""
    a, b = parse_quarter(start), parse_quarter(end)
    if a > b:
        raise DataError(f"start {start} is after end {end}")
    first, last = parse_quarter(panel.dates[0]), parse_quarter(panel.dates[-1])
    if a < first or b > last:
        raise DataError(
            f"requested range {start}..{end} outside panel span "
            f"{panel.dates[0]}..{panel.dates[-1]}"
        )
    i, j = a - first, b - first + 1
    return TimeSeriesPanel(
        dates=panel.dates[i:j],
        names=list(panel.names),
        values=panel.values[i:j].copy(),
        transforms=dict(panel.transforms),
    )
