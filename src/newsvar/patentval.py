"""Patent-based innovation indices from grant events and firm returns.

Each granted patent is valued by filtering the firm's stock return over the
grant announcement window: the patent's return contribution v has a normal
prior truncated to v >= 0 and the observed window return is v plus normal
noise, so the filtered value is the market cap times the posterior mean of v.
Values are then summed by quarter, split by the green flag, to form the two
indices. Window returns arrive as data; estimating them from raw prices is
out of scope.

Events travel as ``PatentEvents``, one array per field, so loading, valuing
and bucketing run column-wise rather than once per event.
"""

from __future__ import annotations

import csv
import datetime as dt
import functools
import io
import itertools
import math
import operator
from dataclasses import dataclass, fields

import numpy as np

from .errors import DataError, NumericalError
from .panel import format_quarter, open_input, parse_quarter, quarter_range, write_csv

_REQUIRED = ("grant_date", "firm_id", "green", "window_return", "market_cap")
# Data rows converted per block by load_events; bounds how many per-cell
# strings are alive at once.
_BLOCK_ROWS = 1 << 12
_EPOCH = dt.date(1970, 1, 1).toordinal()
_GREEN = {"0": False, "1": True}
# Field types of the columnar reader. A string field is one code unit wider
# than the longest cell it accepts: loadtxt cuts a longer cell to the
# width, so a full field may hold a cut cell.
_FIRM_WIDTH = 32
_FAST_DTYPES = {
    "grant_date": "U11",
    "firm_id": f"U{_FIRM_WIDTH}",
    "green": "U2",
    "window_return": "f8",
    "market_cap": "f8",
    "sigma_e": "f8",
}
# Characters of a text block handed to loadtxt, about 1 MB of ASCII.
_FAST_CHARS = 1 << 20
# The columnar reader refuses text holding a quote (csv would unquote the
# cell), a NUL (a trailing one looks like string padding) or U+001C..U+001F
# (loadtxt skips them around a float as whitespace, float() refuses them).
_FAST_UNSAFE = '"\0\x1c\x1d\x1e\x1f'


@dataclass
class PatentEvent:
    """One patent grant with the announcement-window return of the granted
    firm; ``value`` is filled by the filter."""

    grant_date: dt.date
    firm_id: str
    green: bool
    window_return: float
    market_cap: float
    sigma_e: float | None = None
    value: float | None = None


def _objects(items) -> np.ndarray:
    out = np.empty(len(items), dtype=object)
    out[:] = items
    return out


@dataclass
class PatentEvents:
    """Grant events as equal-length columns: ``grant_date`` (datetime64[D]),
    ``firm_id`` (object, str), ``green`` (bool), ``window_return``,
    ``market_cap``, ``sigma_e`` (NaN = use the default) and ``value`` (NaN =
    not yet valued). ``len`` is the event count; indexing and iteration
    yield single ``PatentEvent`` views."""

    grant_date: np.ndarray
    firm_id: np.ndarray
    green: np.ndarray
    window_return: np.ndarray
    market_cap: np.ndarray
    sigma_e: np.ndarray
    value: np.ndarray

    def __post_init__(self):
        shapes = [getattr(self, f.name).shape for f in fields(self)]
        if len(shapes[0]) != 1 or any(shape != shapes[0] for shape in shapes):
            raise ValueError(f"inconsistent event columns: shapes {shapes}")

    @classmethod
    def stack(cls, events) -> "PatentEvents":
        """Stack a sequence of ``PatentEvent`` once; a ``PatentEvents`` is
        returned as is."""
        if isinstance(events, cls):
            return events
        events = list(events)

        def floats(name):
            cells = (getattr(e, name) for e in events)
            return np.array([np.nan if v is None else v for v in cells], dtype=float)

        return cls(
            grant_date=np.array([e.grant_date for e in events], dtype="datetime64[D]"),
            firm_id=_objects([e.firm_id for e in events]),
            green=np.array([e.green for e in events], dtype=bool),
            window_return=floats("window_return"),
            market_cap=floats("market_cap"),
            sigma_e=floats("sigma_e"),
            value=floats("value"),
        )

    def __len__(self) -> int:
        return self.grant_date.shape[0]

    def __getitem__(self, i: int) -> PatentEvent:
        i = operator.index(i)
        sigma_e, value = float(self.sigma_e[i]), float(self.value[i])
        return PatentEvent(
            grant_date=self.grant_date[i].item(),
            firm_id=self.firm_id[i],
            green=bool(self.green[i]),
            window_return=float(self.window_return[i]),
            market_cap=float(self.market_cap[i]),
            sigma_e=None if math.isnan(sigma_e) else sigma_e,
            value=None if math.isnan(value) else value,
        )

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def _take(self, index) -> "PatentEvents":
        return PatentEvents(*(getattr(self, f.name)[index] for f in fields(self)))

    def _grant_order(self) -> np.ndarray:
        """Stable order by (grant_date, firm_id); ties keep input order."""
        firms = sorted(set(self.firm_id))
        rank = dict(zip(firms, range(len(firms))))
        firm = np.fromiter(map(rank.__getitem__, self.firm_id), np.int64, len(self))
        return np.lexsort((firm, self.grant_date))


@dataclass
class InnovationIndex:
    """Quarterly sums of filtered patent values, split green / non-green."""

    dates: list[str]
    gpbii: np.ndarray
    ngpbii: np.ndarray


@dataclass
class IndexStats:
    level_correlation: float
    growth_correlation: float
    ratio: np.ndarray


def _scalar_or_array(x):
    return float(x) if np.ndim(x) == 0 else x


def _mills_ratio(z):
    # phi(z)/Phi(z), stable for arbitrarily negative z via erfcx. Imported
    # here, not at module level: scipy.special costs about 0.35 s of start-up,
    # and only the index command values patents.
    from scipy import special

    return _scalar_or_array(
        math.sqrt(2.0 / math.pi) / special.erfcx(-np.asarray(z, dtype=float) / math.sqrt(2.0))
    )


def filter_value(window_return, sigma_v, sigma_e, market_cap):
    """Dollar value of one patent grant given the window return.

    With a N(0, sigma_v^2) prior on the return contribution truncated to
    v >= 0 and N(0, sigma_e^2) observation noise, the posterior of v given
    return r is N(delta*r, s^2) truncated at zero with delta =
    sigma_v^2/(sigma_v^2+sigma_e^2) and s = sqrt(delta)*sigma_e, whose mean
    is delta*r + s*phi(delta*r/s)/Phi(delta*r/s). The result is strictly
    positive and increasing in the return.

    Arguments broadcast: scalars give a ``float``, arrays an array of one
    value per element. Only correctly rounded operations and ``erfcx``
    are used (squares are products), so an array element equals the
    scalar call on that element to the last bit.
    """
    r, sv, se, cap = (
        np.asarray(x, dtype=float) for x in (window_return, sigma_v, sigma_e, market_cap)
    )
    if np.any(sv <= 0) or np.any(se <= 0):
        raise ValueError("sigma_v and sigma_e must be > 0")
    if np.any(cap <= 0):
        raise ValueError("market_cap must be > 0")
    var_v = sv * sv
    delta = var_v / (var_v + se * se)
    s = np.sqrt(delta) * se
    mean = delta * r
    return _scalar_or_array(cap * (mean + s * _mills_ratio(mean / s)))


def assign_values(events, sigma_v: float, default_sigma_e: float) -> PatentEvents:
    """Fill event values with the filter; ``events`` is a ``PatentEvents``
    or a sequence of ``PatentEvent``. Returns the events sorted by
    (grant_date, firm_id), same-key events in input order.

    Patents granted to the same firm on the same day share one window
    reaction, which cannot be attributed patent by patent; the filtered
    value is split equally across them.
    """
    events = PatentEvents.stack(events)
    order = events._grant_order()
    out = events._take(order)
    day, firm, sigma_e = out.grant_date, out.firm_id, out.sigma_e
    starts_group = np.ones(len(out), dtype=bool)
    starts_group[1:] = (day[1:] != day[:-1]) | (firm[1:] != firm[:-1])
    starts = np.flatnonzero(starts_group)
    lead = starts[np.cumsum(starts_group) - 1]
    same = (
        (out.window_return == out.window_return[lead])
        & (out.market_cap == out.market_cap[lead])
        & ((sigma_e == sigma_e[lead]) | (np.isnan(sigma_e) & np.isnan(sigma_e[lead])))
    )
    inconsistent = lead[~(same | starts_group)]
    if inconsistent.size:
        # the group that appears first in the input
        i = inconsistent[np.argmin(order[inconsistent])]
        raise DataError(
            f"inconsistent window data for firm {firm[i]} on {day[i].item()}: "
            "same-day events must share return, cap, and noise scale"
        )
    sigma = np.where(np.isnan(sigma_e[starts]), default_sigma_e, sigma_e[starts])
    total = filter_value(out.window_return[starts], sigma_v, sigma, out.market_cap[starts])
    count = np.diff(np.append(starts, len(out)))
    out.value = np.repeat(total / count, count)
    return out


def quarter_of(day: dt.date) -> str:
    return format_quarter(day.year * 4 + (day.month - 1) // 3)


def build_index(events, start: str, end: str) -> InnovationIndex:
    """Quarterly sums of event values by green flag over the full calendar
    from start to end; quarters with no events are exactly zero. ``events``
    is a ``PatentEvents`` or a sequence of ``PatentEvent``."""
    events = PatentEvents.stack(events)
    dates = quarter_range(start, end)
    lo, hi = parse_quarter(start), parse_quarter(end)
    # serial quarter of each grant, parse_quarter(quarter_of(day))
    serial = 1970 * 4 + events.grant_date.astype("datetime64[M]").astype(np.int64) // 3
    bad = np.isnan(events.value) | (events.value < 0) | (serial < lo) | (serial > hi)
    if bad.any():
        # name the first bad event in (grant_date, firm_id) order
        order = events._grant_order()
        event = events[order[np.argmax(bad[order])]]
        if event.value is None:
            raise DataError(
                f"event for {event.firm_id} on {event.grant_date} has no value; "
                "run assign_values first"
            )
        if event.value < 0:
            raise DataError(
                f"negative value {event.value} for {event.firm_id} on {event.grant_date}"
            )
        raise DataError(f"event on {event.grant_date} outside index range {start}..{end}")
    # bucket 2q holds quarter q's non-green values, 2q+1 its green ones;
    # fsum is correctly rounded, so the order within a bucket is immaterial
    bucket = 2 * (serial - lo) + events.green
    order = np.argsort(bucket)
    bounds = np.searchsorted(bucket[order], np.arange(2 * len(dates) + 1))
    values = events.value[order].tolist()
    totals = np.array([math.fsum(values[a:b]) for a, b in itertools.pairwise(bounds)])
    return InnovationIndex(dates=dates, gpbii=totals[1::2], ngpbii=totals[0::2])


def index_stats(idx: InnovationIndex) -> IndexStats:
    """Level and log-growth correlations of the two indices plus their
    elementwise ratio."""
    g, ng = idx.gpbii, idx.ngpbii
    if g.shape[0] < 3:
        raise DataError("need at least 3 quarters for index statistics")
    if np.any(ng == 0.0):
        quarter = idx.dates[int(np.nonzero(ng == 0.0)[0][0])]
        raise DataError(f"zero non-green index value in {quarter}; ratio undefined")
    if np.var(g) == 0.0 or np.var(ng) == 0.0:
        raise NumericalError("zero-variance index series; correlation undefined")
    level = float(np.corrcoef(g, ng)[0, 1])
    if np.any(g <= 0.0):
        quarter = idx.dates[int(np.nonzero(g <= 0.0)[0][0])]
        raise DataError(
            f"non-positive green index value in {quarter}; growth rate undefined"
        )
    dg, dng = np.diff(np.log(g)), np.diff(np.log(ng))
    if np.var(dg) == 0.0 or np.var(dng) == 0.0:
        raise NumericalError("zero-variance growth series; correlation undefined")
    growth = float(np.corrcoef(dg, dng)[0, 1])
    return IndexStats(
        level_correlation=level, growth_correlation=growth, ratio=g / ng
    )


def _iso_day(cell: str) -> int | None:
    """Days since 1970-01-01 of a YYYY-MM-DD cell, outer whitespace aside, else
    None: the one spelling ``date.fromisoformat`` reads on every Python."""
    day = cell.strip()
    digits = day[:4] + day[5:7] + day[8:]
    if len(day) != 10 or day[4] + day[7] != "--" or not (digits.isascii() and digits.isdigit()):
        return None
    try:
        return dt.date.fromisoformat(day).toordinal() - _EPOCH
    except ValueError:
        return None


def _memoised(cells, memo: dict, convert) -> tuple[list, int | None]:
    """``convert`` each distinct cell once (``memo`` carries over between
    blocks); returns the converted column and the index of its first None."""
    memo.update((cell, convert(cell)) for cell in set(cells).difference(memo))
    values = list(map(memo.__getitem__, cells))
    return values, (values.index(None) if None in values else None)


def _floats(cells) -> tuple[np.ndarray, int | None]:
    """``float`` of each cell up to the first one it rejects, and that
    cell's index (None when every cell converts)."""
    try:
        return np.fromiter(map(float, cells), float, len(cells)), None
    except ValueError:
        values = []
        for cell in cells:
            try:
                values.append(float(cell))
            except ValueError:
                return np.array(values, dtype=float), len(values)
        raise


def _first(mask: np.ndarray) -> int | None:
    return int(np.argmax(mask)) if mask.any() else None


def _parse_block(rows, col: dict[str, int], width: int, memos: dict, first: int) -> tuple:
    """Event columns of one block of data rows, the first of which is file
    row ``first``. Each check finds its first failing row; the earliest of
    those is raised, so the error names the same row a row-by-row loop
    would."""
    checks = []
    if set(map(len, rows)) != {width}:
        need = 1 + max(col[name] for name in _REQUIRED)
        short = (i for i, row in enumerate(rows) if len(row) < need)
        checks.append((next(short, None), "missing cells"))
        rows = [row[:width] + [""] * (width - len(row)) for row in rows]
    cells = list(zip(*rows))
    n = len(rows)
    raw_day = cells[col["grant_date"]]
    day, bad_day = _memoised(raw_day, memos["grant_date"], _iso_day)
    green, bad_green = _memoised(
        cells[col["green"]], memos["green"], lambda cell: _GREEN.get(cell.strip())
    )
    firm, _ = _memoised(cells[col["firm_id"]], memos["firm_id"], str.strip)
    ret, bad_ret = _floats(cells[col["window_return"]])
    cap, bad_cap = _floats(cells[col["market_cap"]])
    if "sigma_e" in col:
        raw_sigma = cells[col["sigma_e"]]
        given = np.fromiter(map(bool, raw_sigma), bool, n)
        sigma, bad_sigma = _floats([cell or "nan" for cell in raw_sigma])
    else:
        given, sigma, bad_sigma = np.zeros(n, dtype=bool), np.full(n, np.nan), None
    numeric = [i for i in (bad_ret, bad_cap, bad_sigma) if i is not None]
    checks += [
        (bad_day, f"bad grant_date {raw_day[bad_day]!r}" if bad_day is not None else ""),
        (bad_green, "green flag must be 0 or 1"),
        (min(numeric, default=None), "non-numeric cell"),
        (_first(~np.isfinite(ret)), "window_return must be finite"),
        (_first(~np.isfinite(cap)), "market_cap must be finite"),
        (_first(given[: len(sigma)] & ~np.isfinite(sigma)), "sigma_e must be finite"),
        (_first(cap <= 0), "market_cap must be > 0"),
        (_first(sigma <= 0), "sigma_e must be > 0"),
    ]
    failed = [(i, message) for i, message in checks if i is not None]
    if failed:
        i, message = min(failed, key=operator.itemgetter(0))
        raise DataError(f"row {first + i}: {message}")
    return (
        np.array(day, dtype=np.int64).view("datetime64[D]"),
        _objects(firm),
        np.array(green, dtype=bool),
        ret,
        cap,
        sigma,
        np.full(n, np.nan),
    )


def _columns(reader) -> tuple[dict[str, int], int]:
    """Column index of each name in the header, the first row of the csv
    ``reader``, and the header's width. A required column that is missing,
    or a column the loader reads that appears twice, is a DataError."""
    header = next(reader, None) or []
    missing = set(_REQUIRED) - set(header)
    if missing:
        raise DataError(f"events file missing columns {sorted(missing)}")
    for name in (*_REQUIRED, "sigma_e"):
        if header.count(name) > 1:
            raise DataError(f"events file has duplicate column {name!r}")
    return {name: i for i, name in enumerate(header)}, len(header)


def _joined(blocks) -> PatentEvents:
    if not blocks:
        return PatentEvents.stack([])
    return PatentEvents(*map(np.concatenate, zip(*blocks)))


def _parse_rows(path) -> PatentEvents:
    """Events of ``path`` through ``csv.reader``: any file ``load_events``
    accepts, and the source of its every error message."""
    with open_input(path, "events") as fh:
        reader = csv.reader(fh)
        col, width = _columns(reader)
        rows = filter(None, reader)
        memos = {"grant_date": {}, "green": {}, "firm_id": {}}
        blocks, first = [], 2
        while block := list(itertools.islice(rows, _BLOCK_ROWS)):
            blocks.append(_parse_block(block, col, width, memos, first))
            first += len(block)
    return _joined(blocks)


def _sigma_cell(cell: str) -> float:
    """A sigma_e cell as ``_parse_block`` reads it: empty is NaN, anything
    else ``float``; a value that block would refuse raises."""
    if not cell:
        return math.nan
    value = float(cell)
    if not 0.0 < value < math.inf:
        raise ValueError(f"sigma_e {cell!r}")
    return value


def _iso_days(cells: np.ndarray) -> np.ndarray | None:
    """Days since 1970-01-01 of ``U11`` cells, each of which must be
    exactly YYYY-MM-DD with year >= 1 and a day in its month, the cells on
    which ``date.fromisoformat`` and this agree; None if any cell is not."""
    code = np.ascontiguousarray(cells).view(np.uint32).reshape(len(cells), 11)
    digits = code[:, [0, 1, 2, 3, 5, 6, 8, 9]] - ord("0")  # wraps below "0"
    shape_ok = (digits < 10).all() & (code[:, [4, 7]] == ord("-")).all()
    if not (shape_ok and (code[:, 10] == 0).all()):
        return None
    d = digits.astype(np.int64)
    year = d[:, 0] * 1000 + d[:, 1] * 100 + d[:, 2] * 10 + d[:, 3]
    month, day = d[:, 4] * 10 + d[:, 5], d[:, 6] * 10 + d[:, 7]
    if (year < 1).any() or (month < 1).any() or (month > 12).any() or (day < 1).any():
        return None
    first = (year - 1970).astype("datetime64[Y]").astype("datetime64[M]") + (month - 1)
    start = first.astype("datetime64[D]").astype(np.int64)
    if (day > (first + 1).astype("datetime64[D]").astype(np.int64) - start).any():
        return None
    return start + (day - 1)


def _whole_firm(cell: str) -> str | None:
    """A firm_id cell that ``_parse_block`` keeps as it is and loadtxt
    cannot have cut, else None."""
    return cell if len(cell) < _FIRM_WIDTH and cell.strip() == cell else None


def _columnar_block(records: np.ndarray, memo: dict) -> tuple | None:
    """Event columns of one ``loadtxt`` block, or None when a guard fails:
    each column equals what ``_parse_block`` makes of the same rows only
    where every guard holds. ``memo`` carries the firms between blocks."""
    n = len(records)
    day = _iso_days(records["grant_date"])
    flag = np.ascontiguousarray(records["green"]).view(np.uint32).reshape(n, 2)
    green = flag[:, 0] == ord("1")
    firm, bad_firm = _memoised(records["firm_id"].tolist(), memo, _whole_firm)
    ret, cap = records["window_return"].copy(), records["market_cap"].copy()
    if (
        day is None
        or bad_firm is not None
        or not (((flag[:, 0] == ord("0")) | green) & (flag[:, 1] == 0)).all()
        or not (np.isfinite(ret).all() and np.isfinite(cap).all() and (cap > 0).all())
    ):
        return None
    sigma = records["sigma_e"].copy() if "sigma_e" in records.dtype.names else np.full(n, np.nan)
    return (
        day.view("datetime64[D]"),
        _objects(firm),
        green,
        ret,
        cap,
        sigma,
        np.full(n, np.nan),
    )


def _load_columnar(path) -> PatentEvents | None:
    """Events of ``path`` through numpy's C ``loadtxt``, a block of lines
    at a time, or None as soon as a block holds anything its guards cannot
    show ``_parse_rows`` reads the same way."""
    with open_input(path, "events") as fh:
        col, _ = _columns(csv.reader(fh))
        names = [name for name in _FAST_DTYPES if name in col]
        read = functools.partial(
            np.loadtxt,
            dtype=[(name, _FAST_DTYPES[name]) for name in names],
            delimiter=",",
            comments=None,
            quotechar=None,
            usecols=[col[name] for name in names],
            converters={col["sigma_e"]: _sigma_cell} if "sigma_e" in col else None,
            ndmin=1,
        )
        memo, blocks = {}, []
        try:
            while text := fh.read(_FAST_CHARS):
                text += fh.readline()
                if any(char in text for char in _FAST_UNSAFE):
                    return None
                if not text.strip("\r\n"):
                    continue
                block = _columnar_block(read(io.StringIO(text, newline="")), memo)
                if block is None:
                    return None
                blocks.append(block)
        except ValueError:  # loadtxt refused a cell or row, or the file is not UTF-8
            return None
    return _joined(blocks)


def load_events(path) -> PatentEvents:
    """Read events from CSV with columns grant_date (ISO), firm_id,
    green (0/1), window_return, market_cap, and optional sigma_e (an empty
    cell means the default). window_return, market_cap and a given sigma_e
    must be finite; market_cap and a given sigma_e must be > 0. A bad cell
    raises DataError naming its row (the header is row 1; blank lines are
    skipped and not counted); a missing or repeated column is a DataError.

    Files are first read through numpy's C ``loadtxt``, which returns only
    columns equal to the csv parser's; any file it cannot vouch for, and
    every error, goes to the csv parser."""
    events = _load_columnar(path)
    return _parse_rows(path) if events is None else events


def write_index(idx: InnovationIndex, path, date_column: str = "date") -> None:
    """Index CSV in the panel loader's format: date column plus gpbii and
    ngpbii, so the output feeds straight into the VAR pipeline."""
    rows = zip(idx.dates, idx.gpbii.tolist(), idx.ngpbii.tolist())
    write_csv(path, [date_column, "gpbii", "ngpbii"], rows)
