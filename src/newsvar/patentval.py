"""Patent-based innovation indices from grant events and firm returns.

Each granted patent is valued by filtering the firm's stock return over the
grant announcement window: the patent's return contribution v has a normal
prior truncated to v >= 0 and the observed window return is v plus normal
noise, so the filtered value is the market cap times the posterior mean of v.
Values are then summed by quarter, split by the green flag, to form the two
indices. Window returns arrive as data; estimating them from raw prices is
out of scope.

The filter's one special function is erfcx(x) = exp(x*x)*erfc(x), in the
Mills ratio phi/Phi. ``_erfcx`` evaluates it with numpy alone, within 2.4
ulp of a 40-digit reference: a Taylor table on [-3, 3), Laplace's
continued fraction right of it, the reflection left of it. So no command
imports ``scipy.special``, whose import costs more than valuing 200k
events.

Events travel as ``PatentEvents``, one array per field, so valuing and
bucketing run column-wise rather than once per event. ``load_events`` reads
plain files through numpy's C ``loadtxt``; the rest (quoted or padded
cells, other date or flag spellings, a NUL) and every error go to a csv
parser that reads a row at a time, about 3x slower per row.
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


# The erfcx kernel: a Taylor series about centres 1/_ERFCX_GRID apart
# inside +-_ERFCX_EDGE, the continued fraction right of it, the reflection
# left of it. Below _ERFCX_INF_BELOW erfcx exceeds 2.3e307, so the Mills
# ratio sqrt(2/pi)/erfcx would be subnormal: inf there makes it exactly 0.
_ERFCX_GRID = 64
_ERFCX_EDGE = 3
_ERFCX_TERMS = 9
# Terms of the continued fraction; 30 are the fewest within 1 ulp on [3, 3.5).
_ERFCX_FRACTION = 40
_ERFCX_INF_BELOW = -26.59
_ERFCX_CHUNK = 1 << 14


@functools.cache
def _erfcx_taylor() -> np.ndarray:
    """Taylor coefficients of erfcx about c = k/_ERFCX_GRID for |c| <=
    _ERFCX_EDGE: row j holds the h**j coefficient of erfcx(c + h) for every c.
    They follow from y' = 2xy - 2/sqrt(pi), seeded with exp(c*c)*erfc(c);
    c*c is exact on this grid."""
    rows = []
    for k in range(-_ERFCX_GRID * _ERFCX_EDGE, _ERFCX_GRID * _ERFCX_EDGE + 1):
        c = k / _ERFCX_GRID
        a = [math.exp(c * c) * math.erfc(c)]
        a.append(2.0 * c * a[0] - 2.0 / math.sqrt(math.pi))
        for j in range(1, _ERFCX_TERMS - 1):
            a.append((2.0 * c * a[j] + 2.0 * a[j - 1]) / (j + 1))
        rows.append(a)
    return np.array(rows).T.copy()


def _erfcx_centre(x: np.ndarray) -> np.ndarray:
    """erfcx of 1-D ``x`` within [-_ERFCX_EDGE, _ERFCX_EDGE] by the Taylor
    series about the nearest grid centre, _ERFCX_CHUNK elements at a time
    so that the passes run in cache."""
    table = _erfcx_taylor()
    out = np.empty_like(x)
    h_buf, term_buf = np.empty((2, min(x.size, _ERFCX_CHUNK)))
    for lo in range(0, x.size, _ERFCX_CHUNK):
        part = x[lo:lo + _ERFCX_CHUNK]
        h, term = h_buf[: part.size], term_buf[: part.size]
        np.rint(np.multiply(part, _ERFCX_GRID, out=h), out=h)
        row = h.astype(np.intp)
        row += _ERFCX_GRID * _ERFCX_EDGE
        np.subtract(part, np.divide(h, _ERFCX_GRID, out=h), out=h)  # exact
        y = table[-1].take(row, out=out[lo:lo + part.size])
        for coefficient in table[-2::-1]:
            y *= h
            y += coefficient.take(row, out=term)
    return out


def _erfcx_tail(x: np.ndarray) -> np.ndarray:
    """t - x for the denominator t = x + (1/2)/(x + 1/(x + (3/2)/(x + ...)))
    of Laplace's continued fraction for x >= _ERFCX_EDGE, evaluated from its
    _ERFCX_FRACTION-th term up: the tail itself, not a difference."""
    t = x.copy()
    for k in range(_ERFCX_FRACTION, 1, -1):
        np.divide(0.5 * k, t, out=t)
        t += x
    return np.divide(0.5, t, out=t)


def _erfcx_fraction(x: np.ndarray) -> np.ndarray:
    """erfcx(x) = 1/sqrt(pi) / t for x >= _ERFCX_EDGE, t the continued
    fraction's denominator."""
    return (1.0 / math.sqrt(math.pi)) / (_erfcx_tail(x) + x)


def _erfcx_left(x: np.ndarray) -> np.ndarray:
    """erfcx(x) = 2*exp(x*x) - erfcx(-x) for _ERFCX_INF_BELOW <= x <
    -_ERFCX_EDGE. x*x is carried as hi + lo (Veltkamp's split), so the
    result has exp's error, not the up to x*x ulp that rounding x*x
    first costs."""
    split = 134217729.0 * x  # 2**27 + 1
    x_hi = split - (split - x)
    x_lo = x - x_hi
    hi = x * x
    lo = ((x_hi * x_hi - hi) + 2.0 * x_hi * x_lo) + x_lo * x_lo
    twice = 2.0 * np.exp(hi)
    return twice + (twice * lo - _erfcx_fraction(-x))


def _erfcx(x) -> np.ndarray:
    """Scaled complementary error function exp(x*x)*erfc(x), elementwise,
    within 2.4 ulp of the exact value for x >= _ERFCX_INF_BELOW and inf
    below it (NaN gives NaN). Every element takes the same operations
    whatever the rest of the array holds."""
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    centre = (flat >= -_ERFCX_EDGE) & (flat < _ERFCX_EDGE)
    if centre.all():  # the common case, without the gather and scatter
        return _erfcx_centre(flat).reshape(x.shape)
    y = np.where(flat < _ERFCX_INF_BELOW, np.inf, flat)  # NaN stays NaN
    for kernel, region in (
        (_erfcx_centre, centre),
        (_erfcx_fraction, flat >= _ERFCX_EDGE),
        (_erfcx_left, (flat < -_ERFCX_EDGE) & (flat >= _ERFCX_INF_BELOW)),
    ):
        i = np.flatnonzero(region)  # an index gathers faster than a mask
        y[i] = kernel(flat[i])
    return y.reshape(x.shape)


def _mills_ratio(z):
    # phi(z)/Phi(z) via erfcx, stable for arbitrarily negative z; exactly 0
    # above z = -sqrt(2)*_ERFCX_INF_BELOW (37.6), where it would be subnormal
    return _scalar_or_array(
        math.sqrt(2.0 / math.pi) / _erfcx(-np.asarray(z, dtype=float) / math.sqrt(2.0))
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
    value per element. Each element goes through the same elementwise
    operations, whatever the other elements are (squares are products,
    and the Mills ratio is this module's ``_erfcx``), so an array element
    equals the scalar call on that element to the last bit. A non-finite
    argument, a sigma or market_cap <= 0, or a sigma_v whose square is
    below the smallest normal double, raises ValueError naming it.
    """
    r, sv, se, cap = (
        np.asarray(x, dtype=float) for x in (window_return, sigma_v, sigma_e, market_cap)
    )
    for name, x in (("window_return", r), ("sigma_v", sv), ("sigma_e", se), ("market_cap", cap)):
        if not np.isfinite(x).all():
            raise ValueError(f"{name} must be finite")
    if np.any(sv <= 0) or np.any(se <= 0):
        raise ValueError("sigma_v and sigma_e must be > 0")
    if np.any(cap <= 0):
        raise ValueError("market_cap must be > 0")
    var_v = sv * sv
    if np.any(var_v < np.finfo(float).tiny):
        raise ValueError("sigma_v is too small: its square underflows")
    delta = var_v / (var_v + se * se)
    s = np.sqrt(delta) * se
    mean = delta * r
    z = mean / s
    # Above z = 9, s*phi(z)/Phi(z) is below 2**-60 of mean, so it cannot
    # change the sum, and it can underflow: it is left out there.
    value = np.multiply(s, _mills_ratio(z), out=np.zeros(z.shape), where=~(z > 9.0))
    value += mean
    # Where _erfcx takes the continued fraction, x = -z/sqrt(2) >= _ERFCX_EDGE,
    # the sum cancels. There phi(z)/Phi(z) = sqrt(2)*t, t the fraction's
    # denominator, so mean + s*phi/Phi = s*sqrt(2)*(t - x), with no difference.
    x = -z / math.sqrt(2.0)
    left = x >= _ERFCX_EDGE
    if left.any():
        s_left = np.broadcast_to(s, z.shape)[left]
        value[left] = s_left * math.sqrt(2.0) * _erfcx_tail(x[left])
    return _scalar_or_array(cap * value)


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


def _parse_row(row: list[str], col: dict[str, int]) -> tuple:
    """Event fields of one data row: days since 1970-01-01, firm, green,
    window_return, market_cap and sigma_e (NaN when empty or absent). The
    first check the row fails, in the order below, raises ValueError with
    its message."""
    try:
        day_cell, firm, flag, ret_cell, cap_cell = [row[col[name]] for name in _REQUIRED]
    except IndexError:
        raise ValueError("missing cells") from None
    # no sigma_e column, or a row that ends before it, gives an empty cell
    sigma_cell = row[col["sigma_e"]] if col.get("sigma_e", len(row)) < len(row) else ""
    day = _iso_day(day_cell)
    if day is None:
        raise ValueError(f"bad grant_date {day_cell!r}")
    green = _GREEN.get(flag.strip())
    if green is None:
        raise ValueError("green flag must be 0 or 1")
    try:
        ret, cap = float(ret_cell), float(cap_cell)
        sigma = float(sigma_cell) if sigma_cell else math.nan
    except ValueError:
        raise ValueError("non-numeric cell") from None
    if not math.isfinite(ret):
        raise ValueError("window_return must be finite")
    if not math.isfinite(cap):
        raise ValueError("market_cap must be finite")
    if sigma_cell and not math.isfinite(sigma):
        raise ValueError("sigma_e must be finite")
    if cap <= 0:
        raise ValueError("market_cap must be > 0")
    if sigma <= 0:
        raise ValueError("sigma_e must be > 0")
    return day, firm.strip(), green, ret, cap, sigma


def _columns(reader) -> dict[str, int]:
    """Column index of each name in the header, the first row of the csv
    ``reader``. A required column that is missing, or a column the loader
    reads that appears twice, is a DataError."""
    header = next(reader, None) or []
    missing = set(_REQUIRED) - set(header)
    if missing:
        raise DataError(f"events file missing columns {sorted(missing)}")
    for name in (*_REQUIRED, "sigma_e"):
        if header.count(name) > 1:
            raise DataError(f"events file has duplicate column {name!r}")
    return {name: i for i, name in enumerate(header)}


def _joined(blocks) -> PatentEvents:
    if not blocks:
        return PatentEvents.stack([])
    return PatentEvents(*map(np.concatenate, zip(*blocks)))


def _parse_rows(path) -> PatentEvents:
    """Events of ``path`` through ``csv.reader``, a row at a time: any
    file ``load_events`` accepts, and the source of its every error
    message, which names the first bad row."""
    with open_input(path, "events") as fh:
        reader = csv.reader(fh)
        col = _columns(reader)
        rows = []
        for n, row in enumerate(filter(None, reader), start=2):
            try:
                rows.append(_parse_row(row, col))
            except ValueError as exc:
                raise DataError(f"row {n}: {exc}") from None
    day, firm, green, ret, cap, sigma = zip(*rows) if rows else [()] * 6
    return PatentEvents(
        grant_date=np.array(day, dtype=np.int64).view("datetime64[D]"),
        firm_id=_objects(firm),
        green=np.array(green, dtype=bool),
        window_return=np.array(ret, dtype=float),
        market_cap=np.array(cap, dtype=float),
        sigma_e=np.array(sigma, dtype=float),
        value=np.full(len(rows), np.nan),
    )


def _sigma_cell(cell: str) -> float:
    """A sigma_e cell as ``_parse_row`` reads it: empty is NaN, anything
    else ``float``; a value that row would refuse raises."""
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
    """A firm_id cell that ``_parse_row`` keeps as it is and loadtxt
    cannot have cut, else None."""
    return cell if len(cell) < _FIRM_WIDTH and cell.strip() == cell else None


def _columnar_block(records: np.ndarray, memo: dict) -> tuple | None:
    """Event columns of one ``loadtxt`` block, or None when a guard fails:
    each column equals what ``_parse_rows`` makes of the same rows only
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
        col = _columns(csv.reader(fh))
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
    columns equal to the csv parser's; any file it cannot vouch for (a
    quote, padded cells, another date or flag spelling, a NUL), and every
    error, goes to the csv parser, which reads a row at a time and is
    about 3x slower per row."""
    events = _load_columnar(path)
    return _parse_rows(path) if events is None else events


def write_index(idx: InnovationIndex, path, date_column: str = "date") -> None:
    """Index CSV in the panel loader's format: date column plus gpbii and
    ngpbii, so the output feeds straight into the VAR pipeline."""
    rows = zip(idx.dates, idx.gpbii.tolist(), idx.ngpbii.tolist())
    write_csv(path, [date_column, "gpbii", "ngpbii"], rows)
