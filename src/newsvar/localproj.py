"""Cumulative local-projection impulse responses with Newey-West inference.

For each horizon h the long difference y_{t+h} - y_{t-1} is regressed on an
intercept and the shock at t, over every t where both sides exist; the end
of the sample is dropped, never padded. Because the overlapping long
differences induce MA(h) errors, the HAC truncation lag is h+1 at horizon h.
The state-dependent variant interacts both regressors with a 0/1 regime
dummy dated at the shock, with no common intercept, which reproduces
split-sample point estimates exactly. Both variants run one per-horizon
regression on [w, w*shock] for each regime weight w: a column of ones
when pooled, D and 1-D when regime-split, solved in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bvar import _check_full_rank, _check_singular_values
from .errors import DataError
from .panel import write_csv, write_json

_HAC_WHAT = "regressor matrix in HAC estimator"


@dataclass
class LocalProjectionResult:
    """Per-horizon intercepts, slopes, HAC standard errors of the slope, and
    effective sample sizes."""

    horizons: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    se: np.ndarray
    n_obs: np.ndarray


@dataclass
class StateLpResult:
    """Regime-split local projections: ``pre`` is the D=0 regime, ``post``
    the D=1 regime."""

    pre: LocalProjectionResult
    post: LocalProjectionResult
    dummy_name: str = "dummy"


def newey_west(x: np.ndarray, u: np.ndarray, lag: int) -> np.ndarray:
    """HAC coefficient covariance (X'X)^-1 M (X'X)^-1 with Bartlett weights.

    M = Gamma_0 + sum_{l=1..lag} (1 - l/(lag+1)) (Gamma_l + Gamma_l') where
    Gamma_l = sum_t (x_t u_t)(x_{t-l} u_{t-l})'. lag = 0 collapses to the
    heteroskedasticity-robust (White) covariance.
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float).ravel()
    if x.ndim == 1:
        x = x[:, None]
    t = x.shape[0]
    if u.shape[0] != t:
        raise ValueError(f"residuals length {u.shape[0]} != {t} rows of X")
    if lag < 0:
        raise ValueError(f"truncation lag must be >= 0, got {lag}")
    if lag >= t:
        raise ValueError(f"truncation lag {lag} must be < T = {t}")
    _check_full_rank(x, _HAC_WHAT)
    # x * u[:, None] column by column: the same values in the same layout,
    # without one k-wide inner loop per row.
    scores = np.empty_like(x)
    for j in range(x.shape[1]):
        np.multiply(x[:, j], u, out=scores[:, j])
    bread = np.linalg.inv(x.T @ x)
    return bread @ _hac(scores, lag) @ bread


def _hac(scores: np.ndarray, lag: int) -> np.ndarray:
    """The Bartlett meat M of ``newey_west`` for score rows x_t u_t.

    Row j of B sums the scores over the window of rows j-lag..j, zero-padded
    at both ends. Two rows l <= lag apart share lag+1-l of those windows, so
    B'B / (lag+1) weights their product by exactly 1 - l/(lag+1). The window
    sums are lag+1 shifted adds, not differences of one running sum, which
    would cancel. lag = 0 is scores' scores itself.
    """
    if lag == 0:
        return scores.T @ scores
    t = scores.shape[0]
    windows = np.zeros((t + lag, scores.shape[1]))
    for shift in range(lag + 1):
        windows[shift: shift + t] += scores
    return windows.T @ windows / (lag + 1.0)


def _block_singular_values(m: int, s_bar: float, ss: float) -> tuple[float, float]:
    """Singular values of the m x 2 block [1, s] whose shock has mean s_bar
    and centred sum of squares ss: the square roots of the eigenvalues of
    its Gram matrix [[m, m s_bar], [m s_bar, ss + m s_bar^2]], whose
    determinant is m*ss. The discriminant is a sum of non-negative terms,
    and the smaller value comes from the determinant, so neither cancels;
    hypot and the split square roots keep the squares from overflowing."""
    c = m * s_bar * s_bar
    root = math.hypot(m - ss, math.sqrt(c) * math.sqrt(c + 2.0 * (m + ss)))
    big = math.sqrt(0.5 * (m + ss + c + root))
    return big, math.sqrt(m) * math.sqrt(ss) / big


def _series(**named) -> list[np.ndarray]:
    """The named series as flat float arrays of one common length, each
    finite."""
    series = {name: np.asarray(x, dtype=float).ravel() for name, x in named.items()}
    if len({x.shape[0] for x in series.values()}) > 1:
        lengths = " vs ".join(str(x.shape[0]) for x in series.values())
        raise ValueError(f"series length mismatch: {lengths}")
    for name, x in series.items():
        finite = np.isfinite(x)
        if not finite.all():
            i = int(np.argmin(finite))
            raise DataError(f"{name} has a non-finite value ({x[i]}) at index {i}")
    return list(series.values())


def _project(y, shock, regimes, horizon: int) -> list[LocalProjectionResult]:
    """One result per regime of ``regimes``, pairs of a label and a 0/1
    weight series dated at the shock. At each horizon the long difference is
    regressed on [w, w*shock] for every weight w, with no other regressor.

    The regimes are disjoint, so the design's [w, w*shock] blocks are
    orthogonal and each regime is its own two-column fit over its m usable
    rows, solved in closed form about the regime's mean shock s_bar with
    ss = sum (shock - s_bar)^2. Each block's Gram matrix has determinant
    m*ss and the slope row of its inverse is [-s_bar, 1] / ss, so the
    slope's HAC variance is the Bartlett meat of the scores
    w * u * (shock - s_bar) / ss: no lstsq, SVD or matrix inverse runs.
    """
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    # ptp, not var: the mean of a constant series can round, so its
    # variance need not be exactly zero
    if np.ptp(shock) == 0.0:
        raise DataError("constant shock series")
    t = y.shape[0]
    shape = (len(regimes), horizon + 1)
    alpha, beta, se = np.empty(shape), np.empty(shape), np.empty(shape)
    n_obs = np.empty(shape, dtype=int)
    # The usable rows of each regime over every date t >= 1; at horizon h
    # they are the first t-1-h of them.
    in_regime = [(label, weight[1:] == 1.0) for label, weight in regimes]
    for h in range(horizon + 1):
        n_h = t - 1 - h
        # The HAC lag h+1 must also fit inside the usable sample.
        if n_h < 3 or h + 1 >= n_h:
            raise DataError(f"too few usable observations at horizon {h} (n={n_h})")
        lhs = y[1 + h:] - y[:n_h]
        s = shock[1: t - h]
        fits, sv = [], []
        for r, (label, usable) in enumerate(in_regime):
            rows = usable[:n_h]
            m = n_obs[r, h] = np.count_nonzero(rows)
            if m < 3:
                raise DataError(
                    f"regime {label} has too few usable observations at horizon {h} (n={m})"
                )
            # a pooled regime takes every row without a copy
            if m == n_h:
                rows = slice(None)
            s_r = s[rows]
            if np.ptp(s_r) == 0.0:
                raise DataError(
                    f"constant shock over the usable sample of regime {label} at horizon {h}"
                )
            s_bar = s_r.sum() / m
            dev = s_r - s_bar
            ss = dev @ dev
            fits.append((rows, m, s_bar, dev, ss))
            sv += _block_singular_values(m, float(s_bar), float(ss))
        _check_singular_values(np.sort(sv)[::-1], _HAC_WHAT)
        scores = np.zeros((n_h, len(regimes)))
        for r, (rows, m, s_bar, dev, ss) in enumerate(fits):
            y_r = lhs[rows]
            y_bar = y_r.sum() / m
            beta[r, h] = (dev @ y_r) / ss
            alpha[r, h] = y_bar - beta[r, h] * s_bar
            scores[rows, r] = dev * (y_r - y_bar - beta[r, h] * dev) / ss
        se[:, h] = np.sqrt(np.diag(_hac(scores, h + 1)))
    return [
        LocalProjectionResult(np.arange(horizon + 1), *fields)
        for fields in zip(alpha, beta, se, n_obs)
    ]


def lp_irf(y: np.ndarray, shock: np.ndarray, horizon: int) -> LocalProjectionResult:
    """Local-projection responses of y to the shock over horizons 0..horizon."""
    y, shock = _series(y=y, shock=shock)
    return _project(y, shock, [("all", np.ones(y.shape[0]))], horizon)[0]


def lp_irf_state(
    y: np.ndarray, shock: np.ndarray, dummy: np.ndarray, horizon: int
) -> StateLpResult:
    """Regime-dependent local projections.

    One regression per horizon with regressors [D, D*shock, 1-D, (1-D)*shock]
    and no common intercept; point estimates coincide with split-sample
    regressions because the two regressor blocks are orthogonal.
    """
    y, shock, dummy = _series(y=y, shock=shock, dummy=dummy)
    bad = np.setdiff1d(np.unique(dummy), [0.0, 1.0])
    if bad.size:
        raise DataError(f"dummy must be 0/1, found value {bad[0]!r}")
    post, pre = _project(y, shock, [(1, dummy), (0, 1.0 - dummy)], horizon)
    return StateLpResult(pre=pre, post=post)


def _regimes(result) -> list[tuple[str, LocalProjectionResult]]:
    if isinstance(result, StateLpResult):
        return [("pre", result.pre), ("post", result.post)]
    return [("all", result)]


def _columns(res: LocalProjectionResult) -> dict[str, list]:
    return {
        "horizons": [int(h) for h in res.horizons],
        "alpha": [float(v) for v in res.alpha],
        "beta": [float(v) for v in res.beta],
        "se": [float(v) for v in res.se],
        "n_obs": [int(v) for v in res.n_obs],
    }


def lp_to_csv(result, path) -> None:
    """CSV with columns horizon, beta, se, n_obs, regime.

    Accepts a LocalProjectionResult (regime written as ``all``) or a
    StateLpResult (one block per regime).
    """
    rows = []
    for regime, res in _regimes(result):
        c = _columns(res)
        rows += ([*cells, regime] for cells in zip(c["horizons"], c["beta"], c["se"], c["n_obs"]))
    write_csv(path, ["horizon", "beta", "se", "n_obs", "regime"], rows)


def lp_to_json(result, path, band_se: float = 1.0) -> None:
    payload = {"regimes": {regime: _columns(res) for regime, res in _regimes(result)}}
    if isinstance(result, StateLpResult):
        payload["dummy"] = result.dummy_name
    payload["band_se_multiple"] = band_se
    write_json(payload, path)
