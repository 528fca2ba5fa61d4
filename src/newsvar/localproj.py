"""Cumulative local-projection impulse responses with Newey-West inference.

For each horizon h the long difference y_{t+h} - y_{t-1} is regressed on an
intercept and the shock at t, over every t where both sides exist; the end
of the sample is dropped, never padded. Because the overlapping long
differences induce MA(h) errors, the HAC truncation lag is h+1 at horizon h.
The state-dependent variant interacts both regressors with a 0/1 regime
dummy dated at the shock, with no common intercept, which reproduces
split-sample point estimates exactly. Both variants run one per-horizon
regression on [w, w*shock] for each regime weight w: a column of ones
when pooled, D and 1-D when regime-split.
"""

from __future__ import annotations

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
    return _hac(x, u, lag)


def _hac(x: np.ndarray, u: np.ndarray, lag: int) -> np.ndarray:
    """The Newey-West sandwich of ``newey_west`` on arguments it has already
    checked: float X of full column rank, matching residuals, 0 <= lag < T."""
    # x * u[:, None] column by column: the same values in the same layout,
    # without one k-wide inner loop per row.
    scores = np.empty_like(x)
    for j in range(x.shape[1]):
        np.multiply(x[:, j], u, out=scores[:, j])
    meat = scores.T @ scores
    for ell in range(1, lag + 1):
        gamma = scores[ell:].T @ scores[:-ell]
        meat += (1.0 - ell / (lag + 1.0)) * (gamma + gamma.T)
    bread = np.linalg.inv(x.T @ x)
    return bread @ meat @ bread


def _series(*series) -> list[np.ndarray]:
    """The series as flat float arrays of one common length."""
    series = [np.asarray(x, dtype=float).ravel() for x in series]
    if len({x.shape[0] for x in series}) > 1:
        lengths = " vs ".join(str(x.shape[0]) for x in series)
        raise ValueError(f"series length mismatch: {lengths}")
    return series


def _project(y, shock, regimes, horizon: int) -> list[LocalProjectionResult]:
    """One result per regime of ``regimes``, pairs of a label and a 0/1
    weight series dated at the shock. At each horizon the long difference is
    regressed on [w, w*shock] for every weight w, with no other regressor."""
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
    # Columns [w, w*shock] per regime over every date t >= 1; the design at
    # horizon h is its first t-1-h rows.
    design = np.empty((t - 1, 2 * len(regimes)))
    for r, (_, weight) in enumerate(regimes):
        design[:, 2 * r] = weight[1:]
        design[:, 2 * r + 1] = weight[1:] * shock[1:]
    for h in range(horizon + 1):
        n_h = t - 1 - h
        # The HAC lag h+1 must also fit inside the usable sample.
        if n_h < 3 or h + 1 >= n_h:
            raise DataError(f"too few usable observations at horizon {h} (n={n_h})")
        lhs = y[1 + h:] - y[:n_h]
        s = shock[1: t - h]
        for r, (label, weight) in enumerate(regimes):
            rows = weight[1: t - h] == 1.0
            n_obs[r, h] = np.count_nonzero(rows)
            if n_obs[r, h] < 3:
                raise DataError(
                    f"regime {label} has too few usable observations "
                    f"at horizon {h} (n={n_obs[r, h]})"
                )
            if np.ptp(s[rows]) == 0.0:
                raise DataError(
                    f"constant shock over the usable sample of regime {label} at horizon {h}"
                )
        # One SVD per horizon: lstsq's singular values decide the rank check
        # (the regime counts above leave at least as many rows as columns).
        x = design[:n_h]
        coef, _, _, sv = np.linalg.lstsq(x, lhs, rcond=None)
        _check_singular_values(sv, _HAC_WHAT)
        cov = _hac(x, lhs - x @ coef, h + 1)
        alpha[:, h], beta[:, h] = coef[0::2], coef[1::2]
        se[:, h] = np.sqrt(np.diag(cov)[1::2])
    return [
        LocalProjectionResult(np.arange(horizon + 1), *fields)
        for fields in zip(alpha, beta, se, n_obs)
    ]


def lp_irf(y: np.ndarray, shock: np.ndarray, horizon: int) -> LocalProjectionResult:
    """Local-projection responses of y to the shock over horizons 0..horizon."""
    y, shock = _series(y, shock)
    return _project(y, shock, [("all", np.ones(y.shape[0]))], horizon)[0]


def lp_irf_state(
    y: np.ndarray, shock: np.ndarray, dummy: np.ndarray, horizon: int
) -> StateLpResult:
    """Regime-dependent local projections.

    One regression per horizon with regressors [D, D*shock, 1-D, (1-D)*shock]
    and no common intercept; point estimates coincide with split-sample
    regressions because the two regressor blocks are orthogonal.
    """
    y, shock, dummy = _series(y, shock, dummy)
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
