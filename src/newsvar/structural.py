"""Cholesky identification, impulse responses, and residual decomposition.

Identification is by ordering only: the impact matrix is the lower-triangular
Cholesky factor of the innovation covariance, so variable i does not respond
on impact to shocks ordered after it. The decomposition splits a target
residual series into the component spanned by a reference residual (the
projection, with no intercept because VAR residuals are mean zero by
construction) and the orthogonal remainder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bvar import PosteriorDraw, PosteriorDraws, VarSpec, companion
from .errors import NumericalError
from .panel import write_csv, write_json

BAND_PERCENTILES = (16.0, 50.0, 84.0)
# Draws per block of the MA recursion in ``_ma_responses`` and of the
# transposing copy in ``_percentile_bands``; a block is copied draws-last
# while it is still in cache, which measured faster than whole-array passes.
_BAND_TILE = 512


@dataclass
class ImpactMatrix:
    """Lower-triangular impact matrix L with positive diagonal, L L' = Sigma."""

    L: np.ndarray


@dataclass
class IrfSet:
    """Posterior array of impulse responses with pointwise percentile bands.

    ``responses`` has shape (draws, H+1, variables, shocks); the summary
    arrays hold the 16/50/84 percentiles across draws, the central 68%
    interval used as one-standard-deviation coverage bands.
    """

    responses: np.ndarray
    horizons: np.ndarray
    variables: list[str]
    shocks: list[str]
    lower: np.ndarray
    median: np.ndarray
    upper: np.ndarray
    scale_note: str = "responses to one-standard-deviation structural shocks"


@dataclass
class ShockDecomposition:
    """Orthogonal split of a target residual into the component common with a
    reference residual and the idiosyncratic remainder."""

    gamma: float
    common: np.ndarray
    idiosyncratic: np.ndarray
    r2: float


def cholesky_rotate(sigma: np.ndarray) -> ImpactMatrix:
    """Unique lower-triangular factor of an SPD covariance matrix.

    Near-semidefinite input is an error, never jittered: silent
    regularization would break the L L' reconstruction contract.
    """
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise ValueError(f"covariance must be square, got shape {sigma.shape}")
    asym = float(np.max(np.abs(sigma - sigma.T))) if sigma.size else 0.0
    if asym > 1e-10:
        raise NumericalError(f"covariance not symmetric (max asymmetry {asym:.3e})")
    try:
        lower = np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        smallest = float(np.linalg.eigvalsh(0.5 * (sigma + sigma.T))[0])
        raise NumericalError(
            f"covariance not positive definite (smallest eigenvalue {smallest:.3e})"
        ) from None
    return ImpactMatrix(L=lower)


def irf_from_factors(
    b: np.ndarray, impact: np.ndarray, spec: VarSpec, horizon: int
) -> np.ndarray:
    """Companion-power impulse responses for given coefficients and impact
    matrix: response[h] = (top-left n x n block of companion^h) @ impact."""
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    impact = np.asarray(impact, dtype=float)
    n = impact.shape[0]
    comp = companion(b, spec)
    power = np.eye(comp.shape[0])
    out = np.empty((horizon + 1, n, n))
    for h in range(horizon + 1):
        out[h] = power[:n, :n] @ impact
        if h < horizon:
            power = comp @ power
    return out


def compute_irf(draw: PosteriorDraw, spec: VarSpec, horizon: int) -> np.ndarray:
    """(H+1, n, n) responses of each variable to each one-standard-deviation
    Cholesky shock, identified in the ordering of ``spec``."""
    return irf_from_factors(draw.B, cholesky_rotate(draw.Sigma).L, spec, horizon)


def _batched_impact(sigma: np.ndarray) -> np.ndarray:
    """Cholesky factors of stacked covariances (D, n, n), with the checks of
    ``cholesky_rotate``; a failure names the first offending draw."""
    asym = np.abs(sigma - sigma.transpose(0, 2, 1)).max(axis=(1, 2), initial=0.0)
    bad = np.flatnonzero(asym > 1e-10)
    if bad.size:
        raise NumericalError(
            f"draw {bad[0]}: covariance not symmetric (max asymmetry {asym[bad[0]]:.3e})"
        )
    try:
        return np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        for i, draw_sigma in enumerate(sigma):
            try:
                cholesky_rotate(draw_sigma)
            except NumericalError as exc:
                raise NumericalError(f"draw {i}: {exc}") from None
        raise


def _ma_responses(
    b: np.ndarray, impact: np.ndarray, spec: VarSpec, horizon: int
) -> tuple[np.ndarray, np.ndarray]:
    """Structural MA coefficients of every draw by the recursion
    Theta_0 = L, Theta_h = sum_{l <= min(h, p)} A_l Theta_{h-l}, as one
    (D, H+1, n, n) array and as its draws-last copy (cells, D). A block of
    ``_BAND_TILE`` draws runs h = 1..H, one batched product of the lag blocks
    [A_m ... A_1] (n x m*n) with the stacked [Theta_{h-m}; ...; Theta_{h-1}]
    (m*n x n) per step, and is copied draws-last while it is in cache; no
    draw's values depend on the block.
    """
    lag_rows = spec.lag_rows(b)
    d, n, p = b.shape[0], impact.shape[1], spec.lags
    out = np.empty((d, horizon + 1, n, n))
    by_cell = np.empty((out[0].size, d))
    for start in range(0, d, _BAND_TILE):
        block = out[start:start + _BAND_TILE]
        size = block.shape[0]
        # Block l of the coefficient rows is A_l'; reorder to [A_p ... A_1].
        lags = lag_rows[start:start + size].reshape(size, p, n, n)
        lagged = lags[:, ::-1].transpose(0, 3, 1, 2).reshape(size, n, p * n)
        block[:, 0] = impact[start:start + size]
        for h in range(1, horizon + 1):
            m = min(h, p)
            stacked = block[:, h - m: h].reshape(size, m * n, n)
            np.matmul(lagged[:, :, (p - m) * n:], stacked, out=block[:, h])
        by_cell[:, start:start + size] = block.reshape(size, -1).T
    return out, by_cell


def _sorted_bands(by_cell: np.ndarray, cells: tuple[int, ...]) -> np.ndarray:
    """Sort each row of the draws-last buffer ``by_cell`` in place and
    return its 16/50/84 percentiles shaped (3, *cells), equal to
    ``np.percentile`` along the draws: each band interpolates two order
    statistics by numpy's ``linear`` index rule and ``_lerp`` formula. A
    row with a NaN draw gets NaN (NaN sorts last). At a tie between -0.0
    and 0.0 the sign of the zero returned may differ.
    """
    by_cell.sort(axis=1)
    d = by_cell.shape[1]
    bands = np.empty((len(BAND_PERCENTILES), by_cell.shape[0]))
    for band, q in zip(bands, BAND_PERCENTILES):
        virtual = (d - 1) * (q / 100)
        below = math.floor(virtual)
        above = below + 1
        if virtual >= d - 1:
            # numpy reads the last element and measures gamma from index -1
            below = above = -1
        gamma = virtual - below
        lo, hi = by_cell[:, below], by_cell[:, above]
        diff = hi - lo
        if gamma >= 0.5:
            np.subtract(hi, diff * (1 - gamma), out=band)
        else:
            np.add(lo, diff * gamma, out=band)
    last = by_cell[:, -1]
    has_nan = np.isnan(last)
    if has_nan.any():
        bands[:, has_nan] = last[has_nan]
    return bands.reshape((-1,) + cells)


def _percentile_bands(responses: np.ndarray) -> np.ndarray:
    """``_sorted_bands`` across draws (axis 0), from a draws-last copy of
    ``responses`` made a tile at a time."""
    d = responses.shape[0]
    flat = responses.reshape(d, -1)
    by_cell = np.empty((flat.shape[1], d))
    for start in range(0, d, _BAND_TILE):
        by_cell[:, start:start + _BAND_TILE] = flat[start:start + _BAND_TILE].T
    return _sorted_bands(by_cell, responses.shape[1:])


def irf_bands(
    draws: PosteriorDraws | list[PosteriorDraw], spec: VarSpec, horizon: int
) -> IrfSet:
    """Pointwise 16/50/84 percentile bands of the draw-wise responses.

    A list of ``PosteriorDraw`` is stacked once. The responses are computed
    a block of draws at a time, and copied draws-last for the bands, by
    ``_ma_responses``; they equal the per-draw ``compute_irf`` up to rounding.
    """
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    if len(draws) < 2:
        raise ValueError(f"need at least 2 draws for bands, got {len(draws)}")
    draws = PosteriorDraws.stack(draws)
    responses, by_cell = _ma_responses(draws.B, _batched_impact(draws.Sigma), spec, horizon)
    lower, median, upper = _sorted_bands(by_cell, responses.shape[1:])
    return IrfSet(
        responses=responses,
        horizons=np.arange(horizon + 1),
        variables=list(spec.order),
        shocks=list(spec.order),
        lower=lower,
        median=median,
        upper=upper,
    )


def rescale_irf(
    irfs: IrfSet,
    shock: int,
    target_variable: str,
    target_h: int,
    target_value: float,
) -> IrfSet:
    """Multiply every response to one shock (all draws, variables, horizons)
    by the single factor that puts the median response of the target variable
    at the target horizon exactly on the target value."""
    if target_variable not in irfs.variables:
        raise ValueError(f"unknown variable {target_variable!r}")
    var_idx = irfs.variables.index(target_variable)
    if not 0 <= shock < len(irfs.shocks):
        raise ValueError(f"shock index {shock} out of range")
    if not 0 <= target_h < irfs.horizons.shape[0]:
        raise ValueError(f"target horizon {target_h} outside 0..{irfs.horizons[-1]}")
    current = irfs.median[target_h, var_idx, shock]
    if current == 0.0:
        raise NumericalError(
            f"median response of {target_variable} to shock {irfs.shocks[shock]} "
            f"at h={target_h} is zero; rescaling undefined"
        )
    factor = float(target_value / current)
    responses = irfs.responses.copy()
    responses[:, :, :, shock] *= factor
    lower = irfs.lower.copy()
    median = irfs.median.copy()
    upper = irfs.upper.copy()
    lower[:, :, shock], median[:, :, shock], upper[:, :, shock] = _percentile_bands(
        responses[:, :, :, shock]
    )
    note = (
        f"{irfs.scale_note}; shock {irfs.shocks[shock]} rescaled by {factor!r} so the "
        f"median response of {target_variable} at h={target_h} equals {target_value}"
    )
    return IrfSet(
        responses=responses,
        horizons=irfs.horizons.copy(),
        variables=list(irfs.variables),
        shocks=list(irfs.shocks),
        lower=lower,
        median=median,
        upper=upper,
        scale_note=note,
    )


def decompose_residuals(reference: np.ndarray, target: np.ndarray) -> ShockDecomposition:
    """Project ``target`` on ``reference`` (no intercept) and split it into
    the fitted common component and the orthogonal idiosyncratic remainder.

    r2 is the share of the target's (uncentered) sum of squares explained by
    the common component.
    """
    reference = np.asarray(reference, dtype=float).ravel()
    target = np.asarray(target, dtype=float).ravel()
    if reference.shape[0] != target.shape[0]:
        raise ValueError(
            f"length mismatch: {reference.shape[0]} vs {target.shape[0]}"
        )
    if reference.shape[0] < 3:
        raise ValueError("need at least 3 observations")
    if np.var(reference) == 0.0:
        raise NumericalError("reference residual series has zero variance")
    gamma = float(reference @ target / (reference @ reference))
    common = gamma * reference
    idiosyncratic = target - common
    ss_target = float(target @ target)
    if ss_target > 0.0:
        r2 = 1.0 - float(idiosyncratic @ idiosyncratic) / ss_target
    else:
        r2 = 1.0
    return ShockDecomposition(
        gamma=gamma,
        common=common,
        idiosyncratic=idiosyncratic,
        r2=min(max(r2, 0.0), 1.0),
    )


def standardize_shock(series: np.ndarray) -> np.ndarray:
    """Scale a series to unit sample standard deviation (MLE denominator);
    the mean is left untouched."""
    series = np.asarray(series, dtype=float).ravel()
    # ptp, not std: the mean of a constant series can round, so its
    # standard deviation need not be exactly zero
    if np.ptp(series) == 0.0:
        raise NumericalError("cannot standardize a constant series")
    return series / float(np.std(series))


def irf_to_csv(irfs: IrfSet, path) -> None:
    """Long-format summary: shock, variable, horizon, lower, median, upper."""
    bands = np.stack([irfs.lower, irfs.median, irfs.upper], axis=-1).tolist()
    rows = (
        [shock, variable, int(h), *bands[h][i][j]]
        for j, shock in enumerate(irfs.shocks)
        for i, variable in enumerate(irfs.variables)
        for h in irfs.horizons
    )
    write_csv(path, ["shock", "variable", "horizon", "lower", "median", "upper"], rows)


def irf_to_json(irfs: IrfSet, path) -> None:
    payload = {
        "variables": irfs.variables,
        "shocks": irfs.shocks,
        "horizons": [int(h) for h in irfs.horizons],
        "scale_note": irfs.scale_note,
        "lower": irfs.lower.tolist(),
        "median": irfs.median.tolist(),
        "upper": irfs.upper.tolist(),
    }
    write_json(payload, path)


def decomposition_to_csv(
    dec: ShockDecomposition,
    dates: list[str],
    reference: np.ndarray,
    target: np.ndarray,
    path,
    reference_name: str = "reference",
    target_name: str = "target",
) -> None:
    if not (len(dates) == reference.shape[0] == target.shape[0] == dec.common.shape[0]):
        raise ValueError("dates and series lengths disagree")
    header = ["date", f"resid_{reference_name}", f"resid_{target_name}", "common", "idiosyncratic"]
    columns = (reference, target, dec.common, dec.idiosyncratic)
    write_csv(path, header, zip(dates, *(np.asarray(c, dtype=float).tolist() for c in columns)))
