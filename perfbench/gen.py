"""Seeded input generators for the benchmark workloads.

Everything here is a pure function of the seed it is given, so one seed
always yields byte-identical input files. The program under test only ever
sees the files and configs written here.
"""

from __future__ import annotations

import datetime as dt
import json
from pathlib import Path

import numpy as np

MAX_SPECTRAL_RADIUS = 0.95
LAGS = 4
PERIODS = 224
HORIZON = 20
RESCALE_HORIZON = 4
RESCALE_VALUE = 1.0
SIGMA_V = SIGMA_E = 0.02
FIRST_YEAR, LAST_YEAR = 1961, 2016
FIRMS = 400
GREEN_SHARE = 0.35
EVENTS_FILE = "events.csv"


def stable_var(rng: np.random.Generator, n: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Rejection-sample VAR(p) coefficients (intercept row first, lag blocks
    below, the estimation layout) until the companion spectral radius is
    below MAX_SPECTRAL_RADIUS; returns (B, L) with L a lower-triangular
    impact matrix whose first two shocks are strongly correlated, so the
    residual decomposition has a sizable common component."""
    while True:
        b = np.empty((1 + n * p, n))
        b[0] = rng.normal(0.0, 0.1, n)
        for lag in range(1, p + 1):
            a = rng.normal(0.0, 0.3 / (np.sqrt(n) * lag), (n, n))
            if lag == 1:
                a[np.diag_indices(n)] += rng.uniform(0.3, 0.7, n)
            b[1 + (lag - 1) * n: 1 + lag * n] = a.T
        comp = np.zeros((n * p, n * p))
        comp[:n] = b[1:].T
        comp[n:, : n * (p - 1)] = np.eye(n * (p - 1))
        if np.max(np.abs(np.linalg.eigvals(comp))) < MAX_SPECTRAL_RADIUS:
            break
    mix = rng.normal(0.0, 0.4, (n, n)) + np.eye(n)
    mix[1, 0] = mix[0, 0]
    cov = mix @ mix.T
    return b, np.linalg.cholesky(cov)


def write_chain_config(path: Path, seed: int, n: int, draws: int) -> list[str]:
    """Config for simulate -> estimate -> irf -> decompose -> lp on a random
    stable VAR, plus index on the EVENTS_FILE next to the config; artifacts
    go to ``out`` next to the config. Returns the variable names."""
    rng = np.random.default_rng(seed)
    b, impact = stable_var(rng, n, LAGS)
    names = [f"y{j + 1}" for j in range(n)]
    config = {
        "out": "out",
        "seed": int(rng.integers(0, 2**31)),
        "draws": draws,
        "horizon": HORIZON,
        "data": "out/panel.csv",
        "variables": names,
        "lags": LAGS,
        "prior": {"kind": "minnesota", "tightness": 0.2},
        "rescale": {"variable": names[0], "horizon": RESCALE_HORIZON, "value": RESCALE_VALUE},
        "decompose": {"reference": names[0], "target": names[1], "basis": "posterior-mean"},
        "lp": {
            "shock_file": "out/shocks.csv",
            "shock_column": "idiosyncratic_std",
            "outcomes": names,
        },
        "dgp": {
            "coefficients": b.tolist(),
            "impact": impact.tolist(),
            "periods": PERIODS,
            "burn_in": 200,
            "start": "1960Q1",
            "names": names,
        },
        "index": {"events": EVENTS_FILE, "sigma_v": SIGMA_V, "sigma_e": SIGMA_E},
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    # JSON is a subset of YAML, and json keeps every float digit.
    path.write_text(json.dumps(config, indent=1) + "\n", encoding="utf-8")
    return names


def write_patent_events(path: Path, seed: int, count: int) -> None:
    """Grant events with uniform random dates and firms, sorted by (day,
    firm), so the grants of one firm on one day are adjacent rows. The
    window return and market cap are drawn once per (firm, day): same-day
    grants of one firm share one announcement reaction, which the valuation
    filter requires."""
    rng = np.random.default_rng(seed)
    first = dt.date(FIRST_YEAR, 1, 1)
    days = (dt.date(LAST_YEAR, 12, 31) - first).days + 1
    day = rng.integers(0, days, count)
    firm = rng.integers(0, FIRMS, count)
    green = rng.uniform(size=count) < GREEN_SHARE
    groups, member_of = np.unique(day * FIRMS + firm, return_inverse=True)
    group_return = 0.004 * rng.standard_normal(groups.size) + 0.001
    group_cap = np.exp(rng.normal(22.0, 1.0, groups.size))
    order = np.lexsort((firm, day))
    dates = np.datetime_as_string(np.datetime64(first, "D") + day[order]).tolist()
    rows = zip(
        dates,
        firm[order].tolist(),
        green[order].astype(int).tolist(),
        group_return[member_of[order]].tolist(),
        group_cap[member_of[order]].tolist(),
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("grant_date,firm_id,green,window_return,market_cap\n")
        fh.writelines(f"{d},firm{f},{g},{r!r},{c!r}\n" for d, f, g, r, c in rows)

