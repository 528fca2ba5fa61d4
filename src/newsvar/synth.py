"""Ground-truth simulation oracle: VAR data with known structural shocks.

Simulated panels and their true impulse responses back every estimator
check in the test suite. Shocks are Gaussian, matching the sampling model,
and a burn-in long enough for spectral radii up to roughly 0.97 removes
initialization transients.

The recursion runs in blocks of periods rather than one period at a time.
With a zero pre-sample, period j of a block starting at t0 is
y_{t0+j} = sum_{i<=j} Psi_{j-i} u_{t0+i} + H_j x_{t0-1}, where
u_t = c + L eta_t, Psi_k is the top-left n x n block of C^k, H_j the top n
rows of C^{j+1}, C the companion matrix and x the stacked last p values.
The first sum is a product of all blocks against one block-Toeplitz matrix.
The second carries the state across blocks. The carried state follows
x_k = e_k + G x_{k-1}, where x_k is the last n*p values of block k, e_k
those values of block k's Toeplitz product and G the carry rows of those
values: a VAR(1) in n*p variables. So the same two operators, built from
G, give every block-end state in segments of blocks, and one product then
adds every block's carry. The carry's Python work grows with the number
of segments, not of blocks or periods.

Both levels' operators depend only on the lag coefficients, so they are
memoised per set of lag coefficients: Monte Carlo replications that change
only the seed (or the intercept) skip building them and pay only for their
shocks and the products.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .bvar import VarSpec, _companion_from_blocks, companion, spectral_radius
from .panel import TimeSeriesPanel, parse_quarter, quarter_labels
from .structural import irf_from_factors

# Periods per block of the recursion, raised to the lag order when that is
# larger (the carried state is the last p periods of a block); also blocks
# per segment of the block-end-state recursion, a VAR(1).
_BLOCK_PERIODS = 64

# Bound on the rows of either block-Toeplitz matrix (block periods x
# variables): at 512 it holds 512^2 doubles (2 MB), so many variables shorten
# the block.
_TOEPLITZ_ROWS = 512

# Multiply-adds per product against a Toeplitz matrix or the carry rows.
# OpenBLAS ran larger products of these shapes on a second thread, which
# doubled CPU time and did not lower wall time, so each product is issued in
# chunks of rows.
_PRODUCT_MACS = 1 << 16


@dataclass
class Dgp:
    """True VAR parameters: coefficient matrix B in the estimation layout
    (intercept row first, lag blocks below) and lower-triangular impact
    matrix L."""

    B: np.ndarray
    L: np.ndarray
    burn_in: int = 200
    seed: int = 0
    names: list[str] = field(default_factory=list)
    start: str = "1900Q1"

    def __post_init__(self):
        self.B = np.asarray(self.B, dtype=float)
        self.L = np.asarray(self.L, dtype=float)
        if self.B.ndim == 1:
            self.B = self.B[:, None]
        n = self.L.shape[0]
        if self.L.shape != (n, n):
            raise ValueError("impact matrix must be square")
        if np.any(np.triu(self.L, k=1) != 0.0):
            raise ValueError("impact matrix must be lower triangular")
        if np.any(np.diag(self.L) <= 0.0):
            raise ValueError("impact matrix diagonal must be positive")
        if self.B.shape[1] != n or (self.B.shape[0] - 1) % n != 0:
            raise ValueError(
                f"coefficient matrix shape {self.B.shape} does not match "
                f"{n} variables with an intercept row"
            )
        if self.burn_in < 0:
            raise ValueError("burn_in must be >= 0")
        if not self.names:
            self.names = [f"y{j + 1}" for j in range(n)]
        if len(self.names) != n:
            raise ValueError(f"{len(self.names)} names for {n} variables")

    @property
    def n_vars(self) -> int:
        return self.L.shape[0]

    @property
    def lags(self) -> int:
        return (self.B.shape[0] - 1) // self.n_vars

    @property
    def var_spec(self) -> VarSpec:
        return VarSpec(order=list(self.names), lags=self.lags, intercept=True)

    @property
    def spectral_radius(self) -> float:
        return spectral_radius(companion(self.B, self.var_spec))


def _block_periods(n: int, p: int) -> int:
    """Periods per block of ``simulate_var`` for n variables and p lags."""
    return max(p, min(_BLOCK_PERIODS, _TOEPLITZ_ROWS // n))


def _block_operators(comp: np.ndarray, n: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Block-Toeplitz matrix and carry rows of a VAR(p) in n variables with
    companion matrix ``comp``, for blocks of ``_block_periods(n, p)`` periods."""
    block = _block_periods(n, p)
    width = block * n
    # tops[k] = top n rows of C^k: Psi_k = tops[k][:, :n], H_j = tops[j + 1]
    tops = np.empty((block + 1, n, n * p))
    tops[0] = np.eye(n, n * p)
    for k in range(block):
        tops[k + 1] = tops[k] @ comp
    lag = np.subtract.outer(np.arange(block), np.arange(block))
    psi = tops[np.maximum(lag, 0), :, :n]  # [j, i] -> Psi_{j-i}
    psi[lag < 0] = 0.0
    # toeplitz[(i, s), (j, r)] = Psi_{j-i}[r, s], so a row of inputs times
    # it gives the convolution part of every period of that block
    toeplitz = psi.transpose(1, 3, 0, 2).reshape(width, width)
    # heads[(j, r), (l, s)] = H_j[r, (p-1-l)*n + s]: H_j's lag blocks in time
    # order, so the carried state is the previous block's last n*p values
    heads = tops[1:].reshape(width, p, n)[:, ::-1].reshape(width, n * p)
    return toeplitz, heads


# Operator sets held for the most recent lag coefficients. One entry at n=8
# holds two operators of at most 2 MB each; a Monte Carlo study reuses a
# single entry.
@functools.lru_cache(maxsize=4)
def _operators(lags: bytes, n: int, p: int) -> tuple[np.ndarray, ...]:
    """Block-Toeplitz matrix and carry rows of the lag rows of B, given as
    their C-order float64 bytes, then the same pair for the block-end states
    (a VAR(1) in n*p variables whose companion is the carry rows of a
    block's last n*p values); memoised, so the arrays are read-only."""
    comp = _companion_from_blocks(np.frombuffer(lags).reshape(n * p, n), n, p)
    toeplitz, heads = _block_operators(comp, n, p)
    operators = (toeplitz, heads, *_block_operators(heads[-n * p:], n * p, 1))
    for operator in operators:
        operator.flags.writeable = False
    return operators


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b, issued in chunks of rows of at most ``_PRODUCT_MACS``
    multiply-adds each."""
    out = np.empty((len(a), b.shape[1]))
    rows = max(1, _PRODUCT_MACS // b.size)
    for first in range(0, len(a), rows):
        np.matmul(a[first:first + rows], b, out=out[first:first + rows])
    return out


def simulate_var(dgp: Dgp, periods: int) -> tuple[TimeSeriesPanel, np.ndarray]:
    """Simulate y_t = c + sum_l A_l y_{t-l} + L eta_t with iid standard
    normal eta, discarding the burn-in; returns the panel and the kept
    structural shocks. Deterministic in the DGP seed."""
    if periods < 1:
        raise ValueError(f"periods must be >= 1, got {periods}")
    n, p = dgp.n_vars, dgp.lags
    m = n * p
    rng = np.random.default_rng(dgp.seed)
    total = dgp.burn_in + periods
    eta = rng.standard_normal((total, n))
    block, segment = _block_periods(n, p), _block_periods(m, 1)
    toeplitz, heads, seg_toeplitz, seg_heads = _operators(
        dgp.var_spec.lag_rows(dgp.B).tobytes(), n, p
    )
    n_blocks = -(-total // block)
    u = np.zeros((n_blocks, block * n))
    u.reshape(-1, n)[:total] = eta @ dgp.L.T + dgp.B[0]
    y = _product(u, toeplitz)
    # block-end states: each block's own last n*p values, carried through
    # the blocks before it one segment of blocks at a time
    n_segments = -(-n_blocks // segment)
    own = np.zeros((n_segments, segment * m))
    own.reshape(-1, m)[:n_blocks] = y[:, -m:]
    ends = _product(own, seg_toeplitz)
    for s in range(1, n_segments):
        ends[s] += seg_heads @ ends[s - 1, -m:]
    y[1:] += _product(ends.reshape(-1, m)[:n_blocks - 1], heads.T)
    values = y.reshape(-1, n)[dgp.burn_in:total]
    dates = quarter_labels(parse_quarter(dgp.start), periods)
    panel = TimeSeriesPanel(dates=dates, names=list(dgp.names), values=values)
    return panel, eta[dgp.burn_in:]


def true_irf(dgp: Dgp, horizon: int) -> np.ndarray:
    """Closed-form companion-power responses of the DGP, the same formula the
    estimator-side IRFs use, applied to the true parameters."""
    return irf_from_factors(dgp.B, dgp.L, dgp.var_spec, horizon)
