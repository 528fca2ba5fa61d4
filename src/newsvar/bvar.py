"""Reduced-form VAR estimation and conjugate Normal-Inverse-Wishart sampling.

The VAR is y_t = c + A_1 y_{t-1} + ... + A_p y_{t-p} + e_t. Coefficients are
stored as a k x n matrix B, k = n*p + 1 with an intercept and n*p without:
the intercept row first, if any, then the lag blocks A_1', ..., A_p' of n
rows each, in variable order, so that Y = X B + residuals with X rows
[1, y_{t-1}, ..., y_{t-p}]. ``VarSpec.k`` is that row count and
``VarSpec.lag_rows`` the one view of the lag blocks every later step reads.

Posterior sampling is exact conjugate (no Gibbs chain): Sigma is drawn from
the inverse-Wishart posterior by the Bartlett decomposition and B from the
matric-normal conditional, into stacked arrays a chunk of draws at a
time. Draws with explosive companion dynamics are flagged but never
discarded; series enter in log levels, so unit roots are admissible.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, NumericalError
from .panel import TimeSeriesPanel

# Relative tolerance on singular values below which X is treated as singular.
_RANK_RTOL = 1e-10

# Draws per chunk of ``posterior_sample``, which flags each chunk as it is
# formed.
_EIGVALS_CHUNK = 1024

# Squarings tried before the eigenvalue fallback: powers C^2, C^4, ..., C^256.
_CERT_SQUARINGS = 8
# A power C^m certifies rho(C) < 1 when the bound on ||C^m||_F is below
# 1 - margin, and rho(C) > 1 when the lower bound on |tr C^m| exceeds
# np * (1 + margin); the margin keeps the final comparison clear of its
# own rounding.
_CERT_MARGIN = 0.5
_UNIT_ROUNDOFF = 2.0**-53
# Outward rounding of each computed bound: it dominates the few roundings,
# each a factor within 1 +- u, of the bound arithmetic itself (the gamma
# factors and the norm included).
_ROUND_UP = 1.0 + 2.0**-40
# Absolute slack for underflow: a product below the normal range is off by
# up to 2^-1075, and squares below 2^-511 lose their relative accuracy, so
# a Frobenius norm can be short by up to (n*p) * 2^-537.
_TINY = 2.0**-500


@dataclass
class VarSpec:
    """Lag order, intercept flag, and the variable ordering that drives
    Cholesky identification."""

    order: list[str]
    lags: int = 4
    intercept: bool = True

    def __post_init__(self):
        if self.lags < 1:
            raise ValueError(f"lags must be >= 1, got {self.lags}")
        if len(set(self.order)) != len(self.order):
            raise ValueError("variable order contains duplicates")

    @property
    def k(self) -> int:
        """Rows of B: the intercept row, if any, and p lag blocks of n rows."""
        return len(self.order) * self.lags + int(self.intercept)

    def lag_rows(self, b: np.ndarray) -> np.ndarray:
        """The lag blocks A_1', ..., A_p' of coefficients ``b`` (..., k, n)
        as a view (..., n*p, n), over any leading draw axes."""
        n = len(self.order)
        if b.shape[-2:] != (self.k, n):
            raise ValueError(
                f"B has shape {b.shape}; expected (..., {self.k}, {n}) for n={n}, "
                f"p={self.lags}, intercept={self.intercept}"
            )
        return b[..., int(self.intercept):, :]


@dataclass
class OlsFit:
    """OLS estimate of the reduced-form VAR, kept together with the data
    matrices so posterior updates need no re-assembly. ``spec`` is the VAR
    layout of Y and X; the posterior functions need it."""

    B: np.ndarray
    Sigma: np.ndarray
    residuals: np.ndarray
    X: np.ndarray
    Y: np.ndarray
    spec: VarSpec | None = None


@dataclass
class PriorSpec:
    """Conjugate NIW prior settings.

    ``flat`` is the improper no-shrinkage prior (posterior mean = OLS), used
    by the simulation oracles. ``minnesota`` centers each variable's first
    own lag at one (random-walk centering, appropriate for log levels) with
    overall tightness ``tightness`` and harmonic lag decay, embedded in the
    NIW row precision. ``nu0``/``s0`` default to n+2 and a diagonal scale
    built from univariate AR residual variances; both are ignored under the
    flat prior.
    """

    kind: str = "minnesota"
    tightness: float = 0.2
    nu0: float | None = None
    s0: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("flat", "minnesota"):
            raise ValueError(f"prior kind must be 'flat' or 'minnesota', got {self.kind!r}")
        if self.tightness <= 0:
            raise ValueError("tightness must be > 0")
        if self.s0 is not None:
            self.s0 = np.asarray(self.s0, dtype=float)
            if not np.allclose(self.s0, self.s0.T, atol=1e-10):
                raise ValueError("prior scale s0 must be symmetric")


@dataclass
class PosteriorDraw:
    """One (coefficient matrix, innovation covariance) draw from the
    NIW posterior, flagged unstable when the companion spectral radius
    is >= 1."""

    B: np.ndarray
    Sigma: np.ndarray
    stable: bool


@dataclass
class PosteriorDraws:
    """D posterior draws as stacked arrays: ``B`` (D, k, n), ``Sigma``
    (D, n, n) and ``stable`` (D,). ``len`` is D; indexing and iteration
    yield single ``PosteriorDraw`` views."""

    B: np.ndarray
    Sigma: np.ndarray
    stable: np.ndarray

    def __post_init__(self):
        if (
            self.B.ndim != 3
            or self.Sigma.shape != (len(self.B),) + self.B.shape[2:] * 2
            or self.stable.shape != (len(self.B),)
        ):
            raise ValueError(
                f"inconsistent draw arrays: B {self.B.shape}, Sigma "
                f"{self.Sigma.shape}, stable {self.stable.shape}"
            )

    @classmethod
    def stack(cls, draws) -> "PosteriorDraws":
        """Stack a sequence of ``PosteriorDraw`` once; a ``PosteriorDraws``
        is returned as is."""
        if isinstance(draws, cls):
            return draws
        draws = list(draws)
        return cls(
            B=np.stack([d.B for d in draws]),
            Sigma=np.stack([d.Sigma for d in draws]),
            stable=np.array([d.stable for d in draws], dtype=bool),
        )

    def __len__(self) -> int:
        return self.B.shape[0]

    def __getitem__(self, i: int) -> PosteriorDraw:
        i = operator.index(i)
        return PosteriorDraw(B=self.B[i], Sigma=self.Sigma[i], stable=bool(self.stable[i]))

    def __iter__(self):
        return (self[i] for i in range(len(self)))


def build_regressors(panel: TimeSeriesPanel, spec: VarSpec) -> tuple[np.ndarray, np.ndarray]:
    """Stack (Y, X) for the VAR: Y holds rows p+1..T of the ordered
    variables, X rows are [1, y_{t-1}, ..., y_{t-p}] flattened in
    variable order."""
    for name in spec.order:
        if name not in panel.names:
            raise DataError(f"variable {name!r} not in panel")
    p = spec.lags
    t, n = panel.n_periods, len(spec.order)
    if t <= n * p + 1:
        raise DataError(
            f"insufficient observations: T={t} needs T > n*p+1 = {n * p + 1}"
        )
    idx = [panel.names.index(name) for name in spec.order]
    data = panel.values[:, idx]
    y = data[p:]
    blocks = [data[p - lag: t - lag] for lag in range(1, p + 1)]
    x = np.concatenate(blocks, axis=1)
    if spec.intercept:
        x = np.concatenate([np.ones((t - p, 1)), x], axis=1)
    return y, x


def _check_full_rank(x: np.ndarray, what: str = "X") -> None:
    """NumericalError unless x has full column rank (tolerance _RANK_RTOL)."""
    if x.shape[0] < x.shape[1]:
        raise NumericalError(
            f"rank-deficient {what}: {x.shape[0]} rows < {x.shape[1]} columns"
        )
    _check_singular_values(np.linalg.svd(x, compute_uv=False), what)


def _check_singular_values(sv: np.ndarray, what: str) -> None:
    """NumericalError unless the descending singular values ``sv`` of a
    matrix with at least as many rows as columns show full column rank
    (tolerance _RANK_RTOL). A non-finite value fails, as NaN would pass
    the ratio test: it compares False."""
    big, small = float(sv[0]), float(sv[-1])
    finite = math.isfinite(big) and math.isfinite(small)
    if not finite or big == 0.0 or small <= _RANK_RTOL * big:
        cond = math.inf if small == 0.0 else big / small
        raise NumericalError(
            f"rank-deficient {what}: condition number {cond:.3e}, "
            f"smallest singular value {small:.3e}"
        )


def ols_estimate(y: np.ndarray, x: np.ndarray, spec: VarSpec | None = None) -> OlsFit:
    """Equation-by-equation OLS; Sigma uses the MLE denominator (rows of Y).
    With ``spec``, Y must hold len(spec.order) columns and X the n*p +
    intercept columns of ``build_regressors``, and the fit carries it."""
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    if y.ndim == 1:
        y = y[:, None]
    if x.ndim == 1:
        x = x[:, None]
    if y.shape[0] != x.shape[0]:
        raise ValueError(f"Y has {y.shape[0]} rows but X has {x.shape[0]}")
    if spec is not None:
        n = len(spec.order)
        if (y.shape[1], x.shape[1]) != (n, spec.k):
            raise ValueError(
                f"Y has {y.shape[1]} columns and X {x.shape[1]}, but {spec} "
                f"needs {n} and {spec.k}"
            )
        # X holds the T-p usable periods, so too few rows is a short sample
        if x.shape[0] < spec.k:
            raise DataError(
                f"insufficient observations: T-p = {x.shape[0]} regression rows "
                f"for {spec.k} columns"
            )
    _check_full_rank(x)
    b, *_ = np.linalg.lstsq(x, y, rcond=None)
    residuals = y - x @ b
    sigma = residuals.T @ residuals / y.shape[0]
    return OlsFit(B=b, Sigma=sigma, residuals=residuals, X=x, Y=y, spec=spec)


def _companion_from_blocks(coefs: np.ndarray, n: int, p: int) -> np.ndarray:
    """Companion matrices of lag blocks ``coefs`` (..., n*p, n), stacked
    over any leading axes."""
    comp = np.zeros(coefs.shape[:-2] + (n * p, n * p))
    comp[..., :n, :] = np.swapaxes(coefs, -1, -2)
    comp[..., n:, :-n] = np.eye(n * (p - 1))
    return comp


def companion(b: np.ndarray, spec: VarSpec) -> np.ndarray:
    """Companion matrix of the VAR(p): lag coefficient transposes on the top
    block row, identity blocks on the sub-diagonal."""
    b = np.asarray(b, dtype=float)
    if b.ndim == 1:
        b = b[:, None]
    return _companion_from_blocks(spec.lag_rows(b), len(spec.order), spec.lags)


def spectral_radius(matrix: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(matrix))))


def _ar_residual_scales(fit: OlsFit) -> np.ndarray:
    """Residual standard deviation of a univariate AR(p) per variable, on
    X's intercept column, if any, and the variable's own lags: the usual
    scaling for cross-variable shrinkage."""
    n, k = len(fit.spec.order), fit.spec.k
    first_lag = k - n * fit.spec.lags  # X's columns follow B's rows
    scales = np.empty(n)
    for j in range(n):
        xj = fit.X[:, [*range(first_lag), *range(first_lag + j, k, n)]]
        bj, *_ = np.linalg.lstsq(xj, fit.Y[:, j], rcond=None)
        resid = fit.Y[:, j] - xj @ bj
        scales[j] = np.sqrt(resid @ resid / resid.shape[0])
    if np.any(scales <= 0):
        raise NumericalError("zero AR residual scale; cannot build shrinkage prior")
    return scales


def _prior_moments(fit: OlsFit, prior: PriorSpec):
    """Prior mean, row precision, IW scale and degrees of freedom."""
    spec = fit.spec
    n, p, k = len(spec.order), spec.lags, spec.k
    b0 = np.zeros((k, n))
    if prior.kind == "flat":
        return b0, np.zeros((k, k)), np.zeros((n, n)), 0.0
    scales = _ar_residual_scales(fit)
    spec.lag_rows(b0)[:n] = np.eye(n)
    # Prior variance of each row of B, repeated across its n columns; the
    # intercept row, if any, keeps the loose 1e6.
    omega = np.full((k, n), 1e6)
    for lag, block in enumerate(spec.lag_rows(omega).reshape(p, n, n), start=1):
        for j in range(n):
            block[j] = (prior.tightness / lag) ** 2 / scales[j] ** 2
    if np.any(omega < np.finfo(float).tiny):
        raise ConfigError(
            f"prior.tightness {prior.tightness!r} is too small: a prior variance underflows"
        )
    precision = np.diag(1.0 / omega[:, 0])
    nu0 = float(prior.nu0) if prior.nu0 is not None else n + 2.0
    if nu0 < n + 2:
        raise ValueError(f"nu0 must be >= n+2 = {n + 2}")
    if prior.s0 is not None:
        s0 = prior.s0
        if s0.shape != (n, n):
            raise ValueError(f"s0 must be {n}x{n}")
    else:
        s0 = np.diag(scales**2) * (nu0 - n - 1.0)
    return b0, precision, s0, nu0


def posterior_moments(fit: OlsFit, prior: PriorSpec):
    """Conjugate NIW update: returns (B_bar, Omega_bar, S_bar, nu_bar) where
    B | Sigma ~ MN(B_bar, Omega_bar, Sigma) and Sigma ~ IW(S_bar, nu_bar)."""
    if fit.spec is None:
        raise ValueError("the fit has no VarSpec; estimate it with ols_estimate(y, x, spec)")
    b0, precision0, s0, nu0 = _prior_moments(fit, prior)
    x, y = fit.X, fit.Y
    precision_post = precision0 + x.T @ x
    try:
        chol_prec = np.linalg.cholesky(precision_post)
    except np.linalg.LinAlgError:
        raise NumericalError("posterior row precision is not positive definite") from None
    identity = np.eye(precision_post.shape[0])
    inv_chol = np.linalg.solve(chol_prec, identity)
    omega_post = inv_chol.T @ inv_chol
    omega_post = 0.5 * (omega_post + omega_post.T)
    b_post = omega_post @ (precision0 @ b0 + x.T @ y)
    # Sum-of-PSD-terms form of the scale update; algebraically equal to
    # S0 + Y'Y + B0'P0 B0 - B_bar'P_bar B_bar but immune to cancellation.
    resid_post = y - x @ b_post
    shift = b_post - b0
    s_post = s0 + resid_post.T @ resid_post + shift.T @ precision0 @ shift
    s_post = 0.5 * (s_post + s_post.T)
    nu_post = nu0 + y.shape[0]
    return b_post, omega_post, s_post, nu_post


def posterior_mean(fit: OlsFit, prior: PriorSpec) -> np.ndarray:
    """Posterior mean of the coefficient matrix (equals OLS under the flat
    prior)."""
    return posterior_moments(fit, prior)[0]


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u), the relative error bound of a
    k-term floating-point sum of products."""
    return k * _UNIT_ROUNDOFF / (1.0 - k * _UNIT_ROUNDOFF)


def _radius_below_one(comp: np.ndarray) -> np.ndarray:
    """Spectral radius < 1 of each stacked companion, by batched
    eigenvalues: the exact arbiter behind every undecided flag."""
    return np.abs(np.linalg.eigvals(comp)).max(axis=-1) < 1.0


def _certified_flags(comp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stability flags of the stacked companions ``comp`` (B, N, N) decided
    from rigorous bounds on their powers, and the mask of those left
    undecided.

    P_j = fl(P_{j-1}^2) approximates C^m, m = 2^j, with ||P_j - C^m||_F <=
    err_j: a product of N-term dot products is off by at most
    gamma_N |P||P| entrywise, whose Frobenius norm is <= gamma_N ||P||_F^2
    (Higham, Accuracy and Stability, 3.5), and the error already in P grows
    to 2 ||P|| err + 3 err^2. ``norm`` is an upper bound on ||P_j||_F that
    covers the rounding of the norm itself. Then rho(C)^m <= ||C^m||_F
    (Gelfand) and |tr C^m| <= N rho(C)^m, with |tr P_j - tr C^m| <=
    sqrt(N) (err_j + gamma_N norm). A power or bound that overflowed is
    inf or NaN, which fails both comparisons, so that draw is never
    certified.
    """
    size = comp.shape[-1]
    gamma = _gamma(size)
    norm_slack = 1.0 + 2.0 * _gamma(size * size + 1)
    root = np.sqrt(size)

    def frobenius_bound(a):
        frobenius = np.sqrt(np.einsum("...ij,...ij->...", a, a))
        return _ROUND_UP * norm_slack * frobenius + _TINY

    flags = np.zeros(comp.shape[0], dtype=bool)
    undecided = np.ones(comp.shape[0], dtype=bool)
    live = np.arange(comp.shape[0])
    power = comp
    norm = frobenius_bound(power)
    err = np.zeros(comp.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_CERT_SQUARINGS):
            power = power @ power
            err = _ROUND_UP * ((2.0 * norm + 3.0 * err) * err + gamma * norm * norm) + _TINY
            norm = frobenius_bound(power)
            trace = np.trace(power, axis1=-2, axis2=-1)
            stable = norm + err < 1.0 - _CERT_MARGIN
            explosive = (
                np.abs(trace) - _ROUND_UP * root * (err + gamma * norm)
                > size * (1.0 + _CERT_MARGIN)
            )
            decided = stable | explosive
            flags[live[stable]] = True
            undecided[live[decided]] = False
            if decided.all():
                break
            if decided.any():
                keep = ~decided
                live, power, norm, err = live[keep], power[keep], norm[keep], err[keep]
    return flags, undecided


def _stable_flags(coefs: np.ndarray, n: int, p: int) -> np.ndarray:
    """Companion spectral radius < 1 for each of the stacked lag blocks
    ``coefs`` (D, n*p, n), all companions at once. A flag the bounds on
    repeated squares certify is proven, not estimated; batched eigenvalues
    decide the rest, exactly as when they decided every draw."""
    comp = _companion_from_blocks(coefs, n, p)
    flags, undecided = _certified_flags(comp)
    if undecided.any():
        flags[undecided] = _radius_below_one(comp[undecided])
    return flags


def posterior_sample(
    fit: OlsFit, prior: PriorSpec, n_draws: int, seed: int
) -> PosteriorDraws:
    """Exact conjugate sampling from the NIW posterior.

    Three generators spawned from ``seed`` each fill one quantity for all
    draws, in draw order: the off-diagonal normals and the chi-square
    diagonal of the Bartlett factor A, then the coefficient normals z. With
    C = chol(S_bar), Sigma = (C A^-1)(C A^-1)' and
    B = B_bar + chol(Omega_bar) z (C A^-1)', each a batched product with
    one small product per draw, so the output is reproducible bit-for-bit
    per seed, prefix-stable in n_draws and independent of chunking and of
    BLAS threads; but draw i cannot be generated alone. The draws are
    formed and flagged ``_EIGVALS_CHUNK`` at a time, so no quantity of all
    draws is held but the returned arrays.
    """
    if n_draws < 1:
        raise ValueError(f"n_draws must be >= 1, got {n_draws}")
    b_post, omega_post, s_post, nu_post = posterior_moments(fit, prior)
    spec, n = fit.spec, len(fit.spec.order)
    if nu_post < n + 1:
        raise NumericalError(
            f"posterior degrees of freedom {nu_post} too small for n={n}"
        )
    min_eig = float(np.linalg.eigvalsh(s_post)[0])
    if min_eig <= 0:
        raise NumericalError(
            f"posterior scale matrix not positive definite (smallest eigenvalue {min_eig:.3e})"
        )
    chol_row = np.linalg.cholesky(omega_post)
    chol_scale = np.linalg.cholesky(s_post)
    rows, cols = np.tril_indices(n, k=-1)
    diag = np.arange(n)
    streams = np.random.SeedSequence(seed).spawn(3)
    offdiag_rng, chi2_rng, z_rng = map(np.random.default_rng, streams)
    b = np.empty((n_draws, spec.k, n))
    sigma = np.empty((n_draws, n, n))
    stable = np.empty(n_draws, dtype=bool)
    # One chunk of draws at a time: a generator's stream does not depend on
    # how its draws are split, and each draw keeps its own products.
    for start in range(0, n_draws, _EIGVALS_CHUNK):
        size = min(_EIGVALS_CHUNK, n_draws - start)
        chunk = slice(start, start + size)
        bartlett = np.zeros((size, n, n))
        bartlett[:, rows, cols] = offdiag_rng.standard_normal((size, rows.size))
        bartlett[:, diag, diag] = np.sqrt(chi2_rng.chisquare((nu_post - n + 1) + diag, (size, n)))
        # A' is upper triangular, so the solve is a pure back substitution and
        # (C A^-1)' = A'^-1 C' keeps its exact triangular zeros.
        chol_sigma_t = np.linalg.solve(bartlett.transpose(0, 2, 1), chol_scale.T)
        sigma[chunk] = chol_sigma_t.transpose(0, 2, 1) @ chol_sigma_t
        z = z_rng.standard_normal((size, spec.k, n))
        b[chunk] = b_post + np.matmul(chol_row, z) @ chol_sigma_t
        # One chunk's companions bound the stability pass's stacked arrays,
        # and each power squared from them, at 1024 x (n*p)^2 doubles (8 MB
        # for n*p = 32).
        stable[chunk] = _stable_flags(spec.lag_rows(b[chunk]), n, spec.lags)
    return PosteriorDraws(B=b, Sigma=sigma, stable=stable)
