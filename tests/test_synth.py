import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from newsvar.bvar import PosteriorDraw, build_regressors, ols_estimate
from newsvar.errors import DataError
from newsvar.panel import format_quarter, parse_quarter
from newsvar.structural import compute_irf
from newsvar.synth import (
    Dgp,
    _block_operators,
    _block_periods,
    _operators,
    simulate_var,
    true_irf,
)


def pure_noise_dgp(n=2, seed=0):
    return Dgp(B=np.zeros((1 + n, n)), L=np.eye(n), seed=seed)


class TestSimulateVar:
    def test_pure_noise_has_identity_covariance(self):
        t = 10_000
        panel, eta = simulate_var(pure_noise_dgp(seed=1), t)
        cov = panel.values.T @ panel.values / t
        assert np.abs(cov - np.eye(2)).max() < 3.0 / np.sqrt(t)
        assert_array_equal(panel.values, eta)  # B=0, L=I passes shocks through

    def test_ar1_autocorrelation(self):
        t = 20_000
        dgp = Dgp(B=np.array([[0.0], [0.9]]), L=np.eye(1), seed=2)
        panel, _ = simulate_var(dgp, t)
        y = panel.values[:, 0]
        y = y - y.mean()
        rho = (y[1:] @ y[:-1]) / (y @ y)
        assert abs(rho - 0.9) < 3.0 / np.sqrt(t)

    def test_same_seed_reproduces_panel(self):
        dgp = Dgp(B=np.array([[0.1, 0.0], [0.3, 0.1], [0.0, 0.5]]),
                  L=np.array([[1.0, 0.0], [0.2, 0.7]]), seed=11)
        a, eta_a = simulate_var(dgp, 250)
        b, eta_b = simulate_var(dgp, 250)
        assert_array_equal(a.values, b.values)
        assert_array_equal(eta_a, eta_b)
        assert a.dates == b.dates

    def test_shock_matrix_shape_and_scale(self):
        t = 50_000
        panel, eta = simulate_var(pure_noise_dgp(n=3, seed=4), t)
        assert eta.shape == (t, 3)
        assert np.abs(eta.std(axis=0) - 1.0).max() < 3.0 / np.sqrt(t)

    def test_burn_in_removes_initial_transient(self):
        # starting from zeros, a persistent process with a large intercept
        # sits far below its mean early on; the burn-in must hide that
        dgp = Dgp(B=np.array([[5.0], [0.9]]), L=np.eye(1), burn_in=400, seed=5)
        panel, _ = simulate_var(dgp, 2000)
        mean = 5.0 / (1.0 - 0.9)
        first_decile = panel.values[:200, 0].mean()
        assert abs(first_decile - mean) < 2.0

    def test_zero_periods_rejected(self):
        with pytest.raises(ValueError, match="periods"):
            simulate_var(pure_noise_dgp(), 0)


def loop_simulate(dgp, periods):
    """The per-period recursion the blocked simulator replaces: one step and
    one small product per lag for every period, from a zero pre-sample."""
    n, p = dgp.n_vars, dgp.lags
    intercept = dgp.B[0]
    coefs = dgp.B[1:]
    rng = np.random.default_rng(dgp.seed)
    total = dgp.burn_in + periods
    eta = rng.standard_normal((total, n))
    shocks = eta @ dgp.L.T
    y = np.zeros((total + p, n))
    for t in range(total):
        row = intercept.copy()
        for lag in range(1, p + 1):
            row += coefs[(lag - 1) * n: lag * n].T @ y[p + t - lag]
        y[p + t] = row + shocks[t]
    start = parse_quarter(dgp.start)
    dates = [format_quarter(start + i) for i in range(periods)]
    return y[p + dgp.burn_in:], eta[dgp.burn_in:], dates


def stable_dgp(n, p, seed, burn_in):
    """Random VAR(p) with an intercept and a correlated impact matrix,
    redrawn until the companion spectral radius is below 0.95."""
    rng = np.random.default_rng(seed)
    while True:
        lags = rng.normal(scale=0.6 / np.sqrt(n * p), size=(n * p, n))
        lower = np.tril(rng.normal(scale=0.3, size=(n, n)), k=-1) + np.diag(
            rng.uniform(0.5, 1.5, size=n)
        )
        dgp = Dgp(
            B=np.vstack([rng.normal(size=(1, n)), lags]),
            L=lower,
            burn_in=burn_in,
            seed=seed,
            start="1987Q3",
        )
        if dgp.spectral_radius < 0.95:
            return dgp


def block_totals(n, p):
    """(burn_in, periods) pairs whose totals fall short of one block, are
    not a multiple of the block, and are an exact multiple of it."""
    block = _block_periods(n, p)
    return [
        (0, 1),
        (0, block - 1),
        (3, block - 4),
        (0, 3 * block + 5),
        (block + 1, 2 * block),
        (0, 4 * block),
        (2 * block, block),
    ]


class TestBlockedSimulatorOracle:
    @pytest.mark.parametrize("n", [1, 2, 8])
    @pytest.mark.parametrize("p", [1, 4])
    def test_matches_per_period_loop(self, n, p):
        for case, (burn_in, periods) in enumerate(block_totals(n, p)):
            dgp = stable_dgp(n, p, seed=100 * n + 10 * p + case, burn_in=burn_in)
            want, eta_want, dates_want = loop_simulate(dgp, periods)
            panel, eta = simulate_var(dgp, periods)
            scale = np.abs(want).max()
            assert np.abs(panel.values - want).max() <= 1e-12 * scale
            assert_array_equal(eta, eta_want)
            assert panel.dates == dates_want

    @pytest.mark.parametrize("rho", [0.999, -0.95])
    def test_persistent_ar1_matches_loop(self, rho):
        dgp = Dgp(B=np.array([[0.3], [rho]]), L=np.array([[0.7]]), burn_in=37, seed=9)
        want, eta_want, _ = loop_simulate(dgp, 5000)
        panel, eta = simulate_var(dgp, 5000)
        assert np.abs(panel.values - want).max() <= 1e-12 * np.abs(want).max()
        assert_array_equal(eta, eta_want)

    def test_lag_order_above_block_length(self):
        # many variables shorten the block; it never drops below p, the
        # number of periods the carried state needs
        n, p = 130, 5
        assert _block_periods(n, p) == p
        b = np.zeros((1 + n * p, n))
        b[1 + (p - 1) * n:, :] = 0.5 * np.eye(n)
        dgp = Dgp(B=b, L=np.eye(n), burn_in=3, seed=4)
        want, eta_want, _ = loop_simulate(dgp, 4 * p + 2)
        panel, eta = simulate_var(dgp, 4 * p + 2)
        assert np.abs(panel.values - want).max() <= 1e-12 * np.abs(want).max()
        assert_array_equal(eta, eta_want)

    @pytest.mark.parametrize(
        "dgp,extra",
        [
            # 0.999^4096 ~ 0.017: the carry from one segment into the next
            # stays far above the tolerance
            pytest.param(
                Dgp(B=np.array([[0.3], [0.999]]), L=np.array([[0.7]]), burn_in=0, seed=12),
                5,
                id="n1-p1",
            ),
            pytest.param(stable_dgp(8, 4, seed=12, burn_in=0), 7, id="n8-p4"),
        ],
    )
    def test_spans_three_segments_of_blocks(self, dgp, extra):
        # block-end states are formed one segment of blocks at a time, each
        # segment starting from the last state of the one before it
        n, p = dgp.n_vars, dgp.lags
        periods = 3 * _block_periods(n, p) * _block_periods(n * p, 1) + extra
        want, eta_want, _ = loop_simulate(dgp, periods)
        panel, eta = simulate_var(dgp, periods)
        assert np.abs(panel.values - want).max() <= 1e-12 * np.abs(want).max()
        assert_array_equal(eta, eta_want)

    def test_explosive_dgp_overflow_is_data_error(self):
        dgp = Dgp(B=np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 0.5]]), L=np.eye(2), burn_in=0)
        _operators.cache_clear()
        for _ in ("cold", "warm"):
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(DataError, match="non-finite value"):
                    simulate_var(dgp, 1000)
        assert _operators.cache_info().hits == 1


def simulated_bytes(dgp, periods):
    panel, eta = simulate_var(dgp, periods)
    return panel.values.tobytes(), eta.tobytes(), tuple(panel.dates)


class TestOperatorCache:
    @pytest.mark.parametrize("n", [1, 2, 8])
    @pytest.mark.parametrize("p", [1, 4])
    def test_warm_call_equals_cold_call(self, n, p):
        for case, (burn_in, periods) in enumerate(block_totals(n, p)):
            dgp = stable_dgp(n, p, seed=100 * n + 10 * p + case, burn_in=burn_in)
            _operators.cache_clear()
            cold = simulated_bytes(dgp, periods)
            warm = simulated_bytes(dgp, periods)
            assert _operators.cache_info().hits == 1
            assert warm == cold

    def test_alternating_dgps_equal_their_cold_runs(self):
        a = stable_dgp(3, 2, seed=1, burn_in=20)
        b = stable_dgp(3, 2, seed=2, burn_in=20)
        cold = {}
        for name, dgp in (("a", a), ("b", b)):
            _operators.cache_clear()
            cold[name] = simulated_bytes(dgp, 300)
        _operators.cache_clear()
        for name, dgp in (("a", a), ("b", b), ("a", a), ("b", b)):
            assert simulated_bytes(dgp, 300) == cold[name]
        assert _operators.cache_info().hits == 2
        for name, dgp in (("a", a), ("b", b)):
            want = loop_simulate(dgp, 300)[0]
            got = np.frombuffer(cold[name][0]).reshape(want.shape)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_intercept_is_not_part_of_the_key(self):
        dgp = stable_dgp(2, 3, seed=7, burn_in=11)
        _operators.cache_clear()
        for intercept in ([0.0, 0.0], [5.0, -2.0], [-0.3, 1e3]):
            shifted = Dgp(B=np.vstack([intercept, dgp.B[1:]]), L=dgp.L, burn_in=11, seed=3)
            want, eta_want, _ = loop_simulate(shifted, 200)
            panel, eta = simulate_var(shifted, 200)
            assert np.abs(panel.values - want).max() <= 1e-12 * np.abs(want).max()
            assert_array_equal(eta, eta_want)
        info = _operators.cache_info()
        assert (info.currsize, info.misses, info.hits) == (1, 1, 2)

    @pytest.mark.parametrize("n,p", [(1, 1), (2, 3), (8, 4)])
    def test_block_level_pair_is_built_from_the_carry_rows(self, n, p):
        dgp = stable_dgp(n, p, seed=5, burn_in=0)
        _, heads, seg_toeplitz, seg_heads = _operators(dgp.B[1:].tobytes(), n, p)
        want_toeplitz, want_heads = _block_operators(heads[-n * p:], n * p, 1)
        assert_array_equal(seg_toeplitz, want_toeplitz)
        assert_array_equal(seg_heads, want_heads)
        width = _block_periods(n * p, 1) * n * p
        assert seg_toeplitz.shape == (width, width)
        assert seg_heads.shape == (width, n * p)

    def test_cached_operators_refuse_writes(self):
        dgp = stable_dgp(2, 2, seed=4, burn_in=0)
        simulate_var(dgp, 10)
        for operator in _operators(dgp.B[1:].tobytes(), 2, 2):
            assert not operator.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                operator[0, 0] = 1.0


class TestDgpValidation:
    def test_upper_triangle_rejected(self):
        with pytest.raises(ValueError, match="lower triangular"):
            Dgp(B=np.zeros((3, 2)), L=np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_nonpositive_diagonal_rejected(self):
        with pytest.raises(ValueError, match="diagonal"):
            Dgp(B=np.zeros((3, 2)), L=np.array([[1.0, 0.0], [0.0, -1.0]]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="does not match"):
            Dgp(B=np.zeros((4, 2)), L=np.eye(2))

    def test_spectral_radius_reported(self):
        dgp = Dgp(B=np.array([[0.0], [0.5], [0.3]]), L=np.eye(1))
        # AR(2) with roots of z^2-0.5z-0.3: max |root| ~ 0.8405
        assert dgp.spectral_radius == pytest.approx(
            max(abs(np.roots([1.0, -0.5, -0.3]))), abs=1e-12
        )


class TestTrueIrf:
    def test_impact_is_exactly_l(self):
        lower = np.array([[2.0, 0.0], [1.0, 1.0]])
        dgp = Dgp(B=np.zeros((3, 2)), L=lower)
        out = true_irf(dgp, 4)
        assert_array_equal(out[0], lower)

    def test_no_propagation_without_dynamics(self):
        dgp = pure_noise_dgp(n=3)
        out = true_irf(dgp, 6)
        assert_array_equal(out[1:], np.zeros((6, 3, 3)))

    def test_scalar_geometric_path(self):
        dgp = Dgp(B=np.array([[0.0], [0.5]]), L=np.array([[2.0]]))
        out = true_irf(dgp, 10)
        assert_allclose(out[:, 0, 0], 2.0 * 0.5 ** np.arange(11), rtol=1e-13)

    def test_matches_estimator_side_formula_exactly(self):
        # dyadic impact matrix: Cholesky of L L' reproduces L bit for bit,
        # so the estimator-side path and the oracle agree exactly
        lower = np.array([[2.0, 0.0], [1.0, 1.0]])
        b = np.array([[0.25, 0.0], [0.5, 0.25], [0.125, 0.5], [0.0, 0.25], [0.25, 0.0]])
        dgp = Dgp(B=b, L=lower)
        draw = PosteriorDraw(B=b, Sigma=lower @ lower.T, stable=True)
        assert_array_equal(
            true_irf(dgp, 15), compute_irf(draw, dgp.var_spec, 15)
        )

    def test_matches_estimator_side_formula_general_case(self):
        rng = np.random.default_rng(21)
        lower = np.tril(rng.normal(size=(3, 3)) * 0.3) + np.eye(3)
        b = np.vstack([np.zeros((1, 3)), rng.normal(scale=0.2, size=(6, 3))])
        dgp = Dgp(B=b, L=lower)
        draw = PosteriorDraw(B=b, Sigma=lower @ lower.T, stable=True)
        assert_allclose(
            true_irf(dgp, 12), compute_irf(draw, dgp.var_spec, 12), atol=1e-13
        )


class TestEstimatorConsistency:
    def test_ols_recovers_dgp_coefficients(self):
        dgp = Dgp(
            B=np.array([[0.3, -0.2], [0.5, 0.1], [-0.1, 0.4], [0.1, 0.0], [0.0, 0.2]]),
            L=np.array([[1.0, 0.0], [0.5, 0.8]]),
            seed=8,
        )
        panel, _ = simulate_var(dgp, 10_000)
        y, x = build_regressors(panel, dgp.var_spec)
        fit = ols_estimate(y, x, dgp.var_spec)
        xtx_inv = np.linalg.inv(x.T @ x)
        se = np.sqrt(np.outer(np.diag(xtx_inv), np.diag(fit.Sigma)))
        assert np.all(np.abs(fit.B - dgp.B) < 4.0 * se)

    def test_residual_cholesky_converges_to_impact(self):
        dgp_l = np.array([[1.0, 0.0], [0.6, 0.7]])
        b = np.array([[0.0, 0.0], [0.4, 0.1], [-0.1, 0.3]])

        def chol_error(t, seed):
            dgp = Dgp(B=b, L=dgp_l, seed=seed)
            panel, _ = simulate_var(dgp, t)
            y, x = build_regressors(panel, dgp.var_spec)
            fit = ols_estimate(y, x, dgp.var_spec)
            return np.abs(np.linalg.cholesky(fit.Sigma) - dgp_l).max()

        seeds = range(5)
        small = np.mean([chol_error(1_000, s) for s in seeds])
        large = np.mean([chol_error(16_000, s) for s in seeds])
        assert small >= 2.0 * large
