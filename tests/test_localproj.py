import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from newsvar import localproj
from newsvar.bvar import _check_full_rank
from newsvar.errors import DataError, NumericalError
from newsvar.localproj import (
    LocalProjectionResult,
    _block_singular_values,
    lp_irf,
    lp_irf_state,
    newey_west,
)
from newsvar.structural import standardize_shock
from newsvar.synth import Dgp, simulate_var, true_irf


def brute_force_hac(x, u, lag):
    """Double-summation sandwich, explicit loops only."""
    t, k = x.shape
    scores = [x[i] * u[i] for i in range(t)]
    meat = np.zeros((k, k))
    for i in range(t):
        meat += np.outer(scores[i], scores[i])
    for ell in range(1, lag + 1):
        weight = 1.0 - ell / (lag + 1.0)
        for i in range(ell, t):
            gamma = np.outer(scores[i], scores[i - ell])
            meat += weight * (gamma + gamma.T)
    gram = np.zeros((k, k))
    for i in range(t):
        gram += np.outer(x[i], x[i])
    bread = np.linalg.inv(gram)
    return bread @ meat @ bread


class TestNeweyWest:
    def test_lag_zero_equals_white(self):
        rng = np.random.default_rng(0)
        x = np.column_stack([np.ones(200), rng.normal(size=(200, 2))])
        u = rng.normal(size=200)
        scores = x * u[:, None]
        bread = np.linalg.inv(x.T @ x)
        white = bread @ (scores.T @ scores) @ bread
        assert_array_equal(newey_west(x, u, 0), white)

    @pytest.mark.parametrize("layout", ["fortran", "strided"])
    def test_lag_zero_equals_white_in_any_memory_layout(self, layout):
        rng = np.random.default_rng(0)
        base = np.column_stack([np.ones(400), rng.normal(size=(400, 3))])
        x = np.asfortranarray(base[:200, :3]) if layout == "fortran" else base[::2, ::2]
        u = rng.normal(size=200)
        scores = x * u[:, None]
        bread = np.linalg.inv(x.T @ x)
        white = bread @ (scores.T @ scores) @ bread
        assert_array_equal(newey_west(x, u, 0), white)

    def test_iid_homoskedastic_near_classical(self):
        rng = np.random.default_rng(1)
        t, sigma = 5000, 1.7
        x = np.column_stack([np.ones(t), rng.normal(size=t)])
        u = sigma * rng.normal(size=t)
        classical = sigma**2 * np.linalg.inv(x.T @ x)
        hac = newey_west(x, u, 4)
        assert np.abs(hac / classical - 1.0).max() < 0.10

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            t = int(rng.integers(20, 120))
            k = int(rng.integers(1, 4))
            lag = int(rng.integers(0, 8))
            x = rng.normal(size=(t, k))
            u = rng.normal(size=t)
            assert np.abs(
                newey_west(x, u, lag) - brute_force_hac(x, u, lag)
            ).max() < 1e-10

    @pytest.mark.parametrize("t, lag", [(60, 5), (500, 17), (2000, 40)])
    def test_window_sum_meat_matches_brute_force_on_long_lags(self, t, lag):
        # scores with a non-zero mean: every window sum then grows with lag.
        # The oracle's own sums of t*lag outer products round too: a regressor
        # of mean 3 put it 1.3e-12 away from a long-double sandwich at
        # t=2000, lag=40, and newey_west 1.9e-14.
        rng = np.random.default_rng(t + lag)
        x = np.column_stack([np.ones(t), rng.normal(size=t), rng.exponential(size=t)])
        u = 2.0 + rng.normal(size=t)
        want = brute_force_hac(x, u, lag)
        got = newey_west(x, u, lag)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        t=st.integers(10, 150),
        k=st.integers(1, 4),
        lag=st.integers(0, 9),
    )
    def test_output_symmetric_psd(self, seed, t, k, lag):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(t, k))
        u = rng.normal(size=t)
        cov = newey_west(x, u, min(lag, t - 1))
        assert np.abs(cov - cov.T).max() < 1e-12
        assert np.linalg.eigvalsh(0.5 * (cov + cov.T))[0] >= -1e-10

    def test_lag_bounds(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(10, 2))
        u = rng.normal(size=10)
        with pytest.raises(ValueError, match=">= 0"):
            newey_west(x, u, -1)
        with pytest.raises(ValueError, match="< T"):
            newey_west(x, u, 10)

    def test_rank_deficient_rejected(self):
        rng = np.random.default_rng(4)
        base = rng.normal(size=20)
        x = np.column_stack([base, 2.0 * base])
        with pytest.raises(NumericalError, match="rank"):
            newey_west(x, rng.normal(size=20), 2)

    @pytest.mark.parametrize(
        "make_x",
        [
            lambda base: np.column_stack([np.ones(20), base, 3.0 * base - 1.0]),
            lambda base: np.zeros((20, 2)),
            lambda base: base.reshape(4, 5),
        ],
        ids=["collinear", "zero", "fewer-rows-than-columns"],
    )
    def test_rank_deficient_message(self, make_x):
        x = make_x(np.random.default_rng(17).normal(size=20))
        u = np.ones(x.shape[0])
        with pytest.raises(NumericalError, match="rank-deficient regressor matrix in HAC"):
            newey_west(x, u, 1)


class TestLpIrf:
    def test_contemporaneous_unit_effect(self):
        rng = np.random.default_rng(5)
        shock = rng.standard_normal(2000)
        result = lp_irf(shock, shock, 0)
        assert abs(result.beta[0] - 1.0) < 3.0 * result.se[0]

    def test_constant_shock_rejected(self):
        with pytest.raises(DataError, match="constant shock"):
            lp_irf(np.arange(10.0), np.zeros(10), 2)

    def test_shock_constant_over_usable_sample_names_horizon(self):
        # the first shock is never used: the long difference starts at t=1;
        # np.var of a constant 0.1 series is not exactly zero (before:
        # NumericalError from the HAC rank check)
        y = np.arange(20.0) ** 2
        with pytest.raises(DataError, match="constant shock .*regime all at horizon 0"):
            lp_irf(y, np.r_[4.0, np.full(19, 0.1)], 2)
        with pytest.raises(DataError, match="constant shock series"):
            lp_irf(y, np.full(20, 0.1), 2)
        # only the last value differs: horizon 0 uses it, horizon 1 does not
        shock = np.r_[np.full(19, 0.1), 0.3]
        assert lp_irf(y, shock, 0).n_obs[0] == 19
        with pytest.raises(DataError, match="constant shock .*regime all at horizon 1$"):
            lp_irf(y, shock, 2)

    @pytest.mark.parametrize("last", [0.0, 0.5], ids=["all-zero", "last-differs"])
    def test_shock_of_signed_zeros_is_constant(self, last):
        # 0.0 and -0.0 compare equal, so ptp calls the shock constant; the
        # unused first value keeps the whole series from being constant
        y = np.arange(30.0) ** 2
        shock = np.where(np.arange(30) % 2 == 0, 0.0, -0.0)
        shock[0] = 1.0
        shock[-1] = last
        assert np.ptp(shock[1:-1]) == 0.0 and np.signbit(shock[1:-1]).any()
        horizon = 0 if last == 0.0 else 1
        with pytest.raises(DataError, match=f"^constant shock .*regime all at horizon {horizon}$"):
            lp_irf(y, shock, 3)

    def test_h0_on_ten_points_uses_nine_observations(self):
        rng = np.random.default_rng(6)
        result = lp_irf(rng.normal(size=10), rng.normal(size=10), 0)
        assert result.n_obs[0] == 9

    def test_n_obs_decreases_by_truncation(self):
        rng = np.random.default_rng(7)
        result = lp_irf(rng.normal(size=60), rng.normal(size=60), 8)
        assert_array_equal(result.n_obs, 59 - np.arange(9))

    def test_too_short_sample_names_first_failing_horizon(self):
        # at T=10, h=4 is the first horizon where the HAC lag h+1 no longer
        # fits inside the n_obs = 9-h usable observations
        rng = np.random.default_rng(8)
        with pytest.raises(DataError, match="horizon 4"):
            lp_irf(rng.normal(size=10), rng.normal(size=10), 8)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            lp_irf(np.ones(5), np.ones(6), 1)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["y", "shock"])
    def test_non_finite_series_is_data_error(self, name, value):
        # before: a NaN in y gave all-NaN beta and se; a NaN in the shock
        # raised LinAlgError after LAPACK printed "DLASCL parameter 4"
        rng = np.random.default_rng(20)
        series = {"y": rng.normal(size=40), "shock": rng.normal(size=40)}
        series[name][17] = value
        with pytest.raises(DataError, match=rf"^{name} has a non-finite value .* at index 17$"):
            lp_irf(series["y"], series["shock"], 3)

    def test_recovers_var_responses_with_true_shock(self):
        dgp = Dgp(
            B=np.array([[0.0, 0.0], [0.5, 0.2], [-0.1, 0.4]]),
            L=np.array([[1.0, 0.0], [0.4, 0.9]]),
            seed=12,
        )
        panel, eta = simulate_var(dgp, 5000)
        truth = true_irf(dgp, 8)
        for var_idx in (0, 1):
            result = lp_irf(panel.values[:, var_idx], eta[:, 0], 8)
            gap = np.abs(result.beta - truth[:, var_idx, 0])
            assert np.all(gap <= 3.0 * result.se)

    def test_beta_scales_and_t_stat_invariant_to_shock_scale(self):
        rng = np.random.default_rng(9)
        t = 400
        shock = rng.normal(scale=3.0, size=t)
        y = np.cumsum(0.3 * shock + rng.normal(size=t))
        raw = lp_irf(y, shock, 6)
        std = lp_irf(y, standardize_shock(shock), 6)
        sd = np.std(shock)
        assert_allclose(std.beta, raw.beta * sd, rtol=1e-10)
        assert_allclose(std.beta / std.se, raw.beta / raw.se, rtol=1e-10)


class TestLpIrfState:
    def make_regime_data(self, t=2000, effect_pre=0.0, effect_post=2.0, seed=13):
        rng = np.random.default_rng(seed)
        shock = rng.standard_normal(t)
        dummy = (np.arange(t) >= t // 2).astype(float)
        effect = np.where(dummy == 1.0, effect_post, effect_pre)
        y = effect * shock + 0.5 * rng.standard_normal(t)
        return y, shock, dummy

    def test_all_post_dummy_reports_empty_regime(self):
        rng = np.random.default_rng(14)
        y, shock = rng.normal(size=100), rng.normal(size=100)
        with pytest.raises(DataError, match="regime 0.*too few"):
            lp_irf_state(y, shock, np.ones(100), 4)

    def test_regime_effects_recovered(self):
        y, shock, dummy = self.make_regime_data()
        result = lp_irf_state(y, shock, dummy, 4)
        assert abs(result.pre.beta[0] - 0.0) <= 3.0 * result.pre.se[0]
        assert abs(result.post.beta[0] - 2.0) <= 3.0 * result.post.se[0]

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_dummy_is_data_error(self, value):
        y, shock, dummy = self.make_regime_data(t=50)
        dummy[30] = value
        with pytest.raises(DataError, match=r"^dummy has a non-finite value .* at index 30$"):
            lp_irf_state(y, shock, dummy, 2)

    def test_non_binary_dummy_rejected(self):
        y, shock, dummy = self.make_regime_data(t=50)
        dummy = dummy.copy()
        dummy[3] = 2.0
        with pytest.raises(DataError, match="dummy must be 0/1"):
            lp_irf_state(y, shock, dummy, 2)

    def test_point_estimates_equal_split_sample(self):
        y, shock, dummy = self.make_regime_data(t=600, seed=15)
        horizon = 6
        result = lp_irf_state(y, shock, dummy, horizon)
        t = y.shape[0]
        for h in range(horizon + 1):
            lhs = y[1 + h:] - y[: t - 1 - h]
            s = shock[1: t - h]
            d = dummy[1: t - h]
            for regime, res in ((0.0, result.pre), (1.0, result.post)):
                rows = d == regime
                x = np.column_stack([np.ones(rows.sum()), s[rows]])
                coef, *_ = np.linalg.lstsq(x, lhs[rows], rcond=None)
                assert abs(res.alpha[h] - coef[0]) < 1e-10
                assert abs(res.beta[h] - coef[1]) < 1e-10

    def test_shock_constant_within_one_regime_is_data_error(self):
        # before: NumericalError from the HAC rank check (exit 4)
        y, raw, dummy = self.make_regime_data(t=80, seed=18)
        shock = np.where(dummy == 0.0, 0.7, raw)
        with pytest.raises(DataError, match="constant shock .*regime 0 at horizon 0"):
            lp_irf_state(y, shock, dummy, 3)
        with pytest.raises(DataError, match="constant shock .*regime 1 at horizon 0"):
            lp_irf_state(y, shock, 1.0 - dummy, 3)
        # regime 0 now holds the later rows, and its shock differs only at its
        # last usable row: shock index 79 (the sample's last row) for one
        # dummy, index 76 for the other, whose last three rows are regime 1
        for last, horizon in ((79, 1), (76, 4)):
            d = 1.0 - dummy
            d[last + 1:] = 1.0
            s = np.where(d == 0.0, 0.7, raw)
            s[last] = -0.2
            assert lp_irf_state(y, s, d, horizon - 1).pre.n_obs[-1] >= 3
            with pytest.raises(DataError, match=f"constant shock .*regime 0 at horizon {horizon}$"):
                lp_irf_state(y, s, d, 6)
            with pytest.raises(DataError, match=f"constant shock .*regime 1 at horizon {horizon}$"):
                lp_irf_state(y, s, 1.0 - d, 6)

    def test_shock_of_signed_zeros_within_one_regime_is_constant(self):
        y, shock, dummy = self.make_regime_data(t=80, seed=18)
        shock = np.where(dummy == 0.0, np.where(np.arange(80) % 2 == 0, 0.0, -0.0), shock)
        assert np.signbit(shock[dummy == 0.0]).any()
        with pytest.raises(DataError, match="^constant shock .*regime 0 at horizon 0$"):
            lp_irf_state(y, shock, dummy, 3)

    def test_regime_sizes_sum_to_unconditional(self):
        y, shock, dummy = self.make_regime_data(t=300, seed=16)
        horizon = 5
        state = lp_irf_state(y, shock, dummy, horizon)
        plain = lp_irf(y, shock, horizon)
        assert_array_equal(state.pre.n_obs + state.post.n_obs, plain.n_obs)


# The two per-horizon loops that the shared core replaced, kept verbatim
# (with their sample helpers) as the oracle. The core solves each regime in
# closed form instead of by lstsq, so alpha, beta and se must match them to
# 1e-11 of the largest reference value; horizons, n_obs and dtypes exactly.


def reference_usable(y, shock, h):
    t = y.shape[0]
    n_obs = t - 1 - h
    lhs = y[1 + h:] - y[: n_obs]
    s = shock[1: t - h]
    return lhs, s, n_obs


def reference_check_horizon_sample(n_obs, h):
    if n_obs < 3 or h + 1 >= n_obs:
        raise DataError(f"too few usable observations at horizon {h} (n={n_obs})")


def reference_lp_irf(y, shock, horizon):
    y = np.asarray(y, dtype=float).ravel()
    shock = np.asarray(shock, dtype=float).ravel()
    if np.var(shock) == 0.0:
        raise DataError("constant shock series")
    alpha = np.empty(horizon + 1)
    beta = np.empty(horizon + 1)
    se = np.empty(horizon + 1)
    n_obs = np.empty(horizon + 1, dtype=int)
    for h in range(horizon + 1):
        lhs, s, n_h = reference_usable(y, shock, h)
        reference_check_horizon_sample(n_h, h)
        if np.var(s) == 0.0:
            raise DataError(f"constant shock over the usable sample at horizon {h}")
        x = np.column_stack([np.ones(n_h), s])
        coef, *_ = np.linalg.lstsq(x, lhs, rcond=None)
        resid = lhs - x @ coef
        cov = newey_west(x, resid, h + 1)
        alpha[h], beta[h] = coef
        se[h] = np.sqrt(cov[1, 1])
        n_obs[h] = n_h
    return LocalProjectionResult(
        horizons=np.arange(horizon + 1), alpha=alpha, beta=beta, se=se, n_obs=n_obs
    )


def reference_lp_irf_state(y, shock, dummy, horizon):
    y = np.asarray(y, dtype=float).ravel()
    shock = np.asarray(shock, dtype=float).ravel()
    dummy = np.asarray(dummy, dtype=float).ravel()
    shape = (horizon + 1,)
    results = {
        regime: {
            "alpha": np.empty(shape),
            "beta": np.empty(shape),
            "se": np.empty(shape),
            "n_obs": np.empty(shape, dtype=int),
        }
        for regime in (0, 1)
    }
    for h in range(horizon + 1):
        lhs, s, n_h = reference_usable(y, shock, h)
        reference_check_horizon_sample(n_h, h)
        d = dummy[1: y.shape[0] - h]
        n_post = int(d.sum())
        n_pre = n_h - n_post
        for regime, count in ((0, n_pre), (1, n_post)):
            if count < 3:
                raise DataError(
                    f"regime {regime} has too few usable observations "
                    f"at horizon {h} (n={count})"
                )
        x = np.column_stack([d, d * s, 1.0 - d, (1.0 - d) * s])
        coef, *_ = np.linalg.lstsq(x, lhs, rcond=None)
        resid = lhs - x @ coef
        cov = newey_west(x, resid, h + 1)
        results[1]["alpha"][h], results[1]["beta"][h] = coef[0], coef[1]
        results[0]["alpha"][h], results[0]["beta"][h] = coef[2], coef[3]
        results[1]["se"][h] = np.sqrt(cov[1, 1])
        results[0]["se"][h] = np.sqrt(cov[3, 3])
        results[1]["n_obs"][h] = n_post
        results[0]["n_obs"][h] = n_pre
    return [LocalProjectionResult(horizons=np.arange(horizon + 1), **results[r]) for r in (0, 1)]


def assert_same_result(got, want):
    for name in ("horizons", "alpha", "beta", "se", "n_obs"):
        value, expected = getattr(got, name), getattr(want, name)
        if name in ("horizons", "n_obs"):
            assert_array_equal(value, expected, err_msg=name)
        else:
            scale = np.abs(expected).max()
            assert_allclose(value, expected, rtol=0.0, atol=1e-11 * scale, err_msg=name)
        assert value.dtype == expected.dtype, name


def seeded_series(seed):
    """A persistent outcome driven by a fat-tailed shock, with a regime
    dummy that switches at a random date, on a random length and horizon."""
    rng = np.random.default_rng(seed)
    t = int(rng.integers(30, 700))
    shock = rng.standard_t(4, size=t) * rng.uniform(0.01, 100.0)
    y = np.cumsum(rng.normal(size=t)) + rng.uniform(-2, 2) * shock
    dummy = (np.arange(t) >= int(rng.integers(t // 4, 3 * t // 4))).astype(float)
    horizon = int(rng.integers(0, min(20, t // 8)))
    return y, shock, dummy, horizon


@pytest.mark.parametrize("seed", range(300))
def test_lp_irf_matches_reference_loop(seed):
    y, shock, _, horizon = seeded_series(seed)
    assert_same_result(lp_irf(y, shock, horizon), reference_lp_irf(y, shock, horizon))


@pytest.mark.parametrize("seed", range(300))
def test_lp_irf_state_matches_reference_loop(seed):
    y, shock, dummy, horizon = seeded_series(seed)
    result = lp_irf_state(y, shock, dummy, horizon)
    pre, post = reference_lp_irf_state(y, shock, dummy, horizon)
    assert_same_result(result.pre, pre)
    assert_same_result(result.post, post)


def test_lp_irf_matches_reference_on_criterion_05_design():
    dgp = Dgp(
        B=np.array([[0.0, 0.0], [0.5, 0.2], [-0.1, 0.4]]),
        L=np.array([[1.0, 0.0], [0.4, 0.9]]),
        seed=41,
    )
    panel, eta = simulate_var(dgp, 5000)
    y, shock = panel.values[:, 1], eta[:, 0]
    assert_same_result(lp_irf(y, shock, 8), reference_lp_irf(y, shock, 8))


def criterion_05_series():
    dgp = Dgp(
        B=np.array([[0.0, 0.0], [0.5, 0.2], [-0.1, 0.4]]),
        L=np.array([[1.0, 0.0], [0.4, 0.9]]),
        seed=41,
    )
    panel, eta = simulate_var(dgp, 5000)
    dummy = (np.arange(5000) >= 2000).astype(float)
    return panel.values[:, 1], eta[:, 0], dummy


def test_lp_irf_state_matches_reference_on_criterion_05_design():
    y, shock, dummy = criterion_05_series()
    result = lp_irf_state(y, shock, dummy, 8)
    pre, post = reference_lp_irf_state(y, shock, dummy, 8)
    assert_same_result(result.pre, pre)
    assert_same_result(result.post, post)


# The per-horizon core needs no factorisation: the closed-form singular
# values of each regime's two-column block decide the rank check.


def test_lp_runs_no_separate_svd(monkeypatch):
    y, shock, dummy, horizon = seeded_series(3)
    plain = lp_irf(y, shock, horizon)
    state = lp_irf_state(y, shock, dummy, horizon)

    def no_svd(*args, **kwargs):
        raise AssertionError("np.linalg.svd called")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    assert_same_result(lp_irf(y, shock, horizon), plain)
    again = lp_irf_state(y, shock, dummy, horizon)
    assert_same_result(again.pre, state.pre)
    assert_same_result(again.post, state.post)


def test_lp_calls_no_lstsq_svd_or_inv(monkeypatch):
    y, shock, dummy, _ = seeded_series(5)
    for name in ("lstsq", "svd", "inv"):

        def refuse(*args, _name=name, **kwargs):
            raise AssertionError(f"np.linalg.{_name} called")

        monkeypatch.setattr(np.linalg, name, refuse)
    for horizon in (0, 3, 7):
        lp_irf(y, shock, horizon)
        lp_irf_state(y, shock, dummy, horizon)


def test_near_collinear_shock_is_rank_deficient():
    # ptp > 0, so the constant-shock checks pass, but cond(X) is about 1e21
    rng = np.random.default_rng(19)
    t = 200
    shock = 1e9 + 1e-3 * rng.normal(size=t)
    assert np.ptp(shock) > 0.0
    y = rng.normal(size=t)
    dummy = (np.arange(t) >= t // 2).astype(float)
    with pytest.raises(NumericalError, match="rank-deficient regressor matrix in HAC"):
        lp_irf(y, shock, 4)
    with pytest.raises(NumericalError, match="rank-deficient regressor matrix in HAC"):
        lp_irf_state(y, shock, dummy, 4)


def test_underflowing_shock_spread_reports_svd_condition_number(monkeypatch):
    # the shock's centred sum of squares underflows to 0, which used to
    # report "condition number inf, smallest singular value 0.000e+00"
    rng = np.random.default_rng(23)
    t = 120
    shock = 1e-200 * rng.normal(size=t)
    checked = []
    check = localproj._check_singular_values

    def recorded(sv, what):
        checked.append(np.array(sv))
        check(sv, what)

    monkeypatch.setattr(localproj, "_check_singular_values", recorded)
    with pytest.raises(NumericalError) as err:
        lp_irf(rng.normal(size=t), shock, 3)
    want = np.linalg.svd(np.column_stack([np.ones(t - 1), shock[1:]]), compute_uv=False)
    cond = want[0] / want[-1]
    assert_allclose(checked[-1][0] / checked[-1][-1], cond, rtol=1e-12)
    assert f"condition number {cond:.3e}, smallest singular value {want[-1]:.3e}" in str(err.value)


@pytest.mark.parametrize("split", [False, True], ids=["pooled", "split"])
def test_overflowing_shock_spread_is_rank_deficient(monkeypatch, split):
    # the shock's centred sum of squares overflows to inf, which used to give
    # NaN singular values that passed the rank check: beta 0 and se 0 at
    # every horizon, with overflow warnings
    rng = np.random.default_rng(0)
    t = 200
    y = rng.normal(size=t)
    shock = 1e200 * rng.normal(size=t)
    dummy = (np.arange(t) >= t // 2).astype(float)
    checked = []
    check = localproj._check_singular_values

    def recorded(sv, what):
        checked.append(np.array(sv))
        check(sv, what)

    monkeypatch.setattr(localproj, "_check_singular_values", recorded)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NumericalError) as err:
            if split:
                lp_irf_state(y, shock, dummy, 2)
            else:
                lp_irf(y, shock, 2)
    # the regime blocks are orthogonal, so the design's singular values are
    # the blocks'; an SVD of the whole split design cannot resolve its
    # smallest ones next to the largest
    s, d = shock[1:], dummy[1:]
    blocks = [d == 1.0, d == 0.0] if split else [np.ones(t - 1, dtype=bool)]
    want = np.sort(np.concatenate([
        np.linalg.svd(np.column_stack([np.ones(rows.sum()), s[rows]]), compute_uv=False)
        for rows in blocks
    ]))[::-1]
    cond = want[0] / want[-1]
    assert cond > 1e199
    assert_allclose(checked[-1][0] / checked[-1][-1], cond, rtol=1e-12)
    assert f"condition number {cond:.3e}, smallest singular value {want[-1]:.3e}" in str(err.value)


@pytest.mark.parametrize("seed", range(20))
def test_block_singular_values_match_svd(seed):
    # the regime blocks are orthogonal, so the design's singular values are
    # the union of the blocks'
    y, shock, dummy, _ = seeded_series(seed)
    s, d = shock[1:], dummy[1:]
    x = np.column_stack([d, d * s, 1.0 - d, (1.0 - d) * s])
    closed = []
    for rows in (d == 1.0, d == 0.0, np.ones(s.shape[0], dtype=bool)):
        dev = s[rows] - s[rows].mean()
        closed.append(_block_singular_values(int(rows.sum()), s[rows].mean(), dev @ dev))
    want = np.linalg.svd(x, compute_uv=False)
    assert_allclose(np.sort(np.ravel(closed[:2]))[::-1], want, rtol=1e-12)
    pooled = np.linalg.svd(np.column_stack([np.ones(s.shape[0]), s]), compute_uv=False)
    assert_allclose(closed[2], pooled, rtol=1e-12)


def test_rank_decision_matches_svd_across_conditioning():
    # shocks c + eps*noise with cond([1, s]) from about 1e6 to 1e14; the
    # decision may differ only where the SVD's own ratio sits within 1e-6
    # (relative) of the 1e-10 threshold, inside its rounding
    rng = np.random.default_rng(21)
    decided = {True: 0, False: 0}
    for cond in np.logspace(6, 14, 161):
        for level in (1.0, -40.0, 2e3):
            t = int(rng.integers(40, 400))
            shock = level + (1.0 + level * level) / cond * rng.standard_normal(t)
            y = rng.normal(size=t)
            x = np.column_stack([np.ones(t - 1), shock[1:]])
            sv = np.linalg.svd(x, compute_uv=False)
            if abs(sv[-1] / sv[0] / 1e-10 - 1.0) <= 1e-6:
                continue
            try:
                _check_full_rank(x, "design")
                svd_full = True
            except NumericalError:
                svd_full = False
            try:
                lp_irf(y, shock, 0)
                closed_full = True
            except NumericalError:
                closed_full = False
            assert closed_full == svd_full, (cond, level)
            decided[svd_full] += 1
    assert min(decided.values()) > 100
