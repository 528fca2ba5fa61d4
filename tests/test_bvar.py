import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from newsvar import bvar
from newsvar.bvar import (
    PosteriorDraw,
    PosteriorDraws,
    PriorSpec,
    VarSpec,
    build_regressors,
    companion,
    ols_estimate,
    posterior_mean,
    posterior_moments,
    posterior_sample,
    spectral_radius,
)
from newsvar.errors import ConfigError, DataError, NumericalError
from newsvar.synth import Dgp, simulate_var

from test_panel import make_panel


def two_var_panel(t=120, seed=3):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(t, 2)).cumsum(axis=0) * 0.1 + 5.0
    return make_panel("1961Q1", values, names=["a", "b"])


class TestBuildRegressors:
    def test_shapes_with_four_lags(self):
        panel = two_var_panel(t=10)
        y, x = build_regressors(panel, VarSpec(order=["a", "b"], lags=4))
        assert y.shape == (6, 2)
        assert x.shape == (6, 9)
        assert_array_equal(x[:, 0], np.ones(6))

    def test_lag_columns_are_shifted_values(self):
        values = np.arange(1.0, 11.0)[:, None]
        panel = make_panel("1961Q1", values, names=["y"])
        y, x = build_regressors(panel, VarSpec(order=["y"], lags=1))
        assert_array_equal(x[:, 1], np.arange(1.0, 10.0))
        assert_array_equal(y[:, 0], np.arange(2.0, 11.0))

    def test_lag_block_ordering(self):
        panel = two_var_panel(t=20)
        y, x = build_regressors(panel, VarSpec(order=["a", "b"], lags=2))
        data = panel.values
        assert_array_equal(x[:, 1], data[1:-1, 0])  # lag 1 of a
        assert_array_equal(x[:, 2], data[1:-1, 1])  # lag 1 of b
        assert_array_equal(x[:, 3], data[:-2, 0])   # lag 2 of a
        assert_array_equal(x[:, 4], data[:-2, 1])   # lag 2 of b

    def test_too_short_sample(self):
        panel = two_var_panel(t=9)  # n*p+1 = 9 exactly
        with pytest.raises(DataError, match="insufficient observations"):
            build_regressors(panel, VarSpec(order=["a", "b"], lags=4))

    def test_fewer_rows_than_columns_under_a_spec_is_data_error(self):
        # T=10 passes T > n*p+1, but X has 6 rows for 9 columns; without a
        # spec X is any matrix, and a fat one stays a numerical error
        spec = VarSpec(order=["a", "b"], lags=4)
        y, x = build_regressors(two_var_panel(t=10), spec)
        with pytest.raises(DataError, match="T-p = 6 regression rows for 9 columns"):
            ols_estimate(y, x, spec)
        with pytest.raises(NumericalError, match="rank-deficient X: 6 rows < 9 columns"):
            ols_estimate(y, x)

    def test_unknown_name(self):
        panel = two_var_panel()
        with pytest.raises(DataError, match="not in panel"):
            build_regressors(panel, VarSpec(order=["a", "zz"], lags=1))


class TestOls:
    def test_exact_fit_recovery(self):
        rng = np.random.default_rng(0)
        x = np.column_stack([np.ones(30), rng.normal(size=(30, 3))])
        b_true = rng.normal(size=(4, 2))
        y = x @ b_true
        fit = ols_estimate(y, x)
        assert_allclose(fit.B, b_true, atol=1e-12)
        assert_allclose(fit.residuals, 0.0, atol=1e-12)
        assert_allclose(fit.Sigma, 0.0, atol=1e-24)

    def test_hand_solved_single_regressor(self):
        # normal equations: B = (1+4+9)^-1 (2+8+18) = 28/14 = 2
        x = np.array([[1.0], [2.0], [3.0]])
        y = np.array([[2.0], [4.0], [6.0]])
        fit = ols_estimate(y, x)
        assert_allclose(fit.B, [[2.0]], atol=1e-14)

    def test_duplicated_column_rejected(self):
        rng = np.random.default_rng(1)
        base = rng.normal(size=(20, 2))
        x = np.column_stack([base, base[:, 0]])
        with pytest.raises(NumericalError, match="rank-deficient"):
            ols_estimate(rng.normal(size=20), x)

    def test_fat_matrix_rejected(self):
        rng = np.random.default_rng(2)
        with pytest.raises(NumericalError, match="rank-deficient"):
            ols_estimate(rng.normal(size=4), rng.normal(size=(4, 6)))

    def test_residuals_mean_zero_with_intercept(self):
        panel = two_var_panel(t=200)
        y, x = build_regressors(panel, VarSpec(order=["a", "b"], lags=4))
        fit = ols_estimate(y, x)
        assert np.abs(fit.residuals.mean(axis=0)).max() < 1e-10

    def test_sigma_is_residual_gram_over_rows(self):
        panel = two_var_panel(t=150)
        y, x = build_regressors(panel, VarSpec(order=["a", "b"], lags=2))
        fit = ols_estimate(y, x)
        expected = fit.residuals.T @ fit.residuals / y.shape[0]
        assert_allclose(fit.Sigma, expected, rtol=1e-12)
        assert np.abs(fit.Sigma - fit.Sigma.T).max() < 1e-12

    def test_identity_reconstruction(self):
        panel = two_var_panel(t=80)
        y, x = build_regressors(panel, VarSpec(order=["a", "b"], lags=1))
        fit = ols_estimate(y, x)
        assert_array_equal(fit.Y, fit.X @ fit.B + fit.residuals)


class TestCompanion:
    def test_scalar_ar1(self):
        spec = VarSpec(order=["y"], lags=1, intercept=False)
        comp = companion(np.array([[0.5]]), spec)
        assert_array_equal(comp, [[0.5]])
        assert spectral_radius(comp) == pytest.approx(0.5)

    def test_ar2_stacking(self):
        spec = VarSpec(order=["y"], lags=2, intercept=False)
        comp = companion(np.array([[0.5], [0.3]]), spec)
        assert_array_equal(comp, [[0.5, 0.3], [1.0, 0.0]])

    def test_zero_coefficients(self):
        spec = VarSpec(order=["a", "b"], lags=3)
        comp = companion(np.zeros((7, 2)), spec)
        assert spectral_radius(comp) == 0.0

    def test_intercept_row_is_skipped(self):
        spec = VarSpec(order=["y"], lags=1, intercept=True)
        comp = companion(np.array([[9.9], [0.5]]), spec)
        assert_array_equal(comp, [[0.5]])

    def test_dimension_mismatch(self):
        spec = VarSpec(order=["a", "b"], lags=2)
        with pytest.raises(ValueError, match="expected"):
            companion(np.zeros((4, 2)), spec)

    def test_known_var2_eigenvalues(self):
        # y_t = 1.1 y_{t-1} - 0.3 y_{t-2}: roots of z^2 - 1.1 z + 0.3 are 0.5, 0.6
        spec = VarSpec(order=["y"], lags=2, intercept=False)
        comp = companion(np.array([[1.1], [-0.3]]), spec)
        assert spectral_radius(comp) == pytest.approx(0.6, abs=1e-12)

    def test_column_count_must_match_the_spec(self):
        # before: n was taken from B, so two lag rows of one column passed
        # for a two-variable VAR(2) and gave a 2 x 2 companion
        spec = VarSpec(order=["a", "b"], lags=2, intercept=False)
        with pytest.raises(ValueError, match="expected"):
            companion(np.zeros((2, 1)), spec)


class TestLagRows:
    @pytest.mark.parametrize("intercept", [True, False], ids=["intercept", "no-intercept"])
    @pytest.mark.parametrize("lead", [(), (5,), (2, 3)], ids=["single", "draws", "two-axes"])
    def test_view_of_the_rows_below_the_intercept(self, intercept, lead):
        spec = VarSpec(order=["a", "b"], lags=3, intercept=intercept)
        assert spec.k == 6 + intercept
        b = np.random.default_rng(1).normal(size=lead + (spec.k, 2))
        rows = spec.lag_rows(b)
        assert rows.shape == lead + (6, 2)
        assert_array_equal(rows, b[..., spec.k - 6:, :])
        rows[...] = 7.0
        assert (b[..., spec.k - 6:, :] == 7.0).all()
        assert (b[..., : spec.k - 6, :] != 7.0).all()

    @pytest.mark.parametrize("intercept", [True, False], ids=["intercept", "no-intercept"])
    @pytest.mark.parametrize("extra_rows, n_cols", [(-1, 2), (1, 2), (0, 1), (0, 3)])
    def test_wrong_row_or_column_count_refused(self, intercept, extra_rows, n_cols):
        spec = VarSpec(order=["a", "b"], lags=3, intercept=intercept)
        for lead in [(), (4,)]:
            with pytest.raises(ValueError, match="expected"):
                spec.lag_rows(np.zeros(lead + (spec.k + extra_rows, n_cols)))
        with pytest.raises(ValueError, match="expected"):
            spec.lag_rows(np.zeros(spec.k))

    @pytest.mark.parametrize("intercept", [True, False], ids=["intercept", "no-intercept"])
    def test_rows_follow_the_columns_of_build_regressors(self, intercept):
        panel = two_var_panel(t=30)
        spec = VarSpec(order=["b", "a"], lags=3, intercept=intercept)
        y, x = build_regressors(panel, spec)
        assert x.shape[1] == spec.k
        # row r of B multiplies column r of X
        column = np.broadcast_to(np.arange(spec.k)[:, None], (spec.k, 2))
        lag_columns = spec.lag_rows(column)[:, 0].reshape(3, 2)
        data = panel.values[:, [1, 0]]
        for lag in range(1, 4):
            assert_array_equal(x[:, lag_columns[lag - 1]], data[3 - lag: 30 - lag])
        rest = np.setdiff1d(np.arange(spec.k), lag_columns)
        assert_array_equal(x[:, rest], np.ones((27, int(intercept))))

    def test_k_is_not_a_field(self):
        # spec_hash and posterior.json are built from the fields
        spec = VarSpec(order=["a", "b"], lags=3)
        assert dataclasses.asdict(spec) == {"order": ["a", "b"], "lags": 3, "intercept": True}


def small_var_fit(t=2000, seed=11):
    dgp = Dgp(
        B=np.array([[0.2, -0.1], [0.5, 0.1], [-0.2, 0.3]]),
        L=np.array([[1.0, 0.0], [0.4, 0.9]]),
        seed=seed,
    )
    panel, _ = simulate_var(dgp, t)
    spec = dgp.var_spec
    y, x = build_regressors(panel, spec)
    return ols_estimate(y, x, spec), spec


class TestPosteriorSample:
    def test_flat_prior_center_is_ols(self):
        fit, _ = small_var_fit(t=300)
        assert_allclose(posterior_mean(fit, PriorSpec(kind="flat")), fit.B, atol=1e-10)

    def test_flat_prior_mean_matches_ols(self):
        fit, _ = small_var_fit()
        draws = posterior_sample(fit, PriorSpec(kind="flat"), 1000, seed=5)
        stacked = np.stack([d.B for d in draws])
        mc_se = stacked.std(axis=0, ddof=1) / np.sqrt(stacked.shape[0])
        assert np.all(np.abs(stacked.mean(axis=0) - fit.B) < 3.0 * mc_se + 1e-12)

    def test_flat_prior_clt_rate_at_10k_draws(self):
        fit, _ = small_var_fit(t=400)
        draws = posterior_sample(fit, PriorSpec(kind="flat"), 10_000, seed=6)
        stacked = np.stack([d.B for d in draws])
        mc_se = stacked.std(axis=0, ddof=1) / np.sqrt(stacked.shape[0])
        assert np.all(np.abs(stacked.mean(axis=0) - fit.B) < 4.0 * mc_se + 1e-12)

    def test_same_seed_is_bit_identical(self):
        fit, _ = small_var_fit(t=300)
        a = posterior_sample(fit, PriorSpec(kind="flat"), 20, seed=42)
        b = posterior_sample(fit, PriorSpec(kind="flat"), 20, seed=42)
        for da, db in zip(a, b):
            assert_array_equal(da.B, db.B)
            assert_array_equal(da.Sigma, db.Sigma)
            assert da.stable == db.stable

    def test_draws_prefix_stable_in_count(self):
        # per-draw seed derivation: draw i does not depend on n_draws,
        # so any parallel schedule produces the same list
        fit, _ = small_var_fit(t=300)
        short = posterior_sample(fit, PriorSpec(kind="flat"), 3, seed=9)
        long = posterior_sample(fit, PriorSpec(kind="flat"), 10, seed=9)
        for ds, dl in zip(short, long):
            assert_array_equal(ds.B, dl.B)
            assert_array_equal(ds.Sigma, dl.Sigma)

    def test_zero_draws_rejected(self):
        fit, _ = small_var_fit(t=300)
        with pytest.raises(ValueError, match="n_draws"):
            posterior_sample(fit, PriorSpec(kind="flat"), 0, seed=0)

    def test_sigma_draws_are_spd(self):
        fit, _ = small_var_fit(t=300)
        draws = posterior_sample(fit, PriorSpec(kind="flat"), 50, seed=3)
        for d in draws:
            assert np.linalg.eigvalsh(d.Sigma)[0] > 0
            assert np.abs(d.Sigma - d.Sigma.T).max() < 1e-12

    def test_sampling_without_intercept(self):
        dgp = Dgp(
            B=np.array([[0.0, 0.0], [0.5, 0.1], [-0.2, 0.3]]),
            L=np.array([[1.0, 0.0], [0.4, 0.9]]),
            seed=19,
        )
        panel, _ = simulate_var(dgp, 400)
        spec = VarSpec(order=["y1", "y2"], lags=1, intercept=False)
        y, x = build_regressors(panel, spec)
        assert x.shape[1] == 2
        fit = ols_estimate(y, x, spec)
        draws = posterior_sample(fit, PriorSpec(kind="minnesota"), 10, seed=2)
        assert all(d.B.shape == (2, 2) for d in draws)
        comp = companion(draws[0].B, spec)
        assert comp.shape == (2, 2)

    def test_unstable_draws_flagged_not_dropped(self):
        rng = np.random.default_rng(0)
        t = 60
        x = np.column_stack([np.ones(t), rng.normal(size=t)])
        y = x @ np.array([[0.0], [1.05]]) + 0.02 * rng.normal(size=(t, 1))
        fit = ols_estimate(y, x, VarSpec(order=["y"], lags=1))
        draws = posterior_sample(fit, PriorSpec(kind="flat"), 200, seed=1)
        flags = [d.stable for d in draws]
        assert len(draws) == 200
        assert not all(flags)  # explosive root draws retained, only flagged


def reference_posterior_sample(fit, prior, spec, n_draws, seed):
    """Per-draw NIW sampler written independently of the batched algebra.
    Draw i reads its share of the three streams spawned from ``seed`` in
    turn (off-diagonal normals, chi-square diagonal, coefficient normals),
    builds the Bartlett factor A, Sigma = (C A^-1)(C A^-1)' with
    C = chol(S_bar), B from the matric-normal with a re-factorised Sigma,
    and the companion spectral radius of each draw."""
    b_post, omega_post, s_post, nu_post = posterior_moments(fit, prior)
    chol_row = np.linalg.cholesky(omega_post)
    chol_scale = np.linalg.cholesky(s_post)
    k, n = b_post.shape
    offdiag_rng, chi2_rng, z_rng = (
        np.random.default_rng(child) for child in np.random.SeedSequence(seed).spawn(3)
    )
    draws = []
    for _ in range(n_draws):
        a = np.zeros((n, n))
        a[np.tril_indices(n, k=-1)] = offdiag_rng.standard_normal(n * (n - 1) // 2)
        a[np.diag_indices(n)] = np.sqrt(chi2_rng.chisquare(nu_post - n + 1 + np.arange(n)))
        factor = chol_scale @ np.linalg.inv(a)
        sigma = factor @ factor.T
        z = z_rng.standard_normal((k, n))
        b = b_post + chol_row @ z @ np.linalg.cholesky(sigma).T
        stable = spectral_radius(companion(b, spec)) < 1.0
        draws.append(PosteriorDraw(B=b, Sigma=sigma, stable=stable))
    return PosteriorDraws.stack(draws)


def whole_array_posterior_sample(fit, prior, n_draws, seed):
    """The batched sampler's formula on whole arrays: every draw's Bartlett
    factor, normals z and products at once, as ``posterior_sample`` formed
    them before it worked a chunk of draws at a time."""
    b_post, omega_post, s_post, nu_post = posterior_moments(fit, prior)
    spec, n = fit.spec, len(fit.spec.order)
    chol_row = np.linalg.cholesky(omega_post)
    chol_scale = np.linalg.cholesky(s_post)
    rows, cols = np.tril_indices(n, k=-1)
    diag = np.arange(n)
    offdiag_rng, chi2_rng, z_rng = map(
        np.random.default_rng, np.random.SeedSequence(seed).spawn(3)
    )
    bartlett = np.zeros((n_draws, n, n))
    bartlett[:, rows, cols] = offdiag_rng.standard_normal((n_draws, rows.size))
    bartlett[:, diag, diag] = np.sqrt(chi2_rng.chisquare((nu_post - n + 1) + diag, (n_draws, n)))
    z = z_rng.standard_normal((n_draws, spec.k, n))
    chol_sigma_t = np.linalg.solve(bartlett.transpose(0, 2, 1), chol_scale.T)
    sigma = chol_sigma_t.transpose(0, 2, 1) @ chol_sigma_t
    b = b_post + np.matmul(chol_row, z) @ chol_sigma_t
    stable = bvar._stable_flags(spec.lag_rows(b), n, spec.lags)
    return PosteriorDraws(B=b, Sigma=sigma, stable=stable)


def max_rel_gap(actual, expected):
    return float(np.abs(actual - expected).max() / np.abs(expected).max())


def persistent_var3_fit(intercept=True, lags=1):
    """OLS fit of a persistent 3-variable VAR(1) on a short sample, so that
    both stable and explosive posterior draws occur."""
    dgp = Dgp(
        B=np.array(
            [[0.1 * intercept, -0.1 * intercept, 0.05 * intercept],
             [0.97, 0.05, 0.0], [0.02, 0.6, 0.1], [0.0, -0.2, 0.5]]
        ),
        L=np.array([[1.0, 0.0, 0.0], [0.4, 0.9, 0.0], [-0.3, 0.2, 0.7]]),
        seed=23,
    )
    panel, _ = simulate_var(dgp, 80)
    spec = VarSpec(order=["y1", "y2", "y3"], lags=lags, intercept=intercept)
    return ols_estimate(*build_regressors(panel, spec), spec), spec


def diagonal_var_fit(n=4, lags=4):
    """OLS fit of an n-variable VAR(lags) with intercept; the defaults are
    the paper's layout."""
    b = np.zeros((n * lags + 1, n))
    b[0] = 0.1
    b[1:n + 1] = 0.5 * np.eye(n)
    b[n * lags - n + 1:] += 0.2 * np.eye(n)
    dgp = Dgp(B=b, L=np.eye(n), seed=7)
    panel, _ = simulate_var(dgp, 120)
    return ols_estimate(*build_regressors(panel, dgp.var_spec), dgp.var_spec)


class TestBatchedSamplerOracle:
    @pytest.mark.parametrize("kind", ["flat", "minnesota"])
    @pytest.mark.parametrize("intercept", [True, False])
    @pytest.mark.parametrize("lags", [1, 4])
    def test_matches_per_draw_invwishart_sampler(self, kind, intercept, lags):
        fit, spec = persistent_var3_fit(intercept, lags)
        prior = PriorSpec(kind=kind)
        got = posterior_sample(fit, prior, 60, seed=17)
        want = reference_posterior_sample(fit, prior, spec, 60, seed=17)
        assert isinstance(got, PosteriorDraws)
        assert got.B.shape == want.B.shape and got.Sigma.shape == want.Sigma.shape
        assert max_rel_gap(got.B, want.B) <= 1e-12
        assert max_rel_gap(got.Sigma, want.Sigma) <= 1e-12
        assert_array_equal(got.stable, want.stable)

    @pytest.mark.parametrize("kind", ["flat", "minnesota"])
    def test_draw_means_match_niw_moments(self, kind):
        # E[Sigma] = S_bar / (nu_bar - n - 1) under IW(S_bar, nu_bar) and
        # E[B] = B_bar; every element within 4 Monte Carlo standard errors
        fit, _ = persistent_var3_fit()
        prior = PriorSpec(kind=kind)
        b_post, _, s_post, nu_post = posterior_moments(fit, prior)
        draws = posterior_sample(fit, prior, 20_000, seed=31)
        for stacked, mean in ((draws.Sigma, s_post / (nu_post - 3 - 1)), (draws.B, b_post)):
            mc_se = stacked.std(axis=0, ddof=1) / np.sqrt(len(draws))
            assert np.all(np.abs(stacked.mean(axis=0) - mean) < 4.0 * mc_se)

    def test_minnesota_draws_prefix_stable(self):
        # the chi-square stream is drawn by rejection, so a draw's share of
        # it varies; the first draw must still not depend on n_draws
        fit, _ = persistent_var3_fit(lags=4)
        one = posterior_sample(fit, PriorSpec(kind="minnesota"), 1, seed=9)
        many = posterior_sample(fit, PriorSpec(kind="minnesota"), 257, seed=9)
        assert_array_equal(one.B, many.B[:1])
        assert_array_equal(one.Sigma, many.Sigma[:1])
        assert_array_equal(one.stable, many.stable[:1])

    @pytest.mark.parametrize(
        "n_draws",
        [1, bvar._EIGVALS_CHUNK - 1, bvar._EIGVALS_CHUNK, 5 * bvar._EIGVALS_CHUNK // 2],
    )
    @pytest.mark.parametrize("kind", ["flat", "minnesota"])
    def test_chunks_equal_the_whole_array_formula(self, n_draws, kind):
        # the chi-square stream is drawn by rejection, so this also shows
        # that splitting a generator's draws into chunks keeps its stream
        fit, _ = persistent_var3_fit(lags=2)
        got = posterior_sample(fit, PriorSpec(kind=kind), n_draws, seed=11)
        want = whole_array_posterior_sample(fit, PriorSpec(kind=kind), n_draws, seed=11)
        for name in ("B", "Sigma", "stable"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        if n_draws > 1:
            assert not want.stable.all() and want.stable.any()

    @pytest.mark.parametrize("tightness", [1e-300, 1e-160])
    def test_underflowing_prior_variance_is_named(self, tightness):
        # before: a divide-by-zero warning, then "Matrix is not positive definite"
        prior = PriorSpec(kind="minnesota", tightness=tightness)
        with pytest.raises(ConfigError, match=rf"^prior\.tightness {tightness!r} is too small"):
            posterior_sample(diagonal_var_fit(), prior, 2, seed=0)

    @pytest.mark.parametrize("n_draws", [1, 3, 513])
    def test_prefix_stable_at_paper_layout(self, n_draws):
        # before: draw 0's B moved by 5.6e-17 between 1 and 1000 draws
        fit, prior = diagonal_var_fit(), PriorSpec(kind="minnesota")
        few = posterior_sample(fit, prior, n_draws, seed=7)
        many = posterior_sample(fit, prior, 1000, seed=7)
        assert_array_equal(few.B, many.B[:n_draws])
        assert_array_equal(few.Sigma, many.Sigma[:n_draws])
        assert_array_equal(few.stable, many.stable[:n_draws])

    def test_bytes_do_not_depend_on_blas_threads(self):
        # before: B of n=6, p=4 with 513 draws differed between
        # OPENBLAS_NUM_THREADS=1 and 2
        code = (
            "import hashlib, sys; sys.path.insert(0, sys.argv[1]); "
            "from test_bvar import diagonal_var_fit; "
            "from newsvar.bvar import PriorSpec, posterior_sample; "
            "d = posterior_sample(diagonal_var_fit(6, 4), PriorSpec(), 513, seed=1); "
            "print(hashlib.sha256(d.B.tobytes()).hexdigest())"
        )
        src = str(Path(bvar.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        digests = {
            subprocess.run(
                [sys.executable, "-c", code, str(Path(__file__).parent)],
                capture_output=True, text=True, check=True,
                env={**env, "OPENBLAS_NUM_THREADS": threads},
            ).stdout
            for threads in ("1", "2")
        }
        assert len(digests) == 1

    def test_single_draw(self):
        fit, _ = persistent_var3_fit()
        draws = posterior_sample(fit, PriorSpec(kind="flat"), 1, seed=0)
        assert (draws.B.shape, draws.Sigma.shape, draws.stable.shape) == ((1, 4, 3), (1, 3, 3), (1,))
        assert np.linalg.eigvalsh(draws.Sigma[0])[0] > 0

    def test_seeds_give_different_draws(self):
        fit, _ = persistent_var3_fit()
        a = posterior_sample(fit, PriorSpec(kind="minnesota"), 5, seed=0)
        b = posterior_sample(fit, PriorSpec(kind="minnesota"), 5, seed=1)
        assert (a.B != b.B).all()
        assert (a.Sigma != b.Sigma).all()

    @pytest.mark.parametrize("swap", [(0, 1), (0, 2), (1, 2)])
    def test_each_quantity_reads_its_own_stream(self, monkeypatch, swap):
        fit, _ = persistent_var3_fit()
        prior = PriorSpec(kind="minnesota")
        want = posterior_sample(fit, prior, 20, seed=5)
        i, j = swap

        class Swapped(np.random.SeedSequence):
            def spawn(self, n_children):
                children = super().spawn(n_children)
                children[i], children[j] = children[j], children[i]
                return children

        monkeypatch.setattr(np.random, "SeedSequence", Swapped)
        got = posterior_sample(fit, prior, 20, seed=5)
        assert (got.B != want.B).any(axis=(1, 2)).all()
        assert (got.Sigma != want.Sigma).any(axis=(1, 2)).all()

    def test_univariate_sigma_matches_reference(self):
        rng = np.random.default_rng(4)
        t = 50
        x = np.column_stack([np.ones(t), rng.normal(size=t)])
        y = x @ np.array([[0.1], [0.9]]) + 0.3 * rng.normal(size=(t, 1))
        spec = VarSpec(order=["y"], lags=1)
        fit = ols_estimate(y, x, spec)
        got = posterior_sample(fit, PriorSpec(kind="flat"), 40, seed=8)
        want = reference_posterior_sample(fit, PriorSpec(kind="flat"), spec, 40, seed=8)
        assert max_rel_gap(got.B, want.B) <= 1e-12
        assert max_rel_gap(got.Sigma, want.Sigma) <= 1e-12
        assert_array_equal(got.stable, want.stable)


class TestPosteriorDraws:
    def test_sequence_view(self):
        fit, _ = small_var_fit(t=300)
        draws = posterior_sample(fit, PriorSpec(kind="flat"), 5, seed=1)
        assert len(draws) == 5
        last = draws[-1]
        assert isinstance(last, PosteriorDraw)
        assert_array_equal(last.B, draws.B[4])
        assert [d.stable for d in draws] == draws.stable.tolist()

    def test_stack_round_trip(self):
        fit, _ = small_var_fit(t=300)
        draws = posterior_sample(fit, PriorSpec(kind="flat"), 5, seed=1)
        again = PosteriorDraws.stack(list(draws))
        assert_array_equal(again.B, draws.B)
        assert_array_equal(again.Sigma, draws.Sigma)
        assert_array_equal(again.stable, draws.stable)
        assert PosteriorDraws.stack(draws) is draws

    def test_inconsistent_shapes_rejected(self):
        with pytest.raises(ValueError, match="inconsistent"):
            PosteriorDraws(B=np.zeros((3, 5, 2)), Sigma=np.zeros((2, 2, 2)), stable=np.ones(3))


class TestMinnesotaPrior:
    def test_tiny_tightness_pins_posterior_at_random_walk(self):
        fit, _ = small_var_fit(t=300)
        prior = PriorSpec(kind="minnesota", tightness=1e-8)
        mean = posterior_mean(fit, prior)
        n = fit.Y.shape[1]
        expected = np.zeros_like(fit.B)
        expected[1: 1 + n] = np.eye(n)
        assert_allclose(mean[1:], expected[1:], atol=1e-4)

    def test_loose_tightness_approaches_ols(self):
        fit, _ = small_var_fit(t=300)
        prior = PriorSpec(kind="minnesota", tightness=1e6)
        assert_allclose(posterior_mean(fit, prior), fit.B, atol=1e-6)

    def test_shrinkage_reduces_distance_to_prior_mean(self):
        fit, _ = small_var_fit(t=300)
        n = fit.Y.shape[1]
        prior_mean = np.zeros_like(fit.B)
        prior_mean[1: 1 + n] = np.eye(n)
        tight = posterior_mean(fit, PriorSpec(kind="minnesota", tightness=0.05))
        loose = posterior_mean(fit, PriorSpec(kind="minnesota", tightness=5.0))
        assert np.linalg.norm(tight - prior_mean) < np.linalg.norm(loose - prior_mean)

    def test_shrinkage_beats_ols_on_short_persistent_sample(self):
        # the point of the prior: lower coefficient MSE than OLS when the
        # sample is short relative to the parameter count
        rng = np.random.default_rng(1)
        n, p, t = 6, 4, 120
        a1 = 0.85 * np.eye(n) + rng.normal(scale=0.02, size=(n, n))
        blocks = [a1] + [rng.normal(scale=0.015, size=(n, n)) for _ in range(p - 1)]
        b_true = np.vstack([np.zeros((1, n))] + [blk.T for blk in blocks])
        mse_ols, mse_shrunk = [], []
        for seed in range(5):
            dgp = Dgp(B=b_true, L=np.eye(n), seed=seed)
            panel, _ = simulate_var(dgp, t)
            y, x = build_regressors(panel, dgp.var_spec)
            fit = ols_estimate(y, x, dgp.var_spec)
            shrunk = posterior_mean(fit, PriorSpec(kind="minnesota", tightness=0.2))
            mse_ols.append(np.mean((fit.B - b_true) ** 2))
            mse_shrunk.append(np.mean((shrunk - b_true) ** 2))
        assert np.mean(mse_shrunk) < 0.5 * np.mean(mse_ols)

    def test_explicit_scale_matrix_accepted(self):
        fit, _ = small_var_fit(t=300)
        prior = PriorSpec(kind="minnesota", nu0=5.0, s0=np.eye(2) * 0.5)
        draws = posterior_sample(fit, prior, 10, seed=0)
        assert len(draws) == 10

    def test_bad_nu0_rejected(self):
        fit, _ = small_var_fit(t=300)
        with pytest.raises(ValueError, match="nu0"):
            posterior_sample(fit, PriorSpec(kind="minnesota", nu0=1.0), 2, seed=0)


def test_varspec_validation():
    with pytest.raises(ValueError, match="lags"):
        VarSpec(order=["a"], lags=0)
    with pytest.raises(ValueError, match="duplicates"):
        VarSpec(order=["a", "a"], lags=1)


def test_prior_validation():
    with pytest.raises(ValueError, match="kind"):
        PriorSpec(kind="jeffreys")
    with pytest.raises(ValueError, match="tightness"):
        PriorSpec(tightness=-1.0)
    with pytest.raises(ValueError, match="symmetric"):
        PriorSpec(s0=np.array([[1.0, 0.5], [0.0, 1.0]]))


class TestFitSpec:
    @pytest.mark.parametrize("kind", ["flat", "minnesota"])
    @pytest.mark.parametrize("draw", [False, True], ids=["posterior_mean", "posterior_sample"])
    def test_spec_less_fit_refused(self, kind, draw):
        fit, _ = small_var_fit(t=300)
        bare = ols_estimate(fit.Y, fit.X)
        assert bare.spec is None
        with pytest.raises(ValueError, match="no VarSpec"):
            if draw:
                posterior_sample(bare, PriorSpec(kind=kind), 5, seed=0)
            else:
                posterior_mean(bare, PriorSpec(kind=kind))

    @pytest.mark.parametrize(
        "spec",
        [
            VarSpec(order=["y1"], lags=1),
            VarSpec(order=["y1", "y2"], lags=2),
            VarSpec(order=["y1", "y2"], lags=1, intercept=False),
        ],
        ids=["fewer-variables", "more-lags", "no-intercept"],
    )
    def test_spec_disagreeing_with_shapes_refused(self, spec):
        fit, _ = small_var_fit(t=300)  # n=2, p=1 and an intercept: X has 3 columns
        with pytest.raises(ValueError, match=r"Y has 2 columns and X 3, but .* needs"):
            ols_estimate(fit.Y, fit.X, spec)

    @pytest.mark.parametrize("kind", ["flat", "minnesota"])
    def test_var1_without_intercept_on_a_lag_of_ones_samples(self, kind):
        # before: the layout was guessed from X, an all-ones first column
        # was taken for an intercept, and sampling raised "X with 1 columns
        # implies no lags for n=1"
        y = np.random.default_rng(3).normal(size=(40, 1))
        fit = ols_estimate(y, np.ones((40, 1)), VarSpec(order=["y"], lags=1, intercept=False))
        draws = posterior_sample(fit, PriorSpec(kind=kind), 20, seed=1)
        assert draws.B.shape == (20, 1, 1)
        assert np.isfinite(draws.B).all() and (draws.Sigma > 0).all()


def eigvals_flags(coefs, n, p):
    """The plain path: every companion's eigenvalues, radius < 1."""
    comp = bvar._companion_from_blocks(coefs, n, p)
    return np.abs(np.linalg.eigvals(comp)).max(axis=-1) < 1.0


def flags_and_fallback(monkeypatch, coefs, n, p):
    """``_stable_flags`` of the lag blocks, and for each draw whether its
    companion went to the eigenvalue fallback."""
    sent = []
    arbiter = bvar._radius_below_one

    def recorded(comp):
        sent.extend(comp.copy())
        return arbiter(comp)

    monkeypatch.setattr(bvar, "_radius_below_one", recorded)
    flags = bvar._stable_flags(coefs, n, p)
    comps = bvar._companion_from_blocks(coefs, n, p)
    fell_back = np.array([any(np.array_equal(c, s) for s in sent) for c in comps])
    assert len(sent) == fell_back.sum()
    return flags, fell_back


def var1_blocks(matrices):
    """Lag blocks (D, N, N) of the VAR(1)s whose companions are ``matrices``."""
    return np.ascontiguousarray(np.swapaxes(np.asarray(matrices, dtype=float), -1, -2))


def embed(block, size=32, rest=0.3, rng=None):
    """``block`` in the top-left corner of a size x size matrix with ``rest``
    on the remaining diagonal, optionally hidden by an orthogonal similarity
    (which keeps the eigenvalues and the Jordan structure)."""
    block = np.asarray(block, dtype=float)
    m = np.diag(np.full(size, rest))
    m[: len(block), : len(block)] = block
    if rng is not None:
        q, _ = np.linalg.qr(rng.normal(size=(size, size)))
        m = q @ m @ q.T
    return m


def stress_like_fit(seed=5, n=8, p=4, periods=224):
    """OLS fit of a simulated stable VAR(4) in 8 variables, the layout and
    sample size of the stress benchmark."""
    rng = np.random.default_rng(seed)
    while True:
        b = np.empty((1 + n * p, n))
        b[0] = rng.normal(0.0, 0.1, n)
        for lag in range(1, p + 1):
            a = rng.normal(0.0, 0.3 / (np.sqrt(n) * lag), (n, n))
            if lag == 1:
                a[np.diag_indices(n)] += rng.uniform(0.3, 0.7, n)
            b[1 + (lag - 1) * n: 1 + lag * n] = a.T
        dgp = Dgp(B=b, L=0.02 * np.eye(n), seed=seed)
        if dgp.spectral_radius < 0.95:
            break
    panel, _ = simulate_var(dgp, periods)
    return ols_estimate(*build_regressors(panel, dgp.var_spec), dgp.var_spec)


class TestCertifiedStableFlags:
    @pytest.mark.parametrize("size", [1, 4, 32])
    @pytest.mark.parametrize("radius", [1.0 - 1e-9, 1.0 + 1e-9])
    def test_near_unit_radius_falls_through(self, monkeypatch, size, radius):
        rng = np.random.default_rng(size)
        mats = []
        for _ in range(6):
            q, _ = np.linalg.qr(rng.normal(size=(size, size)))
            eig = rng.uniform(-0.9, 0.9, size)
            eig[rng.integers(size)] = radius if rng.uniform() < 0.5 else -radius
            mats.append((q * eig) @ q.T)
        coefs = var1_blocks(mats)
        flags, fell_back = flags_and_fallback(monkeypatch, coefs, size, 1)
        assert fell_back.all()
        assert_array_equal(flags, eigvals_flags(coefs, size, 1))
        assert_array_equal(flags, np.full(6, radius < 1.0))

    def test_defective_companions(self, monkeypatch):
        rng = np.random.default_rng(8)

        def jordan4(radius):
            return np.diag(np.full(4, radius)) + np.diag(np.ones(3), 1)

        cases = [
            # (Jordan block, true radius, must reach the fallback)
            ([[0.999, 100.0], [0.0, 0.999]], 0.999, True),
            ([[1.001, 100.0], [0.0, 1.001]], 1.001, True),
            (jordan4(0.995), 0.995, True),
            (jordan4(1.005), 1.005, True),
            # ||C^64||_F is about 68 but ||C^256||_F about 7e-6
            (jordan4(0.9), 0.9, False),
            ([[0.5, 100.0], [0.0, 0.5]], 0.5, False),
            # C^256 is below the margin, but the rounding bound of the first
            # square, gamma_32 * ||C||_F^2 ~ 35, is not
            ([[0.5, 1e8], [0.0, 0.5]], 0.5, True),
        ]
        mats = [embed(block, rng=hide) for block, _, _ in cases for hide in (None, rng)]
        truth = np.repeat([radius < 1.0 for _, radius, _ in cases], 2)
        must_fall = np.repeat([fall for _, _, fall in cases], 2)
        coefs = var1_blocks(mats)
        flags, fell_back = flags_and_fallback(monkeypatch, coefs, 32, 1)
        assert_array_equal(flags, eigvals_flags(coefs, 32, 1))
        assert_array_equal(flags, truth)
        assert fell_back[must_fall].all()
        assert not fell_back[~must_fall].any()

    def test_huge_roots(self, monkeypatch):
        rotation = [[0.0, 1e6], [-1e6, 0.0]]
        cases = [
            # (block, must reach the fallback)
            ([[1e6]], False),
            (rotation, False),
            ([[1e6, 1e200], [0.0, 1e6]], True),  # the error bound overflows
            (np.full((4, 4), 1e300), True),  # the first square overflows
        ]
        mats = [embed(block) for block, _ in cases]
        coefs = var1_blocks(mats)
        flags, fell_back = flags_and_fallback(monkeypatch, coefs, 32, 1)
        assert_array_equal(flags, eigvals_flags(coefs, 32, 1))
        assert not flags.any()
        assert_array_equal(fell_back, [fall for _, fall in cases])

    @pytest.mark.parametrize("n, p", [(1, 1), (4, 1), (2, 2), (1, 4), (32, 1), (8, 4)])
    def test_matches_eigenvalues_over_radii(self, n, p):
        rng = np.random.default_rng(100 + 10 * n + p)
        draws = 300
        radii = rng.uniform(0.2, 3.0, draws)
        coefs = rng.normal(size=(draws, n * p, n))
        # Scaling lag block j by s^j scales every companion eigenvalue by s.
        base = np.abs(np.linalg.eigvals(bvar._companion_from_blocks(coefs, n, p))).max(axis=-1)
        lag = np.repeat(np.arange(1, p + 1), n)
        coefs *= (radii / base)[:, None, None] ** lag[None, :, None]
        flags = bvar._stable_flags(coefs, n, p)
        assert_array_equal(flags, eigvals_flags(coefs, n, p))
        away = np.abs(radii - 1.0) > 1e-6
        assert_array_equal(flags[away], radii[away] < 1.0)

    def test_stress_like_posterior_is_certified(self, monkeypatch):
        draws = posterior_sample(stress_like_fit(), PriorSpec(kind="minnesota"), 2000, seed=7)
        coefs = draws.B[:, 1:, :]
        flags, fell_back = flags_and_fallback(monkeypatch, coefs, 8, 4)
        assert fell_back.mean() <= 0.01
        assert_array_equal(flags, draws.stable)
        assert_array_equal(flags, eigvals_flags(coefs, 8, 4))


def compacting_certified_flags(comp):
    """``_certified_flags`` as it was when it compacted the live draws after
    every square, whether or not a draw was decided: the reference the
    skipped copies must reproduce."""
    size = comp.shape[-1]
    gamma = bvar._gamma(size)
    norm_slack = 1.0 + 2.0 * bvar._gamma(size * size + 1)
    root = np.sqrt(size)

    def frobenius_bound(a):
        frobenius = np.sqrt(np.einsum("...ij,...ij->...", a, a))
        return bvar._ROUND_UP * norm_slack * frobenius + bvar._TINY

    flags = np.zeros(comp.shape[0], dtype=bool)
    undecided = np.ones(comp.shape[0], dtype=bool)
    live = np.arange(comp.shape[0])
    power = comp
    norm = frobenius_bound(power)
    err = np.zeros(comp.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(bvar._CERT_SQUARINGS):
            power = power @ power
            err = bvar._ROUND_UP * ((2.0 * norm + 3.0 * err) * err + gamma * norm * norm) + bvar._TINY
            norm = frobenius_bound(power)
            trace = np.trace(power, axis1=-2, axis2=-1)
            stable = norm + err < 1.0 - bvar._CERT_MARGIN
            explosive = (
                np.abs(trace) - bvar._ROUND_UP * root * (err + gamma * norm)
                > size * (1.0 + bvar._CERT_MARGIN)
            )
            decided = stable | explosive
            flags[live[stable]] = True
            undecided[live[decided]] = False
            if decided.all():
                break
            keep = ~decided
            live, power, norm, err = live[keep], power[keep], norm[keep], err[keep]
    return flags, undecided


def undecided_after(monkeypatch, comp, squarings):
    """The undecided mask of ``_certified_flags`` stopped after ``squarings``
    squares, that is at C^(2^squarings)."""
    monkeypatch.setattr(bvar, "_CERT_SQUARINGS", squarings)
    return bvar._certified_flags(comp)[1]


class TestCertifiedFlagsCompaction:
    @staticmethod
    def stress_companions(draws=256):
        posterior = posterior_sample(stress_like_fit(), PriorSpec(kind="minnesota"), draws, seed=2)
        return bvar._companion_from_blocks(posterior.B[:, 1:, :], 8, 4)

    @classmethod
    def cases(cls):
        rng = np.random.default_rng(12)
        stress = cls.stress_companions()
        size = stress.shape[-1]
        small = 0.02 * rng.normal(size=(40, size, size))
        explosive = np.stack([embed(np.diag(np.full(3, r)), size) for r in (1.6, -2.5, 40.0)])
        nan = stress[:3].copy()
        nan[:, 0, 0] = np.nan
        q, _ = np.linalg.qr(rng.normal(size=(size, size)))
        edge = np.stack([(q * np.full(size, r)) @ q.T for r in (1.0 - 1e-9, 1.0 + 1e-9)])
        return {
            "decided_at_c2": small,
            "decided_at_c16": stress,
            "explosive": explosive,
            "nan": nan,
            "eigenvalue_fallback": edge,
            "mixed": np.concatenate([stress[:50], small[:7], nan, explosive, edge, stress[50:90]]),
        }

    def test_cases_reach_the_intended_squares(self, monkeypatch):
        cases = self.cases()
        assert not undecided_after(monkeypatch, cases["decided_at_c2"], 1).any()
        assert undecided_after(monkeypatch, cases["decided_at_c16"], 3).all()
        assert not undecided_after(monkeypatch, cases["decided_at_c16"], 4).all()
        monkeypatch.undo()
        for name in ("nan", "eigenvalue_fallback"):
            assert bvar._certified_flags(cases[name])[1].all(), name
        assert not bvar._certified_flags(cases["explosive"])[1].any()

    @pytest.mark.parametrize(
        "case",
        ["decided_at_c2", "decided_at_c16", "explosive", "nan", "eigenvalue_fallback", "mixed"],
    )
    def test_matches_the_compacting_loop(self, case):
        comp = self.cases()[case]
        flags, undecided = bvar._certified_flags(comp)
        want_flags, want_undecided = compacting_certified_flags(comp)
        assert flags.tobytes() == want_flags.tobytes()
        assert undecided.tobytes() == want_undecided.tobytes()
