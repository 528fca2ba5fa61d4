import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from newsvar.bvar import (
    PosteriorDraw,
    PosteriorDraws,
    PriorSpec,
    VarSpec,
    build_regressors,
    ols_estimate,
    posterior_sample,
)
from newsvar.errors import NumericalError
from newsvar.structural import (
    BAND_PERCENTILES,
    _percentile_bands,
    cholesky_rotate,
    compute_irf,
    decompose_residuals,
    irf_bands,
    rescale_irf,
    shock_irf_bands,
    standardize_shock,
)
from newsvar.synth import Dgp, simulate_var, true_irf


class TestCholeskyRotate:
    def test_identity(self):
        assert_array_equal(cholesky_rotate(np.eye(3)).L, np.eye(3))

    def test_hand_checked_2x2(self):
        # candidate factor [[2,0],[1,sqrt(2)]]; verified by direct multiplication
        lower = np.array([[2.0, 0.0], [1.0, np.sqrt(2.0)]])
        sigma = np.array([[4.0, 2.0], [2.0, 3.0]])
        assert_allclose(lower @ lower.T, sigma, atol=1e-15)
        assert_allclose(cholesky_rotate(sigma).L, lower, atol=1e-15)

    def test_indefinite_matrix_reports_eigenvalue(self):
        sigma = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
        with pytest.raises(NumericalError, match=r"smallest eigenvalue"):
            cholesky_rotate(sigma)

    def test_asymmetric_matrix_rejected(self):
        with pytest.raises(NumericalError, match="symmetric"):
            cholesky_rotate(np.array([[1.0, 0.5], [0.0, 1.0]]))

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(1, 6),
        scale=st.floats(0.01, 100.0),
    )
    def test_reconstruction_within_tolerance(self, seed, n, scale):
        rng = np.random.default_rng(seed)
        root = rng.normal(size=(n, n))
        sigma = scale * (root @ root.T + n * np.eye(n))
        lower = cholesky_rotate(sigma).L
        assert np.abs(lower @ lower.T - sigma).max() < 1e-10 * max(scale * n, 1.0)
        assert_array_equal(np.triu(lower, k=1), np.zeros((n, n)))
        assert np.all(np.diag(lower) > 0)


def ar1_draw(b=0.9, sigma=1.0):
    return PosteriorDraw(
        B=np.array([[b]]), Sigma=np.array([[sigma**2]]), stable=abs(b) < 1
    )


class TestComputeIrf:
    def test_no_dynamics_gives_impact_then_zero(self):
        spec = VarSpec(order=["a", "b"], lags=1)
        sigma = np.array([[4.0, 2.0], [2.0, 3.0]])
        draw = PosteriorDraw(B=np.zeros((3, 2)), Sigma=sigma, stable=True)
        out = compute_irf(draw, spec, 4)
        assert_allclose(out[0], cholesky_rotate(sigma).L, atol=1e-15)
        assert_array_equal(out[1:], np.zeros((4, 2, 2)))

    def test_scalar_ar1_geometric_decay(self):
        spec = VarSpec(order=["y"], lags=1, intercept=False)
        out = compute_irf(ar1_draw(0.9, 1.0), spec, 20)
        assert_allclose(out[:, 0, 0], 0.9 ** np.arange(21), rtol=1e-12)

    def test_zero_impact_above_diagonal_is_exact(self):
        rng = np.random.default_rng(5)
        spec = VarSpec(order=["a", "b", "c"], lags=2)
        root = rng.normal(size=(3, 3))
        draw = PosteriorDraw(
            B=rng.normal(scale=0.1, size=(7, 3)),
            Sigma=root @ root.T + 3 * np.eye(3),
            stable=True,
        )
        out = compute_irf(draw, spec, 0)
        for i in range(3):
            for j in range(i + 1, 3):
                assert out[0, i, j] == 0.0

    def test_matches_paired_simulation_oracle(self):
        # mean path difference between shocked and baseline simulations
        # sharing every innovation draw, 200k replications; in a linear
        # system the paired difference is deterministic, so the Monte
        # Carlo term is tiny and an absolute floor covers float noise
        rng = np.random.default_rng(2024)
        n, p, horizon, reps = 3, 2, 12, 200_000
        coefs = rng.normal(scale=0.25, size=(n * p, n))
        b = np.vstack([rng.normal(scale=0.1, size=(1, n)), coefs])
        root = rng.normal(size=(n, n))
        sigma = root @ root.T / n + np.eye(n)
        dgp = Dgp(B=b, L=np.linalg.cholesky(sigma), seed=77)
        assert dgp.spectral_radius < 0.95
        spec = dgp.var_spec
        draw = PosteriorDraw(B=b, Sigma=sigma, stable=True)
        responses = compute_irf(draw, spec, horizon)

        shock_idx = 0
        sim_rng = np.random.default_rng(99)
        history_base = [sim_rng.normal(size=(reps, n)) for _ in range(p)]
        base = list(history_base)
        shocked = [h.copy() for h in history_base]
        impulse = dgp.L[:, shock_idx]
        mean_diff = np.empty((horizon + 1, n))
        se_diff = np.empty((horizon + 1, n))
        for h in range(horizon + 1):
            eta = sim_rng.normal(size=(reps, n))
            innov = eta @ dgp.L.T
            new_base = dgp.B[0] + innov
            new_shocked = dgp.B[0] + innov
            for lag in range(1, p + 1):
                block = coefs[(lag - 1) * n: lag * n]
                new_base = new_base + base[-lag] @ block
                new_shocked = new_shocked + shocked[-lag] @ block
            if h == 0:
                new_shocked = new_shocked + impulse
            diff = new_shocked - new_base
            mean_diff[h] = diff.mean(axis=0)
            se_diff[h] = diff.std(axis=0, ddof=1) / np.sqrt(reps)
            base = base[1:] + [new_base]
            shocked = shocked[1:] + [new_shocked]
        gap = np.abs(mean_diff - responses[:, :, shock_idx])
        assert np.all(gap <= 2.0 * se_diff + 1e-8)

    def test_negative_horizon_rejected(self):
        spec = VarSpec(order=["y"], lags=1, intercept=False)
        with pytest.raises(ValueError, match="horizon"):
            compute_irf(ar1_draw(), spec, -1)


def whole_array_responses(draws, spec, horizon):
    """MA responses of all draws by one batched product per horizon over the
    whole (D, H+1, n, n) array: the recursion that irf_bands runs a block of
    draws at a time, with the same products for each draw."""
    d, n, p = len(draws), draws.B.shape[2], spec.lags
    blocks = draws.B[:, int(spec.intercept):, :].reshape(d, p, n, n)
    lagged = blocks[:, ::-1].transpose(0, 3, 1, 2).reshape(d, n, p * n)
    out = np.empty((d, horizon + 1, n, n))
    out[:, 0] = np.linalg.cholesky(draws.Sigma)
    for h in range(1, horizon + 1):
        m = min(h, p)
        np.matmul(lagged[:, :, (p - m) * n:], out[:, h - m: h].reshape(d, m * n, n), out=out[:, h])
    return out


class TestIrfBands:
    def test_identical_draws_collapse_bands(self):
        spec = VarSpec(order=["y"], lags=1, intercept=False)
        draws = [ar1_draw(0.5, 2.0)] * 5
        irfs = irf_bands(draws, spec, 6)
        assert_array_equal(irfs.lower, irfs.median)
        assert_array_equal(irfs.median, irfs.upper)

    def test_symmetric_draw_pairs_center_the_median(self):
        spec = VarSpec(order=["y"], lags=1, intercept=False)
        center = 0.5
        draws = []
        for delta in (0.01, 0.02, 0.05, 0.11):
            draws.append(ar1_draw(center + delta, 1.0))
            draws.append(ar1_draw(center - delta, 1.0))
        irfs = irf_bands(draws, spec, 1)
        # response at h=1 is linear in the coefficient, so the median of
        # symmetric pairs is the center value
        assert irfs.median[1, 0, 0] == pytest.approx(center, abs=1e-12)

    def test_band_ordering_everywhere(self):
        rng = np.random.default_rng(8)
        spec = VarSpec(order=["a", "b"], lags=1)
        draws = [
            PosteriorDraw(
                B=rng.normal(scale=0.2, size=(3, 2)),
                Sigma=np.eye(2) + 0.1 * rng.uniform(size=(1,)) * np.eye(2),
                stable=True,
            )
            for _ in range(40)
        ]
        irfs = irf_bands(draws, spec, 8)
        assert np.all(irfs.lower <= irfs.median + 1e-15)
        assert np.all(irfs.median <= irfs.upper + 1e-15)

    def test_single_draw_rejected(self):
        spec = VarSpec(order=["y"], lags=1, intercept=False)
        with pytest.raises(ValueError, match="at least 2"):
            irf_bands([ar1_draw()], spec, 2)

    @pytest.mark.parametrize(
        "lags,intercept,n_draws,horizon,nan_draw",
        [
            pytest.param(1, True, 50, 14, None, id="1-True"),
            pytest.param(3, False, 50, 14, None, id="3-False"),
            pytest.param(4, True, 50, 14, None, id="4-True"),
            pytest.param(3, False, 2, 14, None, id="3-False-2-draws"),
            pytest.param(4, True, 511, 14, None, id="4-True-511-draws"),
            pytest.param(1, True, 512, 14, None, id="1-True-512-draws"),
            pytest.param(3, False, 513, 14, 512, id="3-False-513-draws-nan"),
            pytest.param(4, True, 1100, 14, 1050, id="4-True-1100-draws-nan"),
            pytest.param(4, True, 1100, 2, 600, id="4-True-1100-draws-h2-nan"),
        ],
    )
    def test_batched_equals_per_draw_companion_powers(
        self, lags, intercept, n_draws, horizon, nan_draw
    ):
        # Draw counts on both sides of the 512-draw blocks of irf_bands; the
        # last case's horizon is shorter than its lag order.
        dgp = Dgp(
            B=np.array([[0.1, 0.0, -0.1], [0.6, 0.1, 0.0], [0.1, 0.5, 0.2], [0.0, -0.1, 0.4]]),
            L=np.array([[1.0, 0.0, 0.0], [0.3, 0.8, 0.0], [0.2, -0.4, 0.6]]),
            seed=5,
        )
        panel, _ = simulate_var(dgp, 120)
        spec = VarSpec(order=["y1", "y2", "y3"], lags=lags, intercept=intercept)
        fit = ols_estimate(*build_regressors(panel, spec), spec)
        draws = posterior_sample(fit, PriorSpec(kind="minnesota"), n_draws, seed=3)
        finite = np.ones(n_draws, dtype=bool)
        if nan_draw is not None:
            draws.B[nan_draw, int(intercept), 0] = np.nan
            finite[nan_draw] = False
        irfs = irf_bands(draws, spec, horizon)
        assert irfs.responses.flags.c_contiguous
        assert irfs.responses.tobytes() == whole_array_responses(draws, spec, horizon).tobytes()
        per_draw = np.stack([compute_irf(draws[i], spec, horizon) for i in np.flatnonzero(finite)])
        scale = np.abs(per_draw).max()
        assert irfs.responses[finite].shape == per_draw.shape
        assert np.abs(irfs.responses[finite] - per_draw).max() <= 1e-12 * scale
        if nan_draw is None:
            bands = np.percentile(per_draw, BAND_PERCENTILES, axis=0)
            for got, want in zip((irfs.lower, irfs.median, irfs.upper), bands):
                assert np.abs(got - want).max() <= 1e-12 * scale
        else:
            assert np.isnan(irfs.median[1:]).any() and not np.isnan(irfs.median[0]).any()
        own = np.percentile(irfs.responses, BAND_PERCENTILES, axis=0)
        assert_array_equal(np.stack([irfs.lower, irfs.median, irfs.upper]), own)

    def test_list_and_stacked_input_agree_exactly(self):
        rng = np.random.default_rng(2)
        spec = VarSpec(order=["a", "b"], lags=2)
        draws = [
            PosteriorDraw(
                B=rng.normal(scale=0.2, size=(5, 2)),
                Sigma=np.eye(2) * rng.uniform(0.5, 2.0),
                stable=True,
            )
            for _ in range(9)
        ]
        from_list = irf_bands(draws, spec, 6)
        from_stack = irf_bands(PosteriorDraws.stack(draws), spec, 6)
        assert_array_equal(from_list.responses, from_stack.responses)
        assert_array_equal(from_list.median, from_stack.median)

    def test_non_pd_draw_is_named(self):
        spec = VarSpec(order=["a", "b"], lags=1, intercept=False)
        draws = [PosteriorDraw(B=0.1 * np.eye(2), Sigma=np.eye(2), stable=True) for _ in range(4)]
        draws[2] = PosteriorDraw(B=0.1 * np.eye(2), Sigma=np.array([[1.0, 2.0], [2.0, 1.0]]), stable=True)
        with pytest.raises(NumericalError, match=r"draw 2: .*smallest eigenvalue"):
            irf_bands(draws, spec, 3)

    def test_asymmetric_draw_is_named(self):
        spec = VarSpec(order=["a", "b"], lags=1, intercept=False)
        draws = [PosteriorDraw(B=0.1 * np.eye(2), Sigma=np.eye(2), stable=True) for _ in range(4)]
        draws[3] = PosteriorDraw(B=0.1 * np.eye(2), Sigma=np.array([[1.0, 0.5], [0.0, 1.0]]), stable=True)
        with pytest.raises(NumericalError, match=r"draw 3: .*symmetric"):
            irf_bands(draws, spec, 3)

    def test_coefficient_layout_mismatch_rejected(self):
        spec = VarSpec(order=["y"], lags=2, intercept=False)
        with pytest.raises(ValueError, match="expected"):
            irf_bands([ar1_draw(), ar1_draw()], spec, 3)


def random_draws(d, n, lags, seed):
    """``d`` draws of a VAR(``lags``) in n variables with an intercept: small
    random coefficients and SPD covariances."""
    rng = np.random.default_rng(seed)
    spec = VarSpec([f"v{i}" for i in range(n)], lags, True)
    mix = rng.normal(size=(d, n, n))
    draws = PosteriorDraws(
        B=rng.normal(scale=0.5 / np.sqrt(lags * n), size=(d, spec.k, n)),
        Sigma=mix @ mix.transpose(0, 2, 1) + np.eye(n),
        stable=np.ones(d, dtype=bool),
    )
    return spec, draws


class TestShockIrfBands:
    """shock_irf_bands computes the responses a window of 2p horizons at a
    time and keeps one shock's; its bands and draws must be those of
    irf_bands to the bit."""

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize(
        "lags,horizon",
        [(p, h) for p in (1, 2, 4) for h in sorted({0, 1, 2 * p - 1, 2 * p, 20})],
    )
    def test_equals_irf_bands_to_the_bit(self, lags, horizon, n):
        # Horizons inside one window, at its edge and across several; draw
        # counts on both sides of the 512-draw tiles.
        for d in (2, 511, 513, 1100):
            spec, draws = random_draws(d, n, lags, seed=d + 10 * horizon + 1000 * lags + n)
            full = irf_bands(draws, spec, horizon)
            for shock in {0, n - 1}:
                bands, one = shock_irf_bands(draws, spec, horizon, shock)
                assert bands.tobytes() == np.stack([full.lower, full.median, full.upper]).tobytes()
                assert one.responses.shape == (d, horizon + 1, n, 1)
                assert one.responses.tobytes() == full.responses[..., shock:shock + 1].tobytes()
                for name in ("lower", "median", "upper"):
                    got, want = getattr(one, name), getattr(full, name)[..., shock:shock + 1]
                    assert got.tobytes() == want.tobytes()
                assert one.shocks == [spec.order[shock]]
                assert one.variables == full.variables
                assert_array_equal(one.horizons, full.horizons)

    def test_holds_less_than_every_shocks_responses(self):
        # n=6, p=2, 3000 draws, H=20: every shock's responses take 18.1 MB;
        # a window of 4 horizons (3.5 MB), the kept shock (3 MB) and the
        # sort buffer (2 MB) peaked at 0.53x that.
        spec, draws = random_draws(3000, 6, 2, seed=0)
        responses = 3000 * 21 * 6 * 6 * 8
        tracemalloc.start()
        try:
            shock_irf_bands(draws, spec, 20, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.6 * responses, peak / responses

    def test_bad_arguments_rejected(self):
        spec, draws = random_draws(4, 2, 1, seed=0)
        with pytest.raises(ValueError, match="out of range"):
            shock_irf_bands(draws, spec, 3, 2)
        with pytest.raises(ValueError, match="horizon must be >= 0"):
            shock_irf_bands(draws, spec, -1, 0)
        with pytest.raises(ValueError, match="at least 2"):
            shock_irf_bands([draws[0]], spec, 3, 0)


class TestBandCoverage:
    """Oracle for the printed bands: under a flat prior and a stable DGP,
    pointwise 68% posterior bands cover the true response in about 68% of
    repeated samples (Bernstein-von Mises)."""

    REPS = 300
    # Binomial Monte Carlo SE of one cell's coverage over REPS samples,
    # 0.027. Over six sets of 300 seeds a cell read 0.607-0.733 and the
    # mean over cells 0.650-0.675 (T=200 leaves a small finite-sample
    # shortfall), so a cell may stray 4 SE and the mean 0.06.
    SE = (0.68 * 0.32 / REPS) ** 0.5

    def test_bands_cover_the_true_responses(self):
        # radius 0.6, correlated shocks; T=200, 500 draws, H=4
        b = np.array([[0.1, -0.1], [0.5, 0.2], [0.1, 0.4]])
        lower = np.array([[1.0, 0.0], [0.5, 0.8]])
        dgp = Dgp(B=b, L=lower)
        assert dgp.spectral_radius == pytest.approx(0.6)
        truth = true_irf(dgp, 4)
        hits = np.zeros(truth.shape)
        for rep in range(self.REPS):
            dgp = Dgp(B=b, L=lower, seed=rep)
            panel, _ = simulate_var(dgp, 200)
            spec = dgp.var_spec
            fit = ols_estimate(*build_regressors(panel, spec), spec)
            irfs = irf_bands(posterior_sample(fit, PriorSpec(kind="flat"), 500, seed=rep), spec, 4)
            hits += (irfs.lower <= truth) & (truth <= irfs.upper)
        coverage = hits / self.REPS
        # the first variable's impact response to the second shock is a
        # structural zero of the Cholesky ordering, covered by every band
        assert coverage[0, 0, 1] == 1.0
        cells = np.delete(coverage.ravel(), np.ravel_multi_index((0, 0, 1), truth.shape))
        assert abs(cells.mean() - 0.68) < 0.06, cells.mean()
        assert np.all(np.abs(cells - 0.68) < 4 * self.SE), coverage


class TestRescaleIrf:
    def make_bands(self, seed=3, n=2, horizon=12):
        rng = np.random.default_rng(seed)
        spec = VarSpec(order=["tfp", "stock"][:n], lags=1)
        draws = [
            PosteriorDraw(
                B=rng.normal(scale=0.2, size=(n + 1, n)),
                Sigma=np.eye(n) * rng.uniform(0.5, 2.0),
                stable=True,
            )
            for _ in range(30)
        ]
        return irf_bands(draws, spec, horizon)

    def test_already_on_target_is_identity(self):
        irfs = self.make_bands()
        target = float(irfs.median[10, 0, 0])
        out = rescale_irf(irfs, 0, "tfp", 10, target)
        assert_array_equal(out.responses, irfs.responses)
        assert_array_equal(out.median, irfs.median)

    def test_target_hit_exactly(self):
        irfs = self.make_bands()
        out = rescale_irf(irfs, 0, "tfp", 10, 1.0)
        assert out.median[10, 0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_ratios_within_shock_preserved(self):
        irfs = self.make_bands()
        out = rescale_irf(irfs, 0, "tfp", 10, 1.0)
        orig = irfs.responses[:, :, :, 0].ravel()
        scaled = out.responses[:, :, :, 0].ravel()
        keep = np.abs(orig) > 1e-6 * np.abs(orig).max()
        orig, scaled = orig[keep], scaled[keep]
        ratio_before = orig[1:] / orig[0]
        ratio_after = scaled[1:] / scaled[0]
        assert np.abs(ratio_after - ratio_before).max() <= 1e-12 * np.abs(
            ratio_before
        ).max()
        # other shocks untouched
        assert_array_equal(out.responses[:, :, :, 1], irfs.responses[:, :, :, 1])

    @pytest.mark.parametrize("shock, target", [(0, 1.0), (1, -0.3)])
    def test_input_is_left_alone_and_nothing_is_shared(self, shock, target):
        irfs = self.make_bands(seed=6)
        arrays = ("responses", "horizons", "lower", "median", "upper")
        before = {name: getattr(irfs, name).copy() for name in arrays}
        lists = {name: list(getattr(irfs, name)) for name in ("variables", "shocks")}
        note = irfs.scale_note
        out = rescale_irf(irfs, shock, "stock", 4, target)
        for name in arrays:
            assert getattr(irfs, name).tobytes() == before[name].tobytes(), name
            for other in arrays:
                assert not np.shares_memory(getattr(out, other), getattr(irfs, name)), (other, name)
        for name, value in lists.items():
            assert getattr(irfs, name) == value
            assert getattr(out, name) == value and getattr(out, name) is not getattr(irfs, name)
        assert irfs.scale_note == note

    @pytest.mark.parametrize("shock, target", [(0, 1.0), (1, -0.3)])
    def test_one_shock_scaled_exactly_others_keep_their_bytes(self, shock, target):
        irfs = self.make_bands(seed=6)
        out = rescale_irf(irfs, shock, "stock", 4, target)
        factor = target / irfs.median[4, 1, shock]
        scaled = irfs.responses[..., shock] * factor
        assert out.responses[..., shock].tobytes() == scaled.tobytes()
        other = 1 - shock
        assert out.responses[..., other].tobytes() == irfs.responses[..., other].tobytes()
        for band in ("lower", "median", "upper"):
            kept = getattr(irfs, band)[..., other]
            assert getattr(out, band)[..., other].tobytes() == kept.tobytes()

    def test_zero_median_rejected(self):
        irfs = self.make_bands()
        irfs.median[5, 0, 0] = 0.0
        with pytest.raises(NumericalError, match="zero"):
            rescale_irf(irfs, 0, "tfp", 5, 1.0)

    def test_negative_median_flips_sign_and_hits_target(self):
        irfs = self.make_bands(seed=10)
        irfs = rescale_irf(irfs, 0, "tfp", 3, -0.5)
        out = rescale_irf(irfs, 0, "tfp", 3, 1.0)
        assert out.median[3, 0, 0] == pytest.approx(1.0, abs=1e-12)
        assert np.all(out.lower <= out.median + 1e-15)
        assert np.all(out.median <= out.upper + 1e-15)


def awkward_draws(d, seed=0):
    """(d, 4, 3, 2) draws with ties, +-inf and a NaN draw in some cells."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(d, 4, 3, 2))
    x[:, 0] = np.round(x[:, 0], 1)
    x[:, 1, 0] = 0.25
    pick = rng.random(x.shape)
    x[pick < 0.05] = np.inf
    x[pick > 0.95] = -np.inf
    x[d // 2, 2, 1, 0] = np.nan
    x[0, 3, :, 1] = np.nan
    return x


class TestPercentileBands:
    @pytest.mark.parametrize("d", [1, 2, 3, 5, 511, 512, 513, 4097])
    def test_equals_numpy_percentile(self, d):
        x = awkward_draws(d, seed=d)
        before = x.copy()
        with np.errstate(invalid="ignore"):
            got = _percentile_bands(x)
            want = np.percentile(x, BAND_PERCENTILES, axis=0)
        assert_array_equal(got, want)
        assert np.isnan(got[:, 3, :, 1]).all()
        assert_array_equal(x, before)

    @pytest.mark.parametrize("d", [3, 513])
    def test_strided_shock_column(self, d):
        x = awkward_draws(d, seed=7)[:, :, :, 1]
        assert not x.flags.c_contiguous
        with np.errstate(invalid="ignore"):
            assert_array_equal(_percentile_bands(x), np.percentile(x, BAND_PERCENTILES, axis=0))

    @pytest.mark.parametrize("target", [0.7, -1.3])
    def test_rescaled_bands_equal_numpy_percentile(self, target):
        irfs = TestRescaleIrf().make_bands(seed=4)
        out = rescale_irf(irfs, 1, "stock", 6, target)
        want = np.percentile(out.responses, BAND_PERCENTILES, axis=0)
        assert_array_equal(np.stack([out.lower, out.median, out.upper]), want)

    @pytest.mark.parametrize("view", [False, True])
    def test_many_cells_span_groups(self, view):
        # 2 x 84 + 7 cells, so the last group is partial; a NaN, a tie and
        # infinities fall in different groups
        x = np.random.default_rng(5).normal(size=(513, 7, 5, 5 + view))
        x[:, 6, 4] = -np.inf
        x[:, 0, 0, 0] = 0.5
        x[100, 3, 2, 1] = np.nan
        x[7, 6, 3, 2] = np.inf
        if view:
            x = x[..., 1:]
            assert not x.flags.c_contiguous
        with np.errstate(invalid="ignore"):
            got = _percentile_bands(x)
            want = np.percentile(x, BAND_PERCENTILES, axis=0)
        assert_array_equal(got, want)
        assert np.isnan(got[:, 3, 2, 1 - view]).all()

    def test_peak_memory_is_a_fraction_of_the_responses(self):
        # tracemalloc counts numpy's buffers; a draws-last copy of every
        # cell peaked at 1.00x the responses, the group buffer at 0.11x
        x = np.random.default_rng(6).normal(size=(2000, 21, 6, 6))
        tracemalloc.start()
        try:
            _percentile_bands(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * x.nbytes, peak / x.nbytes

    def test_bands_do_not_call_numpy_percentile(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("np.percentile called")

        monkeypatch.setattr(np, "percentile", refuse)
        irfs = TestRescaleIrf().make_bands()
        rescale_irf(irfs, 0, "tfp", 10, 1.0)


class TestDecomposeResiduals:
    def test_self_projection(self):
        rng = np.random.default_rng(0)
        e = rng.normal(size=200)
        dec = decompose_residuals(e, e)
        assert dec.gamma == pytest.approx(1.0, abs=1e-14)
        assert np.abs(dec.idiosyncratic).max() < 1e-12
        assert dec.r2 == pytest.approx(1.0, abs=1e-14)

    def test_orthogonal_series(self):
        # alternate +/- patterns with exactly zero sample inner product
        ref = np.array([1.0, -1.0, 1.0, -1.0])
        tar = np.array([1.0, 1.0, -1.0, -1.0])
        dec = decompose_residuals(ref, tar)
        assert dec.gamma == 0.0
        assert dec.r2 == 0.0
        assert_array_equal(dec.idiosyncratic, tar)

    def test_r2_anchor_at_long_sample(self):
        # slope 0.8 with noise variance slope^2*(1-R2)/R2 gives population R2
        slope, population_r2 = 0.8, 0.43
        noise_sd = slope * np.sqrt((1.0 - population_r2) / population_r2)
        rng = np.random.default_rng(123)
        ref = rng.standard_normal(2000)
        tar = slope * ref + noise_sd * rng.standard_normal(2000)
        dec = decompose_residuals(ref, tar)
        assert abs(dec.r2 - population_r2) < 0.03

    def test_r2_anchor_at_short_sample(self):
        slope, population_r2 = 0.8, 0.43
        noise_sd = slope * np.sqrt((1.0 - population_r2) / population_r2)
        rng = np.random.default_rng(15)
        ref = rng.standard_normal(224)
        tar = slope * ref + noise_sd * rng.standard_normal(224)
        dec = decompose_residuals(ref, tar)
        assert 0.33 <= dec.r2 <= 0.53

    def test_zero_variance_reference_rejected(self):
        with pytest.raises(NumericalError, match="zero variance"):
            decompose_residuals(np.full(10, 2.0), np.arange(10.0))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            decompose_residuals(np.ones(4), np.ones(5))

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        length=st.integers(3, 400),
        scale=st.floats(0.05, 10.0),
        mean=st.floats(-5.0, 5.0),
    )
    def test_reconstruction_and_orthogonality(self, seed, length, scale, mean):
        rng = np.random.default_rng(seed)
        ref = rng.normal(loc=mean, scale=scale, size=length)
        tar = rng.normal(loc=mean, scale=scale, size=length)
        dec = decompose_residuals(ref, tar)
        assert np.abs(dec.common + dec.idiosyncratic - tar).max() < 1e-12
        assert abs(float(dec.common @ dec.idiosyncratic) / length) < 1e-10
        assert_allclose(dec.common, dec.gamma * ref, rtol=0, atol=1e-15)
        assert 0.0 <= dec.r2 <= 1.0

    def test_ordering_equivalence_with_second_cholesky_shock(self):
        # the projection remainder and the second structural shock from a
        # two-variable Cholesky rotation are the same series up to scale
        rng = np.random.default_rng(31)
        for _ in range(100):
            t = int(rng.integers(30, 300))
            mix = rng.normal(size=(2, 2)) + np.eye(2)
            resid = rng.normal(size=(t, 2)) @ mix.T
            sigma = resid.T @ resid / t
            lower = np.linalg.cholesky(sigma)
            structural = np.linalg.solve(lower, resid.T).T
            dec = decompose_residuals(resid[:, 0], resid[:, 1])
            corr = np.corrcoef(structural[:, 1], dec.idiosyncratic)[0, 1]
            assert corr > 1.0 - 1e-8

    def test_projection_on_target_is_weighted_component_combination(self):
        # coefficient of any outcome on the target residual equals the
        # sum-of-squares-weighted combination of the component coefficients
        rng = np.random.default_rng(77)
        ref = rng.normal(size=300)
        tar = 0.6 * ref + rng.normal(size=300)
        outcome = rng.normal(size=300) + 0.3 * tar
        dec = decompose_residuals(ref, tar)
        beta_target = outcome @ tar / (tar @ tar)
        beta_common = outcome @ dec.common / (dec.common @ dec.common)
        beta_idio = outcome @ dec.idiosyncratic / (
            dec.idiosyncratic @ dec.idiosyncratic
        )
        w_common = dec.common @ dec.common / (tar @ tar)
        w_idio = dec.idiosyncratic @ dec.idiosyncratic / (tar @ tar)
        assert beta_target == pytest.approx(
            w_common * beta_common + w_idio * beta_idio, rel=1e-12
        )


class TestStandardizeShock:
    def test_sd_two_halves_elements(self):
        s = np.array([2.0, -2.0, 2.0, -2.0])  # sd exactly 2
        assert_array_equal(standardize_shock(s), s / 2.0)

    def test_unit_sd_series_unchanged(self):
        rng = np.random.default_rng(4)
        s = rng.normal(size=500)
        s = s / np.std(s)
        assert_allclose(standardize_shock(s), s, atol=1e-12)

    def test_output_sd_is_one(self):
        rng = np.random.default_rng(9)
        s = rng.normal(loc=3.0, scale=7.0, size=100)
        out = standardize_shock(s)
        assert np.std(out) == pytest.approx(1.0, abs=1e-12)
        # mean is rescaled, not removed
        assert out.mean() == pytest.approx(s.mean() / np.std(s), rel=1e-12)

    def test_constant_series_rejected(self):
        with pytest.raises(NumericalError, match="constant"):
            standardize_shock(np.full(5, 3.3))

    def test_constant_series_with_inexact_mean_rejected(self):
        # np.std of this series is about 2.2e-16, not 0, because its mean
        # rounds; before, it was divided through to values near 3.2e15
        series = np.full(50, 0.7)
        assert np.std(series) > 0.0
        with pytest.raises(NumericalError, match="constant"):
            standardize_shock(series)
