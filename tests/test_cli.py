import csv
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
import yaml
from numpy.testing import assert_array_equal

import misuse
import newsvar
from golden import synthetic_pipeline
from newsvar import cli, structural
from newsvar.bvar import PosteriorDraws, VarSpec, posterior_sample
from newsvar.errors import DataError
from newsvar.panel import load_panel
from newsvar.patentval import filter_value
from newsvar.structural import irf_bands, irf_to_csv, irf_to_json, rescale_irf


def write_yaml(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


SIMULATE_YAML = """
out: work
seed: 3
dgp:
  coefficients: [[0.1, 0.0], [0.5, 0.1], [0.0, 0.4]]
  impact: [[1.0, 0.0], [0.5, 0.8]]
  periods: 300
  burn_in: 100
  start: 1900Q1
  names: [ng, g]
"""

ESTIMATE_YAML = """
out: work
data: work/panel.csv
variables: [ng, g]
lags: 1
prior: {kind: flat}
draws: 60
seed: 4
horizon: 8
"""

INDEX_YAML = """
out: work
index:
  events: events.csv
  sigma_v: 0.02
  sigma_e: 0.02
"""


def run_pipeline(tmp_path):
    sim_cfg = write_yaml(tmp_path / "sim.yaml", SIMULATE_YAML)
    est_cfg = write_yaml(tmp_path / "est.yaml", ESTIMATE_YAML)
    assert cli.main(["simulate", "--config", sim_cfg]) == 0
    assert cli.main(["estimate", "--config", est_cfg]) == 0
    assert cli.main(["irf", "--config", est_cfg]) == 0
    return tmp_path / "work"


class TestPipeline:
    def test_simulate_estimate_irf_artifacts(self, tmp_path, capsys):
        work = run_pipeline(tmp_path)
        for name in (
            "panel.csv",
            "structural_shocks.csv",
            "posterior_coefficients.npy",
            "posterior.json",
            "irf.csv",
            "irf.json",
            "irf_ng.svg",
            "irf_g.svg",
            "manifest.json",
        ):
            assert (work / name).exists(), name

        with open(work / "irf.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["shock"] for r in rows} == {"ng", "g"}
        assert {r["variable"] for r in rows} == {"ng", "g"}
        # Cholesky zero block: ng does not react on impact to the g shock
        impact = [
            r for r in rows
            if r["shock"] == "g" and r["variable"] == "ng" and r["horizon"] == "0"
        ]
        assert len(impact) == 1
        assert float(impact[0]["median"]) == 0.0
        assert float(impact[0]["lower"]) == 0.0 == float(impact[0]["upper"])

    def test_irf_bands_are_ordered(self, tmp_path):
        work = run_pipeline(tmp_path)
        with open(work / "irf.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                lo, mid, up = (float(row[k]) for k in ("lower", "median", "upper"))
                assert lo <= mid <= up

    def test_transforms_and_sample_range_through_pipeline(self, tmp_path):
        rng = np.random.default_rng(31)
        t = 120
        level = np.exp(np.cumsum(0.01 * rng.normal(size=(t, 2)), axis=0)) * 100.0
        with open(tmp_path / "panel.csv", "w", encoding="utf-8") as fh:
            fh.write("date,gdp,cpi\n")
            for i in range(t):
                fh.write(
                    f"{1960 + i // 4}Q{i % 4 + 1},"
                    f"{float(level[i, 0])!r},{float(level[i, 1])!r}\n"
                )
        cfg = write_yaml(
            tmp_path / "c.yaml",
            """
out: work
data: panel.csv
transforms: {gdp: log-level, cpi: log-level}
sample: {start: 1961Q1, end: 1985Q4}
variables: [gdp, cpi]
lags: 2
prior: {kind: flat}
draws: 20
seed: 1
horizon: 4
""",
        )
        assert cli.main(["estimate", "--config", cfg]) == 0
        meta = json.loads((tmp_path / "work" / "posterior.json").read_text())
        assert meta["order"] == ["gdp", "cpi"]
        coeffs = np.load(tmp_path / "work" / "posterior_coefficients.npy")
        # 1961Q1..1985Q4 inclusive = 100 quarters, so 98 usable rows and
        # a (1 + 2*2) x 2 coefficient matrix per draw
        assert coeffs.shape == (20, 5, 2)

    def test_rescale_from_config(self, tmp_path):
        run_pipeline(tmp_path)
        cfg = write_yaml(
            tmp_path / "irf2.yaml",
            ESTIMATE_YAML + "\nrescale: {variable: g, horizon: 4, value: 1.0}\n",
        )
        assert cli.main(["irf", "--config", cfg]) == 0
        payload = json.loads((tmp_path / "work" / "irf.json").read_text())
        g_idx = payload["variables"].index("g")
        assert payload["median"][4][g_idx][0] == pytest.approx(1.0, abs=1e-12)
        assert "rescaled" in payload["scale_note"]


def estimate_var(tmp_path, n, draws, horizon, lags=1):
    """Simulate an n-variable VAR(1) through the CLI into ``work`` and
    estimate a VAR(``lags``) posterior there; returns the estimate config
    as a dict."""
    names = [f"v{i}" for i in range(n)]
    lag1 = 0.4 * np.eye(n) + 0.1 * np.tri(n, k=-1)
    dgp = {
        "coefficients": [[0.1] * n, *lag1.tolist()],
        "impact": (np.eye(n) + 0.3 * np.tri(n, k=-1)).tolist(),
        "periods": 200, "burn_in": 50, "names": names,
    }
    est = {
        "out": "work", "data": "work/panel.csv", "variables": names, "lags": lags,
        "prior": {"kind": "flat"}, "draws": draws, "seed": 2, "horizon": horizon,
    }
    for command, doc in (("simulate", {"out": "work", "seed": 5, "dgp": dgp}), ("estimate", est)):
        cfg = write_yaml(tmp_path / f"{command}.yaml", yaml.safe_dump(doc))
        assert cli.main([command, "--config", cfg]) == 0
    return est


class TestRescaleOneShock:
    """The CLI bands the responses a window of horizons at a time, keeps no
    draws and rescales the reported shock's bands; its artifacts must be
    those of the library's full ``irf_bands`` and ``rescale_irf``."""

    @pytest.fixture(scope="class")
    def estimated(self, tmp_path_factory):
        # p=1: one window of the 7 horizons, in one tile of draws
        tmp_path = tmp_path_factory.mktemp("rescale")
        return tmp_path, estimate_var(tmp_path, n=3, draws=300, horizon=6)

    @pytest.fixture(scope="class")
    def estimated_p4(self, tmp_path_factory):
        # p=4: windows of 5 horizons (seventeen for H=20) over three 512-draw tiles
        tmp_path = tmp_path_factory.mktemp("rescale_p4")
        return tmp_path, estimate_var(tmp_path, n=3, draws=1100, horizon=20, lags=4)

    @staticmethod
    def assert_library_rescale(tmp_path, est, shock, value):
        names, work = est["variables"], tmp_path / "work"
        rescale = {"variable": "v1", "horizon": 3, "value": value}
        cfg = write_yaml(
            tmp_path / "irf.yaml",
            yaml.safe_dump({**est, "irf_shock": names[shock], "rescale": rescale}),
        )
        assert cli.main(["irf", "--config", cfg]) == 0

        draws = PosteriorDraws(*(
            np.load(work / f"posterior_{name}.npy")
            for name in ("coefficients", "covariances", "stable")
        ))
        irfs = rescale_irf(
            irf_bands(draws, VarSpec(names, est["lags"], True), est["horizon"]),
            shock, "v1", 3, value,
        )
        assert "rescaled" in irfs.scale_note
        irf_to_csv(irfs, tmp_path / "want.csv")
        irf_to_json(irfs, tmp_path / "want.json")
        assert (work / "irf.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
        assert (work / "irf.json").read_bytes() == (tmp_path / "want.json").read_bytes()

    @pytest.mark.parametrize("value", [0.7, -2.5])
    @pytest.mark.parametrize("shock", [0, 1, 2])
    def test_artifacts_equal_the_library_rescale(self, estimated, shock, value):
        self.assert_library_rescale(*estimated, shock, value)

    @pytest.mark.parametrize("value", [0.7, -2.5])
    @pytest.mark.parametrize("shock", [0, 2])
    def test_artifacts_equal_the_library_rescale_across_windows(self, estimated_p4, shock, value):
        self.assert_library_rescale(*estimated_p4, shock, value)

    def test_rescaled_structural_zeros_carry_one_sign(self, tmp_path):
        # The README demo with tfp's responses rescaled through ng at h=6, a
        # factor of about -1078.8. ng and g do not respond to tfp on impact.
        # before: the bands of the rescaled draws wrote tfp,ng,0,-0.0,-0.0,0.0
        synthetic_pipeline.write_inputs(tmp_path, periods=2000, draws=500, seed=314)
        cfg = tmp_path / "run.yaml"
        with cfg.open("a", encoding="utf-8") as fh:
            fh.write("irf_shock: tfp\nrescale: {variable: ng, horizon: 6, value: 2.5}\n")
        assert cli.main(["estimate", "--config", str(cfg)]) == 0
        assert cli.main(["irf", "--config", str(cfg)]) == 0
        irf = json.loads((tmp_path / "irf.json").read_text(encoding="utf-8"))
        bands = np.array([irf[band] for band in ("lower", "median", "upper")])
        zeros = (bands == 0.0).all(axis=0)
        assert zeros[0, :2, 2].all()
        signs = np.signbit(bands[:, zeros])
        assert (signs == signs[0]).all(), signs

    @pytest.fixture
    def heap_posterior(self, monkeypatch):
        """``cli._posterior_draws`` handing the step heap copies of B and
        Sigma. The files are read memory-mapped, out of tracemalloc's
        sight; the copies are counted exactly while the step holds them."""
        load = cli._posterior_draws

        def on_heap(*args):
            draws = load(*args)
            return PosteriorDraws(np.array(draws.B), np.array(draws.Sigma), draws.stable)

        monkeypatch.setattr(cli, "_posterior_draws", on_heap)

    def test_irf_holds_one_copy_of_the_responses(self, tmp_path, heap_posterior):
        # tracemalloc counts numpy's buffers. With n=6 and 3000 draws the
        # responses take 18.1 MB; irf peaked at 2.27x that while the bands
        # sorted a draws-last copy of every cell and rescale_irf copied
        # every shock, at 1.38x with a small sort buffer and a one-shock
        # rescale that still held the posterior, at 1.28x once the posterior
        # is let go before the rescale, at 0.51x once the responses are
        # banded a window of 2p horizons at a time and only the reported
        # shock's draws are kept, at 0.34x once no draws are kept and the
        # rescale scales the bands, and at 0.30x once the bands are handed
        # the only reference to the posterior, let it go after gathering the
        # lag operators and band windows of p+1 horizons.
        est = estimate_var(tmp_path, n=6, draws=3000, horizon=20)
        rescale = {"variable": "v1", "horizon": 3, "value": -2.0}
        cfg = write_yaml(tmp_path / "irf.yaml", yaml.safe_dump({**est, "rescale": rescale}))
        config = cli.load_config(cfg)
        tracemalloc.start()
        try:
            cli.run(config, "irf")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        responses = 3000 * 21 * 6 * 6 * 8
        assert peak < 0.33 * responses, peak / responses

    def test_irf_bands_without_the_posterior(self, tmp_path, monkeypatch):
        # before: cmd_irf held B and Sigma until irf_band_summary returned
        est = estimate_var(tmp_path, n=3, draws=700, horizon=8, lags=2)
        config = cli.load_config(write_yaml(tmp_path / "irf.yaml", yaml.safe_dump(est)))
        refs, alive = [], []
        load, banded = cli._posterior_draws, structural._banded_responses

        def spy_load(*args):
            draws = load(*args)
            refs.extend(weakref.ref(obj) for obj in (draws, draws.B, draws.Sigma))
            return draws

        def spy_banded(*args):
            alive.append([ref() is not None for ref in refs])
            return banded(*args)

        monkeypatch.setattr(cli, "_posterior_draws", spy_load)
        monkeypatch.setattr(structural, "_banded_responses", spy_banded)
        cli.run(config, "irf")
        assert alive == [[False, False, False]]

    def test_estimate_holds_the_posterior_and_one_chunk(self, tmp_path):
        # n=3, p=2, 20000 draws: B and Sigma take 4.8 MB. estimate peaked at
        # 3.02x that while posterior_sample held every draw's normals z, two
        # products of them and B at once, and at 1.27x once z and B are
        # formed a 1024-draw chunk at a time.
        est = estimate_var(tmp_path, n=3, draws=20000, horizon=4, lags=2)
        config = cli.load_config(write_yaml(tmp_path / "again.yaml", yaml.safe_dump(est)))
        posterior = 20000 * (7 * 3 + 3 * 3) * 8
        tracemalloc.start()
        try:
            cli.run(config, "estimate")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * posterior, peak / posterior

    def test_run_trims_the_heap_once_per_command(self, tmp_path, monkeypatch):
        # Each call records whether the output directory is still there and
        # the manifest written: the trim comes after the command, and after a
        # failed one has removed the directory it made.
        work, trims = tmp_path / "work", []

        def spy(pad):
            trims.append((pad, work.exists(), (work / "manifest.json").exists()))

        monkeypatch.setattr(cli, "_malloc_trim", spy)
        est = cli.load_config(write_yaml(tmp_path / "est.yaml", ESTIMATE_YAML))
        with pytest.raises(DataError, match="panel.csv"):
            cli.run(est, "estimate")  # before simulate, so the data is missing
        assert trims == [(0, False, False)]
        cli.run(cli.load_config(write_yaml(tmp_path / "sim.yaml", SIMULATE_YAML)), "simulate")
        assert trims == [(0, False, False), (0, True, True)]

    def test_irf_peaks_no_higher_than_its_bands(self, tmp_path, heap_posterior):
        # At p=4 the posterior (4.5 MB here) outweighs the one-shock
        # rescale's copy (3 MB), so the step peaked at irf_bands (1.00x)
        # only when the posterior was let go first; holding it, the run
        # peaked at 1.12x the bands. Banding a window of 8 horizons at a
        # time and keeping one shock's draws, it peaked at 0.68x; keeping
        # no draws and scaling the bands, at 0.57x; letting the posterior go
        # once the lag operators are gathered, with windows of 5 horizons,
        # at 0.37x while the posterior files were mapped out of
        # tracemalloc's sight, and at 0.41x counting heap copies of B and
        # Sigma.
        est = estimate_var(tmp_path, n=6, draws=3000, horizon=20, lags=4)
        rescale = {"variable": "v1", "horizon": 3, "value": -2.0}
        cfg = write_yaml(tmp_path / "irf.yaml", yaml.safe_dump({**est, "rescale": rescale}))
        config = cli.load_config(cfg)
        spec = VarSpec(est["variables"], 4, True)
        tracemalloc.start()
        try:
            draws = PosteriorDraws(*(
                np.load(tmp_path / "work" / f"posterior_{name}.npy")
                for name in ("coefficients", "covariances", "stable")
            ))
            irf_bands(draws, spec, 20)
            bands = tracemalloc.get_traced_memory()[1]
            del draws
            tracemalloc.reset_peak()
            cli.run(config, "irf")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.47 * bands, peak / bands


class TestPosteriorArtifact:
    STALE_ESTIMATE = """
out: work
data: panel.csv
variables: [a, b, c]
lags: 2
prior: {kind: minnesota, tightness: 0.2}
draws: 20
seed: 1
horizon: 4
"""

    def write_panel(self, tmp_path):
        rng = np.random.default_rng(12)
        values = np.cumsum(0.1 * rng.normal(size=(80, 3)), axis=0)
        with open(tmp_path / "panel.csv", "w", encoding="utf-8") as fh:
            fh.write("date,a,b,c\n")
            for i, row in enumerate(values):
                fh.write(f"{1960 + i // 4}Q{i % 4 + 1}," + ",".join(repr(float(v)) for v in row) + "\n")

    def estimate(self, tmp_path):
        self.write_panel(tmp_path)
        cfg = write_yaml(tmp_path / "est.yaml", self.STALE_ESTIMATE)
        assert cli.main(["estimate", "--config", cfg]) == 0
        return cfg

    def test_round_trip_is_lossless(self, tmp_path):
        cfg = self.estimate(tmp_path)
        config = cli.load_config(cfg)
        fit = cli._fit(config, cli._load_pipeline(config), "estimate")
        expected = posterior_sample(fit, cli._prior_spec(config), config.draws, config.seed)
        loaded_spec, n_draws = cli._posterior_spec(Path(config.out), config)
        loaded = cli._posterior_draws(Path(config.out), loaded_spec, n_draws)
        assert loaded_spec == fit.spec
        for name in ("B", "Sigma", "stable"):
            got, want = getattr(loaded, name), getattr(expected, name)
            assert got.dtype == want.dtype
            assert_array_equal(got, want)

    def test_stored_order_is_the_default(self, tmp_path):
        self.estimate(tmp_path)
        unordered = write_yaml(
            tmp_path / "irf.yaml", self.STALE_ESTIMATE.replace("variables: [a, b, c]\n", "")
        )
        assert cli.main(["irf", "--config", unordered, "--draws", "5", "--horizon", "3"]) == 0


def fresh_python(code: str) -> str:
    """Standard output of ``code`` run in a new interpreter on this
    checkout's ``newsvar``."""
    src = str(Path(newsvar.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    return result.stdout.strip()


def test_cli_import_leaves_scipy_stats_unloaded():
    assert fresh_python("import sys, newsvar.cli; print('scipy.stats' in sys.modules)") == "False"


@pytest.mark.parametrize("module", ["newsvar", "newsvar.cli"])
def test_cli_import_leaves_scipy_special_unloaded(module):
    # no command needs it: patentval values patents with its own erfcx
    probe = (
        f"import sys, {module}; "
        "print(sorted({'scipy.special', 'scipy.stats'} & set(sys.modules)))"
    )
    assert fresh_python(probe) == "[]"


def test_deferred_special_import_gives_the_same_values():
    # a fresh interpreter values without scipy.special, and its values equal
    # those of this process, where the tests have loaded scipy.special;
    # strongly negative returns are where erfcx, not a naive phi/Phi, matters
    returns = [-0.5, -0.2, -0.08, -0.03, -0.004, 0.0, 1e-3, 0.01, 0.07, 0.3]
    probe = (
        "import sys\n"
        "from newsvar.patentval import filter_value\n"
        "assert 'scipy.special' not in sys.modules\n"
        f"print([v.hex() for v in filter_value({returns!r}, 0.02, 0.01, 3e9).tolist()])"
    )
    fresh = fresh_python(probe)
    in_process = filter_value(returns, 0.02, 0.01, 3e9).tolist()
    assert fresh == str([v.hex() for v in in_process])


def test_index_run_leaves_scipy_special_unloaded(tmp_path):
    # with sigma_v = sigma_e = 0.02 these returns reach every branch of
    # patentval._erfcx: both depths of the continued fraction (-3, -0.2),
    # the Taylor centre, the reflection (0.2) and its inf (1.5)
    returns = [-3.0, -0.2, -0.01, 0.0, 0.004, 0.2, 1.5]
    with open(tmp_path / "events.csv", "w", encoding="utf-8") as fh:
        fh.write("grant_date,firm_id,green,window_return,market_cap\n")
        for i, ret in enumerate(returns * 4):
            day = np.datetime64("2000-01-01") + np.timedelta64(13 * i, "D")
            fh.write(f"{day},firm{i},{i % 2},{ret!r},1e9\n")
    cfg = write_yaml(tmp_path / "run.yaml", INDEX_YAML)
    probe = (
        "import sys\n"
        "from newsvar import cli\n"
        f"assert cli.main(['index', '--config', {cfg!r}]) == 0\n"
        "print('scipy.special' in sys.modules)"
    )
    assert fresh_python(probe).splitlines()[-1] == "False"
    assert (tmp_path / "work" / "index.csv").exists()


def test_every_command_runs_with_scipy_blocked(tmp_path):
    # scipy is a test dependency: the misuse table's base fixtures, which
    # run all six commands on small configs (index on returns that reach
    # every branch of patentval's erfcx), build where importing it fails
    probe = (
        "import importlib.abc, pathlib, sys\n"
        "class Blocked(importlib.abc.MetaPathFinder):\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.partition('.')[0] == 'scipy':\n"
        "            raise ImportError(f'{name} is blocked')\n"
        "sys.meta_path.insert(0, Blocked())\n"
        f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
        "import misuse\n"
        f"misuse.build_bases(pathlib.Path({str(tmp_path)!r}))\n"
        "print(sorted(name for name in sys.modules if name.partition('.')[0] == 'scipy'))"
    )
    assert fresh_python(probe) == "[]"
    assert (tmp_path / "posterior" / "work" / "posterior.json").exists()


class TestDecompose:
    def decompose_config(self, tmp_path, basis="ols"):
        # g is ng plus the first lag of w: with one lag in the VAR the g and
        # ng residual columns coincide exactly, so the projection is trivial
        rng = np.random.default_rng(7)
        t = 160
        w = rng.normal(size=t)
        ng = rng.normal(size=t)
        g = ng.copy()
        g[1:] += w[:-1]
        g[0] += 0.1
        data_path = tmp_path / "panel.csv"
        with open(data_path, "w", encoding="utf-8") as fh:
            fh.write("date,ng,g,w\n")
            for i in range(t):
                fh.write(
                    f"{1950 + i // 4}Q{i % 4 + 1},{float(ng[i])!r},{float(g[i])!r},{float(w[i])!r}\n"
                )
        return write_yaml(
            tmp_path / "dec.yaml",
            f"""
out: decout
data: panel.csv
variables: [ng, g, w]
lags: 1
prior: {{kind: flat}}
seed: 0
decompose: {{reference: ng, target: g, basis: {basis}}}
""",
        )

    def test_identical_residual_columns_give_unit_r2(self, tmp_path):
        cfg = self.decompose_config(tmp_path)
        assert cli.main(["decompose", "--config", cfg]) == 0
        payload = json.loads((tmp_path / "decout" / "decomposition.json").read_text())
        assert payload["r2"] == pytest.approx(1.0, abs=1e-12)
        assert payload["gamma"] == pytest.approx(1.0, abs=1e-8)

    def test_artifacts_written(self, tmp_path):
        cfg = self.decompose_config(tmp_path)
        cli.main(["decompose", "--config", cfg])
        out = tmp_path / "decout"
        with open(out / "decomposition.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == ["date", "resid_ng", "resid_g", "common", "idiosyncratic"]
        assert len(rows) == 160 - 1  # one lag consumed
        for row in rows:
            total = float(row["common"]) + float(row["idiosyncratic"])
            assert total == pytest.approx(float(row["resid_g"]), abs=1e-12)
        with open(out / "shocks.csv", newline="") as fh:
            shock_rows = list(csv.DictReader(fh))
        assert list(shock_rows[0]) == ["date", "common_std", "idiosyncratic_std"]

    def test_standardized_shocks_have_unit_sd(self, tmp_path):
        cfg = self.decompose_config(tmp_path, basis="posterior-mean")
        cli.main(["decompose", "--config", cfg])
        panel = load_panel(tmp_path / "decout" / "shocks.csv")
        assert np.std(panel.column("common_std")) == pytest.approx(1.0, abs=1e-10)

    def test_idiosyncratic_series_matches_cholesky_shock_end_to_end(self, tmp_path):
        # the idiosyncratic series written by the pipeline is the second
        # structural shock of a Cholesky rotation with the reference
        # variable ordered first, up to scale
        rng = np.random.default_rng(17)
        t = 200
        mix = np.array([[1.0, 0.0], [0.7, 0.8]])
        base = rng.normal(size=(t, 2)) @ mix.T
        data = np.cumsum(0.1 * rng.normal(size=(t, 2)), axis=0) + base
        with open(tmp_path / "panel.csv", "w", encoding="utf-8") as fh:
            fh.write("date,ng,g\n")
            for i in range(t):
                fh.write(
                    f"{1950 + i // 4}Q{i % 4 + 1},"
                    f"{float(data[i, 0])!r},{float(data[i, 1])!r}\n"
                )
        cfg = write_yaml(
            tmp_path / "dec.yaml",
            """
out: decout
data: panel.csv
variables: [ng, g]
lags: 1
prior: {kind: flat}
seed: 0
decompose: {reference: ng, target: g, basis: ols}
""",
        )
        assert cli.main(["decompose", "--config", cfg]) == 0
        with open(tmp_path / "decout" / "decomposition.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        resid = np.array(
            [[float(r["resid_ng"]), float(r["resid_g"])] for r in rows]
        )
        idio = np.array([float(r["idiosyncratic"]) for r in rows])
        sigma = resid.T @ resid / resid.shape[0]
        lower = np.linalg.cholesky(sigma)
        second_shock = np.linalg.solve(lower, resid.T).T[:, 1]
        corr = np.corrcoef(second_shock, idio)[0, 1]
        assert corr > 1.0 - 1e-8


class TestLp:
    def lp_config(self, tmp_path, breakpoint_line=""):
        rng = np.random.default_rng(9)
        t = 240
        shock = rng.standard_normal(t)
        dummy = np.array([1.0 if 1950 + i // 4 > 1990 else 0.0 for i in range(t)])
        y = np.cumsum(0.2 * rng.standard_normal(t)) + (1.0 + dummy) * shock
        with open(tmp_path / "panel.csv", "w", encoding="utf-8") as fh:
            fh.write("date,outcome\n")
            for i in range(t):
                fh.write(f"{1950 + i // 4}Q{i % 4 + 1},{float(y[i])!r}\n")
        with open(tmp_path / "shocks.csv", "w", encoding="utf-8") as fh:
            fh.write("date,news\n")
            for i in range(t):
                fh.write(f"{1950 + i // 4}Q{i % 4 + 1},{float(shock[i])!r}\n")
        return write_yaml(
            tmp_path / "lp.yaml",
            f"""
out: lpout
data: panel.csv
horizon: 6
seed: 0
lp:
  shock_file: shocks.csv
  shock_column: news
  outcomes: [outcome]
{breakpoint_line}
""",
        )

    def test_plain_lp_artifacts(self, tmp_path):
        cfg = self.lp_config(tmp_path)
        assert cli.main(["lp", "--config", cfg]) == 0
        out = tmp_path / "lpout"
        with open(out / "lp_outcome.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["regime"] for r in rows} == {"all"}
        assert len(rows) == 7
        assert (out / "lp_outcome.svg").exists()

    def test_overlap_of_offset_panels_is_used(self, tmp_path):
        # the shock file starts 3 quarters late and the panel ends 5 early
        cfg = self.lp_config(tmp_path, "  breakpoint: 1990Q4")
        shocks = (tmp_path / "shocks.csv").read_text().splitlines()
        (tmp_path / "shocks.csv").write_text("\n".join(shocks[:1] + shocks[4:]) + "\n")
        panel = (tmp_path / "panel.csv").read_text().splitlines()
        (tmp_path / "panel.csv").write_text("\n".join(panel[:-5]) + "\n")
        assert cli.main(["lp", "--config", cfg]) == 0
        sample = json.loads((tmp_path / "lpout" / "lp_sample.json").read_text())
        assert sample["dates_used"] == [row.split(",")[0] for row in panel[4:-5]]
        payload = json.loads((tmp_path / "lpout" / "lp_outcome.json").read_text())
        # 1950Q4..2008Q3 is 232 quarters, 71 of them after 1990Q4
        assert payload["regimes"]["post"]["n_obs"][0] == 71
        assert payload["regimes"]["pre"]["n_obs"][0] == 232 - 1 - 71

    def test_breakpoint_writes_both_regimes(self, tmp_path):
        cfg = self.lp_config(tmp_path, "  breakpoint: 1990Q4")
        assert cli.main(["lp", "--config", cfg]) == 0
        with open(tmp_path / "lpout" / "lp_outcome.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        regimes = {r["regime"] for r in rows}
        assert regimes == {"pre", "post"}
        assert len(rows) == 14
        payload = json.loads(
            (tmp_path / "lpout" / "lp_outcome.json").read_text()
        )
        assert set(payload["regimes"]) == {"pre", "post"}
        # engineered effects: 1.0 before the break, 2.0 after
        pre = payload["regimes"]["pre"]
        post = payload["regimes"]["post"]
        assert abs(pre["beta"][0] - 1.0) <= 3.0 * pre["se"][0]
        assert abs(post["beta"][0] - 2.0) <= 3.0 * post["se"][0]


class TestIndexCommand:
    def index_config(self, tmp_path):
        with open(tmp_path / "events.csv", "w", encoding="utf-8") as fh:
            fh.write("grant_date,firm_id,green,window_return,market_cap\n")
            rng = np.random.default_rng(3)
            day = np.datetime64("1995-01-05")
            for i in range(40):
                day = day + np.timedelta64(int(rng.integers(5, 60)), "D")
                fh.write(
                    f"{day},firm{i % 7},{i % 2},{float(0.01 * rng.standard_normal())!r},"
                    f"{float(1e9 * (1 + i % 5))!r}\n"
                )
        return write_yaml(
            tmp_path / "idx.yaml",
            """
out: idxout
seed: 0
index:
  events: events.csv
  sigma_v: 0.02
  sigma_e: 0.02
""",
        )

    def test_index_artifacts(self, tmp_path):
        cfg = self.index_config(tmp_path)
        assert cli.main(["index", "--config", cfg]) == 0
        out = tmp_path / "idxout"
        panel = load_panel(out / "index.csv")
        assert panel.names == ["gpbii", "ngpbii"]
        assert np.all(panel.values >= 0.0)
        stats = json.loads((out / "index_stats.json").read_text())
        assert "level_correlation" in stats


class TestUnwritableArtifacts:
    """An OSError while a command writes an artifact is a config error
    (exit 2) that names the path, not a traceback."""

    def test_directories_it_made_are_removed(self, tmp_path, monkeypatch, capsys):
        def refuse(panel, path, **kwargs):
            raise PermissionError(13, "Permission denied", str(path))

        monkeypatch.setattr(cli, "write_panel", refuse)
        cfg = write_yaml(tmp_path / "c.yaml", SIMULATE_YAML.replace("out: work", "out: a/b"))
        assert cli.main(["simulate", "--config", cfg]) == 2
        assert capsys.readouterr().err == (
            f"config error: cannot write {tmp_path / 'a' / 'b' / 'panel.csv'}: Permission denied\n"
        )
        assert not (tmp_path / "a").exists()


class TestConfigAndExitCodes:
    @pytest.mark.parametrize(
        "extra",
        [
            "irf_shock: zz\n",
            "rescale: {variable: zz, horizon: 2, value: 1.0}\n",
            # before: exit 4, "numerical error: median response of ng to shock
            # g at h=0 is zero; rescaling undefined"
            "irf_shock: g\nrescale: {variable: ng, horizon: 0, value: 1.0}\n",
        ],
    )
    def test_irf_membership_checked_before_bands(self, tmp_path, monkeypatch, capsys, extra):
        # before: the names were checked only after irf_bands had computed every band
        run_pipeline(tmp_path)
        cfg = write_yaml(tmp_path / "bad.yaml", ESTIMATE_YAML + extra)

        def no_bands(*args, **kwargs):
            raise AssertionError("irf_band_summary ran before the config checks")

        monkeypatch.setattr(cli, "irf_band_summary", no_bands)
        assert cli.main(["irf", "--config", cfg]) == 2
        err = capsys.readouterr().err
        if "zz" in extra:
            assert "'zz' not in the" in err
        else:
            # ng is ordered before g, so its impact response to g is zero in every draw
            assert err.endswith(
                "config error: rescale variable 'ng' is ordered before shock 'g' in "
                "['ng', 'g'], so its response at h=0 is zero by the Cholesky ordering; "
                "rescale at a later horizon or reorder the variables\n"
            )

    def test_flag_overrides_config(self, tmp_path):
        sim_cfg = write_yaml(tmp_path / "sim.yaml", SIMULATE_YAML)
        assert cli.main(["simulate", "--config", sim_cfg, "--out", "elsewhere"]) == 0
        assert (tmp_path / "elsewhere" / "panel.csv").exists()

    def test_seed_override_changes_draws(self, tmp_path):
        sim_cfg = write_yaml(tmp_path / "sim.yaml", SIMULATE_YAML)
        cli.main(["simulate", "--config", sim_cfg, "--out", "a"])
        cli.main(["simulate", "--config", sim_cfg, "--out", "b", "--seed", "99"])
        pa = load_panel(tmp_path / "a" / "panel.csv")
        pb = load_panel(tmp_path / "b" / "panel.csv")
        assert not np.array_equal(pa.values, pb.values)

    @pytest.mark.parametrize(
        "command, old, new, key, dotted",
        [
            (
                "estimate", "prior: {kind: flat}", "prior: {kind: minnesota, tightness: 1e-300}",
                "prior tightness", "1.0e-300",
            ),
            (
                "irf", "horizon: 8", "horizon: 8\nrescale: {variable: g, horizon: 2, value: -2e3}",
                "rescale value", "-2000.0",
            ),
            (
                # a signed YAML 1.1 float needs a digit before its dot
                "irf", "horizon: 8", "horizon: 8\nrescale: {variable: g, horizon: 2, value: -.5e-1}",
                "rescale value", "-0.05",
            ),
        ],
        ids=["prior.tightness", "rescale.value", "rescale.value-no-leading-digit"],
    )
    def test_number_read_as_text_is_named(self, tmp_path, capsys, command, old, new, key, dotted):
        # YAML 1.1 reads these spellings as text, and before, the float key
        # refused them with "YAML read it as text, so write it unquoted with
        # a dot"; the config loader reads them as YAML 1.2 and JSON do. A
        # tightness of 1e-300 is then refused as too small, as 1.0e-300 is.
        given = ESTIMATE_YAML.replace(old, new)
        number = new.rsplit(" ", 1)[1].rstrip("}")
        assert isinstance(yaml.safe_load(f"x: {number}")["x"], str)
        assert isinstance(yaml.safe_load(f"x: {dotted}")["x"], float)
        steps = ["estimate", "irf"][: 1 + (command == "irf")]
        runs = [
            spelled_run(tmp_path, capsys, text, steps)
            for text in (given, given.replace(number, dotted))
        ]
        assert runs[0] == runs[1]
        codes, err, files = runs[0]
        if key == "prior tightness":
            assert codes == [2]
            assert err.startswith("config error: prior.tightness 1e-300 is too small: ")
        else:
            assert codes == [0, 0] and "irf.csv" in files

    @pytest.mark.parametrize(
        "coefficients, got, entry, dotted",
        [
            ("[[0.0], [5e-1]]", "[[0.0], ['5e-1']]", "dgp.coefficients[1][0]", "5.0e-1"),
            ("[[0.0], [1, 2e-1]]", "[[0.0], [1, '2e-1']]", "dgp.coefficients[1][1]", "2.0e-1"),
            ("[0.0, 5E+1]", "[0.0, '5E+1']", "dgp.coefficients[1]", "5.0e+1"),
            ("[[0.0], [-.5e-1]]", "[[0.0], ['-.5e-1']]", "dgp.coefficients[1][0]", "-0.05"),
        ],
    )
    def test_matrix_entry_read_as_text_is_named(
        self, tmp_path, capsys, coefficients, got, entry, dotted
    ):
        # YAML 1.1 reads the entry as text (got); before, simulate refused it
        # naming the entry and the dotted spelling. Now the matrix holds the
        # number: a ragged or explosive matrix is refused as with the dotted
        # spelling, and the others simulate the same panel byte for byte.
        assert yaml.safe_load(coefficients) == yaml.safe_load(got), entry
        given = f"out: work\ndgp: {{coefficients: {coefficients}, impact: [[1.0]], periods: 50}}\n"
        number = got.split("'")[1]
        runs = [
            spelled_run(tmp_path, capsys, text, ["simulate"])
            for text in (given, given.replace(number, dotted))
        ]
        assert runs[0] == runs[1]
        codes, err, files = runs[0]
        if dotted in ("5.0e-1", "-0.05"):
            assert codes == [0] and "panel.csv" in files
        else:  # a ragged row, or a companion spectral radius of 50
            assert codes == [2] and err.startswith("config error: bad dgp block: ")

    def test_name_that_reads_as_a_number_must_be_quoted(self, tmp_path, capsys):
        # irf_shock: 1e3 was the string '1e3'; it is now the number 1000.0
        cfg = write_yaml(tmp_path / "c.yaml", ESTIMATE_YAML + "irf_shock: 1e3\n")
        assert cli.main(["irf", "--config", cfg]) == 2
        assert capsys.readouterr().err == "config error: irf_shock must be a string, got 1000.0\n"
        cfg = write_yaml(tmp_path / "c.yaml", ESTIMATE_YAML + "irf_shock: '1e3'\n")
        assert cli.load_config(cfg).irf_shock == "1e3"

    def test_merge_key_may_be_overridden(self, tmp_path):
        cfg = write_yaml(
            tmp_path / "c.yaml",
            "prior: {<<: {kind: minnesota, tightness: 0.1}, tightness: 0.3}\n"
            "rescale:\n  <<: [{variable: a, value: 2.0}, {variable: b}]\n  variable: c\n",
        )
        config = cli.load_config(cfg)
        assert (config.prior.kind, config.prior.tightness) == ("minnesota", 0.3)
        assert (config.rescale.variable, config.rescale.value) == ("c", 2.0)


def spelled_run(tmp_path, capsys, text, commands):
    """(exit codes, error output, artifacts by name) of ``commands`` run on
    the config ``text`` in a fresh ``tmp_path/work``, the estimate and irf
    commands after simulating their panel."""
    shutil.rmtree(tmp_path / "work", ignore_errors=True)
    if "estimate" in commands:
        sim_cfg = write_yaml(tmp_path / "sim.yaml", SIMULATE_YAML)
        assert cli.main(["simulate", "--config", sim_cfg]) == 0
    cfg = write_yaml(tmp_path / "c.yaml", text)
    codes = [cli.main([command, "--config", cfg]) for command in commands]
    files = sorted((tmp_path / "work").glob("*"))
    return codes, capsys.readouterr().err, {path.name: path.read_bytes() for path in files}


def canonical(value):
    """The loaded document with every float spelled by float.hex, so that
    equality also tells -0.0 from 0.0 and compares NaNs."""
    if isinstance(value, dict):
        return {key: canonical(item) for key, item in value.items()}
    if isinstance(value, list):
        return [canonical(item) for item in value]
    if isinstance(value, float):
        return float.hex(value)
    return (type(value).__name__, value)


def chain_style_json_config(seed):
    """A config written as JSON the way the benchmark's chain configs are,
    with full-precision floats of every magnitude and both signs."""
    rng = np.random.default_rng(seed)
    n = 8
    values = rng.normal(size=(n * 4 + 1, n)) * 10.0 ** rng.integers(-12, 12, size=(n * 4 + 1, n))
    config = {
        "out": "out",
        "seed": int(rng.integers(0, 2**31)),
        "draws": 10000,
        "variables": [f"y{j + 1}" for j in range(n)],
        "rescale": {"variable": "y1", "horizon": 4, "value": 0.25},
        "dgp": {
            "coefficients": values.tolist(),
            "impact": np.tril(rng.normal(size=(n, n))).tolist(),
            "periods": 300,
            "burn_in": 200,
            "start": "1960Q1",
            "names": [f"y{j + 1}" for j in range(n)],
        },
        "index": {"events": "events.csv", "sigma_v": 0.02, "sigma_e": -0.0},
    }
    return json.dumps(config, indent=1) + "\n"


def yaml_fixtures() -> dict[str, str]:
    import test_acceptance
    import test_artifacts

    texts = {
        "cli-simulate": SIMULATE_YAML,
        "cli-estimate": ESTIMATE_YAML,
        "artifacts-simulate": test_artifacts.SIM_YAML,
        "acceptance-simulate": test_acceptance.SIM_YAML,
        "acceptance-estimate": test_acceptance.EST_YAML,
        "acceptance-lp": test_acceptance.LP_YAML,
        "acceptance-index": test_acceptance.IDX_YAML,
    }
    texts.update((f"chain-json-{seed}", chain_style_json_config(seed)) for seed in range(3))
    return texts


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")
@pytest.mark.parametrize(
    "text", [pytest.param(text, id=name) for name, text in yaml_fixtures().items()]
)
def test_libyaml_loader_matches_safe_load(text):
    pure = yaml.load(text, Loader=yaml.SafeLoader)
    fast = yaml.load(text, Loader=yaml.CSafeLoader)
    assert canonical(fast) == canonical(pure)


def config_loader_on(base):
    """The config loader's own members, its resolvers and construct_mapping,
    on ``base``."""
    members = {k: v for k, v in vars(cli._ConfigLoader).items() if not k.startswith("__")}
    return type(f"ConfigLoaderOn{base.__name__}", (base,), members)


# JSON's exponent spellings, and YAML 1.2's -.5e-1 and 5E+1
EXPONENTS_JSON = '{"dgp": {"coefficients": [[1e-05, 1e+16], [-.5e-1, 5E+1]], "periods": 5}}\n'


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")
@pytest.mark.parametrize(
    "text",
    [pytest.param(text, id=name) for name, text in yaml_fixtures().items()]
    + [pytest.param(EXPONENTS_JSON, id="json-exponents")],
)
def test_config_loader_matches_on_both_bases(text):
    pure = yaml.load(text, Loader=config_loader_on(yaml.SafeLoader))
    fast = yaml.load(text, Loader=config_loader_on(yaml.CSafeLoader))
    assert canonical(fast) == canonical(pure)
    assert canonical(yaml.load(text, Loader=cli._ConfigLoader)) == canonical(pure)
    if text == EXPONENTS_JSON:
        assert pure["dgp"]["coefficients"] == [[1e-05, 1e16], [-0.05, 50.0]]
    else:
        # the fixtures spell no number that YAML 1.1 reads as text
        assert canonical(pure) == canonical(yaml.safe_load(text))


class TestDeterminism:
    def test_simulate_is_byte_identical(self, tmp_path):
        cfg = write_yaml(tmp_path / "sim.yaml", SIMULATE_YAML)
        cli.main(["simulate", "--config", cfg, "--out", "r1"])
        cli.main(["simulate", "--config", cfg, "--out", "r2"])
        a = (tmp_path / "r1" / "panel.csv").read_bytes()
        b = (tmp_path / "r2" / "panel.csv").read_bytes()
        assert a == b

    def test_manifest_contents(self, tmp_path):
        work = run_pipeline(tmp_path)
        manifest = json.loads((work / "manifest.json").read_text())
        assert manifest["command"] == "irf"
        assert set(manifest["versions"]) == {"newsvar", "numpy", "blas", "python"}
        assert len(manifest["config_hash"]) == 64


# Every refusal of the CLI is a row of tests/misuse.py; the rows moved out of
# this module run here under the ids of the tests they replaced.
misuse.host(globals())
