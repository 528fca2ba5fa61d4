import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from numpy.testing import assert_array_equal

import newsvar
from newsvar import cli
from newsvar.bvar import posterior_sample
from newsvar.panel import load_panel
from newsvar.patentval import filter_value


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

    def test_irf_requires_posterior(self, tmp_path):
        cfg = write_yaml(tmp_path / "est.yaml", ESTIMATE_YAML)
        assert cli.main(["irf", "--config", cfg]) == 3

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
        loaded_spec, loaded = cli._load_posterior(Path(config.out), config)
        assert loaded_spec == fit.spec
        for name in ("B", "Sigma", "stable"):
            got, want = getattr(loaded, name), getattr(expected, name)
            assert got.dtype == want.dtype
            assert_array_equal(got, want)

    def test_irf_after_estimate_under_another_spec_fails(self, tmp_path, capsys):
        self.estimate(tmp_path)
        stale = write_yaml(
            tmp_path / "irf.yaml",
            self.STALE_ESTIMATE.replace("[a, b, c]", "[c, b]")
            .replace("lags: 2", "lags: 4")
            .replace("kind: minnesota, tightness: 0.2", "kind: flat"),
        )
        assert cli.main(["irf", "--config", stale]) == 2
        assert "re-run estimate" in capsys.readouterr().err
        assert not (tmp_path / "work" / "irf.csv").exists()

    @pytest.mark.parametrize(
        "old,new",
        [
            ("[a, b, c]", "[b, a, c]"),
            ("lags: 2", "lags: 3"),
            ("horizon: 4", "horizon: 4\nintercept: false"),
            ("tightness: 0.2", "tightness: 0.3"),
            ("kind: minnesota, tightness: 0.2", "kind: flat"),
        ],
    )
    def test_each_spec_or_prior_change_is_caught(self, tmp_path, old, new):
        self.estimate(tmp_path)
        changed = write_yaml(tmp_path / "irf.yaml", self.STALE_ESTIMATE.replace(old, new))
        assert cli.main(["irf", "--config", changed]) == 2

    def test_stored_order_is_the_default(self, tmp_path):
        self.estimate(tmp_path)
        unordered = write_yaml(
            tmp_path / "irf.yaml", self.STALE_ESTIMATE.replace("variables: [a, b, c]\n", "")
        )
        assert cli.main(["irf", "--config", unordered, "--draws", "5", "--horizon", "3"]) == 0

    def test_single_draw_posterior_is_config_error(self, tmp_path, capsys):
        self.write_panel(tmp_path)
        cfg = write_yaml(tmp_path / "est.yaml", self.STALE_ESTIMATE)
        assert cli.main(["estimate", "--config", cfg, "--draws", "1"]) == 0
        assert cli.main(["irf", "--config", cfg]) == 2
        assert "--draws 2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "names,cut",
        [
            (["stable"], np.s_[:5]),
            (["stable", "coefficients", "covariances"], np.s_[:5]),
            (["coefficients"], np.s_[:, 1:]),
        ],
    )
    def test_arrays_disagreeing_with_meta_are_data_error(self, tmp_path, names, cut):
        cfg = self.estimate(tmp_path)
        for name in names:
            path = tmp_path / "work" / f"posterior_{name}.npy"
            np.save(path, np.load(path)[cut])
        assert cli.main(["irf", "--config", cfg]) == 3

    def test_zero_horizon_is_config_error(self, tmp_path, capsys):
        # before: exit 4, "numerical error: need at least two horizons to
        # plot", after irf.csv had been written
        cfg = self.estimate(tmp_path)
        assert cli.main(["irf", "--config", cfg, "--horizon", "0"]) == 2
        assert "horizon must be >= 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "work" / "irf.csv").exists()

    def test_missing_array_is_data_error(self, tmp_path):
        cfg = self.estimate(tmp_path)
        (tmp_path / "work" / "posterior_covariances.npy").unlink()
        assert cli.main(["irf", "--config", cfg]) == 3

    @pytest.mark.parametrize(
        "name,index,value",
        [("coefficients", (7, 2, 1), np.nan), ("covariances", (3, 0, 0), np.inf)],
    )
    def test_non_finite_posterior_is_data_error(self, tmp_path, capsys, name, index, value):
        # before: exit 0 with nan cells in irf.csv (a NaN fails no symmetry test)
        cfg = self.estimate(tmp_path)
        path = tmp_path / "work" / f"posterior_{name}.npy"
        array = np.load(path)
        array[index] = value
        np.save(path, array)
        assert cli.main(["irf", "--config", cfg]) == 3
        assert f"posterior draw {index[0]} in" in capsys.readouterr().err
        assert not (tmp_path / "work" / "irf.csv").exists()


def test_cli_import_leaves_scipy_stats_unloaded():
    src = str(Path(newsvar.__file__).resolve().parents[1])
    probe = "import sys, newsvar.cli; print('scipy.stats' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert result.stdout.strip() == "False"


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


@pytest.mark.parametrize("module", ["newsvar", "newsvar.cli"])
def test_cli_import_leaves_scipy_special_unloaded(module):
    # only the index command's valuation needs it (patentval._mills_ratio)
    probe = (
        f"import sys, {module}; "
        "print(sorted({'scipy.special', 'scipy.stats'} & set(sys.modules)))"
    )
    assert fresh_python(probe) == "[]"


def test_deferred_special_import_gives_the_same_values():
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

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("target: g", "target: ng", "decompose reference and target must differ"),
            (" target: g,", "", "the decompose command needs 'decompose.target' in the config"),
        ],
        ids=["same-variable", "no-target"],
    )
    def test_bad_pair_is_config_error_before_work(self, tmp_path, capsys, old, new, message):
        # before: the same variable twice exited 4 ("cannot standardize a
        # constant series") and a missing target said "decompose variable ''
        # not in the VAR ordering", both after the fit
        cfg = Path(self.decompose_config(tmp_path))
        cfg.write_text(cfg.read_text().replace(old, new))
        assert cli.main(["decompose", "--config", str(cfg)]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "decout").exists()

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

    def test_disjoint_dates_are_data_error(self, tmp_path, capsys):
        cfg = self.lp_config(tmp_path)
        text = (tmp_path / "shocks.csv").read_text().replace("19", "29").replace("20", "30")
        (tmp_path / "shocks.csv").write_text(text)
        assert cli.main(["lp", "--config", cfg]) == 3
        assert "share no dates" in capsys.readouterr().err

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


    def test_zero_horizon_is_config_error(self, tmp_path, capsys):
        # before: exit 4, "numerical error: need at least two horizons to plot"
        cfg = self.lp_config(tmp_path)
        assert cli.main(["lp", "--config", cfg, "--horizon", "0"]) == 2
        assert "horizon must be >= 1, got 0" in capsys.readouterr().err
        assert not list(tmp_path.glob("lpout/lp_*.csv"))

    @pytest.mark.parametrize("value", [".nan", "-1.0", "wide"])
    def test_bad_band_se_is_config_error(self, tmp_path, capsys, value):
        # before: .nan wrote a bare NaN into lp_outcome.json (not JSON), -1.0
        # drew inverted bands, and "wide" crashed with a numpy traceback
        cfg = self.lp_config(tmp_path, f"  band_se: {value}")
        assert cli.main(["lp", "--config", cfg]) == 2
        assert "lp band_se must be a finite number > 0" in capsys.readouterr().err
        assert not (tmp_path / "lpout").exists()


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


    def bad_events_config(self, tmp_path, *rows):
        cfg = self.index_config(tmp_path)
        with open(tmp_path / "events.csv", "a", encoding="utf-8") as fh:
            fh.writelines(row + "\n" for row in rows)
        return cfg

    def test_non_finite_cells_are_data_error(self, tmp_path, capsys):
        # before: exit 0 and an index.csv row "1999Q2,nan,inf"
        cfg = self.bad_events_config(tmp_path, "1999-05-01,firmx,1,nan,inf")
        assert cli.main(["index", "--config", cfg]) == 3
        assert "row 42: window_return must be finite" in capsys.readouterr().err
        assert not (tmp_path / "idxout" / "index.csv").exists()

    def test_non_positive_sigma_e_is_data_error(self, tmp_path, capsys):
        # before: exit 4, "numerical error: sigma_v and sigma_e must be > 0"
        path = tmp_path / "events.csv"
        cfg = self.index_config(tmp_path)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[0] += ",sigma_e"
        lines[1:] = [line + "," for line in lines[1:]]
        lines[5] = lines[5] + "-0.05"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert cli.main(["index", "--config", cfg]) == 3
        assert "data error: row 6: sigma_e must be > 0" in capsys.readouterr().err

    def test_invalid_utf8_events_file_is_data_error(self, tmp_path, capsys):
        # before: exit 4, "numerical error: 'utf-8' codec can't decode byte 0xff"
        cfg = self.index_config(tmp_path)
        with open(tmp_path / "events.csv", "ab") as fh:
            fh.write(b"1999-05-01,firm\xff,1,0.01,1e9\n")
        assert cli.main(["index", "--config", cfg]) == 3
        assert "events.csv is not valid UTF-8" in capsys.readouterr().err


class TestNamesInFileNames:
    """A variable name is part of the file names irf_<name>.svg and
    lp_<name>.*; one holding a '/' or NUL is refused before any artifact."""

    def write_panel(self, tmp_path):
        rng = np.random.default_rng(6)
        values = np.cumsum(0.1 * rng.normal(size=(60, 2)), axis=0)
        for name, column in (("panel.csv", "a/b"), ("shocks.csv", "news")):
            with open(tmp_path / name, "w", encoding="utf-8") as fh:
                fh.write(f"date,{column},tfp\n")
                for i, row in enumerate(values):
                    fh.write(f"{1960 + i // 4}Q{i % 4 + 1},{float(row[0])!r},{float(row[1])!r}\n")

    @pytest.mark.parametrize(
        "variables, code", [("", 3), ("variables: [a/b, tfp]\n", 2)], ids=["panel", "config"]
    )
    def test_irf_refuses_a_slash_before_writing(self, tmp_path, capsys, variables, code):
        # before: irf.csv and irf.json were written, then writing
        # irf_a/b.svg raised FileNotFoundError and the CLI exited 1
        self.write_panel(tmp_path)
        cfg = write_yaml(
            tmp_path / "c.yaml",
            "out: work\ndata: panel.csv\nlags: 1\ndraws: 5\nprior: {kind: flat}\n" + variables,
        )
        assert cli.main(["estimate", "--config", cfg]) == 0
        before = {p.name: p.read_bytes() for p in (tmp_path / "work").iterdir()}
        capsys.readouterr()
        assert cli.main(["irf", "--config", cfg]) == code
        assert "'a/b' holds a '/' or NUL" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in (tmp_path / "work").iterdir()} == before

    @pytest.mark.parametrize("outcome", ["a/b", '"a\\0b"'], ids=["slash", "nul"])
    def test_lp_refuses_a_slash_or_nul_before_writing(self, tmp_path, capsys, outcome):
        # before: tfp's artifacts were written, then lp_a/b.csv raised
        # FileNotFoundError and the CLI exited 1
        self.write_panel(tmp_path)
        cfg = write_yaml(
            tmp_path / "c.yaml",
            "out: work\ndata: panel.csv\nhorizon: 4\n"
            f"lp: {{shock_file: shocks.csv, shock_column: news, outcomes: [tfp, {outcome}]}}\n",
        )
        assert cli.main(["lp", "--config", cfg]) == 2
        assert "holds a '/' or NUL" in capsys.readouterr().err
        assert not (tmp_path / "work").exists()


class TestConfigAndExitCodes:
    def test_unknown_key_rejected(self, tmp_path):
        cfg = write_yaml(tmp_path / "c.yaml", "out: x\nbogus_key: 1\n")
        assert cli.main(["simulate", "--config", cfg]) == 2

    def test_missing_config_file(self, tmp_path):
        assert cli.main(["simulate", "--config", str(tmp_path / "nope.yaml")]) == 2

    def test_bad_horizon_rejected(self, tmp_path):
        cfg = write_yaml(tmp_path / "c.yaml", SIMULATE_YAML + "horizon: -1\n")
        assert cli.main(["simulate", "--config", cfg]) == 2

    def test_malformed_breakpoint_is_config_error(self, tmp_path):
        cfg = write_yaml(
            tmp_path / "c.yaml",
            "out: x\ndata: p.csv\n"
            "lp: {shock_file: s.csv, shock_column: s, outcomes: [a], breakpoint: 1990-Q4}\n",
        )
        assert cli.main(["lp", "--config", cfg]) == 2

    def test_malformed_sample_date_is_config_error(self, tmp_path):
        cfg = write_yaml(
            tmp_path / "c.yaml",
            "out: x\ndata: p.csv\nsample: {start: 196103}\n",
        )
        assert cli.main(["estimate", "--config", cfg]) == 2

    def test_rescale_horizon_beyond_response_horizon_rejected(self, tmp_path):
        cfg = write_yaml(
            tmp_path / "c.yaml",
            ESTIMATE_YAML + "rescale: {variable: g, horizon: 30, value: 1.0}\n",
        )
        assert cli.main(["irf", "--config", cfg]) == 2

    @pytest.mark.parametrize("value", [".nan", ".inf", "-.inf", "0.0", "zero", "true"])
    def test_bad_rescale_value_is_config_error(self, tmp_path, capsys, value):
        # before: exit 0 with nan cells, or every response to the shock zeroed
        cfg = write_yaml(
            tmp_path / "c.yaml",
            ESTIMATE_YAML + f"rescale: {{variable: g, horizon: 2, value: {value}}}\n",
        )
        assert cli.main(["irf", "--config", cfg]) == 2
        assert "rescale value must be a finite non-zero number" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra",
        [
            'variables: [" ng", g]\n',
            'variables: [ng, "g\\r"]\n',
            'date_column: "date "\n',
        ],
    )
    def test_names_with_outer_whitespace_are_config_error(self, tmp_path, capsys, extra):
        # before: load_panel strips header names, so these never match a panel
        cfg = write_yaml(tmp_path / "c.yaml", ESTIMATE_YAML + extra)
        assert cli.main(["estimate", "--config", cfg]) == 2
        assert "leading or trailing whitespace" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ['" ng"', '"ng\\r"'])
    def test_simulate_refuses_names_that_would_not_round_trip(self, tmp_path, capsys, bad):
        # before: panel.csv was written and read back with the name stripped
        cfg = write_yaml(tmp_path / "c.yaml", SIMULATE_YAML.replace("[ng, g]", f"[{bad}, g]"))
        assert cli.main(["simulate", "--config", cfg]) == 2
        assert "leading or trailing whitespace" in capsys.readouterr().err
        assert not (tmp_path / "work").exists()

    @pytest.mark.parametrize("periods", [300, 2000])
    def test_simulate_refuses_explosive_dgp(self, tmp_path, periods):
        # before: 300 periods exited 0 with values up to 6.7e86; 2000 printed
        # numpy's overflow RuntimeWarning, then exited 3
        cfg = write_yaml(
            tmp_path / "c.yaml",
            "out: work\n"
            f"dgp: {{coefficients: [[0.0], [1.5]], impact: [[1.0]], periods: {periods}}}\n",
        )
        src = str(Path(newsvar.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-m", "newsvar.cli", "simulate", "--config", cfg],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert result.returncode == 2
        assert result.stderr == (
            "config error: bad dgp block: companion spectral radius 1.5 is not below 1\n"
        )
        assert not (tmp_path / "work" / "panel.csv").exists()

    @pytest.mark.parametrize(
        "extra", ["irf_shock: zz\n", "rescale: {variable: zz, horizon: 2, value: 1.0}\n"]
    )
    def test_irf_membership_checked_before_bands(self, tmp_path, monkeypatch, capsys, extra):
        # before: both were checked only after irf_bands had computed every band
        run_pipeline(tmp_path)
        cfg = write_yaml(tmp_path / "bad.yaml", ESTIMATE_YAML + extra)

        def no_bands(*args, **kwargs):
            raise AssertionError("irf_bands ran before the config checks")

        monkeypatch.setattr(cli, "irf_bands", no_bands)
        assert cli.main(["irf", "--config", cfg]) == 2
        assert "'zz' not in the" in capsys.readouterr().err

    def test_missing_data_file_is_data_error(self, tmp_path):
        cfg = write_yaml(
            tmp_path / "c.yaml", "out: x\ndata: that_is_not_there.csv\nlags: 1\n"
        )
        assert cli.main(["estimate", "--config", cfg]) == 3

    def test_invalid_utf8_panel_is_data_error(self, tmp_path, capsys):
        # before: exit 4, "numerical error: 'utf-8' codec can't decode byte 0xff"
        (tmp_path / "panel.csv").write_bytes(b"date,a\n1950Q1,1.0\n1950Q2,\xff\n")
        cfg = write_yaml(tmp_path / "c.yaml", "out: x\ndata: panel.csv\nlags: 1\n")
        assert cli.main(["estimate", "--config", cfg]) == 3
        assert "panel.csv is not valid UTF-8" in capsys.readouterr().err

    def test_collinear_panel_is_numerical_error(self, tmp_path):
        rng = np.random.default_rng(0)
        t = 40
        a = rng.normal(size=t)
        with open(tmp_path / "panel.csv", "w", encoding="utf-8") as fh:
            fh.write("date,a,b\n")
            for i in range(t):
                fh.write(f"{1950 + i // 4}Q{i % 4 + 1},{float(a[i])!r},{float(2 * a[i])!r}\n")
        cfg = write_yaml(
            tmp_path / "c.yaml",
            "out: x\ndata: panel.csv\nlags: 1\nprior: {kind: flat}\ndraws: 5\n",
        )
        assert cli.main(["estimate", "--config", cfg]) == 4
        assert not (tmp_path / "x").exists()

    def short_panel_config(self, tmp_path, lags):
        """A 6-quarter panel of two variables at ``lags``."""
        rng = np.random.default_rng(5)
        with open(tmp_path / "panel.csv", "w", encoding="utf-8") as fh:
            fh.write("date,a,b\n")
            for i, (a, b) in enumerate(rng.normal(size=(6, 2)).tolist()):
                fh.write(f"{1950 + i // 4}Q{i % 4 + 1},{a!r},{b!r}\n")
        return write_yaml(
            tmp_path / "c.yaml",
            f"out: x\ndata: panel.csv\nlags: {lags}\ndraws: 5\n"
            "decompose: {reference: a, target: b}\n",
        )

    @pytest.mark.parametrize("command", ["estimate", "decompose"])
    @pytest.mark.parametrize(
        "lags, message",
        [
            # before: exit 4, "numerical error: rank-deficient X: 4 rows < 5 columns"
            (2, "insufficient observations: T-p = 4 regression rows for 5 columns"),
            (6, "insufficient observations: T=6 needs T > n*p+1 = 13"),
        ],
        ids=["lags2", "lags6"],
    )
    def test_short_sample_is_data_error(self, tmp_path, capsys, command, lags, message):
        cfg = self.short_panel_config(tmp_path, lags)
        assert cli.main([command, "--config", cfg]) == 3
        assert capsys.readouterr().err == f"data error: {message}\n"
        assert not (tmp_path / "x").exists()

    def test_failed_command_removes_the_directories_it_made(self, tmp_path, capsys):
        # before: "data: nope.csv" exited 3 and left out behind, empty
        cfg = write_yaml(tmp_path / "c.yaml", "out: made/deeper/x\ndata: nope.csv\nlags: 1\n")
        assert cli.main(["estimate", "--config", cfg]) == 3
        assert "nope.csv" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.yaml"]

    def test_failed_command_keeps_directories_that_existed(self, tmp_path):
        (tmp_path / "kept" / "x").mkdir(parents=True)
        cfg = write_yaml(tmp_path / "c.yaml", "out: kept/x/new\ndata: nope.csv\nlags: 1\n")
        assert cli.main(["estimate", "--config", cfg]) == 3
        assert (tmp_path / "kept" / "x").is_dir()
        assert not (tmp_path / "kept" / "x" / "new").exists()

    def three_variable_config(self, tmp_path, extra):
        TestPosteriorArtifact().write_panel(tmp_path)
        return write_yaml(
            tmp_path / "c.yaml", "out: x\ndata: panel.csv\nlags: 1\ndraws: 5\n" + extra
        )

    @pytest.mark.parametrize("command", ["estimate", "irf", "decompose"])
    def test_duplicate_variables_are_config_error(self, tmp_path, capsys, command):
        # before: exit 4, "numerical error: variable order contains duplicates"
        cfg = self.three_variable_config(tmp_path, "variables: [a, b, a]\n")
        assert cli.main([command, "--config", cfg]) == 2
        assert "variables list contains duplicates" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["estimate", "decompose"])
    def test_nu0_below_n_plus_2_is_config_error(self, tmp_path, capsys, command):
        # before: exit 4, "numerical error: nu0 must be >= n+2 = 5"
        cfg = self.three_variable_config(
            tmp_path, "prior: {nu0: 1.0}\ndecompose: {reference: a, target: b}\n"
        )
        assert cli.main([command, "--config", cfg]) == 2
        assert "nu0 must be >= n+2 = 5" in capsys.readouterr().err

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


    def test_invalid_yaml_is_config_error(self, tmp_path, capsys):
        cfg = write_yaml(tmp_path / "c.yaml", "out: [unclosed\nseed: 1\n")
        assert cli.main(["simulate", "--config", cfg]) == 2
        assert "invalid YAML" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, fixture, old, new, key",
        [
            ("simulate", SIMULATE_YAML, "seed: 3", 'seed: "1"', "seed"),
            ("estimate", ESTIMATE_YAML, "draws: 60", 'draws: "10"', "draws"),
            ("irf", ESTIMATE_YAML, "horizon: 8", 'horizon: "abc"', "horizon"),
            ("estimate", ESTIMATE_YAML, "lags: 1", "lags: 2.5", "lags"),
            (
                "irf",
                ESTIMATE_YAML,
                "horizon: 8",
                "horizon: 8\nrescale: {variable: g, horizon: 2.0, value: 1.0}",
                "rescale.horizon",
            ),
            ("simulate", SIMULATE_YAML, "periods: 300", "periods: 300.0", "dgp.periods"),
            ("simulate", SIMULATE_YAML, "burn_in: 100", "burn_in: true", "dgp.burn_in"),
        ],
        ids=["seed", "draws", "horizon", "lags", "rescale.horizon", "dgp.periods", "dgp.burn_in"],
    )
    def test_non_integer_key_is_config_error(
        self, tmp_path, capsys, command, fixture, old, new, key
    ):
        # before: a TypeError traceback (exit 1) or, for lags: 2.5, "slice
        # indices must be integers"
        cfg = write_yaml(tmp_path / "c.yaml", fixture.replace(old, new))
        assert cli.main([command, "--config", cfg]) == 2
        assert f"{key} must be an integer" in capsys.readouterr().err
        assert not (tmp_path / "work").exists()

    @pytest.mark.parametrize(
        "value", ['"abc"', "true", ".nan", ".inf", "0.0", "-1.0"],
        ids=["string", "bool", "nan", "inf", "zero", "negative"],
    )
    @pytest.mark.parametrize(
        "command, old, new, key",
        [
            ("estimate", "prior: {kind: flat}", "prior: {tightness: VALUE}", "prior tightness"),
            ("estimate", "prior: {kind: flat}", "prior: {nu0: VALUE}", "prior nu0"),
            ("index", "sigma_v: 0.02", "sigma_v: VALUE", "index sigma_v"),
            ("index", "sigma_e: 0.02", "sigma_e: VALUE", "index sigma_e"),
        ],
        ids=["prior.tightness", "prior.nu0", "index.sigma_v", "index.sigma_e"],
    )
    def test_bad_positive_float_key_is_config_error(
        self, tmp_path, capsys, command, old, new, key, value
    ):
        # before: tightness "abc" was a TypeError (exit 1), .nan "Eigenvalues
        # did not converge" (exit 4) and true ran (exit 0); sigma_e .nan was
        # "has no value; run assign_values first" (exit 3)
        fixture = ESTIMATE_YAML if command == "estimate" else INDEX_YAML
        cfg = write_yaml(tmp_path / "c.yaml", fixture.replace(old, new.replace("VALUE", value)))
        assert cli.main([command, "--config", cfg]) == 2
        assert f"{key} must be a finite number > 0" in capsys.readouterr().err
        assert not (tmp_path / "work").exists()


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
        assert set(manifest["versions"]) == {"newsvar", "numpy", "scipy", "python"}
        assert len(manifest["config_hash"]) == 64
