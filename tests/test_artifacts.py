"""Byte-level pins of every CSV and JSON artifact writer.

Each ``reference_*`` function below is the hand-written writer that the
shared ``panel.write_csv`` / ``panel.write_json`` helpers replaced, kept
verbatim as the oracle. On seeded inputs salted with signed zeros,
subnormals, huge magnitudes and values that need all 17 significant
digits, the library writers must produce the same bytes.
"""

import json

import numpy as np
import pytest

from newsvar import cli
from newsvar.localproj import LocalProjectionResult, StateLpResult, lp_to_csv, lp_to_json
from newsvar.panel import TimeSeriesPanel, load_panel, quarter_labels, write_json, write_panel
from newsvar.patentval import InnovationIndex, write_index
from newsvar.structural import (
    IrfSet,
    ShockDecomposition,
    decomposition_to_csv,
    irf_to_csv,
    irf_to_json,
)

SPECIAL = (0.0, -0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e300, -1e300, 1 / 3, 0.1)


def special_values(rng, shape):
    """Normals over many scales, with about a third of the cells replaced by
    the edge values of SPECIAL."""
    x = rng.standard_normal(shape) * 10.0 ** rng.integers(-12, 12, shape)
    mask = rng.uniform(size=shape) < 0.35
    x[mask] = rng.choice(SPECIAL, size=int(mask.sum()))
    return x


# --- the replaced writers, verbatim -----------------------------------------


def reference_write_panel(panel, path, date_column="date"):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join([date_column] + list(panel.names)) + "\n")
        for date, row in zip(panel.dates, panel.values):
            fh.write(",".join([date] + [repr(float(x)) for x in row]) + "\n")


def reference_write_index(idx, path, date_column="date"):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{date_column},gpbii,ngpbii\n")
        for i, date in enumerate(idx.dates):
            fh.write(f"{date},{float(idx.gpbii[i])!r},{float(idx.ngpbii[i])!r}\n")


def reference_irf_to_csv(irfs, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("shock,variable,horizon,lower,median,upper\n")
        for j, shock in enumerate(irfs.shocks):
            for i, variable in enumerate(irfs.variables):
                for h in irfs.horizons:
                    fh.write(
                        f"{shock},{variable},{int(h)},"
                        f"{float(irfs.lower[h, i, j])!r},{float(irfs.median[h, i, j])!r},"
                        f"{float(irfs.upper[h, i, j])!r}\n"
                    )


def reference_irf_to_json(irfs, path):
    payload = {
        "variables": irfs.variables,
        "shocks": irfs.shocks,
        "horizons": [int(h) for h in irfs.horizons],
        "scale_note": irfs.scale_note,
        "lower": irfs.lower.tolist(),
        "median": irfs.median.tolist(),
        "upper": irfs.upper.tolist(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


def reference_decomposition_to_csv(
    dec, dates, reference, target, path, reference_name="reference", target_name="target"
):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"date,resid_{reference_name},resid_{target_name},common,idiosyncratic\n")
        for i, date in enumerate(dates):
            fh.write(
                f"{date},{float(reference[i])!r},{float(target[i])!r},"
                f"{float(dec.common[i])!r},{float(dec.idiosyncratic[i])!r}\n"
            )


def reference_lp_to_csv(result, path):
    if isinstance(result, StateLpResult):
        blocks = [("pre", result.pre), ("post", result.post)]
    else:
        blocks = [("all", result)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("horizon,beta,se,n_obs,regime\n")
        for regime, block in blocks:
            for i, h in enumerate(block.horizons):
                fh.write(
                    f"{int(h)},{float(block.beta[i])!r},{float(block.se[i])!r},"
                    f"{int(block.n_obs[i])},{regime}\n"
                )


def reference_lp_to_json(result, path, band_se=1.0):
    def block(res):
        return {
            "horizons": [int(h) for h in res.horizons],
            "alpha": [float(v) for v in res.alpha],
            "beta": [float(v) for v in res.beta],
            "se": [float(v) for v in res.se],
            "n_obs": [int(v) for v in res.n_obs],
        }

    if isinstance(result, StateLpResult):
        payload = {
            "regimes": {"pre": block(result.pre), "post": block(result.post)},
            "dummy": result.dummy_name,
        }
    else:
        payload = {"regimes": {"all": block(result)}}
    payload["band_se_multiple"] = band_se
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


def reference_write_json(payload, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


def reference_shocks_csv(path, dates, common_std, idio_std):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("date,common_std,idiosyncratic_std\n")
        for i, date in enumerate(dates):
            fh.write(f"{date},{float(common_std[i])!r},{float(idio_std[i])!r}\n")


def reference_structural_shocks_csv(path, panel, eta):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("date," + ",".join(f"shock_{n}" for n in panel.names) + "\n")
        for i, date in enumerate(panel.dates):
            cells = ",".join(repr(float(v)) for v in eta[i])
            fh.write(f"{date},{cells}\n")


# --- byte comparisons --------------------------------------------------------

SEEDS = (0, 1, 2, 3)


def same_bytes(tmp_path, reference, library, *args, **kwargs):
    """Both writers on the same arguments (the path is the last positional
    one) must write the same bytes."""
    want, got = tmp_path / "reference.out", tmp_path / "library.out"
    reference(*args, want, **kwargs)
    library(*args, got, **kwargs)
    return want.read_bytes() == got.read_bytes()


def dates_for(rng, count):
    return quarter_labels(int(rng.integers(1900 * 4, 2100 * 4)), count)


def lp_result(rng, horizon):
    return LocalProjectionResult(
        horizons=np.arange(horizon + 1),
        alpha=special_values(rng, horizon + 1),
        beta=special_values(rng, horizon + 1),
        se=np.abs(special_values(rng, horizon + 1)),
        n_obs=rng.integers(3, 10_000, horizon + 1),
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_panel_and_index_writers(tmp_path, seed):
    rng = np.random.default_rng(seed)
    t, n = int(rng.integers(1, 40)), int(rng.integers(1, 6))
    panel = TimeSeriesPanel(
        dates=dates_for(rng, t),
        names=[f"v{j}" for j in range(n)],
        values=special_values(rng, (t, n)),
    )
    assert same_bytes(tmp_path, reference_write_panel, write_panel, panel)
    assert same_bytes(tmp_path, reference_write_panel, write_panel, panel, date_column="quarter")
    idx = InnovationIndex(
        dates=panel.dates,
        gpbii=np.abs(special_values(rng, t)),
        ngpbii=np.abs(special_values(rng, t)),
    )
    assert same_bytes(tmp_path, reference_write_index, write_index, idx)


@pytest.mark.parametrize("seed", SEEDS)
def test_irf_writers(tmp_path, seed):
    rng = np.random.default_rng(seed)
    horizon, n = int(rng.integers(0, 12)), int(rng.integers(1, 5))
    shape = (horizon + 1, n, n)
    names = [f"y{j}" for j in range(n)]
    irfs = IrfSet(
        responses=np.zeros((2,) + shape),
        horizons=np.arange(horizon + 1),
        variables=names,
        shocks=list(reversed(names)),
        lower=special_values(rng, shape),
        median=special_values(rng, shape),
        upper=special_values(rng, shape),
    )
    assert same_bytes(tmp_path, reference_irf_to_csv, irf_to_csv, irfs)
    assert same_bytes(tmp_path, reference_irf_to_json, irf_to_json, irfs)


@pytest.mark.parametrize("seed", SEEDS)
def test_decomposition_writer(tmp_path, seed):
    rng = np.random.default_rng(seed)
    t = int(rng.integers(1, 60))
    dec = ShockDecomposition(
        gamma=0.5, common=special_values(rng, t), idiosyncratic=special_values(rng, t), r2=0.2
    )
    ref, tar = special_values(rng, t), special_values(rng, t)

    def reference(dates, path):
        reference_decomposition_to_csv(dec, dates, ref, tar, path, "ng", "g")

    def library(dates, path):
        decomposition_to_csv(dec, dates, ref, tar, path, "ng", "g")

    assert same_bytes(tmp_path, reference, library, dates_for(rng, t))


@pytest.mark.parametrize("seed", SEEDS)
def test_lp_writers(tmp_path, seed):
    rng = np.random.default_rng(seed)
    horizon = int(rng.integers(0, 15))
    pooled = lp_result(rng, horizon)
    state = StateLpResult(
        pre=lp_result(rng, horizon), post=lp_result(rng, horizon), dummy_name="after 1990Q4"
    )
    for result in (pooled, state):
        assert same_bytes(tmp_path, reference_lp_to_csv, lp_to_csv, result)
        assert same_bytes(tmp_path, reference_lp_to_json, lp_to_json, result)
        assert same_bytes(tmp_path, reference_lp_to_json, lp_to_json, result, band_se=1.96)


@pytest.mark.parametrize("seed", SEEDS)
def test_json_writer(tmp_path, seed):
    rng = np.random.default_rng(seed)
    payload = {
        "values": special_values(rng, 20).tolist(),
        "nested": {"b": [1, 2, None], "a": 'é and "quotes"', "x": float(rng.normal())},
        "flag": True,
        "count": int(rng.integers(0, 10**12)),
    }
    assert same_bytes(tmp_path, reference_write_json, write_json, payload)


SIM_YAML = """
out: work
seed: 5
dgp:
  coefficients: [[0.1, 0.0, 0.0], [0.5, 0.1, 0.0], [0.0, 0.4, 0.1], [0.0, 0.0, 0.3]]
  impact: [[1.0, 0.0, 0.0], [0.5, 0.8, 0.0], [0.1, 0.2, 0.7]]
  periods: 40
  burn_in: 10
  start: 1900Q1
  names: [ng, g, r]
"""


@pytest.mark.parametrize("seed", SEEDS)
def test_cli_shock_writers(tmp_path, monkeypatch, seed):
    """structural_shocks.csv from simulate and shocks.csv from decompose,
    with the simulated and standardised series replaced by edge values."""
    rng = np.random.default_rng(seed)
    (tmp_path / "sim.yaml").write_text(SIM_YAML, encoding="utf-8")
    real_simulate = cli.simulate_var
    drawn = {}

    def simulate(dgp, periods):
        panel, eta = real_simulate(dgp, periods)
        panel.values = special_values(rng, panel.values.shape)
        drawn["panel"], drawn["eta"] = panel, special_values(rng, eta.shape)
        return panel, drawn["eta"]

    monkeypatch.setattr(cli, "simulate_var", simulate)
    config = cli.load_config(tmp_path / "sim.yaml")
    out = tmp_path / "work"
    out.mkdir()
    cli.cmd_simulate(config, out)
    reference_structural_shocks_csv(tmp_path / "ref_eta.csv", drawn["panel"], drawn["eta"])
    assert (out / "structural_shocks.csv").read_bytes() == (tmp_path / "ref_eta.csv").read_bytes()
    reference_write_panel(drawn["panel"], tmp_path / "ref_panel.csv")
    assert (out / "panel.csv").read_bytes() == (tmp_path / "ref_panel.csv").read_bytes()

    # decompose on a well-behaved simulated panel, edge values only in the
    # standardised series it writes to shocks.csv
    monkeypatch.setattr(cli, "simulate_var", real_simulate)
    cli.cmd_simulate(config, out)
    (tmp_path / "est.yaml").write_text(
        "out: work\ndata: work/panel.csv\nlags: 1\nprior: {kind: flat}\n"
        "decompose: {reference: ng, target: g, basis: ols}\n",
        encoding="utf-8",
    )
    standardized = []

    def standardize(series):
        standardized.append(special_values(rng, series.shape))
        return standardized[-1]

    monkeypatch.setattr(cli, "standardize_shock", standardize)
    cli.cmd_decompose(cli.load_config(tmp_path / "est.yaml"), out)
    dates = load_panel(out / "panel.csv").dates[1:]
    reference_shocks_csv(tmp_path / "ref_shocks.csv", dates, *standardized)
    assert (out / "shocks.csv").read_bytes() == (tmp_path / "ref_shocks.csv").read_bytes()


@pytest.mark.parametrize(
    "name", ["x,y", 'say "hi"', "line\nbreak", "plain", "carriage\rreturn", 'q"\r,']
)
def test_panel_names_needing_quotes_round_trip(tmp_path, name):
    """A panel variable whose name holds a comma, a quote, a line feed or a
    lone carriage return is quoted in the header, so load_panel reads back
    the same names."""
    panel = TimeSeriesPanel(
        dates=quarter_labels(1990 * 4, 3),
        names=[name, "other"],
        values=[[1.0, -0.0], [2.5, 5e-324], [1e300, 3.0]],
    )
    write_panel(panel, tmp_path / "panel.csv")
    back = load_panel(tmp_path / "panel.csv")
    assert back.names == panel.names
    assert back.dates == panel.dates
    np.testing.assert_array_equal(back.values, panel.values)
