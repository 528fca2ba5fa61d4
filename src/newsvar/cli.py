"""Batch front-end for the estimation, identification, and projection
workflows.

Commands: ``estimate`` (posterior artifact), ``irf`` (Cholesky responses with
bands), ``decompose`` (common/idiosyncratic residual split plus standardized
shock series), ``lp`` (local projections of outcomes on a shock series,
optionally regime-split), ``index`` (patent index construction), and
``simulate`` (synthetic VAR data). A run is configured by one YAML file plus
flag overrides, writes into one output directory, and records a manifest so
identical (config, seed) runs produce byte-identical artifacts.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numerical
failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy
import yaml

from . import __version__
from .bvar import (
    OlsFit,
    PosteriorDraws,
    PriorSpec,
    VarSpec,
    build_regressors,
    ols_estimate,
    posterior_mean,
    posterior_sample,
)
from .errors import ConfigError, DataError, NumericalError
from .localproj import lp_irf, lp_irf_state, lp_to_csv, lp_to_json
from .panel import (
    TimeSeriesPanel,
    align_range,
    apply_transforms,
    format_quarter,
    header_round_trips,
    load_panel,
    parse_quarter,
    write_csv,
    write_json,
    write_panel,
)
from .patentval import (
    assign_values,
    build_index,
    index_stats,
    load_events,
    quarter_of,
    write_index,
)
from .structural import (
    decompose_residuals,
    decomposition_to_csv,
    irf_bands,
    irf_to_csv,
    irf_to_json,
    rescale_irf,
    standardize_shock,
)
from .svgplot import line_band_svg
from .synth import Dgp, simulate_var

COMMANDS = ("estimate", "irf", "decompose", "lp", "index", "simulate")


@dataclass
class PriorConfig:
    kind: str = "minnesota"
    tightness: float = 0.2
    nu0: float | None = None


@dataclass
class RescaleConfig:
    variable: str = ""
    horizon: int = 10
    value: float = 1.0


@dataclass
class DecomposeConfig:
    reference: str = ""
    target: str = ""
    basis: str = "posterior-mean"


@dataclass
class LpConfig:
    shock_file: str = ""
    shock_column: str = ""
    outcomes: list[str] = field(default_factory=list)
    breakpoint: str | None = None
    band_se: float = 1.0


@dataclass
class DgpConfig:
    coefficients: list = field(default_factory=list)
    impact: list = field(default_factory=list)
    periods: int = 300
    burn_in: int = 200
    start: str = "1900Q1"
    names: list[str] = field(default_factory=list)


@dataclass
class IndexConfig:
    events: str = ""
    sigma_v: float = 0.02
    sigma_e: float = 0.02
    start: str | None = None
    end: str | None = None


@dataclass
class RunConfig:
    """Everything a run needs; defaults follow the benchmark setup (four
    lags, intercept, 1000 draws, twenty-quarter horizon)."""

    out: str = "out"
    seed: int = 0
    draws: int = 1000
    horizon: int = 20
    data: str | None = None
    date_column: str = "date"
    transforms: dict[str, str] = field(default_factory=dict)
    sample_start: str | None = None
    sample_end: str | None = None
    variables: list[str] = field(default_factory=list)
    lags: int = 4
    intercept: bool = True
    prior: PriorConfig = field(default_factory=PriorConfig)
    irf_shock: str | None = None
    rescale: RescaleConfig | None = None
    decompose: DecomposeConfig | None = None
    lp: LpConfig | None = None
    dgp: DgpConfig | None = None
    index: IndexConfig | None = None
    raw: dict = field(default_factory=dict, repr=False)


def _build(cls, mapping, where: str):
    if not isinstance(mapping, dict):
        raise ConfigError(f"{where} must be a mapping, got {type(mapping).__name__}")
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = set(mapping) - known
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")
    try:
        return cls(**mapping)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {where}: {exc}") from exc


def load_config(path, overrides: dict | None = None) -> RunConfig:
    """Parse a YAML run configuration; relative paths resolve against the
    config file's directory."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        # libyaml's C parser with the safe resolver: the values of
        # yaml.safe_load without parsing the DGP matrices in Python
        doc = yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML in {path}: {exc}") from exc
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise ConfigError(f"config root must be a mapping, got {type(doc).__name__}")

    doc = dict(doc)
    sample = doc.pop("sample", None)
    if sample is not None:
        if not isinstance(sample, dict) or set(sample) - {"start", "end"}:
            raise ConfigError("sample must be a mapping with keys start/end")
        doc["sample_start"] = sample.get("start")
        doc["sample_end"] = sample.get("end")
    for key, cls in (
        ("prior", PriorConfig),
        ("rescale", RescaleConfig),
        ("decompose", DecomposeConfig),
        ("lp", LpConfig),
        ("dgp", DgpConfig),
        ("index", IndexConfig),
    ):
        if key in doc and doc[key] is not None:
            doc[key] = _build(cls, doc[key], key)

    for key, value in (overrides or {}).items():
        if value is not None:
            doc[key] = value

    config = _build(RunConfig, doc, "config")
    config.raw = _canonical(config)
    _validate(config)

    base = path.parent
    if config.data:
        config.data = str((base / config.data).resolve())
    config.out = str((base / config.out).resolve())
    if config.lp and config.lp.shock_file:
        config.lp.shock_file = str((base / config.lp.shock_file).resolve())
    if config.index and config.index.events:
        config.index.events = str((base / config.index.events).resolve())
    return config


def _canonical(config: RunConfig) -> dict:
    doc = dataclasses.asdict(config)
    doc.pop("raw", None)
    return doc


def _finite_number(value) -> bool:
    """A finite int or float; a bool is not taken as a number."""
    return not isinstance(value, bool) and isinstance(value, (int, float)) and math.isfinite(value)


def _validate(config: RunConfig) -> None:
    integers = [
        ("seed", config.seed, 0),
        ("draws", config.draws, 1),
        ("horizon", config.horizon, 1),
        ("lags", config.lags, 1),
    ]
    if config.rescale is not None:
        integers.append(("rescale.horizon", config.rescale.horizon, 0))
    if config.dgp is not None:
        integers += [
            ("dgp.periods", config.dgp.periods, 1),
            ("dgp.burn_in", config.dgp.burn_in, 0),
        ]
    for key, value, smallest in integers:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{key} must be an integer, got {value!r}")
        if value < smallest:
            raise ConfigError(f"{key} must be >= {smallest}, got {value}")
    positive = [("prior tightness", config.prior.tightness)]
    if config.prior.nu0 is not None:
        positive.append(("prior nu0", config.prior.nu0))
    if config.index is not None:
        positive += [
            ("index sigma_v", config.index.sigma_v),
            ("index sigma_e", config.index.sigma_e),
        ]
    if config.lp is not None:
        positive.append(("lp band_se", config.lp.band_se))
    for key, value in positive:
        if not _finite_number(value) or value <= 0:
            raise ConfigError(f"{key} must be a finite number > 0, got {value!r}")
    if len(set(config.variables)) != len(config.variables):
        raise ConfigError(f"variables list contains duplicates: {config.variables}")
    named = [("variable", name) for name in config.variables]
    named += [("dgp name", name) for name in (config.dgp.names if config.dgp else [])]
    named.append(("date column", config.date_column))
    for what, name in named:
        if not header_round_trips(name):
            raise ConfigError(
                f"{what} {name!r} has leading or trailing whitespace, which "
                f"panel CSV headers do not keep"
            )
    if config.prior.kind not in ("flat", "minnesota"):
        raise ConfigError(f"prior kind must be flat or minnesota, got {config.prior.kind!r}")
    for name, kind in config.transforms.items():
        if kind not in ("level", "log-level", "growth-rate"):
            raise ConfigError(f"unknown transform {kind!r} for variable {name!r}")
    if config.decompose and config.decompose.basis not in ("posterior-mean", "ols"):
        raise ConfigError("decompose basis must be posterior-mean or ols")
    if config.rescale is not None:
        if not config.rescale.variable:
            raise ConfigError("rescale requires a target variable")
        value = config.rescale.value
        if not _finite_number(value) or value == 0:
            raise ConfigError(f"rescale value must be a finite non-zero number, got {value!r}")
        if config.rescale.horizon > config.horizon:
            raise ConfigError(
                f"rescale horizon {config.rescale.horizon} outside the "
                f"response horizon 0..{config.horizon}"
            )
    dates = {
        "sample start": config.sample_start,
        "sample end": config.sample_end,
        "lp breakpoint": config.lp.breakpoint if config.lp else None,
        "index start": config.index.start if config.index else None,
        "index end": config.index.end if config.index else None,
        "dgp start": config.dgp.start if config.dgp else None,
    }
    for what, label in dates.items():
        if label is not None:
            try:
                parse_quarter(label)
            except DataError as exc:
                raise ConfigError(f"bad {what}: {exc}") from exc


def config_hash(config: RunConfig) -> str:
    payload = json.dumps(config.raw, sort_keys=True, default=str)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _hash_payload(payload: dict) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()


def _write_manifest(out: Path, command: str, config: RunConfig) -> Path:
    manifest = {
        "command": command,
        "config_hash": config_hash(config),
        "seed": config.seed,
        "versions": {
            "newsvar": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": ".".join(str(v) for v in sys.version_info[:3]),
        },
    }
    path = out / "manifest.json"
    write_json(manifest, path)
    return path


def _load_pipeline(config: RunConfig) -> TimeSeriesPanel:
    if not config.data:
        raise ConfigError("this command requires a 'data' path in the config")
    panel = load_panel(config.data, config.date_column)
    if config.transforms:
        panel = apply_transforms(panel, config.transforms)
    if config.sample_start or config.sample_end:
        start = config.sample_start or panel.dates[0]
        end = config.sample_end or panel.dates[-1]
        panel = align_range(panel, start, end)
    return panel


def _var_spec(config: RunConfig, panel: TimeSeriesPanel) -> VarSpec:
    order = config.variables or list(panel.names)
    missing = [name for name in order if name not in panel.names]
    if missing:
        raise ConfigError(f"variables not in panel: {missing}")
    return VarSpec(order=order, lags=config.lags, intercept=config.intercept)


def _prior_spec(config: RunConfig) -> PriorSpec:
    return PriorSpec(
        kind=config.prior.kind,
        tightness=config.prior.tightness,
        nu0=config.prior.nu0,
    )


def _fit(config: RunConfig, panel: TimeSeriesPanel) -> tuple[VarSpec, OlsFit]:
    spec = _var_spec(config, panel)
    n, nu0 = len(spec.order), config.prior.nu0
    if config.prior.kind == "minnesota" and nu0 is not None and nu0 < n + 2:
        raise ConfigError(f"prior nu0 must be >= n+2 = {n + 2} for {n} variables, got {nu0}")
    y, x = build_regressors(panel, spec)
    return spec, ols_estimate(y, x)


def _spec_key(spec: VarSpec) -> str:
    return _hash_payload(
        {"order": spec.order, "lags": spec.lags, "intercept": spec.intercept}
    )


def _prior_key(prior: PriorSpec) -> str:
    return _hash_payload(
        {"kind": prior.kind, "tightness": prior.tightness, "nu0": prior.nu0}
    )


def cmd_estimate(config: RunConfig, out: Path) -> dict[str, Path]:
    panel = _load_pipeline(config)
    spec, fit = _fit(config, panel)
    prior = _prior_spec(config)
    draws = posterior_sample(fit, prior, config.draws, config.seed)
    paths = {
        "coefficients": out / "posterior_coefficients.npy",
        "covariances": out / "posterior_covariances.npy",
        "stable": out / "posterior_stable.npy",
        "meta": out / "posterior.json",
    }
    np.save(paths["coefficients"], draws.B)
    np.save(paths["covariances"], draws.Sigma)
    np.save(paths["stable"], draws.stable)
    write_json(
        {
            "spec_hash": _spec_key(spec),
            "prior_hash": _prior_key(prior),
            "seed": config.seed,
            "n_draws": len(draws),
            "order": spec.order,
            "lags": spec.lags,
            "intercept": spec.intercept,
            "share_stable": float(draws.stable.mean()),
        },
        paths["meta"],
    )
    return paths


def _load_posterior(out: Path, config: RunConfig) -> tuple[VarSpec, PosteriorDraws]:
    """The posterior artifact in ``out``, refused when it was estimated under
    another VAR spec or prior than ``config`` describes (the config's
    ordering defaults to the stored one), holds too few draws for bands or a
    non-finite coefficient or covariance, or has arrays that are missing or
    disagree with ``posterior.json``."""
    meta_path = out / "posterior.json"
    if not meta_path.exists():
        raise DataError(
            f"no posterior artifact in {out}; run the estimate command first"
        )
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    spec = VarSpec(
        order=config.variables or list(meta["order"]),
        lags=config.lags,
        intercept=config.intercept,
    )
    for what, key, stored in (
        ("VAR spec (ordering, lags, intercept)", _spec_key(spec), meta["spec_hash"]),
        ("prior", _prior_key(_prior_spec(config)), meta["prior_hash"]),
    ):
        if key != stored:
            raise ConfigError(
                f"the posterior in {out} was estimated under a different {what} "
                f"than this config; re-run estimate"
            )
    if meta["n_draws"] < 2:
        raise ConfigError(
            f"the posterior in {out} holds {meta['n_draws']} draw; bands need at "
            f"least 2, so re-run estimate with --draws 2 or more"
        )
    try:
        draws = PosteriorDraws(
            B=np.load(out / "posterior_coefficients.npy"),
            Sigma=np.load(out / "posterior_covariances.npy"),
            stable=np.load(out / "posterior_stable.npy"),
        )
    except (OSError, ValueError) as exc:
        raise DataError(f"unreadable posterior arrays in {out}: {exc}") from None
    n = len(spec.order)
    expected = (meta["n_draws"], n * spec.lags + int(spec.intercept), n)
    if draws.B.shape != expected:
        raise DataError(
            f"posterior coefficients in {out} have shape {draws.B.shape} but "
            f"posterior.json records {expected}; re-run estimate"
        )
    finite = np.isfinite(draws.B).all(axis=(1, 2)) & np.isfinite(draws.Sigma).all(axis=(1, 2))
    if not finite.all():
        raise DataError(
            f"posterior draw {np.argmin(finite)} in {out} holds a non-finite "
            f"coefficient or covariance; re-run estimate"
        )
    return spec, draws


def cmd_irf(config: RunConfig, out: Path) -> dict[str, Path]:
    spec, draws = _load_posterior(out, config)
    shock_name = config.irf_shock or spec.order[0]
    if shock_name not in spec.order:
        raise ConfigError(f"irf_shock {shock_name!r} not in the variable ordering")
    shock = spec.order.index(shock_name)
    if config.rescale is not None and config.rescale.variable not in spec.order:
        raise ConfigError(
            f"rescale variable {config.rescale.variable!r} not in the ordering"
        )
    irfs = irf_bands(draws, spec, config.horizon)
    if config.rescale is not None:
        irfs = rescale_irf(
            irfs,
            shock=shock,
            target_variable=config.rescale.variable,
            target_h=config.rescale.horizon,
            target_value=config.rescale.value,
        )
    paths = {"csv": out / "irf.csv", "json": out / "irf.json"}
    irf_to_csv(irfs, paths["csv"])
    irf_to_json(irfs, paths["json"])
    for i, variable in enumerate(irfs.variables):
        svg = line_band_svg(
            irfs.horizons,
            irfs.median[:, i, shock],
            irfs.lower[:, i, shock],
            irfs.upper[:, i, shock],
            title=f"{variable} response to {shock_name} shock",
            ylabel=variable,
        )
        svg_path = out / f"irf_{variable}.svg"
        svg_path.write_text(svg, encoding="utf-8")
        paths[f"svg_{variable}"] = svg_path
    return paths


def cmd_decompose(config: RunConfig, out: Path) -> dict[str, Path]:
    if config.decompose is None:
        raise ConfigError("decompose command requires a 'decompose' config block")
    panel = _load_pipeline(config)
    spec, fit = _fit(config, panel)
    for name in (config.decompose.reference, config.decompose.target):
        if name not in spec.order:
            raise ConfigError(f"decompose variable {name!r} not in the VAR ordering")
    if config.decompose.basis == "ols":
        coeffs = fit.B
    else:
        coeffs = posterior_mean(fit, _prior_spec(config))
    residuals = fit.Y - fit.X @ coeffs
    ref = residuals[:, spec.order.index(config.decompose.reference)]
    tar = residuals[:, spec.order.index(config.decompose.target)]
    dec = decompose_residuals(ref, tar)
    dates = panel.dates[config.lags:]
    paths = {
        "decomposition": out / "decomposition.csv",
        "shocks": out / "shocks.csv",
        "summary": out / "decomposition.json",
    }
    decomposition_to_csv(
        dec,
        dates,
        ref,
        tar,
        paths["decomposition"],
        reference_name=config.decompose.reference,
        target_name=config.decompose.target,
    )
    common_std = standardize_shock(dec.common)
    idio_std = standardize_shock(dec.idiosyncratic)
    write_csv(
        paths["shocks"],
        ["date", "common_std", "idiosyncratic_std"],
        zip(dates, common_std.tolist(), idio_std.tolist()),
    )
    write_json(
        {
            "gamma": dec.gamma,
            "r2": dec.r2,
            "reference": config.decompose.reference,
            "target": config.decompose.target,
            "basis": config.decompose.basis,
            "n_obs": int(ref.shape[0]),
        },
        paths["summary"],
    )
    return paths


def cmd_lp(config: RunConfig, out: Path) -> dict[str, Path]:
    if config.lp is None:
        raise ConfigError("lp command requires an 'lp' config block")
    if not config.lp.shock_file or not config.lp.shock_column:
        raise ConfigError("lp config needs shock_file and shock_column")
    if not config.lp.outcomes:
        raise ConfigError("lp config needs a non-empty outcomes list")
    panel = _load_pipeline(config)
    for name in config.lp.outcomes:
        if name not in panel.names:
            raise ConfigError(f"lp outcome {name!r} not in panel")
    shocks = load_panel(config.lp.shock_file)
    # Both panels are gap-free, so their overlap is one quarterly range.
    first = max(parse_quarter(panel.dates[0]), parse_quarter(shocks.dates[0]))
    last = min(parse_quarter(panel.dates[-1]), parse_quarter(shocks.dates[-1]))
    if first > last:
        raise DataError("panel and shock series share no dates")
    span = format_quarter(first), format_quarter(last)
    panel = align_range(panel, *span)
    shock = align_range(shocks, *span).column(config.lp.shock_column)

    dummy = None
    if config.lp.breakpoint is not None:
        cut = parse_quarter(config.lp.breakpoint)
        dummy = (np.arange(first, last + 1) > cut).astype(float)

    paths: dict[str, Path] = {}
    for outcome in config.lp.outcomes:
        y = panel.column(outcome)
        title = f"{outcome} response to {config.lp.shock_column}"
        if dummy is None:
            result = shown = lp_irf(y, shock, config.horizon)
        else:
            result = lp_irf_state(y, shock, dummy, config.horizon)
            result.dummy_name = f"after {config.lp.breakpoint}"
            shown, title = result.post, title + " (post regime)"
        band = config.lp.band_se * shown.se
        svg = line_band_svg(
            shown.horizons, shown.beta, shown.beta - band, shown.beta + band,
            title=title, ylabel=outcome,
        )
        csv_path = out / f"lp_{outcome}.csv"
        json_path = out / f"lp_{outcome}.json"
        svg_path = out / f"lp_{outcome}.svg"
        lp_to_csv(result, csv_path)
        lp_to_json(result, json_path, band_se=config.lp.band_se)
        svg_path.write_text(svg, encoding="utf-8")
        paths[f"csv_{outcome}"] = csv_path
        paths[f"json_{outcome}"] = json_path
        paths[f"svg_{outcome}"] = svg_path
    paths["sample"] = out / "lp_sample.json"
    sample = {"dates_used": panel.dates, "shock_column": config.lp.shock_column}
    write_json(sample, paths["sample"])
    return paths


def cmd_index(config: RunConfig, out: Path) -> dict[str, Path]:
    if config.index is None or not config.index.events:
        raise ConfigError("index command requires an 'index' config block with events")
    events = load_events(config.index.events)
    if not events:
        raise DataError(f"no events in {config.index.events}")
    valued = assign_values(events, config.index.sigma_v, config.index.sigma_e)
    start = config.index.start or quarter_of(valued.grant_date.min().item())
    end = config.index.end or quarter_of(valued.grant_date.max().item())
    idx = build_index(valued, start, end)
    paths = {"index": out / "index.csv", "stats": out / "index_stats.json"}
    write_index(idx, paths["index"])
    try:
        stats = index_stats(idx)
        payload = {
            "level_correlation": stats.level_correlation,
            "growth_correlation": stats.growth_correlation,
            "mean_ratio": float(np.mean(stats.ratio)),
            "note": None,
        }
    except (DataError, NumericalError) as exc:
        payload = {
            "level_correlation": None,
            "growth_correlation": None,
            "mean_ratio": None,
            "note": str(exc),
        }
    write_json(payload, paths["stats"])
    return paths


def cmd_simulate(config: RunConfig, out: Path) -> dict[str, Path]:
    if config.dgp is None:
        raise ConfigError("simulate command requires a 'dgp' config block")
    if not config.dgp.coefficients or not config.dgp.impact:
        raise ConfigError("dgp config needs coefficients and impact matrices")
    try:
        dgp = Dgp(
            B=np.asarray(config.dgp.coefficients, dtype=float),
            L=np.asarray(config.dgp.impact, dtype=float),
            burn_in=config.dgp.burn_in,
            seed=config.seed,
            names=list(config.dgp.names),
            start=config.dgp.start,
        )
    except ValueError as exc:
        raise ConfigError(f"bad dgp block: {exc}") from exc
    panel, eta = simulate_var(dgp, config.dgp.periods)
    paths = {
        "panel": out / "panel.csv",
        "shocks": out / "structural_shocks.csv",
        "dgp": out / "dgp.json",
    }
    write_panel(panel, paths["panel"], date_column=config.date_column)
    write_csv(
        paths["shocks"],
        ["date", *(f"shock_{name}" for name in panel.names)],
        ([date, *row] for date, row in zip(panel.dates, eta.tolist())),
    )
    write_json(
        {
            "spectral_radius": dgp.spectral_radius,
            "n_vars": dgp.n_vars,
            "lags": dgp.lags,
            "burn_in": dgp.burn_in,
            "periods": config.dgp.periods,
            "seed": config.seed,
        },
        paths["dgp"],
    )
    return paths


_DISPATCH = {
    "estimate": cmd_estimate,
    "irf": cmd_irf,
    "decompose": cmd_decompose,
    "lp": cmd_lp,
    "index": cmd_index,
    "simulate": cmd_simulate,
}


def run(config: RunConfig, command: str) -> dict[str, Path]:
    """Execute one command; returns the artifact paths it wrote."""
    if command not in _DISPATCH:
        raise ConfigError(f"unknown command {command!r}; choose from {COMMANDS}")
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    paths = _DISPATCH[command](config, out)
    paths["manifest"] = _write_manifest(out, command, config)
    return paths


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="newsvar",
        description="VAR shock identification, local projections, and patent indices",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name, help=f"run the {name} step")
        cmd.add_argument("--config", required=True, help="YAML run configuration")
        cmd.add_argument("--out", help="output directory (overrides config)")
        cmd.add_argument("--seed", type=int, help="random seed (overrides config)")
        cmd.add_argument("--draws", type=int, help="posterior draws (overrides config)")
        cmd.add_argument("--horizon", type=int, help="response horizon (overrides config)")
    args = parser.parse_args(argv)
    overrides = {
        "out": args.out,
        "seed": args.seed,
        "draws": args.draws,
        "horizon": args.horizon,
    }
    try:
        config = load_config(args.config, overrides)
        paths = run(config, args.command)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (NumericalError, ValueError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 4
    for name, path in sorted(paths.items()):
        print(f"{name}: {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
