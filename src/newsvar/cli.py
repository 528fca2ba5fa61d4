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
import itertools
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
    MissingDateColumnError,
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
    IrfSet,
    decompose_residuals,
    decomposition_to_csv,
    # cmd_irf does not call it, but perfbench's CLI_TABLE traces it by this name
    irf_bands,
    irf_to_csv,
    irf_to_json,
    rescale_irf,
    shock_irf_bands,
    standardize_shock,
)
from .svgplot import line_band_svg
from .synth import Dgp, simulate_var

COMMANDS = ("estimate", "irf", "decompose", "lp", "index", "simulate")
_VAR = ("estimate", "irf", "decompose")
_PANEL = ("estimate", "decompose", "lp")


def _number(value) -> bool:
    """A finite int or float; a bool is not taken as a number."""
    return not isinstance(value, bool) and isinstance(value, (int, float)) and math.isfinite(value)


def _strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(item, str) for item in value)


def _quarter(value) -> bool:
    try:
        parse_quarter(value)
    except DataError:
        return False
    return isinstance(value, str)


# The kinds of config value: each one's test and what its message says a
# value must be.
_KINDS = {
    "int": (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    "positive": (lambda v: _number(v) and v > 0, "a finite number > 0"),
    "nonzero": (lambda v: _number(v) and v != 0, "a finite non-zero number"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "path": (lambda v: isinstance(v, str) and v != "", "a non-empty path"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "names": (_strings, "a list of strings"),
    "mapping": (
        lambda v: isinstance(v, dict) and _strings([*v, *v.values()]),
        "a mapping of strings to strings",
    ),
    "quarter": (_quarter, "a quarter label like 1961Q1"),
    "matrix": (
        lambda v: isinstance(v, list)
        and all(_number(x) or isinstance(x, list) and all(map(_number, x)) for x in v),
        "a list of rows of finite numbers",
    ),
}


def _key(kind, default=None, **rules):
    """A config key of ``kind``, a ``_KINDS`` name or a block's dataclass
    (a callable default is a factory), with its rules: ``reads``, the
    commands that read it (a block's keys inherit the block's);
    ``required``, the key must be given for those commands; ``least`` and
    ``choices`` bound its values; ``header``, its names must survive as
    unique panel CSV headers; ``ordered``, its names must be variables of
    the ordering the command reads."""
    rules["kind"] = kind
    if callable(default):
        return field(default_factory=default, metadata=rules)
    return field(default=default, metadata=rules)


@dataclass
class PriorConfig:
    kind: str = _key("str", "minnesota", choices=("flat", "minnesota"))
    tightness: float = _key("positive", 0.2)
    nu0: float | None = _key("positive")


@dataclass
class RescaleConfig:
    variable: str = _key("str", "", required=True, ordered=True)
    horizon: int = _key("int", 10, least=0)
    value: float = _key("nonzero", 1.0)


@dataclass
class DecomposeConfig:
    reference: str = _key("str", "", required=True, ordered=True)
    target: str = _key("str", "", required=True, ordered=True)
    basis: str = _key("str", "posterior-mean", choices=("posterior-mean", "ols"))


@dataclass
class LpConfig:
    shock_file: str = _key("path", "", required=True)
    shock_column: str = _key("str", "", required=True)
    outcomes: list[str] = _key("names", list, required=True, ordered=True)
    breakpoint: str | None = _key("quarter")
    band_se: float = _key("positive", 1.0)


@dataclass
class DgpConfig:
    coefficients: list = _key("matrix", list, required=True)
    impact: list = _key("matrix", list, required=True)
    periods: int = _key("int", 300, least=1)
    burn_in: int = _key("int", 200, least=0)
    start: str = _key("quarter", "1900Q1")
    names: list[str] = _key("names", list, header=True)


@dataclass
class IndexConfig:
    events: str = _key("path", "", required=True)
    sigma_v: float = _key("positive", 0.02)
    sigma_e: float = _key("positive", 0.02)
    start: str | None = _key("quarter")
    end: str | None = _key("quarter")


@dataclass
class RunConfig:
    """Everything a run needs; defaults follow the benchmark setup (four
    lags, intercept, 1000 draws, twenty-quarter horizon). The fields of
    this class and of its blocks are the table of config keys."""

    out: str = _key("path", "out", reads=COMMANDS)
    seed: int = _key("int", 0, least=0, reads=("estimate", "simulate"))
    draws: int = _key("int", 1000, least=1, reads=("estimate",))
    horizon: int = _key("int", 20, least=1, reads=("irf", "lp"))
    data: str | None = _key("path", required=True, reads=_PANEL)
    date_column: str = _key("str", "date", header=True, reads=(*_PANEL, "simulate"))
    transforms: dict[str, str] = _key(
        "mapping", dict, choices=("level", "log-level", "growth-rate"), reads=_PANEL
    )
    sample_start: str | None = _key("quarter", reads=_PANEL)
    sample_end: str | None = _key("quarter", reads=_PANEL)
    variables: list[str] = _key("names", list, header=True, reads=_VAR)
    lags: int = _key("int", 4, least=1, reads=_VAR)
    intercept: bool = _key("bool", True, reads=_VAR)
    prior: PriorConfig = _key(PriorConfig, PriorConfig, reads=_VAR)
    irf_shock: str | None = _key("str", ordered=True, reads=("irf",))
    rescale: RescaleConfig | None = _key(RescaleConfig, reads=("irf",))
    decompose: DecomposeConfig | None = _key(DecomposeConfig, required=True, reads=("decompose",))
    lp: LpConfig | None = _key(LpConfig, required=True, reads=("lp",))
    dgp: DgpConfig | None = _key(DgpConfig, required=True, reads=("simulate",))
    index: IndexConfig | None = _key(IndexConfig, required=True, reads=("index",))
    raw: dict = field(default_factory=dict, repr=False)


def _check(label: str, rules: dict, value) -> None:
    """ConfigError unless ``value`` is of its key's kind and within its rules."""
    kind = rules["kind"]
    test, what = _KINDS[kind]
    if not test(value):
        # the float kinds spell their key "prior tightness", not "prior.tightness"
        spelled = label.replace(".", " ") if kind in ("positive", "nonzero") else label
        raise ConfigError(f"{spelled} must be {what}, got {value!r}")
    least, choices = rules.get("least"), rules.get("choices")
    if least is not None and value < least:
        raise ConfigError(f"{label} must be >= {least}, got {value}")
    for item in value.values() if kind == "mapping" else [value]:
        if choices and item not in choices:
            raise ConfigError(f"{label} must be one of {', '.join(choices)}, got {item!r}")
    if rules.get("header"):
        names = value if kind == "names" else [value]
        if len(set(names)) != len(names):
            raise ConfigError(f"{label} list contains duplicates: {value}")
        for name in names:
            if not header_round_trips(name):
                raise ConfigError(
                    f"{label} {name!r} has leading or trailing whitespace, which "
                    f"panel CSV headers do not keep"
                )


def _build(cls, doc, block: str = ""):
    """``cls`` from the mapping ``doc``, each key it gives checked; a null
    value leaves a key whose default is None unset."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{block or 'config'} must be a mapping, got {type(doc).__name__}")
    fields = {f.name: f for f in dataclasses.fields(cls) if "kind" in f.metadata}
    unknown = set(doc) - set(fields)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {block or 'config'}")
    values = {}
    for name, value in doc.items():
        label, kind = f"{block}.{name}" if block else name, fields[name].metadata["kind"]
        if value is None and fields[name].default is None:
            continue
        if dataclasses.is_dataclass(kind):
            value = _build(kind, value, label)
        else:
            _check(label, fields[name].metadata, value)
        values[name] = value
    return cls(**values)


def _walk(config, block: str = "", reads=COMMANDS):
    """(label, rules, owner, name) of each key of ``config``; each given
    block is followed by its keys, which the block's commands read."""
    for f in dataclasses.fields(config):
        if "kind" in f.metadata:
            rules = {"reads": reads, **f.metadata}
            yield f"{block}{f.name}", rules, config, f.name
            value = getattr(config, f.name)
            if dataclasses.is_dataclass(value):
                yield from _walk(value, f"{block}{f.name}.", rules["reads"])


def load_config(path, overrides: dict | None = None) -> RunConfig:
    """Parse a YAML run configuration and check every key it gives against
    the key table; relative paths resolve against the config file's
    directory."""
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
    doc.update((key, value) for key, value in (overrides or {}).items() if value is not None)

    config = _build(RunConfig, doc)
    config.raw = dataclasses.asdict(config)
    del config.raw["raw"]
    if config.rescale is not None and config.rescale.horizon > config.horizon:
        raise ConfigError(
            f"rescale horizon {config.rescale.horizon} outside the "
            f"response horizon 0..{config.horizon}"
        )
    ranges = {"sample": (config.sample_start, config.sample_end)}
    if config.index is not None:
        ranges["index"] = (config.index.start, config.index.end)
    for label, (start, end) in ranges.items():
        if start and end and parse_quarter(start) > parse_quarter(end):
            raise ConfigError(f"{label} start {start} is after end {end}")
    dec = config.decompose
    if dec and dec.reference and dec.reference == dec.target:
        raise ConfigError(f"decompose reference and target must differ, both are {dec.target!r}")
    for _, rules, owner, name in _walk(config):
        if rules["kind"] == "path" and getattr(owner, name):
            setattr(owner, name, str((path.parent / getattr(owner, name)).resolve()))
    return config


def _require(config: RunConfig, command: str) -> None:
    """ConfigError naming the first key ``command`` needs that the config
    does not give."""
    for label, rules, owner, name in _walk(config):
        if rules.get("required") and command in rules["reads"] and not getattr(owner, name):
            raise ConfigError(f"the {command} command needs '{label}' in the config")


def _check_ordering(config: RunConfig, command: str, order: list[str]) -> None:
    """ConfigError unless every variable name that ``command`` reads from
    the config is in ``order`` (the VAR ordering, or the panel's for lp)
    and a Minnesota nu0 is at least n+2 for its n variables."""
    for label, rules, owner, name in _walk(config):
        value = getattr(owner, name)
        if rules.get("ordered") and command in rules["reads"] and value:
            for item in [value] if isinstance(value, str) else value:
                if item not in order:
                    raise ConfigError(f"{label} {item!r} not in the variables {order}")
    n, nu0 = len(order), config.prior.nu0
    if command in _VAR and config.prior.kind == "minnesota" and nu0 is not None and nu0 < n + 2:
        raise ConfigError(f"prior nu0 must be >= n+2 = {n + 2} for {n} variables, got {nu0}")


def _digest(payload) -> str:
    """SHA-256 of ``payload`` as sorted-key JSON, a dataclass as its fields."""
    text = json.dumps(payload, sort_keys=True, default=dataclasses.asdict)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def config_hash(config: RunConfig) -> str:
    return _digest(config.raw)


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
    try:
        panel = load_panel(config.data, config.date_column)
    except MissingDateColumnError as exc:
        # the panel may lack the default date column; one the config names
        # is the config's to get right
        if config.date_column == RunConfig.date_column:
            raise
        raise ConfigError(f"date_column: {exc} of {config.data}") from None
    missing = [name for name in config.transforms if name not in panel.names]
    if missing:
        raise ConfigError(
            f"transforms name variables not in the panel {config.data}: {missing}"
        )
    if config.transforms:
        panel = apply_transforms(panel, config.transforms)
    if config.sample_start or config.sample_end:
        start = config.sample_start or panel.dates[0]
        end = config.sample_end or panel.dates[-1]
        panel = align_range(panel, start, end)
    return panel


def _prior_spec(config: RunConfig) -> PriorSpec:
    return PriorSpec(**dataclasses.asdict(config.prior))


def _fit(config: RunConfig, panel: TimeSeriesPanel, command: str) -> OlsFit:
    """OLS of the config's VAR on ``panel``; the fit carries the VarSpec."""
    order = config.variables or list(panel.names)
    missing = [name for name in order if name not in panel.names]
    if missing:
        raise ConfigError(f"variables not in panel: {missing}")
    _check_ordering(config, command, order)
    spec = VarSpec(order, config.lags, config.intercept)
    y, x = build_regressors(panel, spec)
    return ols_estimate(y, x, spec)


def _posterior_paths(out: Path) -> dict[str, Path]:
    """The files of the posterior arrays in ``out``, in the field order of
    ``PosteriorDraws`` (B, Sigma, stable)."""
    names = ("coefficients", "covariances", "stable")
    return {name: out / f"posterior_{name}.npy" for name in names}


def _check_file_names(names, error: type[Exception], what: str) -> None:
    """``error`` for the first of ``names`` that cannot be part of a file
    name: one holding a '/' or a NUL."""
    for name in names:
        if "/" in name or "\0" in name:
            raise error(f"{what} {name!r} holds a '/' or NUL, so it cannot name an artifact file")


def cmd_estimate(config: RunConfig, out: Path) -> dict[str, Path]:
    fit = _fit(config, _load_pipeline(config), "estimate")
    draws = posterior_sample(fit, _prior_spec(config), config.draws, config.seed)
    paths = _posterior_paths(out)
    for path, array in zip(paths.values(), (draws.B, draws.Sigma, draws.stable)):
        np.save(path, array)
    paths["meta"] = out / "posterior.json"
    write_json(
        {
            **dataclasses.asdict(fit.spec),
            "spec_hash": _digest(fit.spec),
            "prior_hash": _digest(config.prior),
            "seed": config.seed,
            "n_draws": len(draws),
            "share_stable": float(draws.stable.mean()),
        },
        paths["meta"],
    )
    return paths


def _load_posterior(out: Path, config: RunConfig) -> tuple[VarSpec, PosteriorDraws]:
    """The posterior artifact in ``out``, refused when it was estimated under
    another VAR spec or prior than ``config`` describes (the config's
    ordering defaults to the stored one), has arrays that are missing or
    disagree with ``posterior.json``, holds too few draws for bands, or holds
    a non-finite coefficient or covariance. A ``posterior.json`` that is not
    an object holding each field read here, of its kind, is a data error."""
    meta_path = out / "posterior.json"
    if not meta_path.exists():
        raise DataError(f"no posterior artifact in {out}; run the estimate command first")
    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise DataError(f"unreadable {meta_path}: {exc}") from None
    if not isinstance(meta, dict):
        raise DataError(
            f"malformed {meta_path}: expected a JSON object, got {json.dumps(meta)[:40]}; "
            f"re-run estimate"
        )
    fields = {"spec_hash": "str", "prior_hash": "str", "n_draws": "int"}
    if not config.variables:
        fields["order"] = "names"
    for key, kind in fields.items():
        test, what = _KINDS[kind]
        if key not in meta or not test(meta[key]):
            got = f"got {meta[key]!r}" if key in meta else "it is missing"
            raise DataError(f"malformed {meta_path}: {key!r} must be {what}, {got}; re-run estimate")
    spec = VarSpec(config.variables or list(meta["order"]), config.lags, config.intercept)
    _check_ordering(config, "irf", spec.order)
    for what, key, stored in (
        ("VAR spec (ordering, lags, intercept)", _digest(spec), meta["spec_hash"]),
        ("prior", _digest(config.prior), meta["prior_hash"]),
    ):
        if key != stored:
            raise ConfigError(
                f"the posterior in {out} was estimated under a different {what} "
                f"than this config; re-run estimate"
            )
    try:
        draws = PosteriorDraws(*map(np.load, _posterior_paths(out).values()))
    except (OSError, ValueError) as exc:
        raise DataError(f"unreadable posterior arrays in {out}: {exc}") from None
    expected = (meta["n_draws"], spec.k, len(spec.order))
    if draws.B.shape != expected:
        raise DataError(
            f"posterior coefficients in {out} have shape {draws.B.shape} but "
            f"posterior.json records {expected}; re-run estimate"
        )
    # after the shape check, so a count estimate cannot have written (0 or
    # negative) is damage, not a posterior too small for bands
    if meta["n_draws"] < 2:
        raise ConfigError(
            f"the posterior in {out} holds {meta['n_draws']} draw; bands need at "
            f"least 2, so re-run estimate with --draws 2 or more"
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
    if config.variables:
        _check_file_names(spec.order, ConfigError, "variables")
    else:
        _check_file_names(spec.order, DataError, "the panel's variable")
    shock_name = config.irf_shock or spec.order[0]
    shock = spec.order.index(shock_name)
    rescale = config.rescale
    if rescale is not None and rescale.horizon == 0 and spec.order.index(rescale.variable) < shock:
        raise ConfigError(
            f"rescale variable {rescale.variable!r} is ordered before shock {shock_name!r} "
            f"in {spec.order}, so its response at h=0 is zero by the Cholesky ordering; "
            f"rescale at a later horizon or reorder the variables"
        )
    bands, reported = shock_irf_bands(draws, spec, config.horizon, shock)
    # This frame holds the last reference to B and Sigma; drop it so the
    # rescale's copy of the shock does not stack on the posterior.
    del draws
    if rescale is not None:
        reported = rescale_irf(
            reported, shock=0, target_variable=rescale.variable,
            target_h=rescale.horizon, target_value=rescale.value,
        )
        bands[..., shock:shock + 1] = reported.lower, reported.median, reported.upper
    # The writers read only the bands, so this set of every shock holds no draws.
    lower, median, upper = bands
    irfs = IrfSet(
        responses=np.empty((0,) + bands.shape[1:]), horizons=reported.horizons,
        variables=reported.variables, shocks=list(spec.order),
        lower=lower, median=median, upper=upper, scale_note=reported.scale_note,
    )
    paths = {"csv": out / "irf.csv", "json": out / "irf.json"}
    irf_to_csv(irfs, paths["csv"])
    irf_to_json(irfs, paths["json"])
    for i, variable in enumerate(irfs.variables):
        svg = line_band_svg(
            irfs.horizons, irfs.median[:, i, shock], irfs.lower[:, i, shock],
            irfs.upper[:, i, shock], title=f"{variable} response to {shock_name} shock",
            ylabel=variable,
        )
        svg_path = out / f"irf_{variable}.svg"
        svg_path.write_text(svg, encoding="utf-8")
        paths[f"svg_{variable}"] = svg_path
    return paths


def cmd_decompose(config: RunConfig, out: Path) -> dict[str, Path]:
    panel = _load_pipeline(config)
    fit = _fit(config, panel, "decompose")
    order = fit.spec.order
    ols = config.decompose.basis == "ols"
    residuals = fit.Y - fit.X @ (fit.B if ols else posterior_mean(fit, _prior_spec(config)))
    ref = residuals[:, order.index(config.decompose.reference)]
    tar = residuals[:, order.index(config.decompose.target)]
    dec = decompose_residuals(ref, tar)
    dates = panel.dates[fit.spec.lags:]
    paths = {
        "decomposition": out / "decomposition.csv",
        "shocks": out / "shocks.csv",
        "summary": out / "decomposition.json",
    }
    decomposition_to_csv(
        dec, dates, ref, tar, paths["decomposition"],
        reference_name=config.decompose.reference, target_name=config.decompose.target,
    )
    common_std = standardize_shock(dec.common)
    idio_std = standardize_shock(dec.idiosyncratic)
    write_csv(
        paths["shocks"],
        ["date", "common_std", "idiosyncratic_std"],
        zip(dates, common_std.tolist(), idio_std.tolist()),
    )
    summary = {"gamma": dec.gamma, "r2": dec.r2, "n_obs": int(ref.shape[0])}
    write_json({**summary, **dataclasses.asdict(config.decompose)}, paths["summary"])
    return paths


def cmd_lp(config: RunConfig, out: Path) -> dict[str, Path]:
    _check_file_names(config.lp.outcomes, ConfigError, "lp.outcomes")
    panel = _load_pipeline(config)
    _check_ordering(config, "lp", panel.names)
    shocks = load_panel(config.lp.shock_file)
    if config.lp.shock_column not in shocks.names:
        raise ConfigError(
            f"lp.shock_column {config.lp.shock_column!r} not in the columns "
            f"{shocks.names} of {config.lp.shock_file}"
        )
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
        files = {kind: out / f"lp_{outcome}.{kind}" for kind in ("csv", "json", "svg")}
        lp_to_csv(result, files["csv"])
        lp_to_json(result, files["json"], band_se=config.lp.band_se)
        files["svg"].write_text(svg, encoding="utf-8")
        paths.update((f"{kind}_{outcome}", path) for kind, path in files.items())
    paths["sample"] = out / "lp_sample.json"
    sample = {"dates_used": panel.dates, "shock_column": config.lp.shock_column}
    write_json(sample, paths["sample"])
    return paths


def cmd_index(config: RunConfig, out: Path) -> dict[str, Path]:
    events = load_events(config.index.events)
    if not events:
        raise DataError(f"no events in {config.index.events}")
    valued = assign_values(events, config.index.sigma_v, config.index.sigma_e)
    start = config.index.start or quarter_of(valued.grant_date.min().item())
    end = config.index.end or quarter_of(valued.grant_date.max().item())
    idx = build_index(valued, start, end)
    paths = {"index": out / "index.csv", "stats": out / "index_stats.json"}
    write_index(idx, paths["index"])
    payload = dict.fromkeys(("level_correlation", "growth_correlation", "mean_ratio", "note"))
    try:
        stats = index_stats(idx)
        payload["level_correlation"] = stats.level_correlation
        payload["growth_correlation"] = stats.growth_correlation
        payload["mean_ratio"] = float(np.mean(stats.ratio))
    except (DataError, NumericalError) as exc:
        payload["note"] = str(exc)
    write_json(payload, paths["stats"])
    return paths


def cmd_simulate(config: RunConfig, out: Path) -> dict[str, Path]:
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
    radius = dgp.spectral_radius
    if radius >= 1.0:
        raise ConfigError(f"bad dgp block: companion spectral radius {radius!r} is not below 1")
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
    facts = {"spectral_radius": radius, "n_vars": dgp.n_vars, "lags": dgp.lags}
    facts.update(burn_in=dgp.burn_in, periods=config.dgp.periods, seed=config.seed)
    write_json(facts, paths["dgp"])
    return paths


_DISPATCH = dict(
    zip(COMMANDS, (cmd_estimate, cmd_irf, cmd_decompose, cmd_lp, cmd_index, cmd_simulate))
)


def run(config: RunConfig, command: str) -> dict[str, Path]:
    """Execute one command; returns the artifact paths it wrote."""
    if command not in _DISPATCH:
        raise ConfigError(f"unknown command {command!r}; choose from {COMMANDS}")
    _require(config, command)
    out = Path(config.out)
    made = list(itertools.takewhile(lambda d: not d.exists(), (out, *out.parents)))
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make the output directory {out}: {exc}") from exc
    try:
        paths = _DISPATCH[command](config, out)
        paths["manifest"] = _write_manifest(out, command, config)
    except BaseException as exc:
        # A failed command leaves behind no empty directory that it made.
        # Deepest first; rmdir refuses a directory that holds anything.
        for directory in made:
            try:
                directory.rmdir()
            except OSError:
                break
        # The commands map their reads to DataError or ConfigError, so an
        # OSError here comes from writing an artifact.
        if isinstance(exc, OSError):
            raise ConfigError(f"cannot write {exc.filename or out}: {exc.strerror or exc}") from exc
        raise
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
    overrides = {key: getattr(args, key) for key in ("out", "seed", "draws", "horizon")}
    try:
        config = load_config(args.config, overrides)
        paths = run(config, args.command)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (NumericalError, ValueError, np.linalg.LinAlgError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 4
    for name, path in sorted(paths.items()):
        print(f"{name}: {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
