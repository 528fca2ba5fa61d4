"""Every refusal of the newsvar CLI as one table of rows, and one runner
that checks a row in process or in a fresh interpreter.

A row runs one command on a copy of a base fixture after its edits to the
config, the panel, the posterior or the events file. The contract is the
same for every row: the exit code, exactly one stderr line that carries
the code's class ("config error: ", "data error: ", "numerical error: ")
and matches the row's regex, no traceback, and an output directory the
command left as it found it (absent, or with ``kept`` holding the same
files and bytes). In a regex, ``{run}`` stands for the run directory.

Each row's id is the node id of the test it runs as in process: ``host``
binds the rows into the test modules they name. As a script, every row
runs in a fresh interpreter through ``python -m newsvar.cli``::

    python tests/misuse.py
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable

import numpy as np

CFG = "run.yaml"

# Each command exits 0 on this config in the base fixtures.
CONFIG = """\
out: work
seed: 3
data: panel.csv
variables: [ng, g, tfp]
lags: 2
prior: {kind: minnesota, tightness: 0.2}
draws: 20
horizon: 8
decompose: {reference: ng, target: g}
lp: {shock_file: shocks.csv, shock_column: idiosyncratic_std, outcomes: [ng]}
index: {events: events.csv, sigma_v: 0.02, sigma_e: 0.02}
dgp:
  coefficients: [[0.1, 0.0, 0.0], [0.5, 0.1, 0.0], [0.0, 0.4, 0.1], [0.1, 0.0, 0.3]]
  impact: [[1.0, 0.0, 0.0], [0.5, 0.8, 0.0], [0.2, 0.1, 0.6]]
  periods: 120
  burn_in: 100
  start: 1950Q1
  names: [ng, g, tfp]
"""

# With sigma_v = sigma_e = 0.02 these returns reach every branch of
# patentval._erfcx: both depths of the continued fraction (-3, -0.2), the
# Taylor centre, the reflection (0.2) and its inf (1.5).
RETURNS = (-3.0, -0.2, -0.01, 0.0, 0.004, 0.2, 1.5)
EVENTS = "grant_date,firm_id,green,window_return,market_cap\n" + "".join(
    f"{np.datetime64('2000-01-01') + np.timedelta64(13 * i, 'D')},firm{i % 5},{i % 2},"
    f"{RETURNS[i % 7]!r},{1e9 * (1 + i % 3)!r}\n"
    for i in range(40)
)

PREFIX = {2: "config error: ", 3: "data error: ", 4: "numerical error: "}


@contextlib.contextmanager
def quiet():
    """The CLI's stderr, as a StringIO, and its stdout discarded."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        yield err


def build_bases(root: Path) -> Path:
    """The base fixtures under ``root``: ``inputs`` holds the config, the
    panel its DGP simulates, the shock series its decomposition writes and
    patent events; ``posterior`` adds what estimate writes to ``work``.
    Every command must exit 0 on them."""
    from newsvar import cli

    inputs = root / "inputs"
    inputs.mkdir(parents=True)
    (inputs / CFG).write_text(CONFIG, encoding="utf-8")
    (inputs / "events.csv").write_text(EVENTS, encoding="utf-8")

    ran("simulate", "--out", "clean")(inputs)
    shutil.copy(inputs / "clean" / "panel.csv", inputs)
    ran("decompose", "--out", "clean")(inputs)
    shutil.copy(inputs / "clean" / "shocks.csv", inputs)
    for command in cli.COMMANDS:
        ran(command, "--out", "clean")(inputs)
    shutil.rmtree(inputs / "clean")
    shutil.copytree(inputs, root / "posterior")
    ran("estimate")(root / "posterior")
    return root


# An edit changes the copy of a base fixture in the run directory it is given.
Edit = Callable[[Path], None]


def text(change: Callable[[str], str], name: str = CFG) -> Edit:
    def edit(run):
        path = run / name
        path.write_text(change(path.read_text(encoding="utf-8")), encoding="utf-8")

    return edit


def sub(replacements: dict[str, str], name: str = CFG) -> Edit:
    """Each key of ``replacements``, which must occur in ``name``, replaced
    by its value, in order."""

    def change(content):
        for old, new in replacements.items():
            assert old in content, f"{old!r} is not in {name}"
            content = content.replace(old, new)
        return content

    return text(change, name)


def append(content: str | bytes, name: str = CFG) -> Edit:
    def edit(run):
        with open(run / name, "ab") as fh:
            fh.write(content if isinstance(content, bytes) else content.encode("utf-8"))

    return edit


def put(content: str | bytes, name: str = CFG) -> Edit:
    def edit(run):
        (run / name).write_bytes(content if isinstance(content, bytes) else content.encode("utf-8"))

    return edit


def remove(name: str) -> Edit:
    return lambda run: (run / name).unlink()


def directory(name: str) -> Edit:
    """An empty directory in place of the file ``name``, or where none is."""

    def edit(run):
        (run / name).unlink(missing_ok=True)
        (run / name).mkdir(parents=True)

    return edit


def truncate(name: str, keep: int) -> Edit:
    def edit(run):
        path = run / name
        path.write_bytes(path.read_bytes()[:keep])

    return edit


def array(name: str, change: Callable[[np.ndarray], np.ndarray]) -> Edit:
    def edit(run):
        path = run / "work" / f"posterior_{name}.npy"
        np.save(path, change(np.load(path)))

    return edit


def meta(change: Callable[[dict], object]) -> Edit:
    """``work/posterior.json`` replaced by ``change`` of what estimate stored."""

    def edit(run):
        path = run / "work" / "posterior.json"
        path.write_text(json.dumps(change(json.loads(path.read_text()))), encoding="utf-8")

    return edit


def column(name: str, col: str, value: Callable[[int, dict], str], quoting=csv.QUOTE_MINIMAL):
    """Column ``col`` of the CSV file ``name``, appended when it is new, set
    to ``value(line, row)`` on each data line."""

    def edit(run):
        path = run / name
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            header = list(reader.fieldnames) + [col] * (col not in reader.fieldnames)
            rows = [{**row, col: value(line, row)} for line, row in enumerate(reader, start=2)]
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, header, quoting=quoting, lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)

    return edit


def ran(*args: str) -> Edit:
    """A command that must exit 0 on the config in the directory it is
    given, run in this process."""

    def edit(run):
        from newsvar import cli

        with quiet() as err:
            code = cli.main([*args, "--config", str(run / CFG)])
        assert code == 0, f"{args} exited {code}: {err.getvalue()}"

    return edit


class Row:
    """``args``, a command and its flags (the runner adds --config), run
    on the fixture ``base`` after ``edits``, must exit ``code`` with the
    regex ``line`` matching its stderr line after the class prefix. The
    directory ``out`` is absent before and after, or, when ``kept``, keeps
    its files and bytes."""

    def __init__(self, id, args, code, line, *edits, base="inputs", out="work", kept=False):
        self.id, self.args, self.code, self.line = id, args, code, line
        self.edits, self.base, self.out, self.kept = edits, base, out, kept


def exact(message: str) -> str:
    """The regex that matches only ``message``, its {run} kept."""
    return re.escape(message).replace(re.escape("{run}"), "{run}")


EXITS = "test_cli.py::TestConfigAndExitCodes::"
POSTERIOR = "test_cli.py::TestPosteriorArtifact::"
UNWRITABLE = "test_cli.py::TestUnwritableArtifacts::"
LP = "test_cli.py::TestLp::"
INDEX = "test_cli.py::TestIndexCommand::"
NAMES = "test_cli.py::TestNamesInFileNames::"
DECOMPOSE = "test_cli.py::TestDecompose::"
KEYS = "test_config.py::"
ROW = "test_misuse.py::test_row"  # cases that were no test: CI's and new ones

ORDER = "variables: [ng, g, tfp]\n"
MINNESOTA = "kind: minnesota, tightness: 0.2"
RESCALE = "rescale: {{variable: g, horizon: {}, value: {}}}\n"
NO_PANEL = r"cannot read panel file {run}/nope\.csv: .*"
NO_DATA = {"data: panel.csv": "data: nope.csv"}
WHITESPACE = "{} {!r} has leading or trailing whitespace, which panel CSV headers do not keep"
WORK = "the posterior in {run}/work"
SPEC = exact(f"{WORK} was estimated under a different VAR spec (ordering, lags, intercept) "
             f"than this config; re-run estimate")
PRIOR = exact(f"{WORK} was estimated under a different prior than this config; re-run estimate")
ARRAYS = r"unreadable posterior arrays in {run}/work: .*"
META = exact("{run}/work/posterior.json")
SVG = exact("{run}/work/lp_ng.svg: figure 'ng response to idiosyncratic_std'")
BAD_CELL = exact("row 6: non-numeric cell")


def shape(got, recorded) -> str:
    return exact(f"posterior coefficients in {{run}}/work have shape {got} but posterior.json "
                 f"records {recorded}; re-run estimate")


def scaled(factor: float) -> Edit:
    return column("panel.csv", "ng", lambda line, row: repr(float(row["ng"]) * factor))


def market_cap_oops(line, row):
    return "oops" if line == 6 else row["market_cap"]


def setting(index, value) -> Callable[[np.ndarray], np.ndarray]:
    def change(values):
        values[index] = value
        return values

    return change


ROWS = (
    # the config file itself
    Row(EXITS + "test_missing_config_file", "simulate", 2,
        r"cannot read config {run}/run\.yaml: .*", remove(CFG)),
    Row(ROW + "[config-not-utf8]", "simulate", 2,
        exact("config {run}/run.yaml is not valid UTF-8: invalid continuation byte"),
        put(b"out: o\nseed: 1\n# caf\xe9\n"), out="o"),
    Row(EXITS + "test_invalid_yaml_is_config_error", "simulate", 2,
        r"invalid YAML in {run}/run\.yaml: while parsing a flow sequence at line 1, .*",
        put("out: [unclosed\nseed: 1\n")),
    Row(EXITS + "test_set_tag_on_a_scalar_is_invalid_yaml", "simulate", 2,
        r"invalid YAML in {run}/run\.yaml: expected a mapping node, but found scalar at .*",
        sub({"out: work": "out: !!set 3"})),
    Row(KEYS + "test_output_path_that_is_a_file_is_config_error", "simulate", 2,
        r"cannot make the output directory {run}/run\.yaml: .*",
        sub({"out: work": "out: run.yaml"})),
    Row(EXITS + "test_unknown_key_rejected", "simulate", 2,
        exact("unknown key(s) ['bogus_key'] in config"), append("bogus_key: 1\n")),
    *(
        Row(ROW + f"[{key}-top-level]", "estimate", 2,
            exact(f"unknown key(s) ['{key}'] in config; the range is sample: {{start, end}}"),
            append(extra))
        for key, extra in (
            # before: loaded with no end, sample: overwriting sample_end
            ("sample_end", "sample: {start: 1960Q1, end: null}\nsample_end: 1975Q4\n"),
            # before: sample: silently took the start
            ("sample_start", "sample_start: 1955Q1\nsample: {start: 1960Q1}\n"),
        )
    ),
    *(
        Row(EXITS + f"test_repeated_key_is_config_error[{case}]", "simulate", 2,
            exact(f"key {key!r} repeated on line {line}"), sub({old: new}))
        for case, old, new, key, line in (
            ("top-level", "seed: 3\n", "seed: 1\nseed: 2\n", "seed", 3),
            ("block", f"prior: {{{MINNESOTA}}}\n",
             "prior:\n  kind: minnesota\n  tightness: 0.1\n  tightness: 0.2\n", "tightness", 9),
            ("flow", MINNESOTA, "kind: flat, kind: minnesota", "kind", 6),
            ("quoted", "seed: 3\n", "'seed': 1\nseed: 2\n", "seed", 3),
        )
    ),
    Row(ROW + "[repeated]", "simulate", 2,
        exact(f"key 'seed' repeated on line {CONFIG.count(chr(10)) + 1}"), append("seed: 4\n")),
    # keys outside their kind or rules
    Row(EXITS + "test_bad_horizon_rejected", "simulate", 2,
        exact("horizon must be >= 1, got -1"), sub({"horizon: 8": "horizon: -1"})),
    Row(EXITS + "test_malformed_breakpoint_is_config_error", "lp", 2,
        exact("lp.breakpoint must be a quarter label like 1961Q1, got '1990-Q4'"),
        sub({"outcomes: [ng]}": "outcomes: [ng], breakpoint: 1990-Q4}"})),
    Row(EXITS + "test_malformed_sample_date_is_config_error", "estimate", 2,
        exact("sample_start must be a quarter label like 1961Q1, got 196103"),
        append("sample: {start: 196103}\n")),
    Row(KEYS + "test_inverted_range_is_config_error[estimate-sample-1920Q1-1910Q1]", "estimate", 2,
        exact("sample start 1920Q1 is after end 1910Q1"),
        append("sample: {start: 1920Q1, end: 1910Q1}\n")),
    Row(KEYS + "test_inverted_range_is_config_error[index-index-2000Q1-1999Q1]", "index", 2,
        exact("index start 2000Q1 is after end 1999Q1"),
        sub({"sigma_e: 0.02}": "sigma_e: 0.02, start: 2000Q1, end: 1999Q1}"})),
    Row(EXITS + "test_rescale_horizon_beyond_response_horizon_rejected", "irf", 2,
        exact("rescale horizon 30 outside the response horizon 0..8"),
        append(RESCALE.format(30, 1.0))),
    *(
        Row(EXITS + f"test_bad_rescale_value_is_config_error[{value}]", "irf", 2,
            exact(f"rescale value must be a finite non-zero number, got {got}"),
            append(RESCALE.format(2, value)))
        for value, got in (
            (".nan", "nan"), (".inf", "inf"), ("-.inf", "-inf"), ("0.0", "0.0"),
            ("zero", "'zero'"), ("true", "True"),
        )
    ),
    *(
        Row(EXITS + f"test_non_integer_key_is_config_error[{key}]", command, 2,
            exact(f"{key} must be an integer, got {got}"), edit)
        for key, command, edit, got in (
            ("seed", "simulate", sub({"seed: 3": 'seed: "1"'}), "'1'"),
            ("draws", "estimate", sub({"draws: 20": 'draws: "10"'}), "'10'"),
            ("horizon", "irf", sub({"horizon: 8": 'horizon: "abc"'}), "'abc'"),
            ("lags", "estimate", sub({"lags: 2": "lags: 2.5"}), "2.5"),
            ("rescale.horizon", "irf", append(RESCALE.format(2.0, 1.0)), "2.0"),
            ("dgp.periods", "simulate", sub({"periods: 120": "periods: 120.0"}), "120.0"),
            ("dgp.burn_in", "simulate", sub({"burn_in: 100": "burn_in: true"}), "True"),
        )
    ),
    *(
        Row(EXITS + f"test_bad_positive_float_key_is_config_error[{key}-{case}]", command, 2,
            exact(f"{key.replace('.', ' ')} must be a finite number > 0, got {got}"),
            sub({old: new.format(value)}))
        for key, command, old, new in (
            ("prior.tightness", "estimate", MINNESOTA, "tightness: {}"),
            ("prior.nu0", "estimate", MINNESOTA, "nu0: {}"),
            ("index.sigma_v", "index", "sigma_v: 0.02", "sigma_v: {}"),
            ("index.sigma_e", "index", "sigma_e: 0.02", "sigma_e: {}"),
        )
        for case, value, got in (
            ("string", '"abc"', "'abc'"), ("bool", "true", "True"), ("nan", ".nan", "nan"),
            ("inf", ".inf", "inf"), ("zero", "0.0", "0.0"), ("negative", "-1.0", "-1.0"),
        )
    ),
    *(
        Row(LP + f"test_bad_band_se_is_config_error[{value}]", "lp", 2,
            exact(f"lp band_se must be a finite number > 0, got {got}"),
            sub({"outcomes: [ng]}": f"outcomes: [ng], band_se: {value}}}"}))
        for value, got in ((".nan", "nan"), ("-1.0", "-1.0"), ("wide", "'wide'"))
    ),
    Row(ROW + "[bad.yaml]", "estimate", 2, exact("intercept must be true or false, got 'false'"),
        put('out: bad_out\nintercept: "false"\n'), out="bad_out"),
    *(
        Row(KEYS + f"test_reproduced_misuse_is_config_error[{command}-{label}-{case}]", command, 2,
            exact(f"{label} must be {what}, got {got}"), edit, out=out)
        for command, label, case, edit, what, got, out in (
            # before: intercept "false" was truthy (estimate exited 0 with an
            # intercept, then irf exited 4), the two strings were iterated one
            # character at a time, and the last three ended in a traceback
            ("estimate", "intercept", "false", append('intercept: "false"\n'),
             "true or false", "'false'", "work"),
            ("irf", "intercept", "false", append('intercept: "false"\n'),
             "true or false", "'false'", "work"),
            ("estimate", "variables", "ng", sub({ORDER: "variables: ng\n"}),
             "a list of strings", "'ng'", "work"),
            ("lp", "lp.outcomes", "ng", sub({"outcomes: [ng]": "outcomes: ng"}),
             "a list of strings", "'ng'", "work"),
            ("estimate", "transforms", "value4", append("transforms: [g]\n"),
             "a mapping of strings to strings", "['g']", "work"),
            ("estimate", "data", "5", sub({"data: panel.csv": "data: 5"}),
             "a non-empty path", "5", "work"),
            ("simulate", "out", "7", sub({"out: work": "out: 7"}), "a non-empty path", "7", "7"),
        )
    ),
    *(
        Row(EXITS + f"test_names_with_outer_whitespace_are_config_error[{extra}]", "estimate", 2,
            exact(WHITESPACE.format(label, name)), sub({ORDER: extra}))
        for extra, label, name in (
            ('variables: [" ng", g]\n', "variables", " ng"),
            ('variables: [ng, "g\\r"]\n', "variables", "g\r"),
            ('date_column: "date "\n', "date_column", "date "),
        )
    ),
    *(
        Row(EXITS + f"test_simulate_refuses_names_that_would_not_round_trip[{bad}]", "simulate", 2,
            exact(WHITESPACE.format("dgp.names", name)),
            sub({"names: [ng, g, tfp]": f"names: [{bad}, g, tfp]"}))
        for bad, name in (('" ng"', " ng"), ('"ng\\r"', "ng\r"))
    ),
    *(
        # before: 300 periods exited 0 with values up to 6.7e86; 2000 printed
        # numpy's overflow RuntimeWarning, then exited 3
        Row(EXITS + f"test_simulate_refuses_explosive_dgp[{periods}]", "simulate", 2,
            exact("bad dgp block: companion spectral radius 1.5 is not below 1"),
            put("out: work\ndgp: {coefficients: [[0.0], [1.5]], impact: [[1.0]], "
                f"periods: {periods}}}\n"))
        for periods in (300, 2000)
    ),
    *(
        Row(EXITS + f"test_duplicate_variables_are_config_error[{command}]", command, 2,
            exact("variables list contains duplicates: ['ng', 'g', 'ng']"),
            sub({ORDER: "variables: [ng, g, ng]\n"}))
        for command in ("estimate", "irf", "decompose")
    ),
    Row(DECOMPOSE + "test_bad_pair_is_config_error_before_work[same-variable]", "decompose", 2,
        exact("decompose reference and target must differ, both are 'ng'"),
        sub({"target: g": "target: ng"})),
    Row(DECOMPOSE + "test_bad_pair_is_config_error_before_work[no-target]", "decompose", 2,
        exact("the decompose command needs 'decompose.target' in the config"),
        sub({", target: g": ""})),
    *(
        Row(NAMES + f"test_lp_refuses_a_slash_or_nul_before_writing[{case}]", "lp", 2,
            exact(f"lp.outcomes {name!r} holds a '/' or NUL, so it cannot name an artifact file"),
            sub({"outcomes: [ng]": f"outcomes: [ng, {outcome}]"}))
        for case, outcome, name in (("slash", "a/b", "a/b"), ("nul", '"a\\0b"', "a\0b"))
    ),
    # names the data lacks
    *(
        Row(EXITS + f"test_transform_of_a_variable_the_panel_lacks_is_config_error[{command}]",
            command, 2,
            exact("transforms name variables not in the panel {run}/panel.csv: ['zz']"),
            append("transforms: {ng: level, zz: log-level}\n"))
        for command in ("estimate", "decompose", "lp")
    ),
    *(
        Row(EXITS + f"test_date_column_the_panel_lacks_is_config_error[{command}]", command, 2,
            exact("date_column: date column 'when' not found in ['date', 'ng', 'g', 'tfp'] "
                  "of {run}/panel.csv"),
            append("date_column: when\n"))
        for command in ("estimate", "decompose", "lp")
    ),
    *(
        Row(EXITS + f"test_default_date_column_the_panel_lacks_is_data_error[{case}]", "estimate",
            3, exact("date column 'date' not found in ['quarter', 'ng', 'g', 'tfp']"),
            sub({"date,": "quarter,"}, "panel.csv"), append(extra))
        for case, extra in (("unset", ""), ("set", "date_column: date\n"))
    ),
    Row(LP + "test_shock_column_the_shock_file_lacks_is_config_error", "lp", 2,
        exact("lp.shock_column 'nope' not in the columns ['common_std', 'idiosyncratic_std'] "
              "of {run}/shocks.csv"),
        sub({"shock_column: idiosyncratic_std": "shock_column: nope"})),
    *(
        Row(EXITS + f"test_nu0_below_n_plus_2_is_config_error[{command}]", command, 2,
            exact("prior nu0 must be >= n+2 = 5 for 3 variables, got 1.0"),
            sub({MINNESOTA: "nu0: 1.0"}))
        for command in ("estimate", "decompose")
    ),
    *(
        # before: "numerical error: prior tightness is too small", exit 4
        Row(ROW + f"[tightness-underflows-{command}]", command, 2,
            exact(f"prior.tightness {value} is too small: a prior variance underflows"),
            sub({"tightness: 0.2": f"tightness: {value}"}))
        for command, value in (("estimate", "1e-300"), ("decompose", "1e-160"))
    ),
    # the panel, the shock series and the events
    Row(EXITS + "test_missing_data_file_is_data_error", "estimate", 3, NO_PANEL, sub(NO_DATA)),
    Row(ROW + "[missing.yaml]", "estimate", 3, NO_PANEL,
        put("out: missing_out\ndata: nope.csv\nlags: 1\n"), out="missing_out"),
    Row(EXITS + "test_failed_command_removes_the_directories_it_made", "estimate", 3, NO_PANEL,
        sub({"out: work": "out: made/deeper/x", **NO_DATA}), out="made"),
    Row(EXITS + "test_failed_command_keeps_directories_that_existed", "estimate", 3, NO_PANEL,
        directory("kept/x"), sub({"out: work": "out: kept/x/new", **NO_DATA}),
        out="kept/x", kept=True),
    Row(EXITS + "test_invalid_utf8_panel_is_data_error", "estimate", 3,
        exact("panel file {run}/panel.csv is not valid UTF-8: invalid start byte"),
        put(b"date,a\n1950Q1,1.0\n1950Q2,\xff\n", "panel.csv")),
    *(
        Row(EXITS + f"test_short_sample_is_data_error[lags{lags}-{command}]", command, 3,
            exact(f"insufficient observations: {message}"),
            text(lambda content: "".join(content.splitlines(True)[:9]), "panel.csv"),
            sub({"lags: 2": f"lags: {lags}"}))
        for lags, message in (
            (2, "T-p = 6 regression rows for 7 columns"),
            (6, "T=8 needs T > n*p+1 = 19"),
        )
        for command in ("estimate", "decompose")
    ),
    *(
        Row(EXITS + f"test_collinear_panel_is_data_error[{case}-{command}]", command, 3,
            r"rank-deficient X: condition number .*; the regressors built from "
            r"{run}/panel\.csv are collinear, as when a column is constant or copies another",
            column("panel.csv", "tfp", value))
        for case, value in (
            ("constant", lambda line, row: "1.5"),
            ("copy", lambda line, row: row["ng"]),
        )
        for command in ("estimate", "decompose")
    ),
    Row(LP + "test_disjoint_dates_are_data_error", "lp", 3,
        exact("panel and shock series share no dates"),
        sub({"19": "29", "20": "30"}, "shocks.csv")),
    # The panel's ng scaled by 1e200 overflows the HAC sum, so se is inf;
    # scaled by 1e100 with band_se 1e300, the band overflows. before: exit 0,
    # with inf in lp_ng.csv, the token Infinity in lp_ng.json and NaN
    # coordinates in lp_ng.svg, after numpy's overflow warning; then the
    # figure refused after lp_ng.csv and lp_ng.json were written.
    Row(LP + "test_overflowing_outcome_is_numerical_error", "lp", 4,
        SVG + exact(": lower[0] holds -inf; a figure needs finite values"), scaled(1e200)),
    Row(LP + "test_overflowing_band_leaves_no_artifact", "lp", 4, SVG + ".*",
        scaled(1e100), sub({"outcomes: [ng]}": "outcomes: [ng], band_se: 1.0e+300}"})),
    # before: g's three files were written before ng's figure was refused
    Row(ROW + "[refused-outcome-leaves-no-outcome-written]", "lp", 4,
        SVG + exact(": lower[0] holds -inf; a figure needs finite values"),
        ran("decompose"), scaled(1e200), sub({"outcomes: [ng]": "outcomes: [g, ng]"}), kept=True),
    Row(INDEX + "test_non_finite_cells_are_data_error", "index", 3,
        exact("row 42: window_return must be finite"),
        append("1999-05-01,firmx,1,nan,inf\n", "events.csv")),
    Row(INDEX + "test_non_positive_sigma_e_is_data_error", "index", 3,
        exact("row 6: sigma_e must be > 0"),
        column("events.csv", "sigma_e", lambda line, row: "-0.05" if line == 6 else "")),
    Row(INDEX + "test_invalid_utf8_events_file_is_data_error", "index", 3,
        exact("events file {run}/events.csv is not valid UTF-8: invalid start byte"),
        append(b"1999-05-01,firm\xff,1,0.01,1e9\n", "events.csv")),
    Row(ROW + "[bad-cell-plain]", "index", 3, BAD_CELL,
        column("events.csv", "market_cap", market_cap_oops)),
    Row(ROW + "[bad-cell-quoted]", "index", 3, BAD_CELL,
        column("events.csv", "market_cap", market_cap_oops, csv.QUOTE_ALL)),
    Row(INDEX + "test_underflowing_sigma_v_is_config_error", "index", 2,
        exact("index sigma_v is too small: its square underflows"),
        sub({"sigma_v: 0.02": "sigma_v: 1.0e-200"})),
    # the posterior estimate wrote, read by irf
    Row("test_cli.py::TestPipeline::test_irf_requires_posterior", "irf", 3,
        exact("no posterior artifact in {run}/work; run the estimate command first")),
    Row(POSTERIOR + "test_irf_after_estimate_under_another_spec_fails", "irf", 2, SPEC,
        sub({ORDER: "variables: [tfp, g]\n", "lags: 2": "lags: 4", MINNESOTA: "kind: flat"}),
        base="posterior", kept=True),
    *(
        Row(POSTERIOR + f"test_each_spec_or_prior_change_is_caught[{case}]", "irf", 2, line, edit,
            base="posterior", kept=True)
        for case, edit, line in (
            ("[a, b, c]-[b, a, c]", sub({ORDER: "variables: [g, ng, tfp]\n"}), SPEC),
            ("lags: 2-lags: 3", sub({"lags: 2": "lags: 3"}), SPEC),
            ("horizon: 4-horizon: 4\nintercept: false", append("intercept: false\n"), SPEC),
            ("tightness: 0.2-tightness: 0.3", sub({"tightness: 0.2": "tightness: 0.3"}), PRIOR),
            (f"{MINNESOTA}-kind: flat", sub({MINNESOTA: "kind: flat"}), PRIOR),
        )
    ),
    Row(ROW + "[zero_impact]", "irf", 2,
        exact("rescale variable 'ng' is ordered before shock 'g' in ['ng', 'g', 'tfp'], so its "
              "response at h=0 is zero by the Cholesky ordering; rescale at a later horizon or "
              "reorder the variables"),
        append("irf_shock: g\nrescale: {variable: ng, horizon: 0, value: 1.0}\n"),
        base="posterior", kept=True),
    Row(POSTERIOR + "test_zero_horizon_is_config_error", "irf --horizon 0", 2,
        exact("horizon must be >= 1, got 0"), base="posterior", kept=True),
    Row(LP + "test_zero_horizon_is_config_error", "lp --horizon 0", 2,
        exact("horizon must be >= 1, got 0")),
    Row(POSTERIOR + "test_single_draw_posterior_is_config_error", "irf", 2,
        exact(f"{WORK} holds 1 draw; bands need at least 2, so re-run estimate with --draws 2 "
              f"or more"),
        ran("estimate", "--draws", "1"), kept=True),
    *(
        Row(NAMES + f"test_irf_refuses_a_slash_before_writing[{case}]", "irf", code,
            exact(f"{what} 'a/b' holds a '/' or NUL, so it cannot name an artifact file"),
            sub({"date,ng,": "date,a/b,"}, "panel.csv"), sub({ORDER: order}), ran("estimate"),
            kept=True)
        for case, order, code, what in (
            ("panel", "", 3, "the panel's variable"),
            ("config", "variables: [a/b, g, tfp]\n", 2, "variables"),
        )
    ),
    *(
        Row(POSTERIOR + f"test_arrays_disagreeing_with_meta_are_data_error[{case}]", "irf", 3, line,
            *(array(name, lambda values, cut=cut: values[cut]) for name in names),
            base="posterior", kept=True)
        for case, names, cut, line in (
            ("names0-cut0", ["stable"], np.s_[:5],
             r"unreadable posterior arrays in {run}/work: inconsistent draw arrays: .*"),
            ("names1-cut1", ["stable", "coefficients", "covariances"], np.s_[:5],
             shape((5, 7, 3), (20, 7, 3))),
            ("names2-cut2", ["coefficients"], np.s_[:, 1:], shape((20, 6, 3), (20, 7, 3))),
        )
    ),
    *(
        Row(POSTERIOR + f"test_cut_short_array_is_data_error[{case}]", "irf", 3, ARRAYS,
            truncate("work/posterior_coefficients.npy", keep), base="posterior", kept=True)
        for case, keep in (("empty", 0), ("header", 10), ("no-data", 128), ("short", -8))
    ),
    Row(POSTERIOR + "test_missing_array_is_data_error", "irf", 3, ARRAYS,
        remove("work/posterior_covariances.npy"), base="posterior", kept=True),
    *(
        # before: exit 0 with nan cells in irf.csv (a NaN fails no symmetry test)
        Row(POSTERIOR + f"test_non_finite_posterior_is_data_error[{case}]", "irf", 3,
            exact(f"posterior draw {index[0]} in {{run}}/work holds a non-finite coefficient "
                  f"or covariance; re-run estimate"),
            array(name, setting(index, value)), base="posterior", kept=True)
        for case, name, index, value in (
            ("coefficients-index0-nan", "coefficients", (7, 2, 1), np.nan),
            ("covariances-index1-inf", "covariances", (3, 0, 0), np.inf),
        )
    ),
    Row(UNWRITABLE + "test_directory_in_place_of_an_artifact", "irf", 2,
        exact("cannot write {run}/work/irf.csv: Is a directory"), directory("work/irf.csv"),
        base="posterior", kept=True),
    Row(UNWRITABLE + "test_unreadable_posterior_json_is_data_error[text]", "irf", 3,
        exact("unreadable ") + META + ": .*", put("{not json", "work/posterior.json"),
        base="posterior", kept=True),
    Row(UNWRITABLE + "test_unreadable_posterior_json_is_data_error[directory]", "irf", 3,
        exact("unreadable ") + META + ": .*", directory("work/posterior.json"),
        base="posterior", kept=True),
    *(
        # Valid JSON that is not what estimate writes; "order" is read only
        # when the config names no variables.
        Row(UNWRITABLE + f"test_unreadable_posterior_json_is_data_error[{case}]", "irf", 3,
            exact("malformed ") + META + ": .*" + exact("; re-run estimate"), meta(change), *extra,
            base="posterior", kept=True)
        for case, change, *extra in (
            ("empty object", lambda stored: {}),
            ("array", lambda stored: []),
            ("number hash", lambda stored: {**stored, "spec_hash": 5}),
            ("text draws", lambda stored: {**stored, "n_draws": "20"}),
            ("bool draws", lambda stored: {**stored, "n_draws": True}),
            ("no order", lambda stored: {k: v for k, v in stored.items() if k != "order"},
             sub({ORDER: ""})),
            ("number order", lambda stored: {**stored, "order": [1, 2]}, sub({ORDER: ""})),
        )
    ),
    *(
        # A count that disagrees with the arrays: 0 and -5 estimate cannot
        # have written, and 1 is checked against the arrays before it is
        # judged too few for bands.
        Row(UNWRITABLE + f"test_unreadable_posterior_json_is_data_error[{case}]", "irf", 3,
            shape((20, 7, 3), (count, 7, 3)),
            meta(lambda stored, count=count: {**stored, "n_draws": count}),
            base="posterior", kept=True)
        for case, count in (("zero draws", 0), ("negative draws", -5), ("one draw", 1))
    ),
)


def snapshot(path: Path):
    """Each file and directory under ``path``, a file with its bytes; None
    when ``path`` does not exist."""
    if not path.exists():
        return None
    return {
        item.relative_to(path).as_posix(): item.read_bytes() if item.is_file() else None
        for item in sorted(path.rglob("*"))
    }


def in_process(argv: list[str], run: Path) -> tuple[int, str]:
    from newsvar import cli

    with quiet() as err:
        code = cli.main(argv)
    return code, err.getvalue()


def fresh(argv: list[str], run: Path) -> tuple[int, str]:
    import newsvar

    src = str(Path(newsvar.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-m", "newsvar.cli", *argv],
        capture_output=True, text=True, encoding="utf-8", cwd=run,
        env={**os.environ, "PYTHONPATH": src},
    )
    return result.returncode, result.stderr


def check(row: Row, bases: Path, tmp: Path, runner=in_process) -> None:
    """Run ``row`` on a copy of its base under ``tmp`` through ``runner``
    and assert its contract."""
    run = (tmp / "run").resolve()
    shutil.copytree(bases / row.base, run)
    for edit in row.edits:
        edit(run)
    out = run / row.out
    before = snapshot(out)
    assert (before is not None) == row.kept, f"{row.id}: {row.out} exists: {before is not None}"
    code, err = runner([*row.args.split(), "--config", str(run / CFG)], run)
    assert code == row.code, f"{row.id}: exit {code}, not {row.code}; stderr {err!r}"
    assert err.count("\n") == 1 and err.endswith("\n"), f"{row.id}: stderr is not one line: {err!r}"
    assert "Traceback" not in err, f"{row.id}: {err!r}"
    pattern = PREFIX[row.code] + row.line.replace("{run}", re.escape(str(run)))
    assert re.fullmatch(pattern, err[:-1]), f"{row.id}: {err!r} does not match {pattern!r}"
    assert snapshot(out) == before, f"{row.id}: the command changed {row.out}"


def host(namespace: dict) -> None:
    """Bind into the test module ``namespace`` the rows whose ids name it:
    each runs in process as a test with its id's class, name and parameter.
    The module-scoped fixture ``misuse_bases`` builds the bases they copy."""
    import pytest

    @pytest.fixture(scope="module")
    def misuse_bases(tmp_path_factory):
        return build_bases(tmp_path_factory.mktemp("misuse"))

    namespace["misuse_bases"] = misuse_bases
    prefix = Path(namespace["__file__"]).name + "::"
    groups: dict[str, list] = {}
    for row in ROWS:
        if row.id.startswith(prefix):
            node, _, param = row.id[len(prefix):].partition("[")
            groups.setdefault(node, []).append(pytest.param(row, id=param[:-1]) if param else row)
    for node, rows in groups.items():
        *owner, name = node.split("::")
        if isinstance(rows[0], Row):  # a test that was not parametrised
            [row] = rows

            def test(misuse_bases, tmp_path, row=row):
                check(row, misuse_bases, tmp_path)
        else:

            @pytest.mark.parametrize("row", rows)
            def test(row, misuse_bases, tmp_path):
                check(row, misuse_bases, tmp_path)

        test.__name__ = name
        if owner:
            cls = namespace.setdefault(owner[0], type(owner[0], (), {}))
            setattr(cls, name, staticmethod(test))
        else:
            namespace[name] = test


def main() -> int:
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        bases = build_bases(Path(tmp) / "bases")
        for i, row in enumerate(ROWS):
            try:
                check(row, bases, Path(tmp) / str(i), fresh)
            except AssertionError as exc:
                failed += 1
                print(f"FAILED {exc}", file=sys.stderr)
    print(f"{len(ROWS) - failed} of {len(ROWS)} rows hold in fresh interpreters")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    sys.exit(main())
