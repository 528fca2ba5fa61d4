"""The config key table: every key refuses values outside its kind and
rules with a config error (exit 2) before any output directory exists, and
the README's config block stays loadable with a pinned hash."""

import dataclasses
import re
from pathlib import Path

import pytest
import yaml

from newsvar import cli
from newsvar.panel import write_panel
from newsvar.synth import Dgp, simulate_var

import test_cli

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_config() -> str:
    """The YAML block under README's "Config file" heading."""
    text = README.read_text(encoding="utf-8")
    return re.search(r"### Config file\n.*?```yaml\n(.*?)```", text, re.S).group(1)


def every_key():
    """(label, rules, default) of each key in the table, walked on a
    config that gives every block."""
    blocks = {
        f.name: f.metadata["kind"]()
        for f in dataclasses.fields(cli.RunConfig)
        if dataclasses.is_dataclass(f.metadata.get("kind"))
    }
    keys = []
    for label, rules, owner, name in cli._walk(cli.RunConfig(**blocks)):
        default = {f.name: f.default for f in dataclasses.fields(owner)}[name]
        keys.append((label, rules, default))
    return keys


NAN = float("nan")
WRONG = {
    "int": ["7", 2.5, True, [1]],
    "positive": ["0.2", True, 0.0, -1.0, NAN, [1.0]],
    "nonzero": ["1", False, 0.0, NAN, float("inf")],
    "str": [5, True, ["g"], {"g": "g"}],
    "path": [7, True, "", ["panel.csv"]],
    "bool": ["false", "true", 0, 1],
    "names": ["ng", [1], ["g", None], {"g": "g"}],
    "mapping": [["g"], "g", {"g": 1}],
    "quarter": ["1961-Q1", "196103", 1961, True],
    "matrix": ["abc", [["a"]], [[True]], [[NAN]], {"a": 1}],
}


def bad_values(rules, default):
    """Values outside a key's kind or rules."""
    kind = rules["kind"]
    values = ["abc", ["a"], 5, True] if dataclasses.is_dataclass(kind) else list(WRONG[kind])
    if default is not None:
        values.append(None)
    if rules.get("least") is not None:
        values.append(rules["least"] - 1)
    if rules.get("choices"):
        values.append({"g": "bogus"} if kind == "mapping" else "bogus")
    if rules.get("header"):
        values += [[" g"], ["g", "g"]] if kind == "names" else ["date "]
    return values


CASES = [
    pytest.param(label, value, rules["reads"], id=f"{label}={value!r}")
    for label, rules, default in every_key()
    for value in bad_values(rules, default)
]


def set_key(doc: dict, label: str, value) -> None:
    if label in ("sample_start", "sample_end"):
        doc["sample"][label.split("_")[1]] = value
        return
    *blocks, name = label.split(".")
    for block in blocks:
        doc = doc[block]
    doc[name] = value


def test_the_readme_config_gives_every_block():
    doc = yaml.safe_load(readme_config())
    blocks = {label for label, rules, _ in every_key() if dataclasses.is_dataclass(rules["kind"])}
    assert blocks <= set(doc)


@pytest.mark.parametrize("label, value, commands", CASES)
def test_value_outside_the_table_is_config_error(tmp_path, capsys, label, value, commands):
    doc = yaml.safe_load(readme_config())
    set_key(doc, label, value)
    (tmp_path / "run.yaml").write_text(yaml.safe_dump(doc), encoding="utf-8")
    for command in commands:
        assert cli.main([command, "--config", str(tmp_path / "run.yaml")]) == 2, command
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "Traceback" not in err
        assert label in err or label.replace(".", " ") in err, err
        assert [p.name for p in tmp_path.iterdir()] == ["run.yaml"]


def test_every_command_reads_some_key():
    readers = {command for _, rules, _ in every_key() for command in rules["reads"]}
    assert readers == set(cli.COMMANDS)


@pytest.fixture
def runnable(tmp_path):
    """A config on which estimate, lp and simulate each exit 0."""
    coefficients, impact = [[0.1, 0.0], [0.5, 0.1], [0.0, 0.4]], [[1.0, 0.0], [0.5, 0.8]]
    dgp = Dgp(B=coefficients, L=impact, seed=2, names=["ng", "g"])
    write_panel(simulate_var(dgp, 80)[0], tmp_path / "panel.csv")
    doc = {
        "out": "out", "data": "panel.csv", "variables": ["ng", "g"], "lags": 1, "draws": 20,
        "horizon": 4, "prior": {"kind": "flat"},
        "lp": {"shock_file": "panel.csv", "shock_column": "ng", "outcomes": ["g"]},
        "dgp": yaml.safe_load(test_cli.SIMULATE_YAML)["dgp"],
    }
    return tmp_path, doc


@pytest.mark.parametrize(
    "command, label, value",
    [
        ("estimate", "intercept", "false"),
        ("irf", "intercept", "false"),
        ("estimate", "variables", "ng"),
        ("lp", "lp.outcomes", "ng"),
        ("estimate", "transforms", ["g"]),
        ("estimate", "data", 5),
        ("simulate", "out", 7),
    ],
)
def test_reproduced_misuse_is_config_error(runnable, capsys, command, label, value):
    # before: intercept "false" was truthy (estimate exited 0 with an
    # intercept, then irf exited 4), the two strings were iterated one
    # character at a time, and the last three ended in a traceback (exit 1)
    base, doc = runnable
    (base / "good.yaml").write_text(yaml.safe_dump({**doc, "out": "good"}), encoding="utf-8")
    runs = "estimate" if command == "irf" else command
    assert cli.main([runs, "--config", str(base / "good.yaml")]) == 0
    set_key(doc, label, value)
    (base / "bad.yaml").write_text(yaml.safe_dump(doc), encoding="utf-8")
    capsys.readouterr()
    assert cli.main([command, "--config", str(base / "bad.yaml")]) == 2
    assert f"{label} must be" in capsys.readouterr().err
    assert not (base / "out").exists()


# config_hash of each text as the code before the key table computed it, so
# that manifests stay byte-identical
PINNED_HASHES = {
    "readme": "4c352cd68ca612d8f9c76694dd87ef06bd8d35d7039aecf8cf86823936fe422c",
    "cli-simulate": "cab871a826f1df3a570ad396d1b9e028b11f0fc986585d35b3d9855a9de6f581",
    "cli-estimate": "dc7d98dbd947ecf346b54a4eb86290887e80be4f04a381c95002ebaab0d5c43f",
    "cli-index": "ced341331d020569547684c52150d577564da08ad6df39f3bd5b8df47530016d",
}


def test_readme_config_block_loads(tmp_path):
    (tmp_path / "run.yaml").write_text(readme_config(), encoding="utf-8")
    config = cli.load_config(tmp_path / "run.yaml")
    assert config.variables == ["ngpbii", "gpbii", "tfp", "gdp"]
    assert config.data == str(tmp_path / "panel.csv")
    assert config.lp.shock_file == str(tmp_path / "shocks.csv")
    assert config.index.events == str(tmp_path / "events.csv")


@pytest.mark.parametrize(
    "name, text",
    [
        ("readme", readme_config()),
        ("cli-simulate", test_cli.SIMULATE_YAML),
        ("cli-estimate", test_cli.ESTIMATE_YAML),
        ("cli-index", test_cli.INDEX_YAML),
    ],
)
def test_config_hash_is_pinned(tmp_path, name, text):
    (tmp_path / "run.yaml").write_text(text, encoding="utf-8")
    assert cli.config_hash(cli.load_config(tmp_path / "run.yaml")) == PINNED_HASHES[name]


def test_path_keys_resolve_against_the_config_directory(tmp_path):
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "run.yaml").write_text("out: o\ndata: ../p.csv\n", encoding="utf-8")
    config = cli.load_config(tmp_path / "sub" / "run.yaml")
    assert (config.out, config.data) == (str(tmp_path / "sub" / "o"), str(tmp_path / "p.csv"))
    assert config.lp is None and config.index is None


def test_output_path_that_is_a_file_is_config_error(tmp_path, capsys):
    # before: FileExistsError from mkdir, a traceback and exit 1
    (tmp_path / "run.yaml").write_text(test_cli.SIMULATE_YAML.replace("out: work", "out: run.yaml"))
    assert cli.main(["simulate", "--config", str(tmp_path / "run.yaml")]) == 2
    assert "cannot make the output directory" in capsys.readouterr().err
