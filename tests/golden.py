"""Every artifact of the newsvar chain pinned to its SHA-256: one table of
rows, and one runner that checks a row in process or in fresh interpreters.

A CLI row writes its inputs into an empty run directory and runs commands
there; every file then in it is pinned but ``manifest.json``, whose
``versions`` belong to the host. A library row pins arrays' bytes. A digest
is keyed ``<row>/<name>``; a file a row ``shares`` takes another row's key,
so both rows must write the same bytes. Recorded with numpy 2.4.6 and its
OpenBLAS (scipy-openblas 0.3.31) on x86-64 with AVX-512. A change that
moves a digest pastes the mapping a mismatch prints into
``golden_digests.json`` and says in CHANGES which files changed and why.
As a script, each command runs in a fresh interpreter; mismatches go to
stderr and the whole observed mapping to stdout: ``python tests/golden.py``
"""

from __future__ import annotations

import csv
import hashlib
import json
import sys
import tempfile
from pathlib import Path
from xml.etree import ElementTree

import numpy as np

HERE = Path(__file__).resolve().parent
if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE.parent / "scripts"))  # the demos' write_inputs

import misuse
import patent_index_demo
import synthetic_pipeline
from misuse import CFG, append, put, sub
from newsvar.bvar import PriorSpec, posterior_sample
from newsvar.localproj import lp_irf, lp_irf_state
from newsvar.synth import Dgp, simulate_var
from test_bvar import diagonal_var_fit, persistent_var3_fit
from test_localproj import criterion_05_series

DIGESTS = HERE / "golden_digests.json"
ESTIMATE = ("posterior.json", "posterior_coefficients.npy", "posterior_covariances.npy",
            "posterior_stable.npy")


class Row:
    """A CLI row runs ``commands`` after ``make(run)`` writes the inputs; a
    library row has none, and ``make()`` returns bytes by name."""

    def __init__(self, id, make, *commands, shares: dict[str, str] | None = None):
        self.id, self.make, self.commands, self.shares = id, make, commands, shares or {}

    def key(self, name: str) -> str:
        return f"{self.shares.get(name, self.id)}/{name}"


def inputs(script, *args, edits=()):
    """What the demo ``script`` writes as its inputs, then misuse's ``edits``."""

    def make(run):
        script.write_inputs(run, *args)
        for edit in edits:
            edit(run)

    return make


def demo(*edits, draws: int = 1100):
    return inputs(synthetic_pipeline, 300, draws, 314, edits=edits)


def quoted_crlf(run: Path) -> None:
    """events.csv with every cell quoted and CRLF line ends."""
    with open(run / "events.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    with open(run / "events.csv", "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, quoting=csv.QUOTE_ALL, lineterminator="\r\n").writerows(rows)


# json.dumps spells the coefficient 2e-07, which YAML 1.1 reads as a string.
# before: exit 2, "got [[0.0], ['2e-07']]"
JSON_EXPONENT = json.dumps({"out": ".", "dgp": {
    "coefficients": [[0.0], [2e-07]], "impact": [[1.0]], "periods": 50}})
assert "[2e-07]" in JSON_EXPONENT


def simulated_n8_p4() -> dict[str, bytes]:
    """An n=8, p=4 panel over four of simulate_var's 1024-period segments."""
    rng = np.random.default_rng(8)
    b = np.zeros((33, 8))
    b[0] = 0.1
    b[1:9] = 0.5 * np.eye(8) + 0.05 * rng.standard_normal((8, 8))
    b[25:] = 0.2 * np.eye(8)
    dgp = Dgp(B=b, L=np.eye(8) + np.tril(np.full((8, 8), 0.1), k=-1), burn_in=0, seed=8)
    assert dgp.spectral_radius < 1.0, dgp.spectral_radius
    return {"panel": simulate_var(dgp, 3079)[0].values.tobytes()}


def lp_bytes(y, shock, dummy) -> dict[str, bytes]:
    """alpha, beta, se and n_obs, in that order, of lp_irf and of both
    regimes of lp_irf_state at horizon 8."""
    state = lp_irf_state(y, shock, dummy, 8)
    fields = ("alpha", "beta", "se", "n_obs")
    return {
        name: b"".join(getattr(result, field).tobytes() for field in fields)
        for name, result in (("all", lp_irf(y, shock, 8)), ("pre", state.pre), ("post", state.post))
    }


def lp_switching() -> dict[str, bytes]:
    """One seeded series whose regime dummy switches 55 times and whose
    two regimes both lose rows as the horizon grows. Recorded before the
    per-call regime set-up replaced the per-horizon one, which left every
    byte as it was."""
    rng = np.random.default_rng(605)
    shock = rng.standard_t(4, size=600)
    y = np.cumsum(rng.normal(size=600)) + 0.8 * shock
    dummy = (np.cumsum(rng.random(600) < 0.1) % 2).astype(float)
    state = lp_irf_state(y, shock, dummy, 8)
    assert state.pre.n_obs[-1] < state.pre.n_obs[0] and state.post.n_obs[-1] < state.post.n_obs[0]
    return lp_bytes(y, shock, dummy)


def lp_monte_carlo() -> dict[str, bytes]:
    """T=5000, whose dot products are long enough for BLAS to thread."""
    y, shock, _ = criterion_05_series()
    dummy = (np.cumsum(np.random.default_rng(41).random(5000) < 0.01) % 2).astype(float)
    return lp_bytes(y, shock, dummy)


def posterior(fit):
    """B, Sigma and the stability flags of 700 Minnesota draws, more than
    one 512-draw block of irf_bands, on the OLS fit ``fit()``.

    Any reordering of the sampler's products that changes a rounding shows
    here. The earlier (k, k) x (k, D*n) product for chol(Omega_bar) z gave
    the n3-p2 bytes of its time too; at n4-p4 that product's bytes depended
    on the draw count. The n3-p2 fit's panel comes from simulate_var, so a
    reordering of the simulator's sums shows here as well: its digests were
    re-recorded when the simulator's block-to-block carry became a
    block-Toeplitz product."""

    def make():
        draws = posterior_sample(fit(), PriorSpec(kind="minnesota"), 700, seed=2026)
        return {name: getattr(draws, name).tobytes() for name in ("B", "Sigma", "stable")}

    return make


ROWS = (
    # 1100 draws span three 512-draw blocks of the response recursion and
    # three 512-draw tiles of each 84-cell band group; 189 cells make three.
    Row("demo", demo(), "estimate", "irf", "decompose", "lp"),
    # the first shock rescaled by a factor of about -427
    Row("demo-rescale-first", demo(append("rescale: {variable: g, horizon: 4, value: 1.0}\n")),
        "estimate", "irf", shares=dict.fromkeys(("panel.csv", *ESTIMATE), "demo")),
    Row("demo-rescale-last",
        demo(append("irf_shock: tfp\nrescale: {variable: ng, horizon: 6, value: -2.5}\n")),
        "estimate", "irf", shares=dict.fromkeys(("panel.csv", *ESTIMATE), "demo")),
    # bands over windows of p+1 = 5 horizons in three 512-draw tiles
    Row("demo-p4", demo(sub({"lags: 2": "lags: 4"})), "estimate", "irf",
        shares={"panel.csv": "demo"}),
    # two full 1024-draw chunks of posterior_sample and a partial one
    Row("demo-2500", demo(draws=2500), "estimate", shares={"panel.csv": "demo"}),
    Row("index", inputs(patent_index_demo, 4000, 7), "index"),
    # load_events hands a file with a quote to the csv parser
    Row("index-quoted-crlf", inputs(patent_index_demo, 4000, 7, edits=[quoted_crlf]), "index",
        shares=dict.fromkeys(("run.yaml", "index.csv", "index_stats.json"), "index")),
    Row("simulate", put("out: .\nseed: 3\ndgp:\n"
                        "  coefficients: [[0.1, 0.0], [0.5, 0.1], [0.0, 0.4]]\n"
                        "  impact: [[1.0, 0.0], [0.5, 0.8]]\n"
                        "  periods: 300\n  burn_in: 100\n  start: 1900Q1\n  names: [ng, g]\n"),
        "simulate"),
    Row("simulate-2e-07", put(JSON_EXPONENT), "simulate"),
    Row("simulate-2.0e-07", put(JSON_EXPONENT.replace("2e-07", "2.0e-07")), "simulate",
        shares=dict.fromkeys(("panel.csv", "structural_shocks.csv", "dgp.json"), "simulate-2e-07")),
    Row("simulate_var-n8-p4", simulated_n8_p4),
    Row("lp-t600", lp_switching),
    Row("lp-t5000", lp_monte_carlo),
    Row("posterior-n3-p2", posterior(lambda: persistent_var3_fit(intercept=True, lags=2)[0])),
    Row("posterior-n4-p4", posterior(diagonal_var_fit)),
)


def observe(row: Row, tmp: Path, fresh: bool = False) -> dict[str, str]:
    """The digest of every file or array ``row`` writes, by key; ``fresh``
    runs each command in a fresh interpreter."""
    if not row.commands:
        return {row.key(name): hashlib.sha256(data).hexdigest() for name, data in row.make().items()}
    run = (tmp / row.id).resolve()
    run.mkdir(parents=True)
    row.make(run)
    for command in row.commands:
        code, err = (misuse.fresh if fresh else misuse.in_process)([command, "--config", str(run / CFG)], run)
        assert code == 0, f"{row.id}: {command} exited {code}: {err}"
    digests = {}
    for path in sorted(run.iterdir()):
        data = path.read_bytes()
        if path.suffix == ".svg":
            ElementTree.fromstring(data)
        elif path.suffix == ".json":  # int refuses NaN and Infinity, as strict parsers do
            json.loads(data, parse_constant=int)
        if path.name != "manifest.json":
            digests[row.key(path.name)] = hashlib.sha256(data).hexdigest()
    return digests


def mismatches(row: Row, observed: dict[str, str], digests: dict[str, str]) -> list[str]:
    """A line for each key of ``row`` whose digest is not the recorded one."""
    keys = {key for key in digests if key.startswith(f"{row.id}/")}
    keys |= {row.key(name) for name in row.shares} | observed.keys()
    return [
        f"{row.id}: {key} recorded {digests.get(key, 'nothing')}, observed {observed.get(key, 'nothing')}"
        for key in sorted(keys) if digests.get(key) != observed.get(key)
    ]


def check(row: Row, digests: dict[str, str], tmp: Path) -> None:
    observed = observe(row, tmp)
    lines = mismatches(row, observed, digests)
    paste = json.dumps(observed, indent=2, sort_keys=True)
    assert not lines, "\n".join([*lines, "observed, to paste into golden_digests.json:", paste])


def main() -> int:
    digests, observed, lines = json.loads(DIGESTS.read_text(encoding="utf-8")), {}, []
    with tempfile.TemporaryDirectory() as tmp:
        for row in ROWS:
            got = observe(row, Path(tmp), fresh=True)
            lines += mismatches(row, got, digests)
            observed.update(got)
    print(*lines, sep="\n", file=sys.stderr)
    print(json.dumps(observed, indent=2, sort_keys=True))
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
