"""The benchmark workloads: seeded set-up, one timed pass, and output checks.

Each workload is closed loop: a single benchmark process runs one step at a
time and starts the next only after the previous one returned. A pass
reports (attempted, failed) operations; ``check`` reads what the pass wrote
and returns named pass/fail results plus a digest of the outputs, which the
benchmark compares across the passes of one run.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import itertools
import math
import operator
import shutil
import sys
import traceback
from pathlib import Path

import numpy as np

from newsvar import cli, patentval
from newsvar.localproj import lp_irf
from newsvar.synth import Dgp, simulate_var

import gen

CHAIN_STEPS = ("simulate", "estimate", "irf", "decompose", "lp", "index")


# Counters read the call's arguments, as newsvar.cli passes them
# (positionally), so they do not depend on the result's internal layout.
def _regressions(horizon_pos):
    def count(args, kwargs, result):
        return {"localproj.regressions": args[horizon_pos] + 1}

    return count


def _periods(args, kwargs, result):
    dgp, periods = args[:2]
    return {"synth.periods": dgp.burn_in + periods}


def _responses_bytes(args, kwargs, result):
    draws, spec, horizon = args[:3]
    return {"structural.responses_bytes": len(draws) * (horizon + 1) * len(spec.order) ** 2 * 8}


# (name bound in newsvar.cli, span name, layer, counter) for every public
# library function the CLI calls. Helpers called per event or per date
# (parse_quarter, quarter_of, format_quarter) stay untraced: a span per
# call would cost more than the call, so they count as cli self time.
CLI_TABLE = [
    ("load_panel", "panel.load", "panel", lambda a, k, r: {"panel.calls": 1}),
    ("apply_transforms", "panel.transform", "panel", None),
    ("align_range", "panel.transform", "panel", None),
    ("build_regressors", "bvar.regress", "bvar", None),
    ("ols_estimate", "bvar.ols", "bvar", None),
    ("posterior_mean", "bvar.posterior_mean", "bvar", None),
    ("posterior_sample", "bvar.posterior", "bvar", lambda a, k, r: {"bvar.draws": a[2]}),
    ("irf_bands", "structural.irf_bands", "structural", _responses_bytes),
    ("rescale_irf", "structural.rescale", "structural", None),
    ("decompose_residuals", "structural.decompose", "structural", None),
    ("standardize_shock", "structural.decompose", "structural", None),
    ("lp_irf", "localproj.lp", "localproj", _regressions(2)),
    ("lp_irf_state", "localproj.lp", "localproj", _regressions(3)),
    ("simulate_var", "synth.simulate", "synth", _periods),
    ("load_events", "patentval.load_events", "patentval",
     lambda a, k, r: {"patentval.events": len(r)}),
    ("assign_values", "patentval.assign", "patentval", None),
    ("build_index", "patentval.build_index", "patentval", None),
    ("index_stats", "patentval.stats", "patentval", None),
    ("line_band_svg", "svgplot.svg", "svgplot", lambda a, k, r: {"svgplot.figures": 1}),
] + [
    (writer, "cli.write", "cli", None)
    for writer in (
        "write_panel",
        "irf_to_csv",
        "irf_to_json",
        "decomposition_to_csv",
        "lp_to_csv",
        "lp_to_json",
        "write_index",
    )
]


def digest_dir(path: Path) -> str:
    h = hashlib.sha256()
    for item in sorted(path.rglob("*")):
        if item.is_file():
            h.update(str(item.relative_to(path)).encode())
            h.update(hashlib.sha256(item.read_bytes()).digest())
    return h.hexdigest()


def _report_failure(what: str) -> None:
    print(f"FAILED {what}", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _filter_value(ret: float, sigma_v: float, sigma_e: float, cap: float) -> float:
    """Truncated-normal posterior mean of the patent's return share times
    the market cap, written out independently of the program."""
    delta = sigma_v**2 / (sigma_v**2 + sigma_e**2)
    s = math.sqrt(delta) * sigma_e
    z = delta * ret / s
    pdf = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    cdf = 0.5 * math.erfc(-z / math.sqrt(2.0))
    return cap * (delta * ret + s * pdf / cdf)


class Chain:
    """simulate -> estimate -> irf -> decompose -> lp on a random stable VAR,
    then index on synthetic grant events: the CLI chain in process through
    ``cli.run``, one step at a time."""

    unit = "draws"
    N = 8
    DRAWS = 10_000
    EVENTS = 200_000

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self.config = work / "run.yaml"
        self.out = work / "out"
        self.events_path = work / gen.EVENTS_FILE
        self.units = self.DRAWS
        self.names: list[str] = []
        self.expected_total: float | None = None

    def prepare(self) -> None:
        self.names = gen.write_chain_config(self.config, self.seed, self.N, self.DRAWS)
        gen.write_patent_events(self.events_path, self.seed, self.EVENTS)
        warm = self.work / "warmup"
        shutil.rmtree(warm, ignore_errors=True)
        gen.write_chain_config(warm / "run.yaml", self.seed, self.N, 100)
        gen.write_patent_events(warm / gen.EVENTS_FILE, self.seed, 2000)
        for step in CHAIN_STEPS:
            cli.run(cli.load_config(warm / "run.yaml"), step)
        shutil.rmtree(warm)

    def reset(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)

    def _step(self, step: str, tracer) -> bool:
        """Run one step; True when it returned normally."""
        span = tracer.span(f"cli.step.{step}", "cli") if tracer else contextlib.nullcontext()
        try:
            with span:
                cli.run(cli.load_config(self.config), step)
        except Exception:
            _report_failure(f"step {step}")
            return False
        return True

    def run_pass(self, tracer):
        failed = 0
        with contextlib.ExitStack() as stack:
            if tracer:
                stack.enter_context(tracer.patched(cli, CLI_TABLE))
                # assign_values looks filter_value up as a module global.
                stack.enter_context(
                    tracer.counted(patentval, "filter_value", "patentval.filter_calls")
                )
            for step in CHAIN_STEPS:
                failed += not self._step(step, tracer)
        return len(CHAIN_STEPS), failed

    def _expected_values(self):
        """Each event's filtered value, streamed from the event file, whose
        rows gen writes grouped by (day, firm)."""
        with open(self.events_path, newline="", encoding="utf-8") as fh:
            rows = csv.reader(fh)
            col = {name: i for i, name in enumerate(next(rows))}
            same_grant = operator.itemgetter(col["grant_date"], col["firm_id"])
            for _, group in itertools.groupby(rows, same_grant):
                group = list(group)
                ret, cap = float(group[0][col["window_return"]]), float(group[0][col["market_cap"]])
                share = _filter_value(ret, gen.SIGMA_V, gen.SIGMA_E, cap) / len(group)
                yield from itertools.repeat(share, len(group))

    def check(self):
        names, n, h_max = self.names, len(self.names), gen.HORIZON
        results = {}

        irf = _read_csv(self.out / "irf.csv")
        lo, mid, hi = (np.array([float(r[c]) for r in irf]) for c in ("lower", "median", "upper"))
        results["irf rows"] = len(irf) == n * n * (h_max + 1)
        results["irf bands ordered"] = bool(np.all(lo <= mid) and np.all(mid <= hi))
        anchor = [
            float(r["median"])
            for r in irf
            if r["shock"] == names[0]
            and r["variable"] == names[0]
            and int(r["horizon"]) == gen.RESCALE_HORIZON
        ]
        results["rescale anchor"] = (
            len(anchor) == 1 and abs(anchor[0] - gen.RESCALE_VALUE) <= 1e-12
        )

        dec = _read_csv(self.out / "decomposition.csv")
        common = np.array([float(r["common"]) for r in dec])
        idio = np.array([float(r["idiosyncratic"]) for r in dec])
        results["decomposition orthogonal"] = (
            len(dec) > 0 and abs(float(common @ idio)) / len(dec) < 1e-10
        )

        usable = gen.PERIODS - gen.LAGS
        lp_ok = True
        for name in names:
            rows = _read_csv(self.out / f"lp_{name}.csv")
            lp_ok &= len(rows) == h_max + 1 and all(
                int(r["n_obs"]) == usable - 1 - int(r["horizon"]) for r in rows
            )
        results["lp n_obs"] = lp_ok

        if self.expected_total is None:
            self.expected_total = math.fsum(self._expected_values())
        rows = _read_csv(self.out / "index.csv")
        total = math.fsum(float(r[col]) for r in rows for col in ("gpbii", "ngpbii"))
        results["index total"] = abs(total - self.expected_total) <= 1e-12 * abs(
            self.expected_total
        )
        results["index quarters"] = len(rows) == 4 * (gen.LAST_YEAR - gen.FIRST_YEAR + 1)
        return results, digest_dir(self.out)


class LpMonteCarlo:
    """Criterion-05 design: replications of a 2-variable VAR(1) simulated
    for 5000 periods, each followed by local projections (h <= 8) of the
    second variable on the true first structural shock."""

    unit = "replications"
    B = np.array([[0.0, 0.0], [0.5, 0.2], [-0.1, 0.4]])
    L = np.array([[1.0, 0.0], [0.4, 0.9]])
    REPS = 200
    PERIODS = 5000
    HORIZON = 8
    MIN_COVERAGE = 0.95

    def __init__(self, work, seed):
        self.seed = seed
        self.units = self.REPS
        a = self.B[1:].T
        # Truth from the closed form Psi_h = A^h L, independent of the program.
        self.truth = np.array(
            [(np.linalg.matrix_power(a, h) @ self.L)[1, 0] for h in range(self.HORIZON + 1)]
        )
        self.dgps: list[Dgp] = []
        self.beta = np.zeros((self.REPS, self.HORIZON + 1))
        self.se = np.zeros((self.REPS, self.HORIZON + 1))

    def prepare(self) -> None:
        seeds = np.random.default_rng(self.seed).integers(0, 2**31, self.units)
        self.dgps = [Dgp(B=self.B, L=self.L, burn_in=200, seed=int(s)) for s in seeds]
        for dgp in self.dgps[:3]:
            panel, eta = simulate_var(dgp, self.PERIODS)
            lp_irf(panel.values[:, 1], eta[:, 0], self.HORIZON)

    def reset(self) -> None:
        self.beta[:] = np.nan
        self.se[:] = np.nan

    def run_pass(self, tracer):
        simulate, project = simulate_var, lp_irf
        if tracer is not None:
            simulate = tracer.wrap(simulate_var, "synth.simulate", "synth", _periods)
            project = tracer.wrap(lp_irf, "localproj.lp", "localproj", _regressions(2))
        failed = 0
        for i, dgp in enumerate(self.dgps):
            try:
                panel, eta = simulate(dgp, self.PERIODS)
                result = project(panel.values[:, 1], eta[:, 0], self.HORIZON)
                self.beta[i], self.se[i] = result.beta, result.se
            except Exception:
                _report_failure(f"replication {i}")
                failed += 1
        return len(self.dgps), failed

    def check(self):
        covered = np.all(np.abs(self.beta - self.truth) <= 3.0 * self.se, axis=1)
        results = {"lp coverage": float(covered.mean()) >= self.MIN_COVERAGE}
        digest = hashlib.sha256(self.beta.tobytes() + self.se.tobytes()).hexdigest()
        return results, digest


WORKLOADS = {"stress_chain": Chain, "lp_montecarlo": LpMonteCarlo}
