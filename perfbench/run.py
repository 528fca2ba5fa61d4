#!/usr/bin/env python3
"""Benchmark for the newsvar batch toolkit.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload stress_chain --seed 1 --seconds 20 --trace 0

Workloads: stress_chain, lp_montecarlo (see perfbench/README.md for why
each exists). The run sets up three times
(fresh-interpreter import of ``newsvar.cli``, seeded input generation, a
small warm-up) and reports the median as ``setup_s``; then it runs timed
passes until ``--seconds`` have elapsed, at least three of them. Set-up
rounds and passes alternate between the CPUs the run may use. After every
pass it checks the outputs; a failed step or check counts as a failed
operation. The last line of standard output is one JSON object.

With ``--trace 0`` the metrics are the end-to-end ones, measured with
tracing off. With ``--trace 1`` the run alternates traced and untraced
in-process passes and reports per-layer spans, self times, layer shares
and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

SETUP_ROUNDS = 3
MIN_PASSES = 3
LAYERS = ("cli", "panel", "bvar", "structural", "localproj", "synth", "patentval", "svgplot")
STEPS = ("simulate", "estimate", "irf", "decompose", "lp", "index")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PROBE = "import time; t = time.perf_counter(); import newsvar.cli; print(time.perf_counter() - t)"
REFERENCE_LOOP = 1_000_000
REFERENCE_ROUNDS = 5

END_TO_END = {
    "wall_s": "s",
    "units_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "cli.import_s": "s",
    **{f"cli.step_s.{step}": "s" for step in STEPS},
    "cli.write_s": "s",
    "cli.self_s": "s",
    "panel.load_s": "s",
    "panel.calls": "count",
    "bvar.regress_s": "s",
    "bvar.ols_s": "s",
    "bvar.posterior_mean_s": "s",
    "bvar.posterior_s": "s",
    "bvar.draws": "count",
    "bvar.draws_per_s": "1/s",
    "structural.irf_bands_s": "s",
    "structural.rescale_s": "s",
    "structural.decompose_s": "s",
    "structural.responses_mb": "MB",
    "localproj.lp_s": "s",
    "localproj.regressions": "count",
    "localproj.regressions_per_s": "1/s",
    "synth.simulate_s": "s",
    "synth.periods": "count",
    "synth.periods_per_s": "1/s",
    "patentval.load_events_s": "s",
    "patentval.assign_s": "s",
    "patentval.build_index_s": "s",
    "patentval.events": "count",
    "patentval.filter_calls": "count",
    "patentval.events_per_s": "1/s",
    "svgplot.svg_s": "s",
    "svgplot.figures": "count",
    **{f"self_s.{layer}": "s" for layer in LAYERS + ("bench",)},
    **{f"share.{layer}": "ratio" for layer in LAYERS + ("bench",)},
    "trace.pass_s": "s",
    "trace.untraced_pass_s": "s",
    "trace.overhead_s": "s",
    "trace.unwrapped_share": "ratio",
    "trace.spans": "count",
}


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(tracer, pass_span) -> dict[str, float]:
    """Per-layer numbers of one traced pass."""
    tot = tracer.totals()
    counts = tracer.counts
    selfs = tracer.self_by_layer()
    pass_s = pass_span.duration
    m = {f"cli.step_s.{step}": tot.get(f"cli.step.{step}", 0.0) for step in STEPS}
    m["cli.write_s"] = tot.get("cli.write", 0.0)
    m["cli.self_s"] = sum((s.self_s for s in tracer.spans if s.name.startswith("cli.step.")), 0.0)
    m["panel.load_s"] = tot.get("panel.load", 0.0)
    m["panel.calls"] = counts.get("panel.calls", 0.0)
    for key, span in (
        ("bvar.regress_s", "bvar.regress"),
        ("bvar.ols_s", "bvar.ols"),
        ("bvar.posterior_mean_s", "bvar.posterior_mean"),
        ("bvar.posterior_s", "bvar.posterior"),
        ("structural.irf_bands_s", "structural.irf_bands"),
        ("structural.rescale_s", "structural.rescale"),
        ("structural.decompose_s", "structural.decompose"),
        ("localproj.lp_s", "localproj.lp"),
        ("synth.simulate_s", "synth.simulate"),
        ("patentval.load_events_s", "patentval.load_events"),
        ("patentval.assign_s", "patentval.assign"),
        ("patentval.build_index_s", "patentval.build_index"),
        ("svgplot.svg_s", "svgplot.svg"),
    ):
        m[key] = tot.get(span, 0.0)
    for key in (
        "bvar.draws",
        "localproj.regressions",
        "synth.periods",
        "patentval.events",
        "patentval.filter_calls",
        "svgplot.figures",
    ):
        m[key] = counts.get(key, 0.0)
    m["structural.responses_mb"] = counts.get("structural.responses_bytes", 0.0) / 1e6
    m["bvar.draws_per_s"] = _rate(m["bvar.draws"], m["bvar.posterior_s"])
    m["localproj.regressions_per_s"] = _rate(m["localproj.regressions"], m["localproj.lp_s"])
    m["synth.periods_per_s"] = _rate(m["synth.periods"], m["synth.simulate_s"])
    m["patentval.events_per_s"] = _rate(
        m["patentval.events"],
        m["patentval.load_events_s"] + m["patentval.assign_s"] + m["patentval.build_index_s"],
    )
    for layer in LAYERS + ("bench",):
        m[f"self_s.{layer}"] = selfs.get(layer, 0.0)
        m[f"share.{layer}"] = _rate(selfs.get(layer, 0.0), pass_s)
    m["trace.pass_s"] = pass_s
    m["trace.unwrapped_share"] = _rate(m["self_s.bench"] + m["cli.self_s"], pass_s)
    m["trace.spans"] = float(len(tracer.spans))
    return m


def clamp_blas_threads(nproc: int) -> None:
    """Keep BLAS thread settings at or below the core count; must run
    before numpy is imported."""
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var)
        if value is not None and (not value.isdigit() or int(value) > nproc):
            os.environ[var] = str(nproc)


def blas_info(nproc: int) -> str:
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    name = f"{blas.get('name')} {blas.get('version')}"
    threads = "unknown"
    # numpy wheels bundle OpenBLAS here; loading it again returns the handle
    # numpy already uses.
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        fn = getattr(handle, "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            threads = str(fn())
    env = ",".join(f"{v}={os.environ[v]}" for v in BLAS_THREAD_VARS if v in os.environ)
    return f"blas={name} blas_threads={threads} ({env or 'default'}; nproc={nproc})"


def import_probe(env: dict, cwd: Path) -> float:
    """Seconds a fresh interpreter takes to import newsvar.cli, measured
    inside it."""
    proc = subprocess.run(
        [sys.executable, "-c", PROBE],
        env=env,
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(proc.stdout.strip())


def reference_s() -> float:
    """Median seconds of a fixed pure-Python loop. It gauges the host's
    speed at the time of a run and is printed, never reported as a metric."""
    times = []
    for _ in range(REFERENCE_ROUNDS):
        t0 = time.perf_counter()
        total = 0
        for i in range(REFERENCE_LOOP):
            total += i * i
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def pin(cpus: list[int], i: int) -> None:
    """Pin the benchmark's main thread to the i-th of its allowed CPUs, round
    robin. Left to the scheduler, a single-threaded run stays on one core for
    its whole length, and the cores of a shared host slow down and speed up
    independently over minutes; alternating samples every core in each run."""
    os.sched_setaffinity(0, {cpus[i % len(cpus)]})


def cpu_now() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak resident memory of the benchmark process, which runs the
    program in process."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def describe(values: list[float]) -> str:
    return (
        f"median {statistics.median(values):.4f} min {min(values):.4f} "
        f"max {max(values):.4f} n={len(values)}"
    )


class Run:
    def __init__(self, workload, cpus: list[int]):
        self.w = workload
        self.cpus = cpus
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        self.digest: str | None = None
        self.first_pass_peak_mb: float | None = None

    def timed_pass(self, tracer):
        pin(self.cpus, self.passes)
        self.passes += 1
        self.w.reset()
        c0, t0 = cpu_now(), time.perf_counter()
        if tracer is None:
            attempted, failed = self.w.run_pass(None)
            root = None
        else:
            with tracer.span("pass", "bench") as root:
                attempted, failed = self.w.run_pass(tracer)
        wall = time.perf_counter() - t0
        cpu = cpu_now() - c0
        self.attempted += attempted
        self.failed += failed
        if self.first_pass_peak_mb is None:
            self.first_pass_peak_mb = peak_rss_mb()
        self.check()
        return wall, cpu, root

    def check(self) -> None:
        try:
            results, digest = self.w.check()
        except (OSError, ValueError, KeyError) as exc:
            print(f"FAILED output check: {exc!r}", file=sys.stderr)
            results, digest = {"outputs readable": False}, None
        if self.digest is None:
            self.digest = digest
        else:
            results["identical across passes"] = digest == self.digest
        for name, ok in results.items():
            self.attempted += 1
            if not ok:
                self.failed += 1
                print(f"FAILED check: {name}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "newsvar" / "cli.py").is_file():
        print(f"error: no newsvar sources under {SRC}", file=sys.stderr)
        return 2
    cpus = sorted(os.sched_getaffinity(0))
    nproc = len(cpus)
    clamp_blas_threads(nproc)
    sys.path.insert(0, str(SRC))
    import numpy as np
    import scipy

    import newsvar
    import workloads

    if Path(newsvar.__file__).resolve().parent != SRC / "newsvar":
        print(f"error: imported newsvar from {newsvar.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{tuple(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    work = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        w = workloads.WORKLOADS[args.workload](work, args.seed)
        print(
            f"newsvar benchmark: workload={args.workload} seed={args.seed} "
            f"seconds={args.seconds:g} trace={args.trace}"
        )
        print(
            f"env: nproc={nproc} python={platform.python_version()} numpy={np.__version__} "
            f"scipy={scipy.__version__} {blas_info(nproc)}"
        )
        reference_before = reference_s()
        setups, imports = [], []
        for i in range(SETUP_ROUNDS):
            pin(cpus, i)
            t0 = time.perf_counter()
            imports.append(import_probe(env, work))
            w.prepare()
            setups.append(time.perf_counter() - t0)
        print(f"setup_s: {describe(setups)}; probe import of newsvar.cli: {describe(imports)}")
        setup_peak_mb = peak_rss_mb()

        run = Run(w, cpus)
        metrics = (
            measure_traced(run, args.seconds, imports)
            if args.trace
            else measure(run, args.seconds, setups)
        )
        if not args.trace:
            print(
                f"peak_rss_mb: {setup_peak_mb:.1f} after set-up, {run.first_pass_peak_mb:.1f} "
                f"after the first pass (before any check), {metrics['peak_rss_mb']:.1f} at the end"
            )
        print(
            f"host reference loop: {reference_before:.4f} s before set-up, "
            f"{reference_s():.4f} s after the passes (median of {REFERENCE_ROUNDS}; not a metric)"
        )
        error_rate = run.failed / run.attempted
        print(f"error_rate: {error_rate:g} ({run.failed} failed / {run.attempted} attempted)")
        declared = PER_LAYER if args.trace else END_TO_END
        result = {
            "correct": run.failed == 0,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {k: {"value": metrics[k], "unit": declared[k]} for k in declared},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


def measure(run: Run, seconds: float, setups: list[float]) -> dict:
    walls, cpus = [], []
    start = time.perf_counter()
    while len(walls) < MIN_PASSES or time.perf_counter() - start < seconds:
        wall, cpu, _ = run.timed_pass(None)
        walls.append(wall)
        cpus.append(cpu)
    wall_s = statistics.median(walls)
    metrics = {
        "wall_s": wall_s,
        "units_per_s": run.w.units / wall_s,
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": statistics.median(setups),
    }
    print(f"wall_s per pass: {describe(walls)}")
    print(f"cpu_s per pass: {describe(cpus)}")
    for name, value in metrics.items():
        unit = END_TO_END[name] if name != "units_per_s" else f"{run.w.unit}/s"
        print(f"{name:<12} {value:.6g} {unit}")
    return metrics


def measure_traced(run: Run, seconds: float, imports: list[float]) -> dict:
    """Alternate traced and untraced passes, traced first."""
    traced, plain = [], []
    start = time.perf_counter()
    while not (traced and plain) or time.perf_counter() - start < seconds:
        if len(traced) <= len(plain):
            tracer = Tracer()
            _, _, root = run.timed_pass(tracer)
            traced.append(layer_metrics(tracer, root))
        else:
            plain.append(run.timed_pass(None)[0])
    metrics = {k: statistics.median(m[k] for m in traced) for k in traced[0]}
    metrics["cli.import_s"] = statistics.median(imports)
    metrics["trace.untraced_pass_s"] = statistics.median(plain)
    metrics["trace.overhead_s"] = metrics["trace.pass_s"] - metrics["trace.untraced_pass_s"]
    print(f"traced passes: {len(traced)}, untraced passes: {len(plain)}")
    print(f"pass: traced {metrics['trace.pass_s']:.4f} s, untraced "
          f"{metrics['trace.untraced_pass_s']:.4f} s, overhead {metrics['trace.overhead_s']:+.4f} s")
    print("layer       self_s     share")
    for layer in LAYERS + ("bench",):
        print(f"{layer:<11} {metrics[f'self_s.{layer}']:<10.4f} {metrics[f'share.{layer}']:.1%}")
    print(f"share of the traced pass outside wrapped library calls (bench and cli step self "
          f"time) = {metrics['trace.unwrapped_share']:.4f}")
    for name, unit in PER_LAYER.items():
        if not name.startswith(("self_s.", "share.")):
            print(f"{name:<30} {metrics[name]:.6g} {unit}")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
