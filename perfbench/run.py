#!/usr/bin/env python3
"""dualqss benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload oracle_far --seed 2026 --seconds 12 --trace 0

Run from the root of a checkout; dualqss is imported from its ``src/``
and nowhere else. ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics from in-memory spans. The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give
medians, quartiles, tail percentiles with sample counts, and
provenance. Exits 1 when an operation failed, 2 when the checkout has
no dualqss sources. See README.md in this directory.
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
import tempfile
import time
from pathlib import Path

from calibrate import PROCESS, PYTHON, Calibrated, threaded_numpy
from spans import Tracer, median, self_times, summary

WORKLOADS = ("oracle_near", "oracle_far", "design_space", "attack_audit")

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "mrounds_per_s": "Mrounds/s",
    "mrounds_per_s_1t": "Mrounds/s",
    "points_per_s": "1/s",
    "ops_failed_frac": "fraction",
    "montecarlo.simulate_s": "s",
    "montecarlo.ns_per_round_1t": "ns",
    "montecarlo.scaling_eff": "fraction",
    "montecarlo.events_per_mround": "count",
    "montecarlo.compare_ms": "ms",
    "montecarlo.informative_rows": "count",
    "montecarlo.uninformative_rows": "count",
    "montecarlo.max_abs_sigma": "sigma",
    "montecarlo.invariance_mismatches": "count",
    "rates.key_rate_us": "us",
    "rates.event_rates_us": "us",
    "attack.ie_dual_us": "us",
    "optimize.sweep_s": "s",
    "optimize.sweep_points": "count",
    "optimize.optimize_mu_ms": "ms",
    "optimize.optimize_mu_evals": "count",
    "optimize.max_distance_ms": "ms",
    "cli.main_s": "s",
    "cli.bytes_written": "bytes",
    "cli.csv_mismatches": "count",
    "montecarlo.self_s": "s",
    "rates.self_s": "s",
    "attack.self_s": "s",
    "optimize.self_s": "s",
    "cli.self_s": "s",
    "bench.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}

LAYERS = ("montecarlo", "rates", "attack", "optimize", "cli", "bench")

THREAD_CAP_NOTE = ("threads capped at nproc; tests/test_acceptance.py and "
                   "scripts/mc_crosscheck.py use 4 threads, which oversubscribes fewer cores")


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def git_describe(root: Path) -> str:
    # Only inside a git checkout of its own, so git never searches the
    # directories above the checkout.
    if not (root / ".git").exists():
        return "unavailable: not a git checkout"
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty", "--tags"], cwd=root,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"unavailable: {exc}"
    return out.stdout.strip() if out.returncode == 0 else "unavailable: " + out.stderr.strip()


def measure_memory(root: Path, workload: str, seed: int, reps: int) -> list[float]:
    """Peak resident MB of one iteration, each in a fresh process.

    Inside the benchmark process the peak depends on how the worker
    threads' block allocations and the 1-thread pass happened to share
    allocator arenas: it was 278-286 MB in some runs of a workload and
    340-344 MB in others. A fresh process running one iteration does not carry that."""
    cmd = [sys.executable, str(root / "perfbench" / "memory.py"), workload, str(seed)]
    samples = []
    for _ in range(reps):
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            raise RuntimeError(f"memory probe failed: {proc.stderr.strip() or proc.stdout.strip()}")
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def measure_setup(root: Path, seed: int, reps: int) -> tuple[list[float], list[float]]:
    """Reference and raw seconds of ``reps`` fresh processes that import
    and finish the first key_rate and the first small simulate, after one
    untimed run that byte-compiles the sources."""
    cmd = [sys.executable, str(root / "perfbench" / "probe.py"), str(seed)]
    ref, raw = [], []
    cal = Calibrated(PROCESS)
    for rep in range(reps + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=120)
        elapsed = time.perf_counter() - t0
        scaled = cal.close(elapsed)
        if proc.returncode != 0 or proc.stdout.strip() != "ok":
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip() or proc.stdout.strip()}")
        if rep:
            ref.append(scaled)
            raw.append(elapsed)
    return ref, raw


def measure(workload, run, seconds: float, trace: bool, kind: tuple) -> None:
    """``prepare`` once, then iterations until ``seconds`` have passed.

    Iteration wall times are kept raw and in reference seconds. With
    tracing, every second iteration is traced, so that traced and
    untraced wall times come from the same run and their difference is
    the tracing overhead."""
    tracer = run.tracer
    tracer.enabled = trace
    with tracer.span("bench", "prepare"):
        workload.prepare(run)
    min_iterations = 4 if trace else 3
    cal = Calibrated(kind)
    start = time.perf_counter()
    i = 0
    while i < min_iterations or time.perf_counter() - start < seconds:
        i += 1
        traced = trace and i % 2 == 0
        tracer.enabled = traced
        tracer.run_id = i
        t0 = time.perf_counter()
        with tracer.span("bench", "iteration"):
            workload.iteration(run)
        raw = time.perf_counter() - t0
        suffix = "_traced" if traced else ""
        run.samples["wall_s" + suffix].append(cal.close(raw))
        run.samples["wall_raw_s" + suffix].append(raw)
    tracer.enabled = False


def per_layer_metrics(run, nproc_: int) -> dict[str, float]:
    spans = run.tracer.spans
    iter_spans = [s for s in spans if s.run_id > 0]
    roots = [s for s in iter_spans if s.parent is None]

    def durations(layer: str, name: str, scale: float) -> float:
        return median([s.duration * scale for s in iter_spans
                       if s.layer == layer and s.name == name])

    sims = [s for s in spans if s.layer == "montecarlo" and s.name.startswith("simulate")]
    per_iter_cli: dict[int, float] = {}
    for s in iter_spans:
        if s.layer == "cli":
            per_iter_cli[s.run_id] = per_iter_cli.get(s.run_id, 0.0) + s.duration
    mr = median(run.samples["mrounds_per_s"])
    mr_1t = median(run.samples["mrounds_per_s_1t"])
    selfs = self_times(iter_spans)
    n_traced = max(1, len(roots))
    out = {
        "mrounds_per_s": mr,
        "mrounds_per_s_1t": mr_1t,
        "points_per_s": median(run.samples["points_per_s"]),
        "ops_failed_frac": run.failed / run.attempted if run.attempted else 0.0,
        "montecarlo.simulate_s": median([s.duration for s in sims
                                         if s.run_id > 0 and s.attrs["threads"] == run.threads]),
        "montecarlo.ns_per_round_1t": median([s.duration / s.attrs["rounds"] * 1e9
                                              for s in sims if s.attrs["threads"] == 1]),
        "montecarlo.scaling_eff": mr / (nproc_ * mr_1t) if mr_1t else 0.0,
        "montecarlo.compare_ms": durations("montecarlo", "compare_to_analytic", 1e3),
        "rates.key_rate_us": durations("rates", "key_rate", 1e6),
        "rates.event_rates_us": durations("rates", "event_rates", 1e6),
        "attack.ie_dual_us": durations("attack", "ie_dual", 1e6),
        "optimize.sweep_s": durations("optimize", "sweep", 1.0),
        "optimize.optimize_mu_ms": durations("optimize", "optimize_mu", 1e3),
        "optimize.max_distance_ms": durations("optimize", "max_distance", 1e3),
        "cli.main_s": median(list(per_iter_cli.values())),
        "trace.wall_s": sum(s.duration for s in roots) / n_traced,
        "trace.overhead_s": median(run.samples["wall_s_traced"]) - median(run.samples["wall_s"]),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = selfs.get(layer, 0.0) / n_traced
    for name in PER_LAYER:
        out.setdefault(name, float(run.counts.get(name, 0)))
    return out


def main(argv: list[str] | None = None, sizes=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "dualqss" / "__init__.py").is_file():
        print(f"perfbench: no dualqss sources under {src}", file=sys.stderr)
        return 2
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import numpy
    import dualqss
    import workloads as wl

    if not Path(dualqss.__file__).resolve().is_relative_to(src):
        print(f"perfbench: dualqss imported from {dualqss.__file__}, not {src}", file=sys.stderr)
        return 2

    sizes = sizes or wl.FULL
    cores = nproc()
    run = wl.Run(Tracer(), threads=cores)
    if args.trace:
        setup, setup_raw, memory = [], [], []
    else:
        setup, setup_raw = measure_setup(root, args.seed, sizes.setup_reps)
        memory = measure_memory(root, args.workload, args.seed, sizes.memory_reps)

    scratch = root / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=scratch)
    try:
        workload = wl.make(args.workload, args.seed, sizes, workdir)
        kind = PYTHON if args.workload == "design_space" else threaded_numpy(cores)
        measure(workload, run, args.seconds, bool(args.trace), kind)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it
    ru_maxrss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    provenance = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "dualqss": dualqss.__version__,
        "machine": platform.machine(),
        "nproc": cores,
        "cpu_count": os.cpu_count(),
        "threads": run.threads,
        "thread_cap": THREAD_CAP_NOTE,
        "seed": args.seed,
        "seed_used": args.workload != "design_space",
        "git_describe": git_describe(root),
    }
    if args.trace:
        values = per_layer_metrics(run, cores)
        units = PER_LAYER
        stats = {"wall_s_traced": summary(run.samples["wall_s_traced"]),
                 "wall_s_untraced": summary(run.samples["wall_s"]),
                 "wall_raw_s_traced": summary(run.samples["wall_raw_s_traced"]),
                 "wall_raw_s_untraced": summary(run.samples["wall_raw_s"]),
                 "spans": len(run.tracer.spans)}
    else:
        values = {"setup_s": statistics.median(setup),
                  "wall_s": statistics.median(run.samples["wall_s"]),
                  "peak_rss_mb": statistics.median(memory)}
        units = END_TO_END
        stats = {"setup_s": summary(setup), "setup_raw_s": summary(setup_raw),
                 "wall_s": summary(run.samples["wall_s"]),
                 "wall_raw_s": summary(run.samples["wall_raw_s"]),
                 "peak_rss_mb": summary(memory),
                 "ru_maxrss_mb": ru_maxrss_mb,
                 "mrounds_per_s": median(run.samples["mrounds_per_s"]),
                 "mrounds_per_s_1t": median(run.samples["mrounds_per_s_1t"]),
                 "points_per_s": median(run.samples["points_per_s"]),
                 "ops_failed_frac": run.failed / run.attempted}

    iterations = len(run.samples["wall_s"]) + len(run.samples["wall_s_traced"])
    print(f"perfbench {args.workload} seed={args.seed} threads={run.threads} nproc={cores} "
          f"iterations={iterations} ops={run.attempted} failed={run.failed}")
    for name, unit in units.items():
        print(f"  {name:34s} {values[name]:.6g} {unit}")
    print("detail " + json.dumps({"workload": args.workload, "provenance": provenance,
                                  "stats": stats, "problems": run.problems[:20]}))
    for problem in run.problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    correct = run.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
