"""Self-tests of the benchmark, at a tiny size.

    python3 -m pytest perfbench -q
"""

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run as bench  # noqa: E402
import workloads as wl  # noqa: E402
from spans import Span, Tracer, self_times, summary  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_named_metric_is_printed_with_its_unit(workload, trace, capsys):
    argv = ["--workload", workload, "--seed", "2026", "--seconds", "0", "--trace", str(trace)]
    code = bench.main(argv, sizes=wl.TINY)
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    named = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == named
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    printed = {line.split()[0]: line.split()[-1] for line in lines if line.startswith("  ")}
    assert printed == named
    assert code == 0 and result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


def test_self_times_subtract_the_union_of_child_intervals():
    spans = [
        Span(0, None, 1, "bench", "iteration", 0.0, 10.0),
        Span(1, 0, 1, "cli", "main", 1.0, 4.0),
        Span(2, 1, 1, "optimize", "sweep", 2.0, 3.5),
        Span(3, 0, 1, "montecarlo", "simulate", 5.0, 7.0),
        Span(4, 0, 1, "montecarlo", "simulate", 6.5, 8.0),  # overlaps its sibling
    ]
    assert self_times(spans) == pytest.approx(
        {"bench": 10.0 - 3.0 - 3.0, "cli": 1.5, "optimize": 1.5, "montecarlo": 3.5})


def test_self_times_of_a_recorded_tree_add_up_to_the_root():
    tracer = Tracer(enabled=True)
    with tracer.span("bench", "iteration"):
        with tracer.span("cli", "main"):
            with tracer.span("optimize", "sweep"):
                sum(range(10_000))
        with tracer.span("rates", "key_rate"):
            sum(range(10_000))
    root = tracer.spans[0]
    assert [s.parent for s in tracer.spans] == [None, 0, 1, 0]
    assert sum(self_times(tracer.spans).values()) == pytest.approx(root.duration, abs=1e-12)
    with Tracer(enabled=False).span("cli", "main") as nothing:
        assert nothing is None


def test_summary_tail_percentile_keeps_ten_samples_beyond_it():
    stats = summary([float(x) for x in range(30)])
    assert (stats["n"], stats["median"], stats["tail"]) == (30, 14.5, 19.0)
    assert stats["tail_pct"] == pytest.approx(65.5)
    assert summary([float(x) for x in range(20)])["tail"] is None


def test_wrong_csv_digest_is_a_failed_operation(tmp_path):
    jobs = tuple((name, argv, "0" * 64 if k == 2 else digest)
                 for k, (name, argv, digest) in enumerate(wl.FIGURE_JOBS))
    run = wl.Run(Tracer(), threads=1)
    wl.DesignSpace(wl.TINY, str(tmp_path), figure_jobs=jobs)._figures(run)
    assert (run.attempted, run.failed, run.counts["cli.csv_mismatches"]) == (4, 1, 1)


def test_mismatched_tally_is_a_failed_operation():
    run = wl.Run(Tracer(), threads=2)
    oracle = wl.Oracle(100.0, seed=2026, sizes=wl.TINY)
    oracle.prepare(run)
    assert run.failed == 0
    first = oracle.baseline[1]
    oracle.baseline[1] = replace(first, n_event1=first.n_event1 + 1)
    oracle.iteration(run)
    assert (run.failed, run.counts["montecarlo.invariance_mismatches"]) == (1, 1)


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "oracle_far",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
