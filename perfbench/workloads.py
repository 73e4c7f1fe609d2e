"""The four benchmark workloads and their output checks.

Each workload drives dualqss through its public functions and has two
parts: ``prepare`` runs once per benchmark run, ``iteration`` is the
workload at its stated size and is what ``wall_s`` times.

One operation is one ``simulate``, ``sweep``, ``optimize_mu``,
``max_distance`` or ``cli.main`` call. It fails when it raises, returns
a non-finite result, or fails an output check; an operation that fails
several checks counts once.
"""

from __future__ import annotations

import hashlib
import math
import os
import statistics
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

from dualqss import (
    SimConfig,
    SimReport,
    SweepSpec,
    SweepVariable,
    SystemParams,
    TapParams,
    at_distance,
    at_intensity,
    compare_to_analytic,
    event1_rates,
    event2_rates,
    event3_rates,
    ie_dual,
    key_rate,
    max_distance,
    optimize_mu,
    simulate,
    simulate_beam_split,
    simulate_dishonest_bob,
    sweep,
)
from dualqss.cli import main as cli_main

from spans import Tracer

# Evidence rule: a comparison row is judged against the sigma budget only
# when it expects at least MIN_EXPECTED counts. Rows below that carry no
# statistical power (0.001 expected counts at 400 km), so a reseeded run
# must not fail on them; they are counted as uninformative instead.
SIGMA_BUDGET = 5.0
MIN_EXPECTED = 10.0

# The single-click tolerable QBER; a 5% announcement flip must exceed it.
QBER_THRESHOLD_EVENT1 = 0.0239

ORACLE_MUS = (0.4, 0.84, 1.5)
REFERENCE = SystemParams()  # mu=0.84 and the default channel and detectors
SWEEP_HI_KM = 460.0
RATE_STRIDE = 10  # every tenth dense-sweep point is timed through key_rate and its parts
OPT_DISTANCES = tuple(float(l_km) for l_km in range(0, 451, 50))
REACH_MUS = tuple(sorted({round(0.1 * k, 1) for k in range(1, 21)} | {REFERENCE.mu}))
REACH_TOL_KM = 0.1  # the default tolerance of max_distance

# The jobs of scripts/make_figure_data.py, with the SHA-256 of each CSV
# as written at commit 60f7309. Any change to a figure's bytes is a
# failed operation.
FIGURE_JOBS = (
    ("leakage_vs_mu.csv",
     ["ie-compare", "--var", "mu", "--lo", "0.05", "--hi", "2.0", "--step", "0.05", "--L", "100"],
     "4e644f8a4b68cffa14a6ced8f8874b10dd98988be7253edb2915f21805af1dcc"),
    ("rate_vs_distance_mu084.csv",
     ["sweep", "--mu", "0.84", "--lo", "0", "--hi", "460", "--step", "2"],
     "0c2435f573eeaeb721001bccd8ffa083b9774b90764152500bca08ae13aba8d5"),
    ("rate_vs_distance_mu150.csv",
     ["sweep", "--mu", "1.5", "--lo", "0", "--hi", "445", "--step", "2"],
     "9c169013bd2a44c008045c75f40f5b8ef5e7757ddf899c797deafa90be077cc1"),
    ("rate_vs_mu_400km.csv",
     ["sweep", "--var", "mu", "--lo", "0.3", "--hi", "1.5", "--step", "0.01", "--L", "400"],
     "7edf317077f51e8c371777834e7c8044df6e92f65edbdd98b9588bbc4908282f"),
)

# Counts that a dishonest receiver changes by flipping announced bits.
_ANNOUNCED = frozenset({"n_check_x_err", "n_check_z_err"})


@dataclass(frozen=True)
class Sizes:
    oracle_rounds: int  # rounds per oracle grid point
    attack_rounds: int  # rounds per run of the attack triple
    sweep_step_km: float  # step of the dense distance sweep
    setup_reps: int  # fresh-process set-ups timed per run
    memory_reps: int  # fresh-process iterations whose peak memory is taken per run


FULL = Sizes(oracle_rounds=2_000_000, attack_rounds=2_000_000, sweep_step_km=0.05,
             setup_reps=5, memory_reps=3)
TINY = Sizes(oracle_rounds=100_000, attack_rounds=200_000, sweep_step_km=5.0,
             setup_reps=1, memory_reps=1)


class Run:
    """Operation accounting, counters and samples of one benchmark run."""

    def __init__(self, tracer: Tracer, threads: int) -> None:
        self.tracer = tracer
        self.threads = threads
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.counts: Counter = Counter()
        self.samples: defaultdict[str, list[float]] = defaultdict(list)

    def call(self, layer: str, name: str, fn, *args, attrs: dict | None = None, **kwargs):
        """One operation. Returns its result, or None when it raised."""
        self.attempted += 1
        try:
            with self.tracer.span(layer, name, **(attrs or {})):
                return fn(*args, **kwargs)
        except Exception as exc:  # a raising call is a failed operation, not a crashed run
            self.failed += 1
            self.problems.append(f"{layer}.{name}: raised {exc!r}")
            return None

    def settle(self, what: str, problems: list[str]) -> None:
        """Count the operation described by ``what`` failed if any check did."""
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)


def judge_rows(run: Run, report: SimReport, evidence: Counter) -> tuple[list[str], list[dict]]:
    """Compare a report with the closed forms under the evidence rule."""
    try:
        with run.tracer.span("montecarlo", "compare_to_analytic"):
            rows = compare_to_analytic(report)
    except Exception as exc:  # counted against the simulate call it checks
        return [f"compare_to_analytic raised {exc!r}"], []
    problems = []
    for row in rows:
        if not row["expected"] >= MIN_EXPECTED:
            evidence["uninformative"] += 1
            continue
        evidence["informative"] += 1
        sigma = abs(row["sigma"])
        evidence["max_abs_sigma"] = max(evidence["max_abs_sigma"], sigma)
        if not sigma <= SIGMA_BUDGET:
            problems.append(f"{row['name']} is {row['sigma']:+.2f} sigma off "
                            f"{row['expected']:.1f} expected counts")
    return problems, rows


def invariance_problems(run: Run, report: SimReport, baseline: SimReport | None) -> list[str]:
    """Tallies must not depend on the worker count."""
    if baseline is None or report == baseline:
        return []
    run.counts["montecarlo.invariance_mismatches"] += 1
    return [f"tallies at {run.threads} threads differ from the tallies at 1 thread"]


def tally_diff(a: SimReport, b: SimReport) -> set[str]:
    """Names of the counts (and 'parity') that differ between two reports."""
    ca, cb = a.to_dict()["counts"], b.to_dict()["counts"]
    diff = {k for k in ca if ca[k] != cb[k]}
    if a.parity != b.parity:
        diff.add("parity")
    return diff


def _record_evidence(run: Run, evidence: Counter, reports: list[SimReport | None]) -> None:
    """Evidence counts of one pass; identical on every pass of a run."""
    run.counts["montecarlo.informative_rows"] = evidence["informative"]
    run.counts["montecarlo.uninformative_rows"] = evidence["uninformative"]
    run.counts["montecarlo.max_abs_sigma"] = evidence["max_abs_sigma"]
    done = [r for r in reports if r is not None]
    rounds = sum(r.rounds for r in done)
    events = sum(r.n_event1 + r.n_event2 + r.n_event3 for r in done)
    run.counts["montecarlo.events_per_mround"] = events / rounds * 1e6 if rounds else 0.0


def _simulate_pass(run: Run, jobs: list, threads: int, sample: str | None) -> list[SimReport | None]:
    """Run (function, config) jobs back to back; record Mrounds/s as ``sample``."""
    t0 = time.perf_counter()
    reports = [run.call("montecarlo", fn.__name__, fn, cfg, threads=threads,
                        attrs={"threads": threads, "rounds": cfg.rounds})
               for fn, cfg in jobs]
    elapsed = time.perf_counter() - t0
    if sample:
        run.samples[sample].append(sum(cfg.rounds for _, cfg in jobs) / elapsed / 1e6)
    return reports


def _warm_up(run: Run, jobs: list) -> None:
    """One untimed run of the first job, so that the timed passes do not
    pay for first-touch page faults of the block arrays."""
    _simulate_pass(run, jobs[:1], run.threads, None)


class Oracle:
    """The mc_crosscheck grid at one distance: mu in ORACLE_MUS,
    basis_policy=1, no attack. The iteration runs the grid at ``threads``
    workers; ``prepare`` runs it once at one thread as the plain baseline
    and as the tallies every iteration must reproduce."""

    def __init__(self, l_km: float, seed: int, sizes: Sizes) -> None:
        self.jobs = [(simulate, SimConfig(sp=SystemParams(mu=mu, l_km=l_km),
                                          rounds=sizes.oracle_rounds, seed=seed,
                                          basis_policy=1.0))
                     for mu in ORACLE_MUS]
        self.baseline: list[SimReport | None] = [None] * len(self.jobs)

    def prepare(self, run: Run) -> None:
        _warm_up(run, self.jobs)
        self.baseline = _simulate_pass(run, self.jobs, 1, "mrounds_per_s_1t")
        for (_, cfg), report in zip(self.jobs, self.baseline):
            if report is not None:
                run.settle(_label(cfg, 1), judge_rows(run, report, Counter())[0])

    def iteration(self, run: Run) -> None:
        reports = _simulate_pass(run, self.jobs, run.threads, "mrounds_per_s")
        evidence: Counter = Counter()
        for (_, cfg), report, base in zip(self.jobs, reports, self.baseline):
            if report is None:
                continue
            problems = judge_rows(run, report, evidence)[0]
            problems += invariance_problems(run, report, base)
            run.settle(_label(cfg, run.threads), problems)
        _record_evidence(run, evidence, reports)


class AttackAudit:
    """The attack triple on one seed (honest, beam splitting, dishonest
    receiver) at 100 km with check_fraction=0.3, flip_fraction=0.05 and
    basis_policy=0.5. ``prepare`` runs the honest case once at one thread."""

    def __init__(self, seed: int, sizes: Sizes) -> None:
        cfg = SimConfig(sp=SystemParams(mu=0.84, l_km=100.0), rounds=sizes.attack_rounds,
                        seed=seed, basis_policy=0.5, check_fraction=0.3, flip_fraction=0.05)
        self.jobs = [(simulate, cfg), (simulate_beam_split, cfg), (simulate_dishonest_bob, cfg)]
        self.baseline: SimReport | None = None

    def prepare(self, run: Run) -> None:
        cfg = self.jobs[0][1]
        _warm_up(run, self.jobs)
        (self.baseline,) = _simulate_pass(run, self.jobs[:1], 1, "mrounds_per_s_1t")
        if self.baseline is not None:
            run.settle(_label(cfg, 1), judge_rows(run, self.baseline, Counter())[0])

    def iteration(self, run: Run) -> None:
        honest, tapped, flipped = _simulate_pass(run, self.jobs, run.threads, "mrounds_per_s")
        evidence: Counter = Counter()
        cfg = self.jobs[0][1]
        if honest is not None:
            problems = judge_rows(run, honest, evidence)[0]
            problems += invariance_problems(run, honest, self.baseline)
            run.settle(_label(cfg, run.threads), problems)
        if tapped is not None:
            problems, rows = judge_rows(run, tapped, evidence)
            leak = [r for r in rows if r["name"] == "eve_leak"]
            if not leak or not abs(leak[0]["sigma"]) <= SIGMA_BUDGET:
                problems.append(f"eve_leak row missing or beyond {SIGMA_BUDGET} sigma: {leak}")
            if honest is not None and tally_diff(honest, tapped) - {"n_eve_success"}:
                problems.append("beam splitting changed protocol tallies: "
                                f"{sorted(tally_diff(honest, tapped))}")
            run.settle("simulate_beam_split", problems)
        if flipped is not None:
            problems = judge_rows(run, flipped, evidence)[0]
            qber = flipped.to_dict()["rates"]["qber_check_x"]
            if not (qber is not None and qber > QBER_THRESHOLD_EVENT1):
                problems.append(f"check QBER {qber} does not exceed {QBER_THRESHOLD_EVENT1}")
            if honest is not None and tally_diff(honest, flipped) - _ANNOUNCED:
                problems.append("announcement flips changed protocol tallies: "
                                f"{sorted(tally_diff(honest, flipped))}")
            run.settle("simulate_dishonest_bob", problems)
        _record_evidence(run, evidence, [honest, tapped, flipped])


class DesignSpace:
    """No simulation, and no randomness: the seed is not used.

    The four figure jobs through ``cli.main``, a dense distance sweep at
    the reference point (every tenth point also timed through
    ``key_rate``, its event rates and ``ie_dual``), ``optimize_mu`` over
    OPT_DISTANCES and ``max_distance`` over REACH_MUS."""

    def __init__(self, sizes: Sizes, workdir: str, figure_jobs=FIGURE_JOBS) -> None:
        self.workdir = workdir
        self.figure_jobs = figure_jobs
        self.spec = SweepSpec(variable=SweepVariable.DISTANCE, lo=0.0, hi=SWEEP_HI_KM,
                              step=sizes.sweep_step_km, fixed=REFERENCE)
        self.n_points = len(self.spec.values())
        self.points = [at_distance(REFERENCE, l_km) for l_km in self.spec.values()[::RATE_STRIDE]]
        self.taps = [TapParams(mu=sp.mu, eta_t=sp.eta_t) for sp in self.points]
        self.sweep_edge: float | None = None

    def prepare(self, run: Run) -> None:
        pass

    def iteration(self, run: Run) -> None:
        self._figures(run)
        self._sweep(run)
        self._rates(run)
        self._optimize(run)
        self._reach(run)

    def _figures(self, run: Run) -> None:
        written = 0
        for name, argv, digest in self.figure_jobs:
            path = os.path.join(self.workdir, name)
            code = run.call("cli", "main", cli_main, [*argv, "-o", path])
            if code is None:
                continue
            problems = []
            if code != 0:
                problems.append(f"exit code {code}")
            else:
                try:
                    with open(path, "rb") as fh:
                        data = fh.read()
                except OSError as exc:
                    data = b""
                    problems.append(f"output unreadable: {exc!r}")
                written += len(data)
                if hashlib.sha256(data).hexdigest() != digest:
                    run.counts["cli.csv_mismatches"] += 1
                    problems.append("CSV differs from its recorded SHA-256")
            run.settle(f"cli.main {name}", problems)
        run.counts["cli.bytes_written"] = written

    def _sweep(self, run: Run) -> None:
        t0 = time.perf_counter()
        points = run.call("optimize", "sweep", sweep, self.spec)
        elapsed = time.perf_counter() - t0
        if points is None:
            return
        run.samples["points_per_s"].append(len(points) / elapsed)
        run.counts["optimize.sweep_points"] = len(points)
        problems = []
        if len(points) != self.n_points:
            problems.append(f"{len(points)} points, expected {self.n_points}")
        bad = [p.l_km for p in points if not (math.isfinite(p.r) and p.r >= 0.0)]
        if bad:
            problems.append(f"rate non-finite or negative at {len(bad)} points, first L={bad[0]}")
        positive = [p.l_km for p in points if p.r > 0.0]
        self.sweep_edge = positive[-1] if positive else None
        run.settle("sweep", problems)

    def _rates(self, run: Run) -> None:
        span = run.tracer.span
        for sp, tap in zip(self.points, self.taps):
            with span("rates", "key_rate"):
                key_rate(sp)
            with span("rates", "event_rates"):
                event1_rates(sp)
                event2_rates(sp)
                event3_rates(sp)
            with span("attack", "ie_dual"):
                ie_dual(tap)

    def _optimize(self, run: Run) -> None:
        evaluations = []
        for l_km in OPT_DISTANCES:
            res = run.call("optimize", "optimize_mu", optimize_mu, l_km, REFERENCE)
            if res is None:
                continue
            evaluations.append(res.evaluations)
            problems = []
            if not (math.isfinite(res.best_mu) and 0.1 <= res.best_mu <= 2.0):
                problems.append(f"best_mu {res.best_mu} outside the bounds")
            # The reference intensity lies inside the default bounds.
            floor = key_rate(at_distance(REFERENCE, l_km)).r
            if not (math.isfinite(res.best_rate) and res.best_rate >= floor):
                problems.append(f"best_rate {res.best_rate} below the rate {floor} at mu=0.84")
            run.settle(f"optimize_mu L={l_km}", problems)
        if evaluations:
            run.counts["optimize.optimize_mu_evals"] = statistics.mean(evaluations)

    def _reach(self, run: Run) -> None:
        for mu in REACH_MUS:
            reach = run.call("optimize", "max_distance", max_distance, mu, REFERENCE)
            if reach is None:
                continue
            problems = []
            base = at_intensity(REFERENCE, mu)
            if not (math.isfinite(reach) and 0.0 < reach < 1000.0):
                problems.append(f"reach {reach} km outside (0, 1000)")
            elif not (key_rate(at_distance(base, reach)).r > 0.0
                      and key_rate(at_distance(base, reach + REACH_TOL_KM)).r == 0.0):
                problems.append(f"{reach} km is not the upper edge of the positive window")
            elif mu == REFERENCE.mu and self.sweep_edge is not None and not (
                    abs(reach - self.sweep_edge) <= self.spec.step + REACH_TOL_KM):
                problems.append(f"reach {reach} km disagrees with the sweep's last "
                                f"positive point {self.sweep_edge} km")
            run.settle(f"max_distance mu={mu}", problems)


def _label(cfg: SimConfig, threads: int) -> str:
    return f"simulate mu={cfg.sp.mu} L={cfg.sp.l_km:g} threads={threads}"


def make(name: str, seed: int, sizes: Sizes, workdir: str):
    """The workload called ``name``; ``workdir`` receives design_space's CSVs."""
    if name == "oracle_near":
        return Oracle(100.0, seed, sizes)
    if name == "oracle_far":
        return Oracle(400.0, seed, sizes)
    if name == "design_space":
        return DesignSpace(sizes, workdir)
    if name == "attack_audit":
        return AttackAudit(seed, sizes)
    raise ValueError(f"unknown workload {name!r}")
