#!/usr/bin/env python3
"""Audit a change to the sampler's draws: same tally laws, parent against change.

A change to how the oracle draws changes its tallies at a given seed, but
must not change their distribution. This script runs two source trees,
``--base`` and ``--change`` (each a checkout holding ``src/dualqss``), over
the seeds ``--seeds A-B``, each tree in its own subprocess so that the two
packages never share a process. It covers criterion 8's six configurations
at 10**7 rounds (basis_policy 1) and six settings at basis_policy 0.5:
five of the pinned digests, which are the three checked ones (600,000
rounds, check fraction 0.3, no attack, beam splitting and the dishonest
receiver at flip 0.05), the ``bright`` one (mu 20, L 0, eta_d 1, 60,000
rounds) and the dark-heavy ``dark`` one (p_d 0.02, 600,000 rounds), and
``heavy-dark`` (p_d 0.3, mu 0.84, L 100, 600,000 rounds). In ``bright``
nearly every detector that light reaches clicks, often on many photons;
in ``dark`` and ``heavy-dark`` dark counts make a large share of the
clicks, alone or beside photons, and in ``heavy-dark`` rounds with three
and with four or more photons or dark counts are both common.

Per configuration it prints:
- on how many seeds the two trees' reports are identical;
- per count and parity field that varies on either side, both means, the
  difference of means in standard errors and the variance ratio
  (change over base);
- per side, the fraction of seeds with ``max_abs_sigma`` above 5 and with
  ``min_p_tail`` below 5.7e-7, the 5-sigma two-sided probability.

A summary then gives each configuration's worst difference, criterion 8's
red rate (a seed fails when any of its six configurations exceeds 5
sigma) and each side's worst informative comparison row. The output is
deterministic and holds no timings. Run it from any directory:

    python3 scripts/draw_audit.py --base ../parent --change . --seeds 0-299
"""

import argparse
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

SIGMA_GATE = 5.0
P_GATE = 5.7e-7  # two-sided tail of 5 sigma
C8_ROUNDS = 10_000_000
CHECKED_ROUNDS = 600_000
BRIGHT_ROUNDS = 60_000


def configurations() -> list[tuple[str, dict]]:
    """(label, SimConfig keywords but seed) of every audited configuration; ``sp`` as its keywords."""
    c8 = [(f"c8 mu={mu} L={l_km:.0f}", dict(sp=dict(mu=mu, l_km=l_km), rounds=C8_ROUNDS, basis_policy=1.0))
          for mu in (0.4, 0.84, 1.5) for l_km in (100.0, 400.0)]
    checked = [(f"checked-{attack}", dict(sp=dict(mu=0.84, l_km=100.0), rounds=CHECKED_ROUNDS, basis_policy=0.5,
                                          check_fraction=0.3, flip_fraction=0.05, attack=attack))
               for attack in ("none", "beam_split", "dishonest_bob")]
    heavy = [("bright", dict(sp=dict(mu=20.0, l_km=0.0, eta_d=1.0), rounds=BRIGHT_ROUNDS, basis_policy=0.5)),
             ("dark", dict(sp=dict(mu=0.84, l_km=100.0, p_d=0.02), rounds=CHECKED_ROUNDS, basis_policy=0.5)),
             ("heavy-dark", dict(sp=dict(mu=0.84, l_km=100.0, p_d=0.3), rounds=CHECKED_ROUNDS, basis_policy=0.5))]
    return c8 + checked + heavy


def fields_of(report: dict) -> dict:
    """A report's counts and parity cells, as flat field names."""
    flat = dict(report["counts"])
    for key, group in report["parity"].items():
        flat[f"parity.{key}.n"] = group["n"]
        for name, cells in group.items():
            if name != "n":
                flat.update((f"parity.{key}.{name}.{cell}", count) for cell, count in cells.items())
    return flat


def worker(seeds: range) -> None:
    """Simulate every configuration at every seed in the tree on ``sys.path``; print JSON."""
    import dualqss
    from dualqss.detectors import SystemParams
    from dualqss.montecarlo import SimConfig, compare_to_analytic, max_abs_sigma, min_p_tail, p_tail, simulate

    out = {"package": str(Path(dualqss.__file__).resolve().parent), "configs": []}
    for label, kw in configurations():
        runs = []
        for seed in seeds:
            cfg = SimConfig(**{**kw, "sp": SystemParams(**kw["sp"])}, seed=seed)
            sim = simulate(cfg)
            report, rows = sim.to_dict(), compare_to_analytic(sim)
            informative = [r for r in rows if r["informative"]]
            worst = max(informative, key=lambda r: abs(r["sigma"]), default=None)
            runs.append({"digest": hashlib.sha256(json.dumps(report).encode()).hexdigest(),
                         "fields": fields_of(report), "max_abs_sigma": max_abs_sigma(rows),
                         "min_p_tail": min_p_tail(rows),
                         "worst": worst and [worst["name"], worst["sigma"],
                                             p_tail(worst["count"], worst["n"], worst["p_analytic"])]})
        out["configs"].append({"label": label, "runs": runs})
    json.dump(out, sys.stdout)


def run_tree(tree: Path, seeds: range) -> dict:
    """The worker's results for one source tree, run in a fresh interpreter."""
    src = (tree / "src").resolve()
    if not (src / "dualqss" / "__init__.py").is_file():
        raise SystemExit(f"{tree} holds no src/dualqss")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, __file__, "--worker", "--seeds", f"{seeds.start}-{seeds[-1]}"],
                          env=env, capture_output=True, text=True)
    if done.returncode:
        raise SystemExit(f"the worker for {tree} failed:\n{done.stderr}")
    result = json.loads(done.stdout)
    if Path(result["package"]) != src / "dualqss":
        raise SystemExit(f"the worker for {tree} imported dualqss from {result['package']}")
    return result


def moments(values: list[int]) -> tuple[float, float]:
    """Mean and sample variance, in floats from exact integer sums."""
    n = len(values)
    total = sum(values)
    var = (n * sum(v * v for v in values) - total * total) / (n * (n - 1)) if n > 1 else 0.0
    return total / n, var


def compare_field(base: list[int], change: list[int]) -> tuple[float, float, float, float]:
    """Both means, the difference of means in standard errors and the variance ratio."""
    (mb, vb), (mc, vc) = moments(base), moments(change)
    se = math.sqrt((vb + vc) / len(base))
    diff = (mc - mb) / se if se > 0.0 else 0.0 if mc == mb else math.inf
    ratio = vc / vb if vb > 0.0 else 1.0 if vc == 0.0 else math.inf
    return mb, mc, diff, ratio


def gate_counts(runs: list[dict]) -> tuple[int, int]:
    """Seeds whose max_abs_sigma exceeds the gate, and whose min_p_tail falls below it."""
    return (sum(r["max_abs_sigma"] > SIGMA_GATE for r in runs), sum(r["min_p_tail"] < P_GATE for r in runs))


def report(base: dict, change: dict, seeds: range) -> None:
    """Print the per-configuration tables, then the summary."""
    n = len(seeds)
    summary, worst_rows = [], {"base": None, "change": None}
    for b, c in zip(base["configs"], change["configs"]):
        label = b["label"]
        same = sum(x["digest"] == y["digest"] for x, y in zip(b["runs"], c["runs"]))
        print(f"== {label}: reports identical on {same} of {n} seeds")
        print(f"   {'field':36s} {'base mean':>16s} {'change mean':>16s} {'diff/se':>8s} {'var ratio':>9s}")
        worst, varying = (0.0, "-"), 0
        for name in b["runs"][0]["fields"]:
            xs, ys = ([r["fields"][name] for r in side["runs"]] for side in (b, c))
            if len(set(xs)) == len(set(ys)) == 1 and xs[0] == ys[0]:
                continue  # constant and equal on both sides: no evidence either way
            varying += 1
            mb, mc, diff, ratio = compare_field(xs, ys)
            print(f"   {name:36s} {mb:16.4f} {mc:16.4f} {diff:+8.2f} {ratio:9.3f}")
            worst = max(worst, (abs(diff), name), key=lambda w: w[0])
        (sb, pb), (sc, pc) = gate_counts(b["runs"]), gate_counts(c["runs"])
        print(f"   max|sigma| > {SIGMA_GATE:g}: base {sb}/{n}, change {sc}/{n}; "
              f"min p_tail < {P_GATE:g}: base {pb}/{n}, change {pc}/{n}")
        summary.append(f"  {label:22s} identical {same}/{n}, worst |diff| {worst[0]:.2f} se"
                       f" ({worst[1]}) over {varying} varying fields")
        for side, runs in (("base", b["runs"]), ("change", c["runs"])):
            for seed, run in zip(seeds, runs):
                if run["worst"] and (worst_rows[side] is None or abs(run["worst"][1]) > abs(worst_rows[side][3])):
                    worst_rows[side] = (label, seed, *run["worst"])
    print("summary")
    print("\n".join(summary))
    for side, result in (("base", base), ("change", change)):
        c8 = [cfg["runs"] for cfg in result["configs"] if cfg["label"].startswith("c8")]
        red = sum(any(runs[i]["max_abs_sigma"] > SIGMA_GATE for runs in c8) for i in range(n))
        tail = sum(any(runs[i]["min_p_tail"] < P_GATE for runs in c8) for i in range(n))
        print(f"  {side}: criterion 8 red (max|sigma| > {SIGMA_GATE:g} in any of six) on {red}/{n} seeds, "
              f"min p_tail < {P_GATE:g} on {tail}/{n}")
    for side, row in worst_rows.items():
        if row is None:
            print(f"  {side}: no informative row")
        else:
            label, seed, name, sigma, tail = row
            print(f"  {side}: worst informative row {name} at {label}, seed {seed}: "
                  f"sigma {sigma:+.2f}, p_tail {tail:.3g}")


def parse_seeds(text: str) -> range:
    """The inclusive seed range of ``A-B``, or the one seed ``A``."""
    match = re.fullmatch(r"(\d+)(?:-(\d+))?", text)
    if not match or int(match[2] or match[1]) < int(match[1]):
        raise argparse.ArgumentTypeError(f"seeds must read A-B with 0 <= A <= B, got {text!r}")
    return range(int(match[1]), int(match[2] or match[1]) + 1)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", type=Path, help="source tree of the parent")
    parser.add_argument("--change", type=Path, help="source tree of the change")
    parser.add_argument("--seeds", type=parse_seeds, required=True, help="inclusive seed range A-B, e.g. 0-299")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    seeds = args.seeds
    if args.worker:
        worker(seeds)
        return 0
    if args.base is None or args.change is None:
        parser.error("--base and --change are required")
    print(f"draw audit: seeds {seeds.start}-{seeds[-1]}; criterion 8 at {C8_ROUNDS} rounds, "
          f"checked and dark settings at {CHECKED_ROUNDS}, bright at {BRIGHT_ROUNDS} rounds; one process per tree")
    report(run_tree(args.base, seeds), run_tree(args.change, seeds), seeds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
