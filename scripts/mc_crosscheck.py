#!/usr/bin/env python3
"""Monte-Carlo cross-check of the analytic formulas.

Runs the simulation at each (mu, L) operating point and prints the
deviation of every tallied statistic from its closed form, in binomial
standard errors. Exits nonzero if any row exceeds the sigma budget.
Each configuration also reports how many rows are informative, that
is, expect at least 10 counts; the others carry little evidence either
way. Its rarest gain or QBER row and its rarest parity row are named
with the rounds each would need for 10 expected counts. Expected counts
are taken from the closed forms: a QBER row's is X-basis rounds x event
gain x QBER, since its trials, the events seen, are often none at
400 km; a parity row's is the rounds of its representative encoding
(1/16 of all rounds, every round being X-basis) x its cell probability.
Parity cells of probability 0 need no rounds; they are counted apart.
"""

import argparse
import math
import os
import sys

from dualqss.detectors import SystemParams
from dualqss.montecarlo import (MIN_EXPECTED, SimConfig, compare_to_analytic, max_abs_sigma,
                                simulate)


def need(rounds: int, expected: float) -> str:
    """Expected count of a row and the rounds it would need for MIN_EXPECTED."""
    rounds_needed = math.ceil(rounds * MIN_EXPECTED / expected) if expected > 0 else "unbounded"
    return (f"expected={expected:.3g}, rounds for {MIN_EXPECTED:g} expected counts: "
            f"{rounds_needed}")


def run(rounds: int, seed: int, threads: int, budget: float, verbose: bool) -> int:
    worst_overall = 0.0
    for mu in (0.4, 0.84, 1.5):
        for l_km in (100.0, 400.0):
            cfg = SimConfig(sp=SystemParams(mu=mu, l_km=l_km), rounds=rounds,
                            seed=seed, basis_policy=1.0)
            rows = compare_to_analytic(simulate(cfg, threads=threads))
            worst = max_abs_sigma(rows)
            worst_overall = max(worst_overall, worst)
            flag = "ok" if worst <= budget else "EXCEEDED"
            informative = sum(r["informative"] for r in rows)
            print(f"mu={mu:<5} L={l_km:>5.0f} km  rows={len(rows):3d}  "
                  f"informative={informative:3d}  max|sigma|={worst:5.2f}  {flag}")
            gain = {r["name"]: r["expected"] for r in rows if r["name"].startswith("q_event")}
            expected = dict(gain)
            for r in rows:
                if r["name"].startswith("qber_event"):
                    expected[r["name"]] = gain["q_" + r["name"].split("_")[1]] * r["p_analytic"]
            rare = min(expected, key=expected.get)
            print(f"    rarest {rare}: {need(rounds, expected[rare])}")
            parity = {r["name"]: rounds / 16 * r["p_analytic"] for r in rows
                      if r["name"].startswith("parity_")}
            possible = {name: e for name, e in parity.items() if e > 0}
            if possible:
                rare = min(possible, key=possible.get)
                print(f"    rarest {rare}: {need(rounds, possible[rare])} "
                      f"({len(parity) - len(possible)} parity cells have probability 0)")
            shown = rows if verbose else [r for r in rows if abs(r["sigma"]) > 2.0]
            for r in shown:
                print(f"    {r['name']:34s} count={r['count']:>9d} "
                      f"expected={r['expected']:>12.2f} sigma={r['sigma']:+6.2f}")
    print(f"worst over all configurations: {worst_overall:.2f} "
          f"(budget {budget})")
    return 0 if worst_overall <= budget else 1


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rounds", type=int, default=10_000_000)
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                        help="worker threads (default: one per core); "
                             "tallies are the same for any count")
    parser.add_argument("--budget", type=float, default=5.0)
    parser.add_argument("--verbose", action="store_true",
                        help="print every row, not only |sigma| > 2")
    args = parser.parse_args()
    sys.exit(run(args.rounds, args.seed, args.threads, args.budget, args.verbose))
