#!/usr/bin/env python3
"""Monte-Carlo cross-check of the analytic formulas.

Runs the simulation at each (mu, L) operating point and prints the
deviation of every tallied statistic from its closed form, in binomial
standard errors, and the smallest exact two-sided binomial tail
(``min_p_tail``) beside the largest deviation. Exits nonzero if any row
exceeds the sigma budget; the tail is evidence, not a gate.
Each configuration also reports how many rows are informative, that
is, expect at least 10 counts; the others carry little evidence either
way. Its rarest gain or QBER row and its rarest parity row are named
with the rounds each would need for 10 expected counts, the rows'
``rounds_needed``, which the library takes from the closed forms. Rows
of probability 0 need no rounds; they are counted apart.
"""

import argparse
import sys

from dualqss.detectors import SystemParams
from dualqss.montecarlo import (MIN_EXPECTED, SimConfig, compare_to_analytic, max_abs_sigma,
                                min_p_tail, p_tail, simulate)
from dualqss.optics import check_range


def print_rarest(rows: list[dict], prefixes: tuple[str, ...], kind: str) -> None:
    """Name the row among those of ``prefixes`` that needs the most rounds."""
    rows = [r for r in rows if r["name"].startswith(prefixes)]
    possible = [r for r in rows if r["rounds_needed"] is not None]
    if possible:
        rare = max(possible, key=lambda r: r["rounds_needed"])
        zero = len(rows) - len(possible)
        print(f"    rarest {rare['name']}: rounds for {MIN_EXPECTED:g} expected counts: "
              f"{rare['rounds_needed']}" + (f" ({zero} {kind} have probability 0)" if zero else ""))


def run(rounds: int, seed: int, budget: float, verbose: bool) -> int:
    worst_overall, tail_overall = 0.0, 1.0
    for mu in (0.4, 0.84, 1.5):
        for l_km in (100.0, 400.0):
            cfg = SimConfig(sp=SystemParams(mu=mu, l_km=l_km), rounds=rounds,
                            seed=seed, basis_policy=1.0)
            rows = compare_to_analytic(simulate(cfg))
            worst = max_abs_sigma(rows)
            tail = min_p_tail(rows)
            worst_overall, tail_overall = max(worst_overall, worst), min(tail_overall, tail)
            flag = "ok" if worst <= budget else "EXCEEDED"
            informative = sum(r["informative"] for r in rows)
            print(f"mu={mu:<5} L={l_km:>5.0f} km  rows={len(rows):3d}  "
                  f"informative={informative:3d}  max|sigma|={worst:5.2f}  "
                  f"min p_tail={tail:.3g}  {flag}")
            print_rarest(rows, ("q_event", "qber_event"), "gain or QBER rows")
            print_rarest(rows, ("parity_",), "parity cells")
            shown = rows if verbose else [r for r in rows if abs(r["sigma"]) > 2.0]
            for r in shown:
                print(f"    {r['name']:34s} count={r['count']:>9d} "
                      f"expected={r['expected']:>12.2f} sigma={r['sigma']:+6.2f} "
                      f"p_tail={p_tail(r['count'], r['n'], r['p_analytic']):.3g}")
    print(f"worst over all configurations: {worst_overall:.2f} "
          f"(budget {budget}), min p_tail {tail_overall:.3g}")
    return 0 if worst_overall <= budget else 1


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rounds", type=int, default=10_000_000)
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--budget", type=float, default=5.0)
    parser.add_argument("--verbose", action="store_true",
                        help="print every row, not only |sigma| > 2")
    args = parser.parse_args(argv)
    try:  # the library's limits on rounds and seed, and a budget that a row can meet
        SimConfig(sp=SystemParams(), rounds=args.rounds, seed=args.seed)
        check_range("budget", args.budget, 0.0)
    except ValueError as exc:
        parser.error(str(exc))
    return args


if __name__ == "__main__":
    args = parse_args()
    sys.exit(run(args.rounds, args.seed, args.budget, args.verbose))
