#!/usr/bin/env python3
"""Regenerate the CSV data behind the standard figures.

Writes four files into --outdir:
  leakage_vs_mu.csv           eavesdropper bounds against source intensity
  rate_vs_distance_mu084.csv  total and per-event key rates for mu=0.84,
                              with the repeaterless bound for reference
  rate_vs_distance_mu150.csv  the same for mu=1.5
  rate_vs_mu_400km.csv        the flat optimum region at 400 km
"""

import argparse
import os

from dualqss.cli import main as cli_main


def run(outdir: str) -> None:
    os.makedirs(outdir, exist_ok=True)

    jobs = [
        (
            "leakage_vs_mu.csv",
            ["ie-compare", "--var", "mu", "--lo", "0.05", "--hi", "2.0",
             "--step", "0.05", "--L", "100"],
        ),
        (
            "rate_vs_distance_mu084.csv",
            ["sweep", "--mu", "0.84", "--lo", "0", "--hi", "460", "--step", "2"],
        ),
        (
            "rate_vs_distance_mu150.csv",
            ["sweep", "--mu", "1.5", "--lo", "0", "--hi", "445", "--step", "2"],
        ),
        (
            "rate_vs_mu_400km.csv",
            ["sweep", "--var", "mu", "--lo", "0.3", "--hi", "1.5",
             "--step", "0.01", "--L", "400"],
        ),
    ]
    for name, argv in jobs:
        path = os.path.join(outdir, name)
        code = cli_main(argv + ["-o", path])
        if code != 0:
            raise SystemExit(f"generation failed for {name}")
        print(f"wrote {path}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="data", help="output directory")
    run(parser.parse_args().outdir)
