"""Set-up probe, run in a fresh process by run.py and timed from outside.

Imports numpy and dualqss from this checkout, then finishes the first
key_rate and the first small simulate. Prints ``ok`` on success; exits
non-zero when dualqss would come from anywhere but ``src/``.

    python3 perfbench/probe.py SEED
"""

import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)

import numpy  # noqa: E402,F401
import dualqss  # noqa: E402

if not os.path.abspath(dualqss.__file__).startswith(SRC + os.sep):
    sys.exit(f"probe: dualqss imported from {dualqss.__file__}, not {SRC}")

point = dualqss.key_rate(dualqss.SystemParams())
report = dualqss.simulate(dualqss.SimConfig(sp=dualqss.SystemParams(), rounds=10_000,
                                            seed=int(sys.argv[1]), basis_policy=1.0))
if not (point.r > 0.0 and report.n_xx == 10_000):
    sys.exit("probe: unexpected first results")
print("ok")
