"""Memory probe, run in a fresh process by run.py.

Runs one iteration of a workload, without its once-per-run preparation,
and prints the peak resident memory of this process in MB. Exits
non-zero when an operation of the iteration failed.

    python3 perfbench/memory.py WORKLOAD SEED
"""

import os
import resource
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

scratch = os.path.join(ROOT, ".perfbench_tmp")
os.makedirs(scratch, exist_ok=True)
workdir = tempfile.mkdtemp(dir=scratch)
try:
    run = workloads.Run(Tracer(), threads=len(os.sched_getaffinity(0)))
    workloads.make(sys.argv[1], int(sys.argv[2]), workloads.FULL, workdir).iteration(run)
finally:
    shutil.rmtree(workdir, ignore_errors=True)
if run.failed:
    sys.exit("memory probe: " + "; ".join(run.problems[:5]))
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
