"""facemotion benchmark.

    python3 perfbench/run.py --workload {offline,stream,train} --seed N --seconds S --trace {0,1}

Runs one workload in a single child process (worker.py) whose environment
pins BLAS and OpenMP to one thread, so every run measures the same serial
program whatever the machine's core count. The child's standard output is
passed through only when it succeeds; its last line is the result object.
Add --smoke for tiny sizes. See perfbench/README.md for the workloads and
metrics.
"""

import os
import subprocess
import sys
from pathlib import Path

PINNED = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)}
TIMEOUT_S = 175


def main():
    worker = Path(__file__).resolve().parent / "worker.py"
    try:
        proc = subprocess.run([sys.executable, str(worker), *sys.argv[1:]], env={**os.environ, **PINNED},
                              stdout=subprocess.PIPE, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        print(f"run.py: worker did not finish within {TIMEOUT_S} s", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"run.py: worker exited with code {proc.returncode}; no result", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout.decode())
    return 0


if __name__ == "__main__":
    sys.exit(main())
