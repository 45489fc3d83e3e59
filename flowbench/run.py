"""Entry point of the flow benchmark.

Builds the benchmark executable from this checkout with dune, then runs
one measurement of one workload and passes its output through; the last
line is the JSON result.  Run from the root of the repository:

    python3 flowbench/run.py --workload fig19 --seed 1 --seconds 40 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
the per-layer ones.  --seed seeds the equivalence check's vectors; the
workload designs are fixed (see flowbench/README.md).
"""

import argparse
import os
import signal
import subprocess
import sys

EXE = os.path.join("_build", "default", "flowbench", "main.exe")
# A measurement takes --seconds plus at most one trial; this is the
# ceiling past which it is stopped.
RUN_TIMEOUT_S = 170


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    a = p.parse_args()
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.exit("flowbench: run from the root of the repository "
                 "(no dune-project or lib/ here)")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./flowbench/main.exe"],
        stdout=sys.stderr)
    if build.returncode != 0:
        sys.exit("flowbench: build failed")
    proc = subprocess.Popen(
        [EXE, "run", "--workload", a.workload, "--seed", str(a.seed),
         "--seconds", str(a.seconds), "--trace", str(a.trace)],
        start_new_session=True)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit("flowbench: terminated"))
    try:
        rc = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("flowbench: measurement timed out")
    finally:
        if proc.poll() is None:
            # the measurement and every trial process it started
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    sys.exit(rc)


if __name__ == "__main__":
    main()
