#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 benchmark/run.py --workload build-matrix --seed 42 --seconds 20 --trace 0

The arguments go unchanged to benchmark/pibebench.exe (see pibebench.ml
for the workloads and metrics).  Build output goes to standard error, so
the last line of standard output is the benchmark's JSON result.  The
dune shared cache is disabled, so the build reads and writes only the
checkout's own _build directory.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "benchmark", "pibebench.exe")


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.stderr.write(
            "run.py: no dune-project or lib/ here; run from the root of a PIBE checkout\n"
        )
        return 2
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet", "./benchmark/pibebench.exe"],
            stdout=sys.stderr,
            env=dict(os.environ, DUNE_CACHE="disabled"),
        )
    except OSError as e:
        sys.stderr.write("run.py: cannot run dune: %s\n" % e)
        return 2
    if build.returncode != 0:
        return build.returncode
    sys.stdout.flush()
    # Replace this process, so the benchmark is the only process left to wait for.
    os.execv(EXE, [EXE] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
