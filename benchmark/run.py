#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of a checkout:

    python3 benchmark/run.py --workload flow-cold --seed 1 --seconds 20 --trace 0

The last line of standard output is the result line. The build goes to
dune's _build/ directory, with dune's shared cache off so that nothing
is written outside the checkout; its output is sent to standard error.
"""

import os
import subprocess
import sys


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print(
            "run.py: no dune-project and lib/ here; run from the root of a "
            "cfd_accel checkout",
            file=sys.stderr,
        )
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./benchmark/main.exe"],
        stdout=sys.stderr,
        env=dict(os.environ, DUNE_CACHE="disabled"),
        check=False,
    )
    if build.returncode != 0:
        print("run.py: building the benchmark failed", file=sys.stderr)
        return build.returncode
    exe = os.path.join("_build", "default", "benchmark", "main.exe")
    sys.stdout.flush()
    os.execv(exe, [exe] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
