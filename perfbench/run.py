#!/usr/bin/env python3
"""Build and run the repository's compile benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --emit-spec

Builds perfbench/bin/main.exe with dune (the shared dune cache is
disabled, so the build stays inside the checkout) and runs it with the
same arguments. Build output goes to standard error; the last line of
standard output is the benchmark's JSON result. See perfbench/README.md.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "bin", "main.exe")


def main():
    needed = ["dune-project", "lib", os.path.join("test", "golden")]
    missing = [p for p in needed if not os.path.exists(p)]
    if missing:
        print(
            "perfbench: run from the root of a checkout of the repository "
            "(missing: %s)" % ", ".join(missing),
            file=sys.stderr,
        )
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet",
         "./perfbench/bin/main.exe"],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    return subprocess.run([EXE] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
