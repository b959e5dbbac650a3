#!/usr/bin/env python3
"""Build the serve-path benchmark from source and run one workload.

    python3 servebench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. The script builds servebench/main.exe
with dune (the first build compiles the whole program) and then replaces
itself with the executable, which prints the result as the last line of
standard output. Build output goes to standard error. A failed build
exits non-zero without printing a result.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "servebench", "main.exe")


def main():
    # the shared dune cache lives outside the checkout: keep it off so
    # the build reads and writes only here
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--display", "quiet",
         "servebench/main.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    if build.returncode != 0 or not os.path.exists(EXE):
        print("servebench: build failed", file=sys.stderr)
        sys.exit(build.returncode or 1)
    sys.stdout.flush()
    os.execv(EXE, [EXE] + sys.argv[1:])


if __name__ == "__main__":
    main()
