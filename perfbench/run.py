#!/usr/bin/env python3
"""Build the perfbench executable with dune and run one workload.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload steady --seed 1 --seconds 15 --trace 0

The arguments are passed to perfbench/main.exe unchanged, plus the
host's CPU count and the git revision (when the checkout is a git
repository) for the provenance line. The last line of standard output
is the JSON result. The build writes only under _build/ (the shared
dune cache is disabled), and the spans of a traced run go to
perfbench/out/.
"""

import os
import subprocess
import sys

RUN_TIMEOUT_S = 170


def git_rev():
    if not os.path.isdir(".git"):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the root of a full source checkout "
              "(dune-project and lib/ not found)", file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(["dune", "build", "--root", ".", "./perfbench/main.exe"],
                           stdout=sys.stderr, stderr=sys.stderr, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join("_build", "default", "perfbench", "main.exe")
    args = [exe] + sys.argv[1:] + ["--nproc", str(len(os.sched_getaffinity(0))), "--git-rev", git_rev()]
    try:
        return subprocess.run(args, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
