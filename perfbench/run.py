#!/usr/bin/env python3
"""Build and run the protected-I/O-path benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds perfbench/main.exe from the
checkout's sources with dune (release profile, build tree in
.bench_build/dune, dune's shared cache off so nothing is written outside
the checkout), then runs it with the same arguments.  The benchmark
prints its JSON result as the last line of stdout; build output goes to
stderr, and the benchmark's exit code is passed through.
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "dune-project")):
        print("perfbench: no dune-project in %s; run from the root of a "
              "checkout" % root, file=sys.stderr)
        return 2
    build_dir = os.path.join(root, ".bench_build", "dune")
    os.makedirs(build_dir, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", root, "--build-dir", build_dir,
         "--profile", "release", "./perfbench/main.exe"],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(build_dir, "default", "perfbench", "main.exe")
    return subprocess.run([exe] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
