#!/usr/bin/env python3
"""Build the server and the benchmark from this source tree, then run the
benchmark with the given arguments (see servebench/README.md):

    python3 servebench/run.py --workload point_reads --seed 3 --seconds 10 --trace 0
    python3 servebench/run.py compare old.jsonl new.jsonl

Run it from the root of the source tree.  Build output goes to stderr, so
the benchmark's JSON result stays the last line of standard output.

The benchmark and the server it starts run on one CPU, the last one this
process may use: a client and a server on two virtual CPUs hand every
statement across CPUs, and on a shared host each hand-over waits for the
host to wake the other CPU, which adds a delay that varies with the other
tenants' load.
"""
import os
import subprocess
import sys

BENCH = os.path.join("_build", "default", "servebench", "main.exe")


def main():
    for need in ("dune-project", os.path.join("bin", "dbpl.ml"), "lib"):
        if not os.path.exists(need):
            sys.stderr.write("run.py: %s not found; run from the root of the "
                             "dbpl source tree\n" % need)
            return 2
    build = subprocess.run(
        ["dune", "build", "./bin/dbpl.exe", "./servebench/main.exe"],
        stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        sys.stderr.write("run.py: build failed\n")
        return build.returncode
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.stdout.flush()
    os.execv(BENCH, [BENCH] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
