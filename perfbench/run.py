#!/usr/bin/env python3
"""Build and run the nucalock benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds the
benchmark package (perfbench/CMakeLists.txt, which compiles ../src) into
.bench_build/perfbench; later runs only re-check the build. Build output
goes to stderr, so the last line of stdout is the benchmark's JSON result.
Extra flags (--smoke, --plant broken-tatas, --write-pins) pass through.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the nucalock sources (src/) are not in this checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "perfbench"])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            fail("build failed: " + " ".join(step))


def main(argv):
    def value_of(flag):
        return argv[argv.index(flag) + 1] if flag in argv[:-1] else None

    if value_of("--workload") is None or value_of("--trace") is None:
        fail("usage: run.py --workload NAME --seed N --seconds S --trace 0|1")
    build()
    command = [BINARY] + argv + ["--pins", os.path.join(HERE, "pins")]
    if value_of("--trace") == "1":
        name = "spans-%s-%s.json" % (value_of("--workload"),
                                     value_of("--seed") or "1")
        command += ["--span-file", os.path.join(BUILD, name)]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
