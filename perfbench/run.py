#!/usr/bin/env python3
"""End-to-end benchmark of the jamm pipeline.

Run from the repository root:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --self-test

The first form builds perfbench/ (with the repository's src/) into
.bench_build/perfbench, runs one workload and prints its JSON result as the
last line of standard output; the traced form also writes every span to
.bench_build/perfbench/spans/. The second form builds and runs the oracle's
own tests. Build output goes to standard error. Workloads and metrics are
described in perfbench/README.md.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the repository's src/ is missing; nothing to build")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    command = ["cmake", "--build", BUILD, "--target", target, "-j", jobs]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        fail("build of " + target + " failed")
    return os.path.join(BUILD, target)


def main(argv):
    if argv == ["--self-test"]:
        return subprocess.run([build("oracle_test")]).returncode
    binary = build("bench_e2e")
    spans = os.path.join(BUILD, "spans")
    os.makedirs(spans, exist_ok=True)
    return subprocess.run([binary] + argv + ["--span-dir", spans]).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
