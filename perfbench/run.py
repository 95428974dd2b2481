#!/usr/bin/env python3
"""Build and run the provcloud benchmark.

    python3 perfbench/run.py --workload <ingest|lineage|tenants> --seed <n>
                             --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds the
benchmark (and the library it links) in .bench_build/perfbench; later calls
only rebuild what changed. The benchmark's own output passes through
unchanged, so the last line of stdout is its one-line JSON result. Exits
non-zero, without a result line, when the build fails; exits with the
benchmark's code otherwise (non-zero when an output check failed).
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BUILD_LOG = os.path.join(BUILD_ROOT, "perfbench-build.log")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 175


def build():
    """Configure once, then build incrementally. False on failure."""
    os.makedirs(BUILD_ROOT, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    with open(BUILD_LOG, "w") as log:
        for step in steps:
            try:
                code = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      cwd=ROOT).returncode
            except OSError as err:
                log.write(f"{step[0]}: {err}\n")
                code = 1
            if code != 0:
                break
    if code == 0 and os.path.exists(BINARY):
        return True
    with open(BUILD_LOG) as log:
        tail = log.read()[-4000:]
    sys.stderr.write(f"perfbench: build failed (log: {BUILD_LOG})\n{tail}\n")
    return False


def main(argv):
    if not build():
        return 1
    try:
        proc = subprocess.run([BINARY] + list(argv), cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"perfbench: run exceeded {RUN_TIMEOUT_S} s\n")
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
