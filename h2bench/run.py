#!/usr/bin/env python3
"""Build h2bench from source and run one workload.

    python3 h2bench/run.py --workload sweep-fig2b --seed 1 --seconds 10 --trace 0
    python3 h2bench/run.py --self-test        # build and run the unit tests

Run from the root of a checkout. The build goes to .bench_build/h2bench
(CMake + Ninja, Release); the traced run's span log goes to
.bench_build/spans. Every other argument is passed to the h2bench binary,
whose last stdout line is the JSON result. Exits non-zero, without a
result, when the sources are missing or the build fails.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "h2bench")
SPANS = os.path.join(ROOT, ".bench_build", "spans")
DIGESTS = os.path.join(HERE, "digests.txt")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("h2bench: no h2push sources next to the benchmark; "
                 "run from a full checkout")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
                       + generator, check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs], check=True,
                   stdout=sys.stderr)


def main(argv):
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as err:
        sys.exit("h2bench: build failed: %s" % err)
    if argv == ["--self-test"]:
        return subprocess.run([os.path.join(BUILD, "h2bench_test")]).returncode
    os.makedirs(SPANS, exist_ok=True)
    cmd = [os.path.join(BUILD, "h2bench"), "--digests", DIGESTS,
           "--spans-dir", SPANS] + argv
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode in (0, 1) and lines:
        result = json.loads(lines[-1])  # the binary's contract: JSON last
        if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
            sys.exit("h2bench: malformed result line")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
