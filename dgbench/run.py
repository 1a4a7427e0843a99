#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 dgbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Configures and builds dgbench/ (which pulls
the library in from the checkout root) into .bench_build/dgbench, then runs
one workload. Extra arguments (--threads, --lanes, --short) go to the
benchmark binary unchanged. The binary's standard output is relayed;
its last line is the JSON result. Build output goes to standard error.

Every DEEPGATE_* environment variable is removed from the benchmark's
environment, so the library runs with every knob at its default.
"""

import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "dgbench"
RUN_TIMEOUT_S = 170


def fail(msg: str) -> int:
    print(f"dgbench/run.py: {msg}", file=sys.stderr)
    return 2


def build() -> bool:
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD), "-j", jobs, "--target", "dgbench"],
    ]
    for cmd in steps:
        if (BUILD / "CMakeCache.txt").exists() and cmd[1] == "-S":
            continue  # configured already; the build step re-checks sources
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            return False
    return True


def main(argv) -> int:
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        return fail(f"no library sources beside {HERE.name}/ (expected CMakeLists.txt and src/)")
    if not build():
        return fail("build failed")
    binary = BUILD / "dgbench"
    env = {k: v for k, v in os.environ.items() if not k.startswith("DEEPGATE_")}
    try:
        proc = subprocess.run([str(binary)] + list(argv), cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
