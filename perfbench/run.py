#!/usr/bin/env python3
"""Build EDEN's benchmark from source and run one workload.

    python3 perfbench/run.py --workload metro_fleet --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest     # tests of the benchmark's arithmetic

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench
under the repository root): perfbench/CMakeLists.txt compiles the program's
libraries from ../src and links the benchmark. Build output goes to stderr;
the benchmark's last stdout line is the run's JSON result. Exits non-zero, printing
no result, when the sources are missing or the build fails.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(targets) -> Path:
    out = build_dir()
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(out),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(out), "-j", jobs, "--target", *targets],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out


def main() -> int:
    args = sys.argv[1:]
    selftest = args == ["--selftest"]
    target = "perfbench_arith_test" if selftest else "perfbench"
    try:
        out = build([target])
    except (subprocess.CalledProcessError, FileNotFoundError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    env = dict(os.environ)
    tmp = out / "tmp"
    tmp.mkdir(exist_ok=True)
    env["PERFBENCH_TMPDIR"] = str(tmp)
    cmd = [str(out / target)] + ([] if selftest else args)
    sys.stdout.flush()
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
