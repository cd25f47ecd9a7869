#!/usr/bin/env python3
"""Builds the whole-simulation benchmark and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads: testbed-contended, testbed-sparse, cluster-4k. The benchmark is
a cargo package of its own (perfbench/Cargo.toml) with path dependencies on
the repository's crates; it is built in release mode into $CARGO_TARGET_DIR
(default: .bench_build at the repository root) and then run with the same
arguments. Build output goes to standard error; the last line of standard
output is the result as one JSON object. The exit code is the benchmark's:
0 when every output check passed, non-zero otherwise or when the build
fails.
"""

import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def main() -> int:
    env = dict(os.environ)
    target = Path(env.get("CARGO_TARGET_DIR") or BENCH_DIR.parent / ".bench_build")
    # Cargo resolves a relative target directory against the working directory.
    target = (Path.cwd() / target).resolve()
    env["CARGO_TARGET_DIR"] = str(target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            str(BENCH_DIR / "Cargo.toml"),
        ],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode if build.returncode > 0 else 1
    run = subprocess.run([str(target / "release" / "optimus-perfbench"), *sys.argv[1:]], env=env)
    return run.returncode if run.returncode >= 0 else 1


if __name__ == "__main__":
    sys.exit(main())
