#!/usr/bin/env python3
"""Builds the benchmark and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <campaign|fuzz|resume> --seed <n> \
        --seconds <s> --trace <0|1>

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) that
depends on the repository by path; this script builds it in release mode
(into $CARGO_TARGET_DIR, or perfbench/target) and then replaces itself with
the built binary, so the binary's exit code and standard output are the
run's. The last line of standard output is the result JSON.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    manifest = os.path.join(HERE, "Cargo.toml")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    # Build output goes to stderr: stdout carries only the run's report.
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "perfbench")
    # Keep `git` from searching above the working directory for a commit.
    env.setdefault("GIT_CEILING_DIRECTORIES", os.path.dirname(os.getcwd()))
    sys.stdout.flush()
    os.execve(binary, [binary] + sys.argv[1:], env)
    return 1  # not reached


if __name__ == "__main__":
    sys.exit(main())
