#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload train --seed 1 --seconds 10 --trace 0

Run from the repository root. The first call configures and builds the
`perfbench` binary (and the `taxorec` library it links) under
$CARGO_TARGET_DIR, default `.bench_build`; later calls only re-check the
build. The binary's result line is relayed as the last line of stdout and
its exit code is returned. `--self-test` and `--reference SEED` are passed
through to the binary as well.
"""

import argparse
import os
import pathlib
import signal
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def run_group(cmd, timeout, stdout):
    """Runs cmd in its own process group; kills the whole group on timeout."""
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=sys.stderr,
                            start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"[perfbench] timed out after {timeout}s: {' '.join(cmd)}",
              file=sys.stderr)
        return None


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    build_root = pathlib.Path(os.environ.get("CARGO_TARGET_DIR",
                                             ".bench_build"))
    if not build_root.is_absolute():
        build_root = ROOT / build_root
    build_dir = build_root / "perfbench"
    if not (build_dir / "CMakeCache.txt").exists():
        rc = run_group(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       BUILD_TIMEOUT_S, sys.stderr)
        if rc != 0:
            return None
    rc = run_group(["cmake", "--build", str(build_dir), "-j4", "--target",
                    "perfbench"], BUILD_TIMEOUT_S, sys.stderr)
    if rc != 0:
        return None
    return build_dir / "perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        choices=["train", "serve-exact", "serve-ivf"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--reference", type=int, metavar="SEED")
    args = parser.parse_args()
    if args.workload is None and not args.self_test and args.reference is None:
        parser.error("one of --workload, --self-test, --reference is required")

    binary = build()
    if binary is None:
        print("[perfbench] build failed", file=sys.stderr)
        return 1
    if args.self_test:
        cmd = [str(binary), "--self-test"]
    elif args.reference is not None:
        cmd = [str(binary), "--reference", str(args.reference)]
    else:
        cmd = [str(binary), "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               str(args.trace)]
    timeout = None if args.reference is not None else RUN_TIMEOUT_S
    sys.stdout.flush()
    rc = run_group(cmd, timeout, sys.stdout)
    return 1 if rc is None else rc


if __name__ == "__main__":
    sys.exit(main())
