#!/usr/bin/env python3
"""Build pclabel-netd and the pclbench harness from source, then run one workload.

usage: python3 pclbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Both binaries are built with cargo into
$CARGO_TARGET_DIR (default: .bench_build in the checkout). The page cache is
flushed (sync) before the harness starts. With two or more
usable CPUs (and taskset), the harness runs pinned to the first and the daemon
to the second. Build output goes to
stderr; the harness prints its human-readable report on stderr and the result
JSON object as the last line of stdout. Run data (netd data dirs, span files)
lives under .bench_run in the checkout.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def fail(message: str) -> "NoReturn":
    print(f"pclbench: {message}", file=sys.stderr)
    sys.exit(2)


def cargo_build(args, env):
    proc = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", *args],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(f"cargo build {' '.join(args)} failed (exit {proc.returncode})")


def main() -> None:
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "net").is_dir():
        fail(f"{ROOT} is not a pclabel checkout (no Cargo.toml / crates/net); nothing to build")
    env = dict(os.environ)
    target = Path(env.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    env["CARGO_TARGET_DIR"] = str(target)
    cargo_build(["-p", "pclabel-net", "--bin", "pclabel-netd"], env)
    cargo_build(["--manifest-path", str(BENCH_DIR / "Cargo.toml")], env)
    netd = target / "release" / "pclabel-netd"
    harness = target / "release" / "pclbench"
    for binary in (netd, harness):
        if not binary.is_file():
            fail(f"build produced no {binary}")
    # Start from a clean page cache state: dirty pages left by whatever
    # ran before would be written back during the timed phases.
    os.sync()
    cmd = [str(harness), "--netd", str(netd), "--run-dir", str(ROOT / ".bench_run"), *sys.argv[1:]]
    # Client and daemon each get a CPU of their own, so latencies do not
    # depend on where the scheduler happens to place the two processes.
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) >= 2 and shutil.which("taskset"):
        cmd = ["taskset", "-c", str(cpus[0]), *cmd,
               "--client-cpu", str(cpus[0]), "--server-cpu", str(cpus[1])]
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
