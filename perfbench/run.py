#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload hw-durable|sim-table2|serve \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Builds the workload program
(perfbench/cqbench.ml) and the cachequeryd daemon with dune, runs the
workload in a fresh process inside a private temporary directory, and
relays the program's output; the last line of standard output is the
result object {"correct", "attempted", "failed", "metrics"}.

Every process the workload starts is stopped and waited for, and the
temporary directory (snapshots, daemon sockets and state) is removed on
every exit path.  Exit status: 0 on success, 1 when the build, a check
or the run failed, 2 on bad usage.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

WORKLOADS = ("hw-durable", "sim-table2", "serve")
ROOT = os.getcwd()
TMP_PARENT = os.path.join(ROOT, ".perfbench-tmp")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Build the workload program and the daemon; False when the build fails."""
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/cqbench.exe",
             "./bin/cachequeryd_cli.exe"],
            cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=sys.stderr,
            timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"build failed: {e}")
        return False
    return r.returncode == 0


def stop_group(proc):
    """SIGKILL whatever is left of the workload's process group (the
    workload program and any daemon it started) and wait until the group is
    empty."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    proc.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)
    log(f"process group {proc.pid} did not stop")


def run(args, tmp):
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "cqbench.exe")
    daemon = os.path.join(ROOT, "_build", "default", "bin",
                          "cachequeryd_cli.exe")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--tmp", tmp, "--daemon", daemon]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"workload exceeded {RUN_TIMEOUT_S} s")
        return 1
    finally:
        stop_group(proc)
    lines = out.decode().splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError):
        ok = False
    if not ok:
        log("workload printed no result object")
        return 1
    print(lines[-1], flush=True)
    if proc.returncode != 0 or not result["correct"]:
        log(f"workload failed its checks (exit {proc.returncode})")
        return 1
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.workload not in WORKLOADS:
        log(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
        return 2
    if args.seconds < 1:
        log("--seconds must be at least 1")
        return 2
    if not build():
        return 1
    # SIGTERM takes the same cleanup path as a normal exit.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    os.makedirs(TMP_PARENT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="bench-", dir=TMP_PARENT)
    try:
        return run(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(TMP_PARENT)
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
