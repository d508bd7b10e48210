#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload build-cold --seed 1 --seconds 30 --trace 0

It builds `perfbench/perfbench.exe` and the `vecmodel` daemon with dune,
runs the workload, and relays its output.  The last line of stdout is the
result as one JSON object.  The exit code is 0 only when a result was
printed; a checkout without the repository's sources fails the build and
exits non-zero without a result.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ("build-cold", "grid", "serve-closed")
EXE = "_build/default/perfbench/perfbench.exe"
RUN_TIMEOUT_S = 170


def fail(msg, code):
    print("run.py: " + msg, file=sys.stderr)
    return code


def valid_result(line):
    try:
        r = json.loads(line)
    except ValueError:
        return False
    return (
        isinstance(r, dict)
        and set(r) == {"correct", "attempted", "failed", "metrics"}
        and isinstance(r["attempted"], int)
        and r["attempted"] >= 1
    )


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--sequential",
        action="store_true",
        help="pin the in-process pool sequential (used by the benchmark's tests)",
    )
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        return fail("run from the repository root (dune-project and lib/ not found)", 2)

    # The shared dune cache lives outside the checkout; keep every build
    # artefact inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".",
         "./perfbench/perfbench.exe", "./bin/vecmodel.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        return fail("build failed", 3)

    cmd = [
        EXE, args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.sequential:
        cmd.append("--sequential")
    if args.workload == "serve-closed":
        # Client and daemon share one CPU: each request is then a context
        # switch on that CPU rather than a cross-CPU wake-up, whose cost on
        # a virtual machine swings with the host's load.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    # A process group of its own, so a timeout can stop the daemon too.
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, text=True, env=env, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return fail("workload timed out after %d s" % RUN_TIMEOUT_S, 4)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    lines = out.splitlines()
    if proc.returncode != 0 or not lines or not valid_result(lines[-1]):
        sys.stderr.write(out)
        return fail("workload exited %d without a result" % proc.returncode, 5)
    sys.stdout.write(out)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
