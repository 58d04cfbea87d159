"""The repository's benchmark: four workloads over the counter stack.

Usage (from the root of a checkout)::

    python3 perfbench/run.py [--workload NAME|all] [--seed N]
                             [--seconds S] [--trace 0|1]

Workloads: ``quota-local``, ``handoff``, ``wire-push``, ``shm-wake``
(``all``, the default, runs the four in turn).  Each workload runs in a
fresh process started under the run controls:

* address-space randomization off (``setarch -R``);
* ``PYTHONHASHSEED`` derived from ``--seed``;
* the load generator pinned to one CPU, the server or shm partner
  process to another.

A control that is unavailable is reported as such in the output.  With
``--trace 0`` the last line is a JSON object with every end-to-end
metric, ``setup_s`` included (the median of several fresh-process
set-ups); with ``--trace 1`` it carries every per-layer metric.  The
exit code is non-zero when a correctness check fails.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import subprocess
import sys
import time
from contextlib import contextmanager

from inputs import hash_seed
from measure import median
from worker import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 5
# Six probes and one run must end well inside three minutes.
PROBE_TIMEOUT_S = 8.0
RUN_TIMEOUT_S = 120.0


def run_controls() -> tuple[list[str], int | None, int | None, list[str]]:
    """(command prefix, generator CPU, peer CPU, notes on missing controls)."""
    notes = []
    prefix: list[str] = []
    setarch = shutil.which("setarch")
    if setarch is None:
        notes.append("address randomization left on: setarch not found")
    elif subprocess.run([setarch, "-R", "true"], capture_output=True).returncode != 0:
        notes.append("address randomization left on: setarch -R failed")
    else:
        prefix = [setarch, "-R"]
    cpus = sorted(os.sched_getaffinity(0))
    gen_cpu = cpus[0]
    peer_cpu = cpus[1] if len(cpus) > 1 else None
    if peer_cpu is None:
        notes.append(f"server/partner not pinned apart: only CPU {gen_cpu} available")
    return prefix, gen_cpu, peer_cpu, notes


@contextmanager
def _process_group(cmd: list[str], env: dict):
    """Start ``cmd`` as the leader of a new process group; on exit, kill
    whatever of the group is left and reap the leader."""
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        yield proc
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()


def setup_seconds(cmd: list[str], env: dict) -> list[float]:
    """Wall time from starting a fresh worker to its workload being ready.

    The first probe fills the bytecode cache and is not counted.
    """
    times = []
    for _ in range(SETUP_PROBES + 1):
        t0 = time.perf_counter()
        with _process_group(cmd + ["--setup-only"], env) as proc:
            if not select.select([proc.stdout], [], [], PROBE_TIMEOUT_S)[0]:
                raise RuntimeError(f"set-up probe not ready in {PROBE_TIMEOUT_S}s")
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.communicate(timeout=PROBE_TIMEOUT_S)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return times[1:]


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    prefix, gen_cpu, peer_cpu, notes = run_controls()
    tmp = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(tmp, exist_ok=True)
    # Bytecode is cached under the scratch directory, so every probe after
    # the first imports warm, as an installed package would.
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=str(hash_seed(seed)),
               TMPDIR=tmp, PYTHONPYCACHEPREFIX=os.path.join(tmp, "pycache"))
    for var in ("REPRO_DIST_LOG", "PYTHONDONTWRITEBYTECODE"):
        env.pop(var, None)
    cmd = prefix + [sys.executable, WORKER, "--workload", name, "--seed", str(seed),
                    "--trace", str(trace), "--gen-cpu", str(gen_cpu)]
    if peer_cpu is not None:
        cmd += ["--peer-cpu", str(peer_cpu)]
    print(f"== {name} seed={seed} seconds={seconds} trace={trace}")
    for note in notes:
        print(f"control unavailable: {note}")
    setup = None
    if not trace:
        setup = setup_seconds(cmd + ["--seconds", "0"], env)
    with _process_group(cmd + ["--seconds", str(seconds)], env) as proc:
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise RuntimeError(f"{name}: no result within {RUN_TIMEOUT_S:.0f}s")
    lines = out.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise RuntimeError(f"{name}: worker exited {proc.returncode} without a result")
    if setup is not None:
        result["metrics"]["setup_s"] = {"value": median(setup), "unit": "s"}
        print(f"setup_s: median of {len(setup)} fresh-process set-ups: "
              + " ".join(f"{s:.4f}" for s in setup))
    for metric, entry in result["metrics"].items():
        print(f"  {metric:30s} {entry['value']:14.4f} {entry['unit']}")
    print(f"  samples: {result['samples']} ops in {result['rounds']} timed rounds; "
          f"attempted={result['attempted']} failed={result['failed']} "
          f"correct={result['correct']}")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no package to measure at {SRC}/repro", file=sys.stderr)
        return 2
    names = tuple(WORKLOADS) if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{name}.{metric}": entry for name, r in results.items()
                   for metric, entry in r["metrics"].items()}
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
