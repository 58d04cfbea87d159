"""Run one workload in this (fresh, isolated) process and report it.

``run.py`` starts this script once per workload with the run controls
already applied (address randomization off, ``PYTHONHASHSEED`` from the
seed, CPU numbers to pin to).  It prints human-readable lines, then a
JSON line that ``run.py`` turns into the benchmark's result.

A run is a series of *rounds*: each workload has a fixed number of ops
per round, and every round of a seed does the same work.  One untimed
warm-up round per mode runs first (and is checked); timed rounds then
repeat until ``--seconds`` have passed.  End-to-end figures are medians
over the timed rounds of each round's rate and latency percentiles.

With ``--trace 1`` the rounds alternate between modes: ``plain`` (no
probes), ``traced`` (probes around each layer's public calls) and, for
``quota-local`` and ``handoff``, ``obs`` (``repro.obs.enable()`` on,
no probes).  The ratios of their rates give the tracing overhead and
the cost of enabled observability.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import time
from multiprocessing import resource_tracker

from measure import cpu_ns, median, pct, peak_rss_mb, pin

WORKLOADS = {
    "quota-local": ("wl_quota", "QuotaLocal"),
    "handoff": ("wl_handoff", "Handoff"),
    "wire-push": ("wl_wire", "WirePush"),
    "shm-wake": ("wl_shm", "ShmWake"),
}

#: End-to-end metrics (``--trace 0``); ``setup_s`` is added by run.py.
END_TO_END = {
    "ops_per_s": "1/s",
    "lat_p50_us": "us",
    "lat_p99_us": "us",
    "ok_frac": "fraction",
    "rss_peak_mb": "MiB",
}

#: Per-layer metrics (``--trace 1``).  A run reports 0 for the metrics
#: of layers its workload does not enter (see README.md).
PER_LAYER = {
    "ratelimit.admit_frac": "fraction",
    "ratelimit.evictions_per_kop": "count/kop",
    "ratelimit.plain_call_p50_us": "us",
    "ratelimit.evict_call_p50_us": "us",
    "ratelimit.self_us_per_op": "us",
    "ratelimit.roll_all_p50_us": "us",
    "core.backend_us_per_op": "us",
    "core.backend_calls_per_op": "count",
    "core.counter_create_us": "us",
    "core.increment_p50_us": "us",
    "core.check_immediate_frac": "fraction",
    "engine.wake_p50_us": "us",
    "engine.wake_p99_us": "us",
    "engine.timed_check_p50_us": "us",
    "engine.untimed_check_p50_us": "us",
    "client.increment_us": "us",
    "client.flush_rtt_p50_us": "us",
    "client.push_wake_p50_us": "us",
    "client.value_rtt_p50_us": "us",
    "client.frames_out_per_op": "count",
    "wire.encode_us_per_frame": "us",
    "wire.decode_us_per_frame": "us",
    "service.codec_us_per_frame": "us",
    "service.cpu_us_per_op": "us",
    "shm.increment_p50_us": "us",
    "shm.wake_p50_us": "us",
    "shm.wake_p99_us": "us",
    "shm.check_immediate_frac": "fraction",
    "shm.watcher_cpu_us_per_op": "us",
    "proc.cpu_us_per_op": "us",
    "trace.overhead_ratio": "ratio",
    "obs.enabled_ratio": "ratio",
}

_ADDR_NO_RANDOMIZE = 0x0040000


def controls(peer_pid) -> dict:
    """The isolation controls as this process actually sees them."""
    with open("/proc/self/personality") as f:
        personality = int(f.read(), 16)
    out = {
        "aslr": "off" if personality & _ADDR_NO_RANDOMIZE else "on",
        "hashseed": os.environ.get("PYTHONHASHSEED", "random"),
        "generator_cpus": sorted(os.sched_getaffinity(0)),
    }
    if peer_pid is not None:
        out["peer_cpus"] = sorted(os.sched_getaffinity(peer_pid))
    return out


class Rounds:
    """Per-round figures of one mode."""

    def __init__(self) -> None:
        self.rates: list[float] = []
        self.p50: list[float] = []
        self.p99: list[float] = []
        self.ops = 0
        self.cpu_ns = 0


def drive(wl, seconds: float, trace: bool) -> tuple[dict, dict, list[str], int]:
    """Warm up, then run timed rounds.

    Returns the figures per mode, the counts every round repeated, and,
    if a round failed, the error and that round's op count.
    """
    modes = ["plain"]
    if trace:
        modes.append("traced")
        if wl.obs_probe:
            modes.append("obs")
    obs = importlib.import_module("repro.obs") if "obs" in modes else None
    figures = {mode: Rounds() for mode in modes}
    reference = None
    k = 0
    warmup = len(modes)
    deadline = None
    while True:
        mode = modes[k % len(modes)]
        if k == warmup:
            deadline = time.monotonic() + seconds
        if mode == "obs":
            obs.enable()
        c0 = cpu_ns()
        try:
            elapsed, counts = wl.run_round(mode)
        except Exception as exc:  # a failed op or check ends the run
            return figures, reference or {}, [f"{mode} round {k}: {exc!r}"], wl.round_ops
        finally:
            if mode == "obs":
                obs.disable()
        c1 = cpu_ns()
        if reference is None:
            reference = counts
        elif counts != reference:
            return figures, reference, [f"round {k} counts {counts} differ from "
                                        f"the first round's {reference}"], wl.round_ops
        if k >= warmup:
            fig = figures[mode]
            lat = sorted(wl.lat[:wl.round_ops])
            fig.rates.append(wl.round_ops / (elapsed / 1e9))
            fig.p50.append(pct(lat, 0.5) / 1e3)
            fig.p99.append(pct(lat, 0.99) / 1e3)
            fig.ops += wl.round_ops
            fig.cpu_ns += c1 - c0
        k += 1
        if deadline is not None and k % len(modes) == 0 and time.monotonic() >= deadline:
            return figures, reference, [], 0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--gen-cpu", type=int, default=None)
    parser.add_argument("--peer-cpu", type=int, default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    pin(args.gen_cpu)
    module, cls = WORKLOADS[args.workload]
    wl = getattr(importlib.import_module(module), cls)(
        args.seed, bool(args.trace), args.peer_cpu)
    if args.setup_only:
        wl.setup()
        print("ready", flush=True)
        errors = wl.teardown()
        _stop_resource_tracker()
        return 1 if errors else 0

    digests = wl.prepare()
    wl.setup()
    ctl = controls(wl.peer_pid)
    try:
        figures, counts, errors, failed = drive(wl, args.seconds, bool(args.trace))
    finally:
        teardown_errors = wl.teardown()
    _stop_resource_tracker()

    plain = figures["plain"]
    attempted = sum(f.ops for f in figures.values()) + failed
    if teardown_errors:  # a check over the whole run: no op is vouched for
        errors += teardown_errors
        failed = attempted
    print("controls: " + " ".join(f"{k}={v}" for k, v in ctl.items()))
    print("inputs: " + (" ".join(f"{k}={v}" for k, v in digests.items()) or
                        "none beyond the hash seed"))
    print("counts per round (every round repeats them exactly): "
          + " ".join(f"{k}={v}" for k, v in counts.items()))
    for mode, fig in figures.items():
        print(f"{mode}: {len(fig.rates)} rounds x {wl.round_ops} ops = {fig.ops} samples")
    for err in errors:
        print(f"FAILED: {err}")

    if args.trace:
        metrics = {name: 0.0 for name in PER_LAYER}
        if not errors and plain.rates:
            metrics.update(wl.layer_metrics())
            base = median(plain.rates)
            metrics["proc.cpu_us_per_op"] = plain.cpu_ns / plain.ops / 1e3
            metrics["trace.overhead_ratio"] = median(figures["traced"].rates) / base
            if "obs" in figures:
                metrics["obs.enabled_ratio"] = median(figures["obs"].rates) / base
        units = PER_LAYER
    else:
        metrics = {
            "ops_per_s": median(plain.rates) if plain.rates else 0.0,
            "lat_p50_us": median(plain.p50) if plain.p50 else 0.0,
            "lat_p99_us": median(plain.p99) if plain.p99 else 0.0,
            "ok_frac": (attempted - failed) / attempted if attempted else 0.0,
            "rss_peak_mb": peak_rss_mb() + wl.peer_rss_mb,
        }
        units = END_TO_END
    out = {"correct": not errors, "attempted": attempted, "failed": failed,
           "samples": plain.ops, "rounds": len(plain.rates), "counts": counts,
           "metrics": {name: {"value": value, "unit": units[name]}
                       for name, value in metrics.items()}}
    print(json.dumps(out))
    return 1 if errors else 0


def _stop_resource_tracker() -> None:
    """``ShmCounter.publish`` starts multiprocessing's resource tracker;
    stop it and wait for it, so no process of the run outlives it."""
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


if __name__ == "__main__":
    sys.exit(main())
