"""Measuring helpers shared by the workloads: quantiles, CPU time, RSS.

Everything here reads the operating system from outside the program:
CPU time comes from ``/proc/<pid>[/task/<tid>]/schedstat`` (nanoseconds
on CPU), peak memory from ``VmHWM`` in ``/proc/<pid>/status``.  Nothing
imports the package under test.
"""

from __future__ import annotations

import os
import threading
from array import array
from time import perf_counter_ns

__all__ = ["pct", "median", "cpu_ns", "thread_cpu_ns", "peak_rss_mb", "pin",
           "ns_buffer", "watcher_tids", "CallTimer"]

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def pct(sorted_vals, q: float) -> float:
    """The ``q`` quantile (0..1) of an already-sorted sequence, linearly
    interpolated between the two nearest ranks."""
    n = len(sorted_vals)
    if n == 0:
        raise ValueError("quantile of an empty sample")
    pos = q * (n - 1)
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)


def median(values) -> float:
    return pct(sorted(values), 0.5)


def _proc_cpu_ns(base: str) -> int:
    try:
        with open(f"{base}/schedstat") as f:
            return int(f.read().split()[0])
    except FileNotFoundError:
        # Kernels without schedstat: utime + stime in clock ticks.
        with open(f"{base}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) * 1_000_000_000 // _CLK_TCK


def cpu_ns(pid: int | str = "self") -> int:
    """CPU time of a whole process (all its threads), in nanoseconds."""
    return _proc_cpu_ns(f"/proc/{pid}")


def thread_cpu_ns(tid: int, pid: int | str = "self") -> int:
    """CPU time of one thread of a process, in nanoseconds."""
    return _proc_cpu_ns(f"/proc/{pid}/task/{tid}")


def watcher_tids(prefix: str = "repro-shm-watch") -> list[int]:
    """Kernel thread ids of this process's threads named ``prefix*``."""
    return [t.native_id for t in threading.enumerate()
            if t.name.startswith(prefix) and t.native_id is not None]


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def pin(cpu: int | None) -> None:
    """Pin the calling process to one CPU (``None``: leave it alone)."""
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})


def ns_buffer(n: int) -> array:
    """A zero-filled signed 64-bit buffer for ``n`` timestamps, allocated
    up front so a round never grows memory while it is timed."""
    return array("q", bytes(8 * n))


class CallTimer:
    """Times the calls a program makes through module attributes.

    ``install()`` replaces ``module.<name>`` for each name with a timing
    wrapper, which callers that look the function up on the module (as
    ``repro.dist.client`` and ``repro.dist.service`` do with
    ``wire.encode``/``wire.decode``) then call; ``remove()`` puts the
    originals back.  ``ns[name]`` and ``calls[name]`` accumulate.
    """

    def __init__(self, module, names) -> None:
        self.module = module
        self.original = {name: getattr(module, name) for name in names}
        self.ns = dict.fromkeys(names, 0)
        self.calls = dict.fromkeys(names, 0)

    def install(self) -> None:
        for name, fn in self.original.items():
            setattr(self.module, name, self._wrap(name, fn))

    def remove(self) -> None:
        for name, fn in self.original.items():
            setattr(self.module, name, fn)

    def _wrap(self, name, fn):
        ns, calls = self.ns, self.calls

        def timed(arg):
            t0 = perf_counter_ns()
            out = fn(arg)
            ns[name] += perf_counter_ns() - t0
            calls[name] += 1
            return out

        return timed
