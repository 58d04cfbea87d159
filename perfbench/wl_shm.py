"""``shm-wake``: two pinned processes ping-pong through two ``ShmCounter``s.

The generator publishes ``ping``, ``pong`` and a ``ctl`` counter and
forks a partner, which attaches to all three and pins itself to the
other CPU.  Op ``i``: the generator increments ``ping`` and waits on
``pong.check(i)``; the partner waits on ``ping.check(i)`` and
increments ``pong``.  Every wait crosses the process boundary, so the
doorbell, the watcher's adaptive poll and the mirror park are the whole
cost.  To stop, the generator raises ``ctl`` and then ``ping``; the
partner sends its report (its check-return timestamps when traced, its
watcher thread's CPU time and its peak RSS) through a pipe and exits.
The final values must match the op count.
"""

from __future__ import annotations

import json
import os
from array import array
from time import perf_counter_ns as pc

from measure import (median, ns_buffer, peak_rss_mb, pct, pin, thread_cpu_ns,
                     watcher_tids)

from repro.dist.shm import ShmCounter

ROUND_OPS = 1000


def _partner(names, peer_cpu, traced_run: bool, wfd: int) -> None:
    pin(peer_cpu)
    ping, pong, ctl = (ShmCounter.attach(n) for n in names)
    returns = array("q")
    i = 0
    while True:
        i += 1
        ping.check(i)
        t = pc()
        if ctl.value:
            break
        if traced_run:
            returns.append(t)
        pong.increment(1)
    report = {"ops": i - 1,
              "watcher_cpu_ns": sum(thread_cpu_ns(tid) for tid in watcher_tids()),
              "rss_mb": peak_rss_mb()}
    with os.fdopen(wfd, "wb") as out:
        out.write(json.dumps(report).encode() + b"\n")
        out.write(returns.tobytes())
    for counter in (ping, pong, ctl):
        counter.close()


class ShmWake:
    name = "shm-wake"
    round_ops = ROUND_OPS
    obs_probe = False
    peer_pid = None
    peer_rss_mb = 0.0

    def __init__(self, seed: int, traced_run: bool, peer_cpu) -> None:
        self.traced_run = traced_run
        self.peer_cpu = peer_cpu
        self.lat = ns_buffer(ROUND_OPS)
        self.layer: dict[str, list[float]] = {}
        self.done = 0            # ops completed, handshake included
        # Traced rounds: first op index, generator increment starts and
        # check returns, per round.
        self.traced_rounds: list[tuple[int, array, array]] = []
        self.partner_report: dict | None = None

    def prepare(self) -> dict:
        return {}

    def setup(self) -> None:
        self.counters = [ShmCounter.publish(slots=4) for _ in range(3)]
        self.ping, self.pong, self.ctl = self.counters
        rfd, wfd = os.pipe()
        pid = os.fork()
        if pid == 0:  # partner
            code = 1
            try:
                os.close(rfd)
                _partner([c.name for c in self.counters], self.peer_cpu,
                         self.traced_run, wfd)
                code = 0
            finally:
                os._exit(code)
        os.close(wfd)
        self.peer_pid, self.rfd = pid, rfd
        self.ping.increment(1)          # handshake: the partner is attached
        self.pong.check(1)
        self.done = 1

    def run_round(self, mode: str) -> tuple[int, dict]:
        traced = mode == "traced"
        inc, check, lat = self.ping.increment, self.pong.check, self.lat
        first = self.done + 1
        if traced:
            pong = self.pong
            g_inc, g_ret = ns_buffer(ROUND_OPS), ns_buffer(ROUND_OPS)
            inc_ns, immediate = ns_buffer(ROUND_OPS), 0
            start = pc()
            for j in range(ROUND_OPS):
                level = first + j
                t0 = pc()
                inc(1)
                t1 = pc()
                if pong.value >= level:
                    immediate += 1
                check(level)
                t2 = pc()
                g_inc[j], g_ret[j], inc_ns[j] = t0, t2, t1 - t0
                lat[j] = t2 - t0
            elapsed = pc() - start
            self.traced_rounds.append((first, g_inc, g_ret))
            add = self.layer.setdefault
            add("shm.increment_p50_us", []).append(median(inc_ns) / 1e3)
            add("shm.check_immediate_frac", []).append(immediate / ROUND_OPS)
        else:
            start = pc()
            for level in range(first, first + ROUND_OPS):
                t0 = pc()
                inc(1)
                check(level)
                lat[level - first] = pc() - t0
            elapsed = pc() - start
        self.done += ROUND_OPS
        return elapsed, {"ops": ROUND_OPS}

    def teardown(self) -> list[str]:
        errors = []
        gen_watcher_ns = sum(thread_cpu_ns(tid) for tid in watcher_tids())
        self.ctl.increment(1)
        self.ping.increment(1)
        with os.fdopen(self.rfd, "rb") as pipe:
            header = pipe.readline()
            returns = array("q")
            returns.frombytes(pipe.read())
        _, status = os.waitpid(self.peer_pid, 0)
        if os.waitstatus_to_exitcode(status) != 0:
            errors.append(f"shm partner exited with status {status}")
        else:
            self.partner_report = report = json.loads(header)
            self.peer_rss_mb = report["rss_mb"]
            if report["ops"] != self.done:
                errors.append(f"partner saw {report['ops']} ops, generator {self.done}")
            self.layer["shm.watcher_cpu_us_per_op"] = [
                (gen_watcher_ns + report["watcher_cpu_ns"]) / self.done / 1e3]
            if self.traced_run:
                self._wakes(returns)
        if self.pong.value != self.done or self.ping.value != self.done + 1:
            errors.append(f"final values ping={self.ping.value} pong={self.pong.value}, "
                          f"expected {self.done + 1} and {self.done}")
        for counter in self.counters:
            counter.close()
            counter.unlink()
        return errors

    def _wakes(self, returns: array) -> None:
        """Wake latency both ways, from timestamps taken in both processes.

        ``returns[k]`` is the partner's return from ``ping.check(k + 1)``
        (``perf_counter_ns`` reads the one system-wide monotonic clock).
        """
        p50, p99 = [], []
        for first, g_inc, g_ret in self.traced_rounds:
            wakes = []
            for j in range(ROUND_OPS):
                p_ret = returns[first + j - 1]
                wakes.append(p_ret - g_inc[j])        # generator -> partner
                wakes.append(g_ret[j] - p_ret)        # partner -> generator
            wakes.sort()
            p50.append(pct(wakes, 0.5) / 1e3)
            p99.append(pct(wakes, 0.99) / 1e3)
        self.layer["shm.wake_p50_us"] = p50
        self.layer["shm.wake_p99_us"] = p99

    def layer_metrics(self) -> dict[str, float]:
        return {name: median(vals) for name, vals in self.layer.items()}
