"""``handoff``: two threads ping-pong strictly through two ``MonotonicCounter``s.

Op ``i``: the generator thread increments ``ping`` and waits on
``pong.check(i)``; the partner thread waits on ``ping.check(i)`` and
then increments ``pong``.  Both sides alternate untimed and timed
checks; the timeout (60 s) never fires, so the engine's timed-park path
(``TimerWheel`` add and cancel) stays on every other wait.  Each round
uses fresh counters and a fresh partner thread; the final values must
equal the round's op count.
"""

from __future__ import annotations

import threading
from time import perf_counter_ns as pc

from measure import median, ns_buffer, pct

from repro.core import MonotonicCounter

ROUND_OPS = 10_000
TIMEOUT_S = 60.0


class Handoff:
    name = "handoff"
    round_ops = ROUND_OPS
    obs_probe = True
    peer_pid = None
    peer_rss_mb = 0.0

    def __init__(self, seed: int, traced_run: bool, peer_cpu) -> None:
        self.lat = ns_buffer(ROUND_OPS)
        self.layer: dict[str, list[float]] = {}
        if traced_run:
            # Generator increment start and check return; the partner's
            # check return, which is also its increment start.
            self.g_inc, self.g_ret = ns_buffer(ROUND_OPS), ns_buffer(ROUND_OPS)
            self.p_ret = ns_buffer(ROUND_OPS)
            self.inc_dur = ns_buffer(ROUND_OPS)
            self.chk_dur = ns_buffer(ROUND_OPS)

    def prepare(self) -> dict:
        return {}

    def setup(self) -> None:
        # A live pair: counters, a partner thread, one exchange.
        ping, pong, thread, errors = self._start(1, False, self._partner_plain)
        ping.increment(1)
        pong.check(1, TIMEOUT_S)
        self._finish(thread, errors, ping, pong, 1)

    @staticmethod
    def _start(n, stats, partner):
        """Fresh counters and a partner thread that will run ``n`` ops."""
        ping = MonotonicCounter(name="ping", stats=stats)
        pong = MonotonicCounter(name="pong", stats=stats)
        ready = threading.Event()
        errors: list[BaseException] = []

        def body() -> None:
            ready.set()
            try:
                partner(ping, pong, n)
            except BaseException as exc:  # reported by the generator
                errors.append(exc)
                raise

        thread = threading.Thread(target=body, name="handoff-partner", daemon=True)
        thread.start()
        ready.wait(TIMEOUT_S)
        return ping, pong, thread, errors

    @staticmethod
    def _finish(thread, errors, ping, pong, n) -> None:
        thread.join(TIMEOUT_S)
        if thread.is_alive() or errors:
            raise AssertionError(f"partner thread failed: {errors or 'hung'}")
        if ping.value != n or pong.value != n:
            raise AssertionError(f"final values ping={ping.value} pong={pong.value}, "
                                 f"expected {n}")

    @staticmethod
    def _partner_plain(ping, pong, n) -> None:
        for i in range(1, n + 1):
            if i & 1:
                ping.check(i)
            else:
                ping.check(i, TIMEOUT_S)
            pong.increment(1)

    def _partner_traced(self, ping, pong, n) -> None:
        p_ret = self.p_ret
        for i in range(1, n + 1):
            if i & 1:
                ping.check(i)
            else:
                ping.check(i, TIMEOUT_S)
            p_ret[i - 1] = pc()
            pong.increment(1)

    def run_round(self, mode: str) -> tuple[int, dict]:
        traced = mode == "traced"
        ping, pong, thread, errors = self._start(
            ROUND_OPS, traced, self._partner_traced if traced else self._partner_plain)
        lat = self.lat
        inc, check = ping.increment, pong.check
        if traced:
            g_inc, g_ret, inc_dur, chk_dur = self.g_inc, self.g_ret, self.inc_dur, self.chk_dur
            start = pc()
            for i in range(1, ROUND_OPS + 1):
                t0 = pc()
                inc(1)
                t1 = pc()
                if i & 1:
                    check(i)
                else:
                    check(i, TIMEOUT_S)
                t2 = pc()
                g_inc[i - 1] = t0
                g_ret[i - 1] = t2
                inc_dur[i - 1] = t1 - t0
                chk_dur[i - 1] = t2 - t1
                lat[i - 1] = t2 - t0
            elapsed = pc() - start
        else:
            start = pc()
            for i in range(1, ROUND_OPS + 1):
                t0 = pc()
                inc(1)
                if i & 1:
                    check(i)
                else:
                    check(i, TIMEOUT_S)
                lat[i - 1] = pc() - t0
            elapsed = pc() - start
        self._finish(thread, errors, ping, pong, ROUND_OPS)
        if traced:
            self._record_layers(ping, pong)
        return elapsed, {"ops": ROUND_OPS, "ping": ping.value, "pong": pong.value}

    def _record_layers(self, ping, pong) -> None:
        n = ROUND_OPS
        wakes = sorted([self.p_ret[i] - self.g_inc[i] for i in range(n)]
                       + [self.g_ret[i] - self.p_ret[i] for i in range(n)])
        untimed = sorted(self.chk_dur[0::2])
        timed = sorted(self.chk_dur[1::2])
        immediate = ping.stats.immediate_checks + pong.stats.immediate_checks
        parked = ping.stats.suspended_checks + pong.stats.suspended_checks
        add = self.layer.setdefault
        add("core.increment_p50_us", []).append(median(self.inc_dur) / 1e3)
        add("core.check_immediate_frac", []).append(immediate / (immediate + parked))
        add("engine.wake_p50_us", []).append(pct(wakes, 0.5) / 1e3)
        add("engine.wake_p99_us", []).append(pct(wakes, 0.99) / 1e3)
        add("engine.untimed_check_p50_us", []).append(pct(untimed, 0.5) / 1e3)
        add("engine.timed_check_p50_us", []).append(pct(timed, 0.5) / 1e3)

    def layer_metrics(self) -> dict[str, float]:
        return {name: median(vals) for name, vals in self.layer.items()}

    def teardown(self) -> list[str]:
        return []
