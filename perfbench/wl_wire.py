"""``wire-push``: two ``AsyncCounterClient`` connections against a server process.

The ``CounterService`` runs in its own process (``server.py``), pinned
to the other CPU.  The generator runs one asyncio loop.  Op ``i``: the
consumer connection ``check``s the counter at the next level, the
producer connection pools the op's seeded batch of ``increment``s and
awaits ``flush()``, every ``VALUE_EVERY``-th op also awaits a
``value()`` RPC, and the op ends when the server's push releases the
consumer.  Each round uses a fresh counter name; at the end the
server's final total of every round's counter must equal the
increments sent, and every ``check`` must have returned at or above
its level.
"""

from __future__ import annotations

import asyncio
import json
import os
import subprocess
import sys
from time import perf_counter_ns as pc

from inputs import digest, wire_batches
from measure import CallTimer, cpu_ns, median, ns_buffer, peak_rss_mb

from repro.dist import wire
from repro.dist.client import AsyncCounterClient

ROUND_OPS = 1000
MAX_BATCH = 4
VALUE_EVERY = 8
SERVER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "server.py")


class WirePush:
    name = "wire-push"
    round_ops = ROUND_OPS
    obs_probe = False
    peer_pid = None
    peer_rss_mb = 0.0

    def __init__(self, seed: int, traced_run: bool, peer_cpu) -> None:
        self.seed = seed
        self.traced_run = traced_run
        self.peer_cpu = peer_cpu
        self.lat = ns_buffer(ROUND_OPS)
        self.rounds = 0
        self.expected: dict[str, int] = {}
        self.layer: dict[str, list[float]] = {}
        self.server_report: dict | None = None
        self.codec = CallTimer(wire, ("encode", "decode"))

    def prepare(self) -> dict:
        self.batches = wire_batches(self.seed, ROUND_OPS, MAX_BATCH)
        return {"wire_batches": digest(self.batches)}

    # ----------------------------------------------------------- lifecycle

    def setup(self) -> None:
        cmd = [sys.executable, SERVER, "--traced", str(int(self.traced_run))]
        if self.peer_cpu is not None:
            cmd += ["--cpu", str(self.peer_cpu)]
        self.server = subprocess.Popen(cmd, stdin=subprocess.PIPE,
                                       stdout=subprocess.PIPE, text=True)
        self.peer_pid = self.server.pid
        port = int(self.server.stdout.readline())
        self.loop = asyncio.new_event_loop()
        self.producer, self.consumer = self.loop.run_until_complete(
            self._connect(port))

    @staticmethod
    async def _connect(port: int):
        return (await AsyncCounterClient.connect("127.0.0.1", port, source="producer"),
                await AsyncCounterClient.connect("127.0.0.1", port, source="consumer"))

    def teardown(self) -> list[str]:
        errors = []
        try:
            self.loop.run_until_complete(self._close())
        finally:
            self.loop.close()
            self.peer_rss_mb = peak_rss_mb(self.server.pid)
            self.server.stdin.close()
            line = self.server.stdout.read()
            self.server.wait(30)
            self.server.stdout.close()
        if self.server.returncode != 0:
            return [f"server exited with {self.server.returncode}"]
        self.server_report = json.loads(line)
        totals = self.server_report["totals"]
        for name, sent in self.expected.items():
            if totals.get(name) != sent:
                errors.append(f"server total of {name} is {totals.get(name)}, "
                              f"{sent} increments were sent")
        return errors

    async def _close(self) -> None:
        await self.producer.close()
        await self.consumer.close()

    # ---------------------------------------------------------------- rounds

    def run_round(self, mode: str) -> tuple[int, dict]:
        self.rounds += 1
        name = f"push{self.rounds}"
        traced = mode == "traced"
        frames0 = self.producer.frames_out + self.consumer.frames_out
        cpu0 = cpu_ns(self.server.pid) if traced else 0
        if traced:
            self.codec.install()
        try:
            elapsed = self.loop.run_until_complete(self._round(name, traced))
        finally:
            self.codec.remove()
        frames = self.producer.frames_out + self.consumer.frames_out - frames0
        sent = sum(self.batches)
        self.expected[name] = sent
        if traced:
            self.layer.setdefault("service.cpu_us_per_op", []).append(
                (cpu_ns(self.server.pid) - cpu0) / ROUND_OPS / 1e3)
            self.layer.setdefault("client.frames_out_per_op", []).append(
                frames / ROUND_OPS)
        return elapsed, {"increments": sent, "frames_out": frames}

    async def _round(self, name: str, traced: bool) -> int:
        producer, consumer = self.producer, self.consumer
        batches, lat = self.batches, self.lat
        loop = asyncio.get_running_loop()
        inc_us, flush_ns, value_ns, wake_ns = [], [], [], []

        async def waiter(level: int) -> int:
            await consumer.check(name, level)
            return pc()

        level = 0
        start = pc()
        for i in range(ROUND_OPS):
            level += batches[i]
            t0 = pc()
            task = loop.create_task(waiter(level))
            await asyncio.sleep(0)          # the sub frame goes out first
            t1 = pc()
            for _ in range(batches[i]):
                producer.increment(name)
            t2 = pc()
            await producer.flush()
            t3 = pc()
            if (i + 1) % VALUE_EVERY == 0:
                if await producer.value(name) < level:
                    raise AssertionError(f"value() below level {level}")
                if traced:
                    value_ns.append(pc() - t3)
            t_woken = await task
            lat[i] = pc() - t0
            if consumer.known_value(name) < level:
                raise AssertionError(f"check({level}) returned below its level")
            if traced:
                inc_us.append((t2 - t1) / batches[i] / 1e3)
                flush_ns.append(t3 - t2)
                wake_ns.append(t_woken - t2)
        elapsed = pc() - start
        if traced:
            add = self.layer.setdefault
            add("client.increment_us", []).append(median(inc_us))
            add("client.flush_rtt_p50_us", []).append(median(flush_ns) / 1e3)
            add("client.push_wake_p50_us", []).append(median(wake_ns) / 1e3)
            add("client.value_rtt_p50_us", []).append(median(value_ns) / 1e3)
        return elapsed

    def layer_metrics(self) -> dict[str, float]:
        out = {name: median(vals) for name, vals in self.layer.items()}
        for name, ns in self.codec.ns.items():
            out[f"wire.{name}_us_per_frame"] = ns / self.codec.calls[name] / 1e3
        report = self.server_report
        out["service.codec_us_per_frame"] = report["codec_ns"] / report["codec_calls"] / 1e3
        return out
