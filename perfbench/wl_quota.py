"""``quota-local``: one caller thread, ``RateLimiter.try_acquire`` on virtual time.

Keys follow a seeded Zipf distribution over a population four times
``max_keys``, so LRU hits, key creations and evictions all occur.  The
limiter's clock is the benchmark's virtual clock, advanced to each
request's seeded arrival time, and the benchmark calls ``roll()`` on
every key itself once per virtual window, standing in for the
wall-clock roller thread -- so every round of a seed makes the
same admit, reject and evict decisions however fast it runs.

Each round replays the same stream through a fresh limiter.  The
warm-up round's decisions are replayed through the sliding-window
checker; every later round must repeat them byte for byte.
"""

from __future__ import annotations

from time import perf_counter_ns as pc

from inputs import quota_stream
from measure import median, ns_buffer
from window_check import over_admits

from repro.apps.ratelimit import LocalBackend, RateLimiter

ROUND_OPS = 20_000
POPULATION = 4096
MAX_KEYS = 1024          # the limiter's default LRU bound
ZIPF_S = 1.1
MEAN_GAP_S = 10e-6       # virtual: 100k requests per virtual second
LIMIT = 40
WINDOW_S = 0.05
ROLL_INTERVAL_S = WINDOW_S / 8.0  # the limiter's default: per-key rolls on admit
ROLL_EVERY_S = WINDOW_S           # the benchmark's roll() of every key


class VirtualClock:
    """The limiter's ``clock=``: returns whatever the benchmark set."""

    __slots__ = ("now",)

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TimedBackend(LocalBackend):
    """``LocalBackend`` that times every call into the counter core."""

    def __init__(self) -> None:
        self.ns = 0
        self.calls = 0
        self.create_ns: list[int] = []

    def _timed(self, method, *args):
        t0 = pc()
        out = method(self, *args)
        self.ns += pc() - t0
        self.calls += 1
        return out

    def admitted(self, name):
        t0 = pc()
        counter = self._timed(LocalBackend.admitted, name)
        self.create_ns.append(pc() - t0)
        return counter

    def retired(self, name):
        t0 = pc()
        counter = self._timed(LocalBackend.retired, name)
        self.create_ns.append(pc() - t0)
        return counter

    def admitted_value(self, counter):
        return self._timed(LocalBackend.admitted_value, counter)

    def retired_value(self, counter):
        return self._timed(LocalBackend.retired_value, counter)

    def bump(self, counter, corr):
        self._timed(LocalBackend.bump, counter, corr)


class QuotaLocal:
    name = "quota-local"
    round_ops = ROUND_OPS
    obs_probe = True
    peer_pid = None
    peer_rss_mb = 0.0

    def __init__(self, seed: int, traced_run: bool, peer_cpu) -> None:
        self.seed = seed
        self.lat = ns_buffer(ROUND_OPS)
        self.decisions = bytearray(ROUND_OPS)
        self.reference: bytes | None = None
        self.layer: dict[str, list[float]] = {}

    def prepare(self) -> dict:
        stream = quota_stream(self.seed, ROUND_OPS, POPULATION, ZIPF_S, MEAN_GAP_S)
        self.stream = stream
        self.names = stream.key_names()
        return {"quota_stream": stream.digest()}

    def setup(self) -> None:
        # All program state is per round (a fresh limiter); building one
        # here makes a set-up probe pay the import and first construction.
        RateLimiter(LIMIT, WINDOW_S, max_keys=MAX_KEYS,
                    clock=VirtualClock()).close()

    def run_round(self, mode: str) -> tuple[int, dict]:
        traced = mode == "traced"
        backend = TimedBackend() if traced else LocalBackend()
        clock = VirtualClock()
        limiter = RateLimiter(LIMIT, WINDOW_S, name="q", backend=backend,
                              max_keys=MAX_KEYS, roll_interval=ROLL_INTERVAL_S,
                              clock=clock)
        try:
            if traced:
                elapsed = self._traced_loop(limiter, clock, backend)
            else:
                elapsed = self._plain_loop(limiter, clock)
            evictions = limiter.evictions
        finally:
            limiter.close()
        decisions = bytes(self.decisions)
        if self.reference is None:
            bad = over_admits(self.stream.times, self.stream.keys, decisions,
                              LIMIT, WINDOW_S)
            if bad:
                raise AssertionError(f"quota over-admitted: (index, key, admits "
                                     f"in window) {bad}")
            self.reference = decisions
        elif decisions != self.reference:
            raise AssertionError("decisions differ from the first round's")
        admits = sum(decisions)
        return elapsed, {"admits": admits, "rejects": ROUND_OPS - admits,
                         "evictions": evictions}

    def _plain_loop(self, limiter, clock) -> int:
        times, names, lat, dec = self.stream.times, self.names, self.lat, self.decisions
        try_acquire, roll = limiter.try_acquire, limiter.roll
        next_roll = ROLL_EVERY_S
        start = pc()
        for i in range(ROUND_OPS):
            t = times[i]
            while t >= next_roll:
                roll(now=next_roll)
                next_roll += ROLL_EVERY_S
            clock.now = t
            t0 = pc()
            dec[i] = try_acquire(names[i])
            lat[i] = pc() - t0
        return pc() - start

    def _traced_loop(self, limiter, clock, backend) -> int:
        times, names, lat, dec = self.stream.times, self.names, self.lat, self.decisions
        try_acquire, roll = limiter.try_acquire, limiter.roll
        next_roll = ROLL_EVERY_S
        plain, evict, rolls = [], [], []
        self_ns = 0
        start = pc()
        for i in range(ROUND_OPS):
            t = times[i]
            while t >= next_roll:
                r0 = pc()
                roll(now=next_roll)
                rolls.append(pc() - r0)
                next_roll += ROLL_EVERY_S
            clock.now = t
            ev0, b0 = limiter.evictions, backend.ns
            t0 = pc()
            dec[i] = try_acquire(names[i])
            dt = pc() - t0
            lat[i] = dt
            (evict if limiter.evictions != ev0 else plain).append(dt)
            self_ns += dt - (backend.ns - b0)
        elapsed = pc() - start
        admits = sum(dec)
        add = self.layer.setdefault
        add("ratelimit.admit_frac", []).append(admits / ROUND_OPS)
        add("ratelimit.evictions_per_kop", []).append(
            1000.0 * limiter.evictions / ROUND_OPS)
        add("ratelimit.plain_call_p50_us", []).append(median(plain) / 1e3)
        add("ratelimit.evict_call_p50_us", []).append(
            median(evict) / 1e3 if evict else 0.0)
        add("ratelimit.self_us_per_op", []).append(self_ns / ROUND_OPS / 1e3)
        add("ratelimit.roll_all_p50_us", []).append(median(rolls) / 1e3)
        add("core.backend_us_per_op", []).append(backend.ns / ROUND_OPS / 1e3)
        add("core.backend_calls_per_op", []).append(backend.calls / ROUND_OPS)
        add("core.counter_create_us", []).append(median(backend.create_ns) / 1e3)
        return elapsed

    def layer_metrics(self) -> dict[str, float]:
        return {name: median(vals) for name, vals in self.layer.items()}

    def teardown(self) -> list[str]:
        return []
