"""Seeded inputs: the same seed gives byte-identical request streams.

The program under test only ever receives what these functions return.
``random.Random`` seeded with a string hashes it with SHA-512, so the
streams do not depend on ``PYTHONHASHSEED`` or on the process.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from array import array
from dataclasses import dataclass

__all__ = ["QuotaStream", "quota_stream", "wire_batches", "hash_seed", "digest"]


@dataclass(frozen=True)
class QuotaStream:
    """One round of rate-limiter requests in virtual time."""

    times: array          # 'd': arrival time of request i, seconds, increasing
    keys: array           # 'I': key id of request i
    population: int

    def key_names(self) -> list[str]:
        return [f"k{k}" for k in self.keys]

    def digest(self) -> str:
        return digest(self.times, self.keys)


def quota_stream(seed: int, n_ops: int, population: int, zipf_s: float,
                 mean_gap_s: float) -> QuotaStream:
    """``n_ops`` Poisson arrivals with Zipf-distributed keys.

    Zipf ranks are mapped to key ids through a seeded permutation, so
    the hot keys are not the lowest-numbered names.
    """
    rng = random.Random(f"perfbench/quota-local/{seed}")
    cum = list(itertools.accumulate(1.0 / (r ** zipf_s)
                                    for r in range(1, population + 1)))
    ids = list(range(population))
    rng.shuffle(ids)
    ranks = rng.choices(range(population), cum_weights=cum, k=n_ops)
    keys = array("I", (ids[r] for r in ranks))
    times = array("d")
    t = 0.0
    for _ in range(n_ops):
        t += rng.expovariate(1.0 / mean_gap_s)
        times.append(t)
    return QuotaStream(times, keys, population)


def wire_batches(seed: int, n_ops: int, max_batch: int) -> array:
    """Per-op increment batch sizes for ``wire-push``, each in 1..max_batch."""
    rng = random.Random(f"perfbench/wire-push/{seed}")
    return array("I", (rng.randint(1, max_batch) for _ in range(n_ops)))


def hash_seed(seed: int) -> int:
    """The ``PYTHONHASHSEED`` a run with ``seed`` uses (0..2**32-1)."""
    h = hashlib.sha256(f"perfbench/hash/{seed}".encode()).digest()
    return int.from_bytes(h[:4], "little")


def digest(*arrays: array) -> str:
    """SHA-256 over the raw bytes of the given input arrays."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.typecode.encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]
