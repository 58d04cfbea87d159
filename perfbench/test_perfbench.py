"""Tests of the benchmark itself (not of the package it measures).

Run from the repository root::

    PYTHONPATH=src python -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from inputs import digest, hash_seed, quota_stream, wire_batches
from window_check import over_admits
from worker import END_TO_END, PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _quota(seed):
    return quota_stream(seed, 5000, 4096, 1.1, 10e-6)


def test_inputs_are_byte_identical_for_a_seed():
    assert _quota(7).digest() == _quota(7).digest()
    assert _quota(7).digest() != _quota(8).digest()
    assert digest(wire_batches(7, 500, 4)) == digest(wire_batches(7, 500, 4))
    assert digest(wire_batches(7, 500, 4)) != digest(wire_batches(8, 500, 4))


def test_inputs_are_well_formed():
    stream = _quota(3)
    assert all(a < b for a, b in zip(stream.times, stream.times[1:]))
    assert max(stream.keys) < stream.population
    assert set(wire_batches(3, 500, 4)) == {1, 2, 3, 4}
    assert 0 <= hash_seed(3) < 2 ** 32 and hash_seed(3) != hash_seed(4)


def test_window_checker_accepts_a_stream_within_quota():
    # Two admits per window of 1.0, spaced so none overlaps a third.
    times = [0.0, 0.5, 1.0, 1.5, 2.0, 2.2]
    keys = [1, 1, 1, 1, 1, 2]
    assert over_admits(times, keys, [1] * 6, limit=2, window_s=1.0) == []


def test_window_checker_catches_a_planted_over_admit():
    times = [0.0, 0.3, 0.6, 0.9, 1.2]
    keys = [5, 5, 9, 5, 5]
    admitted = [1, 1, 1, 1, 0]
    # Key 5 holds three admits in (-0.1, 0.9]: one over a limit of 2.
    assert over_admits(times, keys, admitted, limit=2, window_s=1.0) == [(3, 5, 3)]
    # Rejected requests never count against the window.
    admitted[3] = 0
    assert over_admits(times, keys, admitted, limit=2, window_s=1.0) == []


def test_window_boundary_matches_the_limiter_horizon():
    # An admit leaves the window once t0 <= now - window_s.
    assert over_admits([0.0, 1.0], [1, 1], [1, 1], limit=1, window_s=1.0) == []
    assert over_admits([0.0, 0.999], [1, 1], [1, 1], limit=1, window_s=1.0) != []


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert end_to_end == dict(END_TO_END, setup_s="s")
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _counts(stdout):
    return [line for line in stdout.splitlines() if line.startswith("counts per round")]


@pytest.mark.skipif(not os.path.isdir(os.path.join(ROOT, "src", "repro")),
                    reason="needs the package source next to the benchmark")
def test_short_runs_repeat_the_same_decisions():
    args = ("--workload", "quota-local", "--seed", "3", "--seconds", "1")
    first, second = _run(ROOT, *args), _run(ROOT, *args)
    for done in (first, second):
        assert done.returncode == 0, done.stdout + done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == set(END_TO_END) | {"setup_s"}
    assert _counts(first.stdout) and _counts(first.stdout) == _counts(second.stdout)
    digests = [[line for line in d.stdout.splitlines() if line.startswith("inputs:")]
               for d in (first, second)]
    assert digests[0] and digests[0] == digests[1]


def test_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = _run(tmp_path, "--workload", "handoff", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
