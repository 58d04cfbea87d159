"""Sliding-window replay: prove a recorded decision stream never over-admits.

A request admitted at virtual time ``t0`` counts against its key until
``t0 <= now - window_s`` -- the same horizon test the limiter uses when
it retires marks -- so at the time ``t`` of each admit, the admits of
that key with ``t0 > t - window_s`` (this one included) must number at
most ``limit``.
"""

from __future__ import annotations

from collections import deque

__all__ = ["over_admits"]


def over_admits(times, keys, admitted, limit: int, window_s: float,
                max_report: int = 10) -> list[tuple[int, int, int]]:
    """``(request index, key, admits in window)`` for every violation.

    ``admitted[i]`` is truthy when request ``i`` was admitted.  An empty
    list means the stream respected the quota throughout.
    """
    windows: dict[int, deque] = {}
    bad = []
    for i, ok in enumerate(admitted):
        if not ok:
            continue
        t = times[i]
        key = keys[i]
        window = windows.get(key)
        if window is None:
            window = windows[key] = deque()
        horizon = t - window_s
        while window and window[0] <= horizon:
            window.popleft()
        window.append(t)
        if len(window) > limit:
            bad.append((i, key, len(window)))
            if len(bad) >= max_report:
                break
    return bad
