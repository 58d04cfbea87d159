"""Launch a ``CounterService`` in its own pinned process for ``wire-push``.

Usage: ``python3 server.py --cpu N --traced 0|1``.  Prints the listening
port on the first line of standard output, serves until its standard
input closes, then prints one JSON line: every counter's final total,
the frames it read and, when traced, the time and call counts of
``repro.dist.wire.encode``/``decode`` in this process.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys

from measure import CallTimer, pin


async def serve(traced: bool) -> dict:
    from repro.dist import wire
    from repro.dist.service import CounterService

    codec = None
    if traced:
        codec = CallTimer(wire, ("encode", "decode"))
        codec.install()
    service = CounterService()
    await service.start()
    print(service.port, flush=True)
    loop = asyncio.get_running_loop()
    stdin_closed = asyncio.Event()

    def on_stdin() -> None:
        if not os.read(0, 4096):
            loop.remove_reader(0)
            stdin_closed.set()

    loop.add_reader(0, on_stdin)
    await stdin_closed.wait()
    report = {"totals": {name: c.value for name, c in service.counters.items()},
              "frames_in": service.frames_in}
    if codec is not None:
        report["codec_ns"] = sum(codec.ns.values())
        report["codec_calls"] = sum(codec.calls.values())
    await service.stop()
    return report


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--cpu", type=int, default=None)
    parser.add_argument("--traced", type=int, default=0)
    args = parser.parse_args()
    pin(args.cpu)
    report = asyncio.run(serve(bool(args.traced)))
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()
