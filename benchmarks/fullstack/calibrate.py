"""Machine-speed calibrator: a low-duty probe of one core.

This box's speed wanders — the same pure-Python loop takes 1× to 2× as
long from one tenth of a second to the next, and its ten-second mean
drifts by ±15 % — so a time measured here says as much about the moment
as about the program.  The generator therefore keeps one of these on
each core the server may use: pinned there, it runs a fixed burst of
bytecode about every 40 ms (≈ 5 % of the core), and records when, and
how much *CPU time* the burst took (CPU time, so being scheduled out by
the server does not count).  The burst is half arithmetic and half a
walk over a list of dicts too big for the cache, because the box slows
down both ways and a scan feels the second more.  The mean burst time
over a window tracks the mean speed of that core over that window
(correlation 0.9 with a co-located workload, measured); ``run.py``
scales every time it reports by ``REFERENCE_S / that mean``, which cuts
run-to-run spread from ≈ 12 % to ≈ 4 % on a quiet day and from ≈ 30 % to
≈ 10 % on a bad one.

Protocol: a line on stdin asks for every sample so far as one JSON line
``[[perf_counter, cpu_seconds], …]``; EOF ends the process.
"""

from __future__ import annotations

import json
import os
import select
import sys
import time

#: What one burst costs on this class of box at its usual speed; times
#: are reported as if every burst had cost exactly this.
REFERENCE_S = 0.001
INTERVAL_S = 0.04
_ARITHMETIC = 10_000
_WALK = 6_000
_RECORDS = [{"x": i, "y": str(i)} for i in range(10 * _WALK)]


def burst(offset: int) -> float:
    began = time.thread_time()
    x = 0
    for i in range(_ARITHMETIC):
        x += i * i % 7
    for record in _RECORDS[offset : offset + _WALK]:
        x += record["x"]
    return time.thread_time() - began


def main() -> int:
    os.sched_setaffinity(0, {int(sys.argv[1])})
    samples: list = []
    while True:
        offset = len(samples) % 9 * _WALK
        samples.append((time.perf_counter(), burst(offset)))
        readable, _, _ = select.select([sys.stdin], [], [], INTERVAL_S)
        if readable:
            if not sys.stdin.readline():
                return 0
            sys.stdout.write(json.dumps(samples) + "\n")
            sys.stdout.flush()


if __name__ == "__main__":
    raise SystemExit(main())
