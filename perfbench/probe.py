"""Host-speed probe: a fixed piece of work whose time tracks how fast the
shared host runs the program at the moment.

On a shared 2-vCPU host the same code runs up to half slower from one
minute to the next, and its speed moves within seconds, set-up and
operations alike. The probe is Python object churn with scattered memory
reads (tuples, strings and lists built, visited in shuffled order, gathered
into a dict), the same kind of work as the program's graph of small-array
nodes; of the probes tried (a pure-Python loop, small numpy ops, a
miniature autograd, this one) it followed the program's own times most
closely. It is part of the benchmark, not of the program, so it stays the
same from one commit to the next.

It runs in a child process (`ProbeProcess`), so its memory never counts in
the benchmark's peak RSS and the program's heap never slows it. The
benchmark pins itself to one CPU before starting the child, which inherits
that, so the probe sees the CPU the program runs on; the child only works
while the benchmark waits for it. Each line on its stdin asks for a number
of probes:

    echo 5 | python3 perfbench/probe.py

Probes run in rounds between operations and, through a `Pacer`, inside
them: the benchmark wraps a function the program calls often, and the
wrapper runs one probe before the call whenever PROBE_EVERY_S have passed
since the last, so the probes sample the host over the whole operation. The
pauses are timed and taken out of the operation's time.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from pathlib import Path

OBJECTS = 60_000     # ~0.15 s per probe on a 2-vCPU Xeon host
PER_ROUND = 5        # probes per round
PROBE_EVERY_S = 2.0  # wall seconds between probes inside an operation


def probe() -> float:
    """Seconds of one probe."""
    started = time.perf_counter()
    rnd = random.Random(0)
    objs = [(float(i), str(i), [i]) for i in range(OBJECTS)]
    order = list(range(OBJECTS))
    rnd.shuffle(order)
    total = 0.0
    for i in order:
        total += objs[i][0] + len(objs[i][2])
    by_name = {o[1]: o for o in objs}
    if total + len(by_name) <= 0:
        raise AssertionError("probe computed nothing")
    return time.perf_counter() - started


def serve() -> None:
    """Answer each line on stdin, a count, with that many probe times, as
    JSON."""
    for line in sys.stdin:
        print(json.dumps([probe() for _ in range(int(line))]), flush=True)


class ProbeProcess:
    """A child process that times probe rounds on request. It inherits the
    caller's CPU affinity."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def round(self, n: int = PER_ROUND) -> list[float]:
        """Seconds of each of `n` probes."""
        self.proc.stdin.write(f"{n}\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"probe process ended with code {self.proc.wait()}")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Pacer:
    """Runs a probe before a wrapped call at most every PROBE_EVERY_S; keeps
    the probe times and the seconds spent pausing for them."""

    def __init__(self, host: ProbeProcess) -> None:
        self.host = host
        self.samples: list[float] = []
        self.paused = 0.0
        self._due = 0.0

    def wrap(self, fn):
        def paced(*args, **kwargs):
            now = time.perf_counter()
            if now >= self._due:
                self.samples.extend(self.host.round(1))
                done = time.perf_counter()
                self.paused += done - now
                self._due = done + PROBE_EVERY_S
            return fn(*args, **kwargs)
        return paced


if __name__ == "__main__":
    serve()
