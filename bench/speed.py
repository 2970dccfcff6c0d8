"""Host speed reference: fixed work timed in helper processes.

    python3 bench/speed.py          # a helper: one sample per input line

The benchmark's host is shared with other machines' work, and its speed
drifts by a fifth and more over minutes (see README.md).  A time measured at
one moment is therefore no measure of the program.  ``SpeedProbe`` times a
fixed piece of reference work between measurements, in two fresh helper
processes at once, one per core of the 2-core host the benchmark was sized
on.  The work is pure Python with the collector off, on a heap that never
changes, so its time follows the host's speed only.  It shares no code with
antidual: a change to antidual moves the measured time but not the
reference.  The helpers wait on their input between samples and take no
CPU time while the program runs.

``at_reference(seconds, probe_s)`` rescales a time measured while the
reference work took ``probe_s`` to the host speed at which it takes
``REFERENCE_S``.
"""

from __future__ import annotations

import gc
import os
import random
import subprocess
import sys
import time

LOOPS = 350_000         # steps of arithmetic on a few small objects
HEAP_CELLS = 100_000    # objects in the heap the second part walks
WALK_STEPS = 150_000
PROBE_PROCS = 2
# The reference work's median time over 80 samples on the 2-core host the
# benchmark was sized on (Intel Xeon, Python 3.11).
REFERENCE_S = 0.40
HELPER_TIMEOUT_S = 30


class ReferenceWork:
    """Fixed work in two parts: arithmetic and dict updates on a few small
    objects, which gauges the core, and a walk in shuffled order over a heap
    of about 25 MB, which gauges the caches and memory.  A slow host slows
    the two parts by different amounts, as it does antidual's layers."""

    def __init__(self):
        order = list(range(HEAP_CELLS))
        random.Random(0).shuffle(order)
        self.successor = {order[i - 1]: order[i] for i in range(HEAP_CELLS)}
        self.cells = [(i, float(i), str(i)) for i in range(HEAP_CELLS)]

    def run(self) -> int:
        table: dict[tuple[int, int], int] = {}
        acc, x = 0, 0.5
        for i in range(LOOPS):
            key = (i & 255, (i * 7) & 255)
            table[key] = table.get(key, 0) + 1
            acc = (acc + key[0] * key[1]) & 0xFFFFFF
            x = x * 0.999 + 0.001 * (i & 15)
        cell = 0
        for _ in range(WALK_STEPS):
            cell = self.successor[cell]
            index, _, text = self.cells[cell]
            acc = (acc + index + len(text)) & 0xFFFFFF
        return acc + len(table) + int(x)


class SpeedProbe:
    """Helper processes, one per core, that time the reference work at the
    same time on request."""

    def __init__(self):
        self.last: float | None = None     # the latest sample
        self._helpers: list[subprocess.Popen] = []
        try:
            for _ in range(PROBE_PROCS):
                self._helpers.append(subprocess.Popen(
                    [sys.executable, os.path.abspath(__file__)],
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True))
        except BaseException:
            self.close()
            raise

    def sample(self) -> float:
        """Seconds the reference work takes now: the mean over the helpers."""
        for helper in self._helpers:
            helper.stdin.write("\n")
            helper.stdin.flush()
        times = []
        for helper in self._helpers:
            line = helper.stdout.readline()
            if not line:
                raise RuntimeError(f"speed helper {helper.pid} exited")
            times.append(float(line))
        self.last = sum(times) / len(times)
        return self.last

    def close(self) -> None:
        """Stop every helper and wait for it to end."""
        for helper in self._helpers:
            helper.stdin.close()
        for helper in self._helpers:
            try:
                helper.wait(HELPER_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                helper.kill()
                helper.wait()
            helper.stdout.close()
        self._helpers = []

    def __enter__(self) -> "SpeedProbe":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def at_reference(seconds: float, probe_s: float) -> float:
    """``seconds`` measured while the reference work took ``probe_s``, at
    the reference speed."""
    return seconds * REFERENCE_S / probe_s


def main() -> int:
    work = ReferenceWork()
    gc.disable()
    for _ in sys.stdin:
        start = time.perf_counter()
        work.run()
        print(time.perf_counter() - start, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
