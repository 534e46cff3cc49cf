"""Host-speed probe: a fixed pure-Python kernel timed ten times a second during a pass.

On a shared host the same work can run up to 2x slower for stretches of a
second to several minutes.  A probe measures how fast the host runs while a
pass runs: an interval timer interrupts the pass every `INTERVAL_S`, and the
signal handler times `kernel()`, a fixed mix of the interpreter work the
library does (small-int bit operations, dict updates, bigint additions).  The
handler runs in the main thread between bytecodes, so the probes land inside
library calls, not only between them.

`Probe.seconds(a, b)` turns a stretch of wall-clock time into reference
seconds: the time in [a, b] not spent in probes, with each piece between two
probes scaled by REFERENCE_S / (the running median of the probe durations
around it).  So a metric reads the same whether the host ran fast or slow,
and it still moves when the library does more or less work.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

INTERVAL_S = 0.1
# A round figure inside the range of per-pass median kernel() times, 1.7-3.8 ms,
# on the 2-vCPU Xeon VM the benchmark was written on; metrics are seconds on a
# host where kernel() takes this.
REFERENCE_S = 0.0025
SMOOTH = 5  # probes in the running median that scales each piece


def kernel() -> int:
    """Fixed work: the same operations, in the same order, on every call."""
    table = [0] * 256
    bag: dict[int, int] = {}
    big = (1 << 320) - 1
    acc = 0
    for i in range(1, 3600):
        w = (i * 0x9E3779B1) & 0xFFFFF
        mask = (w >> 3) & ~w
        low = mask & -mask
        bag[w & 1023] = bag.get(w & 1023, 0) + (low.bit_length() - (w & 7).bit_count())
        table[i & 255] += i
        acc = (acc + big + table[(i * 7) & 255]) & big
    return acc + len(bag)


def kernel_median(times: int) -> float:
    """Median seconds of `times` back-to-back kernel() calls."""
    durations = []
    for _ in range(times):
        t0 = time.perf_counter()
        kernel()
        durations.append(time.perf_counter() - t0)
    return statistics.median(durations)


class Probe:
    """Context manager that probes host speed while it is entered.

    Probes from every `with` block of one Probe accumulate, so the pieces of
    one pass can be converted after it ends.
    """

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._saved = None

    def _fire(self, _signum, _frame) -> None:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)

    def __enter__(self) -> "Probe":
        self._saved = signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._saved)

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def _smoothed(self) -> list[float]:
        d = self.durations()
        h = SMOOTH // 2
        return [statistics.median(d[max(0, i - h):i + h + 1]) for i in range(len(d))]

    def seconds(self, a: float, b: float) -> float:
        """Reference seconds of the work done in wall-clock interval [a, b]."""
        if not self.starts:
            return b - a
        speed = self._smoothed()
        total = 0.0
        t = a
        i = bisect.bisect_left(self.ends, a)
        while t < b:
            # the piece from t to the next probe start (or b), scaled by that probe
            k = min(i, len(self.starts) - 1)
            nxt = self.starts[i] if i < len(self.starts) else b
            piece = min(nxt, b) - t
            if piece > 0:
                total += piece * REFERENCE_S / speed[k]
            if i >= len(self.starts) or self.starts[i] >= b:
                break
            t = self.ends[i]
            i += 1
        return total

    def probe_time(self, a: float, b: float) -> float:
        """Wall-clock time inside [a, b] spent in probes."""
        return sum(max(0.0, min(e, b) - max(s, a)) for s, e in zip(self.starts, self.ends))
