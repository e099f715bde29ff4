"""Machine-speed reference for scaling wall times on a shared machine.

On the shared 2-core machine the benchmark was tuned on, the same call ran
up to twice as slow for spells lasting minutes, longer than a run; CPU time
slowed with wall time, so the cause is contention in the processor, not
descheduling.  No statistic inside a run removes a spell that covers the
whole run.  So the benchmark times a fixed reference kernel, which lives
here and never changes with the library, between the library calls.  A
call's wall time is multiplied by REFERENCE_S over the median of the three
reference samples taken before the call and the three taken after it, which
reads as the call's time on that machine in a quiet spell.  Over 150 s
with the reference alternating with two library rows, the raw times of all
three moved by up to 2x while each row's ratio to the reference stayed
within about 7%.
"""

from __future__ import annotations

import bisect
import random
import statistics
from time import perf_counter

# Time of reference_kernel on the tuning machine in a quiet spell.
REFERENCE_S = 0.003
# Seconds of library work between two reference samples.
SAMPLE_EVERY_S = 0.05


def reference_kernel() -> int:
    """Fixed pure-Python work of the kinds the library does: F2 elimination on
    int bitmasks, leftmost-first rewriting of a word, and small tuple and dict churn."""
    rng = random.Random(7)
    basis: list[int] = []
    for _ in range(90):
        v = rng.getrandbits(90)
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
            basis.sort(reverse=True)
    table = {(a, b): (a * b) % 5 for a in range(1, 5) for b in range(1, 5) if (a + b) % 3 == 0}
    word = [rng.randint(1, 4) for _ in range(220)]
    changed = True
    while changed:
        changed = False
        for i in range(len(word) - 1):
            p = table.get((word[i], word[i + 1]))
            if p:
                word[i : i + 2] = [p]
                changed = True
                break
    counts: dict[tuple[int, int], int] = {}
    for i in range(6000):
        key = (i % 97, i % 89)
        counts[key] = counts.get(key, 0) ^ i
    return len(basis) + len(word) + len(counts)


class Speed:
    """Reference samples taken through a stretch of work, and the scales they give."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []

    def sample(self) -> None:
        t0 = perf_counter()
        reference_kernel()
        self.starts.append(t0)
        self.durations.append(perf_counter() - t0)

    def sample_if_due(self) -> None:
        if perf_counter() - self.starts[-1] >= SAMPLE_EVERY_S:
            self.sample()

    def scale_at(self, start: float) -> float:
        """Factor that turns the wall time of a call begun at `start` into reference-scaled time.

        Samples are never taken during a call, so the three samples on each
        side of `start` are the three before the call and the three after it.
        """
        i = bisect.bisect(self.starts, start)
        return REFERENCE_S / statistics.median(self.durations[max(i - 3, 0) : i + 3])

    def bracket(self) -> None:
        """Take the samples a call needs on one side when no more are due."""
        for _ in range(3):
            self.sample()


def warm_up() -> None:
    """Run the kernel untimed, so no sample pays for first-call costs."""
    for _ in range(3):
        reference_kernel()
