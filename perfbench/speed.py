"""Machine-speed normalisation for the in-process workloads.

On a shared host the speed of a core moves by a third or more within
seconds, as other tenants load its sibling threads and caches: one fixed
set of 40 verifies took anywhere from 2.4 to 4.2 CPU seconds within two
minutes.  Taking each verify's fastest time does not remove a slow stretch
that lasts the whole run.

So after every timed operation the benchmark runs a short *reference
slice*, a fixed pure-Python job that shares no code with the program (tuple,
set, frozenset and dict work on small objects, as the verifier does), and
times it the same way.  Each operation's times are then divided by the
local slowdown: the median slice time around it over
:data:`NOMINAL_SLICE_SECONDS`.  Over those two minutes the summed verify
time of each group of 40 verifies moved by 15% (coefficient of variation),
and its ratio to the slices run between them by 3%.

Normalised times read as milliseconds on a machine on which one slice takes
:data:`NOMINAL_SLICE_SECONDS`, about the speed of a 2-core Xeon VM when its
neighbours are idle.
"""

from __future__ import annotations

import random
import statistics
from time import thread_time
from typing import List, Sequence

#: CPU seconds one reference slice is taken to need at nominal speed.
NOMINAL_SLICE_SECONDS = 0.004
#: Records on each side of an operation whose slices set its slowdown.
WINDOW = 4
#: Items one slice works through (about 4 ms of CPU at nominal speed).
SLICE_ITEMS = 250


class _Node:
    __slots__ = ("key", "kids")

    def __init__(self, key: tuple, kids: list) -> None:
        self.key = key
        self.kids = kids


def _reference_work(items: int) -> int:
    rng = random.Random(7)
    seen = {}
    total = 0
    for i in range(items):
        key = tuple(rng.randrange(50) for _ in range(6))
        members = frozenset(key)
        node = _Node(key, [members, {x: i for x in key}])
        if members in seen:
            total += len(seen[members].kids[1])
        seen[members] = node
        total += sum(sorted(set(key) | {i % 17})[:3])
        total += len(repr(dict(zip(key, key[1:]))))
    return total


def slice_seconds() -> float:
    """CPU seconds of one reference slice, run now on this thread (the
    thread's own clock, so other threads of the process do not count)."""
    start = thread_time()
    _reference_work(SLICE_ITEMS)
    return thread_time() - start


def slowdown(slices: Sequence[float]) -> float:
    """How much slower than nominal the machine ran these slices."""
    return statistics.median(slices) / NOMINAL_SLICE_SECONDS


def slowdowns(slices: Sequence[float]) -> List[float]:
    """Per position, the :func:`slowdown` of the slices within
    :data:`WINDOW` positions of it."""
    return [
        slowdown(slices[max(0, index - WINDOW): index + WINDOW + 1])
        for index in range(len(slices))
    ]
