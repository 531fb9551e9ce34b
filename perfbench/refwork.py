"""The frozen host-speed reference routine.

The benchmark's host times are divided by the duration of this routine,
run between the timed units of work, so that a host whose speed drifts
between runs (shared or frequency-scaled CPUs) still yields comparable
numbers.  The routine does the same kind of work as the simulator: it
allocates small slotted objects, builds and intersects box tuples, and
keeps dict and heap bookkeeping.  It imports only the standard library.

Do not change it.  Every normalised time the benchmark has ever reported
is a multiple of this routine's duration; a different routine makes old
and new numbers incomparable.
"""

from __future__ import annotations

import heapq

#: Duration of one :func:`reference_work` call on the calibration host
#: (2 vCPU x86-64 container, CPython 3.11), in seconds.  Normalised times
#: are reported as if every run had executed at that host's speed.
NOMINAL_SECONDS = 1.3e-3

_N_BOXES = 40


class _Op:
    __slots__ = ("key", "lo", "hi", "deps")

    def __init__(self, key: int, lo: tuple, hi: tuple, deps: tuple) -> None:
        self.key = key
        self.lo = lo
        self.hi = hi
        self.deps = deps


def _intersect(a: _Op, b: _Op) -> tuple | None:
    lo = tuple(max(x, y) for x, y in zip(a.lo, b.lo))
    hi = tuple(min(x, y) for x, y in zip(a.hi, b.hi))
    if all(h > l for l, h in zip(lo, hi)):
        return lo, hi
    return None


def reference_work() -> int:
    """One fixed unit of object-heavy host work; returns a checksum."""
    ops = []
    for i in range(_N_BOXES):
        x = (i * 7) % 61
        lo = (x, i % 5, 0)
        hi = (x + 9, i % 5 + 4, 8)
        ops.append(_Op(i, lo, hi, (i - 1, i - 2) if i > 1 else ()))
    owners: dict[tuple, int] = {}
    heap: list[tuple[float, int]] = []
    tail = 0.0
    check = 0
    for a in ops:
        for b in ops[a.key + 1:a.key + 9]:
            box = _intersect(a, b)
            if box is not None:
                owners[box] = owners.get(box, 0) + b.key
                check += len(box[0])
        tail = max(tail, float(len(a.deps))) + 1.0
        heapq.heappush(heap, (tail, a.key))
        if len(heap) > 16:
            check += heapq.heappop(heap)[1]
    return check + len(owners)
