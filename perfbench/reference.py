"""Host-speed reference: a fixed pure-Python work unit timed between the ops.

The 2-core sizing host is shared, and its speed drifts by up to 2x in
spells of seconds to minutes: a fixed pure-Python loop takes as much
longer in CPU time as in wall time, so the slowdown is in the
instructions themselves (a shared core, cache, frequency), not in waiting
for a turn.  Raw times from two runs minutes apart then differ by the
host, not the program.

Every timed interval of a run (each stretch of ops, each set-up) is
bracketed by samples of ``unit``, which does the same kind of work as the
program: method calls, object construction, dict and string traffic.  A time
metric is reported scaled to a host on which one ``unit`` takes
``NOMINAL_UNIT_S``: ``time * NOMINAL_UNIT_S / unit_s``, where ``unit_s``
is the mean of the samples around that interval.  Host drift that slows
the unit and the program alike cancels; a change to the program does not,
because the unit never calls it.  The raw times are kept in the result
file next to the scaled ones.
"""

from __future__ import annotations

import time

#: seconds one ``unit`` takes on the sizing host at a typical speed (quiet
#: spells read 1.35-1.5 ms, slow ones up to 3.4 ms); times are reported as
#: if the host ran the unit this fast
NOMINAL_UNIT_S = 1.7e-3

#: units per sample around a set-up: ~8 ms of reference work
UNITS_PER_SAMPLE = 5


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value

    def scaled(self, factor, offset=0):
        return self.value * factor + offset


def unit() -> int:
    """One unit of reference work (its result defeats dead-code shortcuts)."""
    table = {}
    for i in range(2000):
        item = _Item(i % 97, float(i))
        table[f"k{item.key}"] = item.scaled(1.5, offset=i)
        row = (item.key, item.value, str(i))
        table.get("k3")
        hash(row)
    return len(sorted(table.items()))


def sample_s(units: int = UNITS_PER_SAMPLE) -> float:
    """Seconds one ``unit`` takes now (mean over ``units`` of them)."""
    started = time.perf_counter()
    for _ in range(units):
        unit()
    return (time.perf_counter() - started) / units


def scale(before_s: float, after_s: float) -> float:
    """Factor that turns a raw time measured between two samples into a
    time at the nominal host speed."""
    return NOMINAL_UNIT_S / ((before_s + after_s) / 2.0)
