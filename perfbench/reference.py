"""A fixed reference loop that tells how fast the processor runs right now.

On a shared host the processor's throughput drifts by 15-20 % over tens of
seconds as other tenants come and go, and most jobs slow down alike. The
benchmark runs this loop before the first timed job of a pass and after
each one (and around each timed process start), for at least a tenth of
the job's time, and divides each job's time by the mean loop time around
it over ``REFERENCE_S``. Times then read as seconds at one fixed speed,
the speed at which the loop takes ``REFERENCE_S``, and most of the drift
cancels.

The loop does the kind of work corec does: it allocates small objects
that hold closures, calls them, does float arithmetic, fills a dict and
runs the collector. It imports nothing of corec, so a change to corec
never changes the scale.
"""

import gc
import time

#: The loop's time, in seconds, at the nominal speed all times are scaled
#: to (its median on a 2-vCPU Intel Xeon virtual machine, CPython 3.11.7).
REFERENCE_S = 0.0142


class _Cell:
    __slots__ = ("head", "tail")

    def __init__(self, head, tail):
        self.head = head
        self.tail = tail


def run():
    """Seconds the reference loop takes now."""
    start = time.perf_counter()
    node = None
    for i in range(10_000):
        node = _Cell(lambda i=i: i * 0.5, node)
    total = 0.0
    while node is not None:
        total += node.head()
        node = node.tail
    table = {}
    for i in range(7_000):
        table[i] = (i, str(i))
    gc.collect()
    return time.perf_counter() - start


def sample(at_least_s=0.0):
    """Loop times of at least two runs, lasting ``at_least_s`` in all."""
    times = [run(), run()]
    while sum(times) < at_least_s:
        times.append(run())
    return times


def slowdown(loop_times):
    """How many times slower than nominal the processor ran, by the loop."""
    return sum(loop_times) / len(loop_times) / REFERENCE_S
