"""The fixed reference kernel that every timing is divided by, and the
meter that runs it beside the ops.

The host this benchmark runs on drifts: the same code runs at times
nearly twice as slow as at others, in phases of seconds to minutes.  The
program's hot paths and this kernel are pure-Python work of the same
kinds (dict traffic, method calls, multiplication of multi-thousand-bit
ints, and small objects hashed into sets), so a slower host slows both
and the ratio stays put: to within about 5-7% over windows of a second,
on the host the README describes.  The kernel never imports
``hexcount``: changes to the program cannot move it.

All durations are CPU time of this process (``time.process_time``), so
time the host gives to other processes is not counted; wall time is kept
beside it for the raw figures.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time
import traceback

clock = time.process_time

DICT_INSERTS = 7_500
METHOD_CALLS = 10_000
BIG_MULTIPLIES = 90
HASHED_OBJECTS = 2_000
_X = (1 << 4095) + 0x9E3779B97F4A7C15
_Y = (1 << 4095) + 0xC2B2AE3D27D4EB4F


class _Step:
    __slots__ = ("v",)

    def __init__(self) -> None:
        self.v = 3

    def step(self, x: int) -> int:
        return (x * 7 + self.v) & 1023


_STEP = _Step()


class _Cell:
    __slots__ = ("u", "v")

    def __init__(self, u: int, v: int) -> None:
        self.u = u
        self.v = v

    def __hash__(self) -> int:
        return hash((self.u, self.v))

    def __eq__(self, other) -> bool:
        return self.u == other.u and self.v == other.v


def run_kernel() -> int:
    """About 4 ms of fixed work in four parts of similar length: dict
    inserts, method calls on a small object, 4096-bit multiply-adds, and
    a set of small objects hashed in Python.  The collector is off while
    it runs and everything it builds is freed before it returns, so its
    time does not depend on how much the process holds, and it does not
    shift when the program's own collections happen.  Returns a value so
    that the work is consumed."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _work()
    finally:
        if enabled:
            gc.enable()


def _work() -> int:
    table = {}
    for i in range(DICT_INSERTS):
        table[i * 2654435761 & 0xFFFFFFF] = i
    x = 1
    for _ in range(METHOD_CALLS):
        x = _STEP.step(x)
    acc = 0
    y = _X
    for _ in range(BIG_MULTIPLIES):
        acc += y * _Y
        y += 1
    cells = {_Cell(i, i & 31) for i in range(HASHED_OBJECTS)}
    return len(table) + x + (acc & 1) + len(cells)


def time_kernel() -> tuple[float, float]:
    """Run the kernel once; return (midpoint, CPU seconds)."""
    start = clock()
    run_kernel()
    end = clock()
    return (start + end) / 2, end - start


KERNEL_EVERY_S = 0.025
KERNEL_WINDOW = 5


class Meter:
    """Times the ops of one round and runs the kernel beside them.

    The kernel runs three times before the first op, again whenever 25 ms
    of op time have passed since it last ran, and twice after the last op.
    ``ops`` holds (op index, midpoint, CPU seconds).  An op's time in
    reference units is its CPU seconds over the median of the five kernel
    runs nearest to it.  The host slows down in bursts of
    a tenth of a second or so; a short kernel run often follows them.  ``extra`` holds timed work that
    belongs to no op, such as the enumeration between tilings.
    """

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.ops: list[tuple[int, float, float]] = []
        self.extra: list[tuple[float, float]] = []
        self.wall = 0.0
        self.kernels = [time_kernel() for _ in range(3)]
        self.failed = 0
        self.failures: list[str] = []
        self._since = 0.0
        self._mids: list[float] = []

    @property
    def attempted(self) -> int:
        return len(self.ops) + self.failed

    def op(self, fn, *args):
        """Run one op; return (ok, result).  A raised exception counts the
        op as failed and keeps its traceback."""
        tracer = self.tracer
        if tracer is not None:
            tracer.op = self.attempted
        wall = time.perf_counter()
        start = clock()
        span = tracer.open("op", start) if tracer is not None else -1
        try:
            result = fn(*args)
        except Exception:
            if tracer is not None:
                tracer.close(span)
            self.failed += 1
            if len(self.failures) < 3:
                self.failures.append(traceback.format_exc())
            return False, None
        end = clock()
        self.wall += time.perf_counter() - wall
        if tracer is not None:
            tracer.close(span, end)
        self.ops.append((self.attempted, (start + end) / 2, end - start))
        self._since += end - start
        if self._since >= KERNEL_EVERY_S:
            self.kernels.append(time_kernel())
            self._since = 0.0
        return True, result

    def finish(self) -> None:
        self.kernels += [time_kernel() for _ in range(2)]
        self._mids = [mid for mid, _ in self.kernels]

    def reference(self, when: float) -> float:
        """Kernel seconds near ``when``: the median of the nearest runs.
        Valid once ``finish`` has run."""
        i = bisect.bisect(self._mids, when)
        lo = max(0, min(i - KERNEL_WINDOW // 2, len(self._mids) - KERNEL_WINDOW))
        return statistics.median(s for _, s in self.kernels[lo:lo + KERNEL_WINDOW])
