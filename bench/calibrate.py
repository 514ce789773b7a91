"""How fast this machine runs right now, from a fixed reference kernel.

On a shared host the same Python code can run 25% slower for minutes at a
time.  The benchmark times kernel() beside the program and scales every
reported time to a machine on which kernel() takes REFERENCE_S:

    scaled = timed * REFERENCE_S / (kernel time measured at that moment)

A change to the program moves the timed figure but not the kernel, so it
shows in the scaled figure in full; a slow spell of the host moves both
and mostly cancels.  The kernel does work of the program's own kind,
because code of another shape speeds up and slows down with the host by
other amounts: a tight arithmetic loop swings about twice as far as the
program.  The kernel is benchmark code and must stay fixed, or the scale
moves with it.
"""

from __future__ import annotations

import gc
import math
import time

from stats import median


def kernel() -> int:
    """Enumerate the 956 binnings of 30 particles in 5 bins at energy 60,
    with big-int multiplicities and 17-digit formatting."""
    fact = [math.factorial(k) for k in range(31)]
    rows: list[tuple[int, ...]] = []

    def rec(i: int, r: int, x: int, prefix: tuple[int, ...]):
        if i == 4:
            if x == 4 * r:
                rows.append(prefix + (r,))
            return
        for k in range(r + 1):
            if x - i * k < 0:
                break
            if (i + 1) * (r - k) <= x - i * k <= 4 * (r - k):
                rec(i + 1, r - k, x - i * k, prefix + (k,))

    rec(0, 30, 60, ())
    total = 0
    text = []
    for b in rows:
        omega = fact[30]
        for k in b:
            omega //= fact[k]
        total += omega
        text.append(f"{math.log(omega):.17g}")
    return total + len(text)


REFERENCE_S = 6e-3   # about kernel()'s usual time on the machine the
                     # benchmark was defined on, so scaled figures read
                     # close to timed ones


def time_kernel() -> float:
    """Seconds for one kernel() run, warm and with the garbage collector
    off, so that neither cold caches nor the garbage the program left
    behind enter the figure."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        kernel()
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


def scale_now(samples: int = 5) -> float:
    """REFERENCE_S over the median of a few kernel timings taken now."""
    return REFERENCE_S / median([time_kernel() for _ in range(samples)])


def rolling_scale(kernel_times: list[float], half: int = 12) -> list[float]:
    """Scale for each timing: REFERENCE_S over the median of its 2*half+1
    neighbours."""
    n = len(kernel_times)
    return [REFERENCE_S / median(kernel_times[max(0, i - half):min(n, i + half + 1)])
            for i in range(n)]
