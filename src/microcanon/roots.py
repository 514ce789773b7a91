"""The one bracketed bisection behind every root solve in the package."""

from collections.abc import Callable

from .errors import NoConvergence

MAX_STEPS = 200  # halvings before the bracket is reported as not converged


def bisect(below: Callable[[float], bool], lo: float, hi: float,
           close: Callable[[float, float], bool]) -> tuple[float, float]:
    """Halve [lo, hi] until close(lo, hi) holds and return the bracket.

    below(x) is true when the root lies above x.  Raises NoConvergence
    naming the bracket after MAX_STEPS halvings.
    """
    steps = 0
    while not close(lo, hi):
        if steps == MAX_STEPS:
            raise NoConvergence(f"bisection cap reached, bracket [{lo}, {hi}]")
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if below(mid) else (lo, mid)
        steps += 1
    return lo, hi
