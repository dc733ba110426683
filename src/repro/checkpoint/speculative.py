"""Speculative checkpoint placement: periodic-sequence detection.

"OP2 can apply the 'speculative' algorithm and recognise that there is
likely a periodic execution because the sequence of kernels 1-9 repeats,
thus it can wait with entering checkpointing mode until either save_soln or
update are reached" (paper Section VI).
"""

from __future__ import annotations

from typing import Sequence

from repro.checkpoint.analysis import units_saved_if_entering
from repro.common.profiling import LoopEvent


def detect_period(names: list[str], *, min_repeats: int = 2) -> int | None:
    """Length of the shortest repeating prefix period of ``names``.

    Returns None when no period shorter than the sequence repeats at least
    ``min_repeats`` times.  Trailing partial periods are allowed (the chain
    may have been cut mid-iteration).
    """
    n = len(names)
    for p in range(1, n // min_repeats + 1):
        if all(names[i] == names[i % p] for i in range(n)):
            if n >= p * min_repeats:
                return p
    return None


def best_entry_points(chain: Sequence[LoopEvent], *, periodic: bool = True) -> list[int]:
    """Entry indices (within one period) minimising the checkpoint size."""
    names = [c.name for c in chain]
    period = detect_period(names) or len(chain)
    units = [
        units_saved_if_entering(chain, i, periodic=periodic) for i in range(period)
    ]
    lo = min(units)
    return [i for i, u in enumerate(units) if u == lo]


def should_defer(
    chain: Sequence[LoopEvent], current: int, *, periodic: bool = True
) -> bool:
    """True if a cheaper entry point is coming up within one period.

    The speculative trigger defers checkpoint entry while the upcoming
    period contains a strictly cheaper location.
    """
    best = best_entry_points(chain, periodic=periodic)
    names = [c.name for c in chain]
    period = detect_period(names) or len(chain)
    return (current % period) not in best
