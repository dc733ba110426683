"""Execution plans: OP2's two-level colouring, built at run time per loop.

A plan is constructed for any loop with potential race conflicts (indirect
WRITE/RW/INC args).  It contains:

* a partition of the iteration set into mini-blocks of ``block_size``,
* a block colouring (same-coloured blocks run concurrently on OpenMP
  threads / CUDA thread blocks),
* an element colouring within each block (CUDA stages increments in
  registers and writes them colour by colour).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.op2 import color as colouring
from repro.op2.args import Arg
from repro.op2.set import Set

#: default mini-block size (elements per block)
BLOCK_SIZE = 256


@dataclass
class Plan:
    """Colouring execution plan for one (loop shape, block size) pair."""

    n_elements: int
    block_size: int
    #: block id per element
    block_of: np.ndarray
    n_blocks: int
    #: colour per block
    block_colour: np.ndarray
    n_block_colours: int
    #: colour per element (within-block level)
    elem_colour: np.ndarray
    n_elem_colours: int

    def blocks_of_colour(self, colour: int) -> np.ndarray:
        """Block ids with the given colour."""
        return np.nonzero(self.block_colour == colour)[0]

    def elements_of_block(self, block: int) -> np.ndarray:
        """Element ids in the given mini-block (contiguous ranges)."""
        lo = block * self.block_size
        hi = min(lo + self.block_size, self.n_elements)
        return np.arange(lo, hi)

    def elements_of_colour(self, colour: int) -> np.ndarray:
        """All elements in blocks of the given colour."""
        parts = [self.elements_of_block(b) for b in self.blocks_of_colour(colour)]
        if not parts:
            return np.zeros(0, dtype=np.int64)
        return np.concatenate(parts)


def _race_targets(args: list[Arg], n: int) -> np.ndarray:
    """Stack the indirect-write target columns, disambiguated across dats.

    Conflicts only arise within the same dat, so each racing dat's target
    indices are offset into a private range before stacking.
    """
    cols: list[np.ndarray] = []
    offsets: dict[int, int] = {}
    next_offset = 0
    for arg in args:
        if not arg.creates_race:
            continue
        key = id(arg.dat)
        if key not in offsets:
            offsets[key] = next_offset
            next_offset += arg.dat.set.total_size
        col = arg.map.column(arg.idx)[:n] + offsets[key]
        cols.append(col)
    if not cols:
        return np.zeros((n, 0), dtype=np.int64)
    return np.stack(cols, axis=1)


def build_plan(
    iterset: Set,
    args: list[Arg],
    *,
    block_size: int = BLOCK_SIZE,
    n_elements: int | None = None,
) -> Plan:
    """Build the plan for a loop over ``iterset``."""
    n = iterset.size if n_elements is None else n_elements
    targets = _race_targets(args, n)
    block_of = np.arange(n, dtype=np.int64) // block_size
    n_blocks = int(block_of[-1]) + 1 if n else 0

    block_colour, n_block_colours = colouring.colour_blocks(block_of, targets, n_blocks)
    elem_colour, n_elem_colours = _colour_within_blocks(block_of, targets, n, block_size)

    return Plan(
        n_elements=n,
        block_size=block_size,
        block_of=block_of,
        n_blocks=n_blocks,
        block_colour=block_colour,
        n_block_colours=n_block_colours,
        elem_colour=elem_colour,
        n_elem_colours=n_elem_colours,
    )


def _colour_within_blocks(
    block_of: np.ndarray, targets: np.ndarray, n: int, block_size: int
) -> tuple[np.ndarray, int]:
    """Element colouring performed independently inside every mini-block."""
    if n == 0:
        return np.zeros(0, dtype=np.int32), 0
    if targets.size == 0:
        return np.zeros(n, dtype=np.int32), 1
    elem_colour = np.zeros(n, dtype=np.int32)
    overall = 0
    for lo in range(0, n, block_size):
        hi = min(lo + block_size, n)
        local, ncol = colouring.colour_elements(targets[lo:hi], hi - lo)
        elem_colour[lo:hi] = local
        overall = max(overall, ncol)
    return elem_colour, overall

