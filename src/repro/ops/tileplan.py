"""Cross-loop tile scheduling for lazy execution.

Pure planning layer: given an ordered chain of loop descriptors
(:class:`LoopSpec`), partition it into fusable groups, build each group's
dependence graph with :func:`repro.lint.dataflow.build_dependence_graph`,
and compute a *skewed* tile schedule in the style of "Loop Tiling in
Large-Scale Stencil Codes at Run-time with OPS" (arXiv:1704.00693).

The legality argument, in one paragraph: all writes hit the centre point
(enforced at kernel-declaration time), so every cross-loop dependence
reaches at most ``e_d`` points in dimension ``d``, where ``e_d`` is the
maximum absolute read-stencil offset over the group's dependence edges.
A group of ``m`` loops shares one grid of tile cuts per dimension; loop
``l`` (0-based program order) uses the cuts shifted *up* by
``s_l = (m-1-l) * e_d`` and clamped into its own iteration range.  For a
dependence from loop ``i`` to loop ``j > i`` through offset ``|c| <= e_d``
the shifts satisfy ``s_i >= s_j + e_d``, which forces the source point's
tile index to be <= the destination point's tile index in every dimension;
executing tiles in lexicographic grid order (loops in program order inside
each tile) therefore runs every source before — or in the same tile but
earlier than — its destination.  Clamping the shifted cuts to each loop's
own ``[lo, hi)`` keeps the per-loop partition exact (every point exactly
once) and cannot reorder a dependence across tiles, because a clamped cut
only matters for points outside the other loop's reachable range.

This module never executes anything and never imports the runtime; it is
shared by :mod:`repro.ops.lazy` and directly exercised by the hypothesis
property suite.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Hashable, Sequence

from repro.common.errors import APIError
from repro.lint.dataflow import (
    AccessRecord,
    DependenceGraph,
    build_dependence_graph,
)

__all__ = [
    "LoopSpec",
    "TileEntry",
    "GroupSchedule",
    "ChainSchedule",
    "build_tile_schedule",
    "DEFAULT_TILE",
    "MAX_GROUP",
]

#: default rows per tile when the caller does not pin a shape (the outer
#: dimensions are cut every DEFAULT_TILE points, the contiguous last one
#: stays whole).  A constant, not a cache probe: row counts from 32 to 128
#: time alike (DESIGN.md, "Scheduling")
DEFAULT_TILE = 64

#: maximum loops fused into one cross-loop tile group
MAX_GROUP = 16


@dataclass(frozen=True)
class LoopSpec:
    """One queued loop as the scheduler sees it.

    ``fusable`` is decided by the caller: loops carrying order-sensitive
    side effects (``inc`` reductions, verification shadows, non-Block
    iteration spaces) must come in as ``False`` and become singleton
    groups executed whole.
    """

    ranges: tuple[tuple[int, int], ...]
    accesses: tuple[AccessRecord, ...]
    fusable: bool = True
    block_id: Hashable = None


@dataclass(frozen=True)
class TileEntry:
    """One loop's slice of one tile: execute ``ranges`` of group loop ``loop``."""

    loop: int
    ranges: tuple[tuple[int, int], ...]


@dataclass
class GroupSchedule:
    """Schedule for one contiguous run of chain loops.

    ``fused`` groups carry a tile list (lexicographic grid order, entries
    in program order within each tile); unfused groups execute their
    single loop whole and have no tiles.
    """

    loops: tuple[int, ...]
    fused: bool
    skew: tuple[int, ...] = ()
    tiles: list[list[TileEntry]] = field(default_factory=list)
    graph: DependenceGraph | None = None

    @property
    def n_tiles(self) -> int:
        return len(self.tiles)


@dataclass
class ChainSchedule:
    n_loops: int
    groups: list[GroupSchedule] = field(default_factory=list)

    @property
    def fused_loops(self) -> int:
        return sum(len(g.loops) for g in self.groups if g.fused)

    @property
    def fused_tiles(self) -> int:
        return sum(g.n_tiles for g in self.groups if g.fused)


def _group_chain(specs: Sequence[LoopSpec], max_group: int) -> list[list[int]]:
    """Split the chain into maximal runs of mutually fusable loops."""
    groups: list[list[int]] = []
    for i, spec in enumerate(specs):
        start_new = True
        if groups and spec.fusable:
            prev = specs[groups[-1][-1]]
            start_new = (
                not prev.fusable
                or len(groups[-1]) >= max_group
                or prev.block_id != spec.block_id
                or len(prev.ranges) != len(spec.ranges)
            )
        if start_new:
            groups.append([i])
        else:
            groups[-1].append(i)
    return groups


def _cut_grid(
    specs: Sequence[LoopSpec], tile_shape: Sequence[int], skew: Sequence[int]
) -> list[list[int]]:
    """Shared per-dimension cut positions covering the group's bounding box."""
    ndim = len(specs[0].ranges)
    m = len(specs)
    cuts: list[list[int]] = []
    for d in range(ndim):
        lo = min(s.ranges[d][0] for s in specs)
        hi = max(s.ranges[d][1] for s in specs)
        step = int(tile_shape[d])
        # the last cut must stay >= every loop's upper bound even after the
        # largest downward-effective shift; padding by the full skew span is
        # enough because shifts are in [0, (m-1)*e_d]
        top = hi + (m - 1) * skew[d]
        # no cut leaves a one-point remainder: an edge spanning the cells
        # of a staggered mesh does not split off the extra node row (a
        # sliver buys no locality and costs a call per loop), and an edge
        # >= the extent does not cut.  Cuts at or past ``hi`` would only
        # add empty intervals
        cuts.append([lo, *range(lo + step, hi - 1, step), top])
    return cuts


def _loop_tile_ranges(
    spec: LoopSpec, cuts: list[list[int]], shift: Sequence[int],
    coord: Sequence[int],
) -> tuple[tuple[int, int], ...] | None:
    """Loop ``spec``'s slice of tile ``coord``; None when empty."""
    out = []
    for d, k in enumerate(coord):
        lo, hi = spec.ranges[d]
        grid = cuts[d]
        a = lo if k == 0 else min(max(grid[k] + shift[d], lo), hi)
        b = hi if k == len(grid) - 2 else min(max(grid[k + 1] + shift[d], lo), hi)
        if b <= a:
            return None
        out.append((a, b))
    return tuple(out)


def build_tile_schedule(
    specs: Sequence[LoopSpec],
    tile_shape: Sequence[int] | None = None,
    max_group: int = MAX_GROUP,
) -> ChainSchedule:
    """Plan the whole chain: group, skew, and cut into tiles.

    Groups of one loop (or groups whose iteration spaces are degenerate)
    come back unfused; the executor runs those whole, in order, which is
    exactly eager semantics.  A ``tile_shape`` of the wrong rank is padded
    with :data:`DEFAULT_TILE` or truncated; an edge below 1 is an error,
    an edge at least the group's extent leaves that dimension uncut.
    Without a ``tile_shape``, tiles are bands of whole contiguous rows:
    every dimension but the last is cut every :data:`DEFAULT_TILE` points
    (halved on small extents), the last is never cut; a 1-D group cuts
    its only dimension the same way, or it would not fuse at all.
    """
    if tile_shape and any(int(t) < 1 for t in tile_shape):
        raise APIError("tile edges must be positive")
    schedule = ChainSchedule(n_loops=len(specs))
    for members in _group_chain(list(specs), max_group):
        group_specs = [specs[i] for i in members]
        if len(members) < 2:
            schedule.groups.append(
                GroupSchedule(loops=tuple(members), fused=False)
            )
            continue
        ndim = len(group_specs[0].ranges)
        graph = build_dependence_graph([s.accesses for s in group_specs])
        skew = graph.max_extent(ndim)
        if tile_shape:
            shape = tuple(tile_shape)
            if len(shape) != ndim:
                shape = (shape + (DEFAULT_TILE,) * ndim)[:ndim]
        else:
            # adaptive default: DEFAULT_TILE rows on production-sized
            # extents, a half split on small ones, so fusion still engages
            # on the modest meshes the test suite runs; the contiguous last
            # dimension of a 2-D/3-D group gets an edge spanning its extent,
            # since kernels sweep short row fragments at half throughput
            extents = [
                max(s.ranges[d][1] for s in group_specs)
                - min(s.ranges[d][0] for s in group_specs)
                for d in range(ndim)
            ]
            shape = [
                DEFAULT_TILE if e >= 2 * DEFAULT_TILE else max(4, -(-e // 2))
                for e in extents
            ]
            if ndim > 1:
                shape[-1] = max(extents[-1], 1)  # an empty range has extent 0
        cuts = _cut_grid(group_specs, shape, skew)
        m = len(group_specs)
        shifts = [
            tuple((m - 1 - l) * skew[d] for d in range(ndim))
            for l in range(m)
        ]
        tiles: list[list[TileEntry]] = []
        grid_counts = [len(g) - 1 for g in cuts]
        for coord in itertools.product(*(range(n) for n in grid_counts)):
            entries = []
            for l, spec in enumerate(group_specs):
                ranges = _loop_tile_ranges(spec, cuts, shifts[l], coord)
                if ranges is not None:
                    entries.append(TileEntry(loop=l, ranges=ranges))
            if entries:
                tiles.append(entries)
        if len(tiles) <= 1:
            # a single tile is just the whole chain run in program order;
            # fusing buys nothing, so fall back to per-loop execution and
            # keep the fused-tile counters honest
            for i in members:
                schedule.groups.append(GroupSchedule(loops=(i,), fused=False))
            continue
        schedule.groups.append(
            GroupSchedule(
                loops=tuple(members),
                fused=True,
                skew=skew,
                tiles=tiles,
                graph=graph,
            )
        )
    return schedule
