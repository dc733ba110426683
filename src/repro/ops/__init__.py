"""OPS-style active library for multi-block structured-mesh computations.

The abstraction (paper Section II-A): a collection of :class:`Block` s,
each with a number of dimensions but no particular size; :class:`Dat` asets
defined on blocks, each with its own size and halo depth; explicit
:class:`Halo` definitions between dats on different blocks; and
computations expressed as parallel loops over index ranges of one block,
accessing dats through declared :class:`Stencil` s.

Kernels are written once, from a single-threaded perspective, indexing
their accessors by stencil offset::

    def heat_step(u, unew):
        unew[0, 0] = 0.25 * (u[1, 0] + u[-1, 0] + u[0, 1] + u[0, -1])

and run unchanged on every backend: the sequential backend hands the kernel
scalar point accessors, the vectorised backend hands it whole shifted array
views — the same specialisation OPS's code generator performs.  Writes are
restricted to the centre point (offset 0), which is what makes structured
loops race-free without colouring.

Global reductions use explicit reduction handles (``r.inc(v)`` /
``r.min(v)`` / ``r.max(v)``), the analogue of ``ops_arg_reduce``.
"""

from repro.common.access import Access

READ = Access.READ
WRITE = Access.WRITE
RW = Access.RW
INC = Access.INC
MIN = Access.MIN
MAX = Access.MAX

from repro.ops.block import Block
from repro.ops.dat import Dat
from repro.ops.stencil import Stencil, S2D_00, S2D_5PT, S1D_0, S1D_3PT
from repro.ops.reduction import Reduction
from repro.ops.parloop import par_loop
from repro.ops.execplan import CompiledOpsLoop, clear_plan_cache, plan_cache_stats, set_plan_cache_capacity
from repro.ops.halo import Halo, HaloGroup
from repro.ops.decomp import DecomposedBlock
from repro.ops.lazy import (
    chain_cache_stats,
    clear_chain_cache,
    flush as lazy_flush,
    lazy_scope,
    queued_loops,
)
from repro.ops.tileplan import build_tile_schedule

__all__ = [
    "READ",
    "WRITE",
    "RW",
    "INC",
    "MIN",
    "MAX",
    "Block",
    "Dat",
    "Stencil",
    "S2D_00",
    "S2D_5PT",
    "S1D_0",
    "S1D_3PT",
    "Reduction",
    "par_loop",
    "CompiledOpsLoop",
    "clear_plan_cache",
    "plan_cache_stats",
    "set_plan_cache_capacity",
    "Halo",
    "HaloGroup",
    "DecomposedBlock",
    "build_tile_schedule",
    "chain_cache_stats",
    "clear_chain_cache",
    "lazy_flush",
    "lazy_scope",
    "queued_loops",
]
