"""OP2-style active library for unstructured-mesh computations.

The abstraction (paper Section II-A): a mesh is

1. a number of :class:`Set` s (vertices, edges, cells...),
2. :class:`Map` pings between sets (e.g. edge -> its two vertices),
3. :class:`Dat` a defined on sets (coordinates, flow variables...).

Computation is a sequence of parallel loops (:func:`par_loop`) over a set,
applying a user kernel to every element, accessing data either directly on
the iteration set or through at most one level of indirection, with declared
access modes.  The library derives race-avoidance colouring, partitioning,
halo exchanges and reductions from those declarations.

>>> from repro import op2
>>> nodes = op2.Set(4, "nodes")
>>> edges = op2.Set(3, "edges")
>>> e2n = op2.Map(edges, nodes, 2, [[0, 1], [1, 2], [2, 3]], "e2n")
>>> x = op2.Dat(nodes, 1, [1.0, 2.0, 3.0, 4.0], name="x")
>>> s = op2.Dat(edges, 1, [0.0, 0.0, 0.0], name="s")
>>> k = op2.Kernel(lambda a, b, out: out.__setitem__(0, a[0] + b[0]), "sum")
>>> op2.par_loop(k, edges,
...              x(op2.READ, e2n, 0), x(op2.READ, e2n, 1), s(op2.WRITE))
>>> list(s.data[:, 0])
[3.0, 5.0, 7.0]
"""

from repro.common.access import Access

# OP2-flavoured access aliases
READ = Access.READ
WRITE = Access.WRITE
RW = Access.RW
INC = Access.INC
MIN = Access.MIN
MAX = Access.MAX

from repro.op2.set import Set
from repro.op2.map import Map, IDENTITY
from repro.op2.dat import Dat, Global, Const
from repro.op2.args import Arg
from repro.op2.kernel import Kernel
from repro.op2.parloop import loop, par_loop, loop_chain_record
from repro.op2.plan import Plan, build_plan
from repro.op2.execplan import CompiledLoop, clear_plan_cache, plan_cache_stats, set_plan_cache_capacity
from repro.op2.partition import partition_set, PartitionResult
from repro.op2.renumber import renumber_mesh, locality_score
from repro.op2.halo import PartitionedMesh, RankMesh, build_partitioned_mesh
from repro.op2.soa import to_soa, to_aos

__all__ = [
    "READ",
    "WRITE",
    "RW",
    "INC",
    "MIN",
    "MAX",
    "Set",
    "Map",
    "IDENTITY",
    "Dat",
    "Global",
    "Const",
    "Arg",
    "Kernel",
    "par_loop",
    "loop",
    "loop_chain_record",
    "Plan",
    "build_plan",
    "CompiledLoop",
    "clear_plan_cache",
    "plan_cache_stats",
    "set_plan_cache_capacity",
    "partition_set",
    "PartitionResult",
    "renumber_mesh",
    "locality_score",
    "PartitionedMesh",
    "RankMesh",
    "build_partitioned_mesh",
    "to_soa",
    "to_aos",
]
