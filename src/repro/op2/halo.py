"""Distributed-memory execution: partitioned meshes and halo exchanges.

OP2 "automatically perform[s] partitioning across processes and use[s]
standard halo exchanges, exchanging halo messages on-demand based on the
type of access and the stencils" (paper Section II-B).  This module builds,
from a *global* mesh plus a rank assignment per set, one local mesh per
rank: owned elements first, halo (off-rank but referenced) elements after,
with per-neighbour send/receive index lists.

Execution follows owner-compute:

* each rank iterates only its owned elements,
* indirect READ/RW arguments trigger an on-demand forward halo exchange
  when the dat's halo copies are stale,
* indirect INC arguments accumulate into halo copies which are then pushed
  back and summed on the owner (reverse exchange),
* global reductions are combined with a deterministic allreduce.

A loop site binds once per rank, :meth:`RankMesh.loop` (a :class:`RankLoop`),
so a replay only checks halos, exchanges and reduces.  :meth:`RankMesh.loops`
binds an app's serial ``op2.loop`` sites this way; ``par_loop`` is the one-shot form.

Simplification vs. real OP2: there is a single halo class (no separate
exec/nonexec levels) and indirect OP_WRITE/OP_RW across partition
boundaries is unsupported — the proxy applications, like most OP2 codes,
use OP_INC for cross-element writes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.common.access import Access
from repro.common.errors import APIError
from repro.op2.args import Arg
from repro.op2.dat import Dat, Global
from repro.op2.kernel import Kernel
from repro.op2.map import Map
from repro.op2.parloop import loop
from repro.op2.partition import derive_partition, derive_source_partition
from repro.op2.set import Set
from repro.simmpi.comm import SimComm
from repro.telemetry import tracer as _trace

_HALO_TAG = 11
_REVERSE_TAG = 13
_GATHER_TAG = 17


@dataclass
class _SetLayout:
    """Per-rank layout of one global set."""

    local_set: Set
    owned_ids: np.ndarray  # global ids of owned elements, ascending
    halo_ids: np.ndarray  # global ids of halo elements, grouped by owner
    #: neighbour rank -> local indices of owned elements to send
    send: dict[int, np.ndarray] = field(default_factory=dict)
    #: neighbour rank -> local indices of halo elements to receive into
    recv: dict[int, np.ndarray] = field(default_factory=dict)

    @property
    def n_owned(self) -> int:
        return self.owned_ids.shape[0]


class RankMesh:
    """One rank's view of the partitioned mesh.

    Translates global Set/Map/Dat/Global handles into their local
    counterparts; :meth:`loop` accepts loop arguments built from the
    *global* objects so application code is identical to the serial path.
    """

    def __init__(self, rank: int):
        self.rank = rank
        self.layouts: dict[int, _SetLayout] = {}  # id(global Set) -> layout
        self.sets: dict[int, Set] = {}
        self.maps: dict[int, Map] = {}
        self.dats: dict[int, Dat] = {}
        self.globals: dict[int, Global] = {}
        self._chain: tuple | None = None  # (sites, comm, handles) of the last loops()

    # -- handle translation ----------------------------------------------------

    def local_set(self, s: Set) -> Set:
        return self.sets[id(s)]

    def local_map(self, m: Map) -> Map:
        return self.maps[id(m)]

    def local_dat(self, d: Dat) -> Dat:
        return self.dats[id(d)]

    def local_global(self, g: Global) -> Global:
        return self.globals[id(g)]

    def _layout_of(self, s: Set) -> _SetLayout:
        return self.layouts[id(s)]

    def _translate(self, arg: Arg) -> Arg:
        """Map an arg's global handles to local ones (local handles pass through)."""
        if arg.is_global:
            glob = self.globals.get(id(arg.glob), arg.glob)
            return Arg(access=arg.access, glob=glob)
        dat = self.dats.get(id(arg.dat), arg.dat)
        map_ = None
        if arg.map is not None:
            map_ = self.maps.get(id(arg.map), arg.map)
        return Arg(access=arg.access, dat=dat, map=map_, idx=arg.idx)

    # -- halo exchanges -----------------------------------------------------------

    def halo_exchange(self, comm: SimComm, gdat: Dat) -> None:
        """Forward exchange: refresh this dat's halo copies from owners."""
        ldat = self.local_dat(gdat)
        layout = self._layout_of(gdat.set)
        trc = _trace.ACTIVE
        span = None
        if trc is not None:
            span = trc.begin("halo_exchange", "halo", dat=gdat.name, direction="forward")
        try:
            nbytes = 0
            for p, idx in layout.send.items():
                comm.send(ldat.data[idx], p, _HALO_TAG)
                nbytes += idx.size * ldat.nbytes_per_elem
            for p, idx in sorted(layout.recv.items()):
                ldat.data[idx] = comm.recv(p, _HALO_TAG)
            comm.counters.record_halo_exchange(len(layout.send), nbytes)
        finally:
            if span is not None:
                span.attrs["bytes"] = nbytes
                trc.end(span)
        ldat.halo_dirty = False

    def reverse_halo_exchange(self, comm: SimComm, gdat: Dat) -> None:
        """Reverse exchange: push halo increments back and sum on the owner."""
        ldat = self.local_dat(gdat)
        layout = self._layout_of(gdat.set)
        trc = _trace.ACTIVE
        span = None
        if trc is not None:
            span = trc.begin("halo_exchange", "halo", dat=gdat.name, direction="reverse")
        try:
            nbytes = 0
            for p, idx in layout.recv.items():
                comm.send(ldat.data[idx], p, _REVERSE_TAG)
                nbytes += idx.size * ldat.nbytes_per_elem
            for p, idx in sorted(layout.send.items()):
                contribution = comm.recv(p, _REVERSE_TAG)
                np.add.at(ldat.data, idx, contribution)
            comm.counters.record_halo_exchange(len(layout.recv), nbytes)
        finally:
            if span is not None:
                span.attrs["bytes"] = nbytes
                trc.end(span)
        ldat.halo_dirty = True

    # -- distributed loop -----------------------------------------------------------

    def loop(self, comm: SimComm, kernel: Kernel, giterset: Set, *gargs: Arg,
             backend: str = "vec") -> "RankLoop":
        """Bind one distributed loop site on this rank."""
        return RankLoop(self, comm, kernel, giterset, *gargs, backend=backend)

    def loops(self, comm: SimComm, sites: tuple) -> tuple:
        """Rank handles of serial ``op2.loop`` ``sites``, kept while both
        ``sites`` and ``comm`` stay the same."""
        chain = self._chain
        if chain is None or chain[0] is not sites or chain[1] is not comm:
            handles = tuple(self.loop(comm, s.kernel, s.iterset, *s.args, backend=s.backend)
                            for s in sites)
            chain = self._chain = (sites, comm, handles)
        return chain[2]

    def par_loop(self, comm: SimComm, kernel: Kernel, giterset: Set, *gargs: Arg,
                 backend: str = "vec") -> None:
        """Execute one distributed parallel loop (SPMD collective call)."""
        self.loop(comm, kernel, giterset, *gargs, backend=backend)()

    # -- gather for validation ---------------------------------------------------------

    def gather_dat(self, comm: SimComm, gdat: Dat) -> np.ndarray:
        """Collect the dat's owned values from all ranks into the global order."""
        ldat = self.local_dat(gdat)
        layout = self._layout_of(gdat.set)
        payload = (layout.owned_ids, ldat.data[: layout.n_owned].copy())
        gathered = comm.gather(payload, root=0)
        if comm.rank == 0:
            total = comm.allreduce(layout.n_owned, op="sum")
            out = np.zeros((total, ldat.dim), dtype=ldat.dtype)
            for ids, values in gathered:
                out[ids] = values
        else:
            _ = comm.allreduce(layout.n_owned, op="sum")
            out = None
        return comm.bcast(out, root=0)


def layout_halo_slice(layout: _SetLayout) -> slice:
    """The halo region of a local dat (everything after the owned block)."""
    return slice(layout.n_owned, layout.n_owned + layout.halo_ids.shape[0])


class RankLoop:
    """One distributed loop site on one rank, bound once.

    Binding translates the arguments to local handles, binds a local
    ``op2.loop`` over the owned elements and sorts the arguments (an
    indirect WRITE/RW raises here).  A call refreshes dirty halos of
    indirect reads and zeroes INC halo copies, runs the loop, pushes the
    INC halos back and combines the reductions — ``par_loop``'s order.
    """

    __slots__ = ("rm", "comm", "site", "prelude", "inc_dats", "reductions")

    def __init__(self, rm: RankMesh, comm: SimComm, kernel: Kernel, giterset: Set,
                 *gargs: Arg, backend: str = "vec"):
        largs = [rm._translate(a) for a in gargs]
        self.prelude = []  # (global dat, local dat, INC halo slice or None: a read)
        self.inc_dats = []
        self.reductions = []  # (local global, allreduce op)
        for garg, larg in zip(gargs, largs):
            if larg.is_global:
                # a global passed twice is still combined once
                if larg.access.is_reduction and not any(
                    g is larg.glob for g, _ in self.reductions
                ):
                    op = "sum" if larg.access is Access.INC else larg.access.value
                    self.reductions.append((larg.glob, op))
            elif not larg.is_indirect:
                continue
            elif larg.access in (Access.READ, Access.RW):
                # a second read of a dat would find its halos clean
                if not any(h is None and d is garg.dat for d, _, h in self.prelude):
                    self.prelude.append((garg.dat, larg.dat, None))
            elif larg.access is Access.INC:
                if not any(d is garg.dat for d in self.inc_dats):
                    # stale halo copies must not receive old contributions
                    halo = layout_halo_slice(rm._layout_of(garg.dat.set))
                    self.prelude.append((garg.dat, larg.dat, halo))
                    self.inc_dats.append(garg.dat)
            else:
                raise APIError(
                    "indirect OP_WRITE/OP_RW across partitions is unsupported; "
                    "use OP_INC (see module docstring)"
                )
        self.rm, self.comm = rm, comm
        self.site = loop(kernel, rm.local_set(giterset), *largs, backend=backend,
                         n_elements=rm._layout_of(giterset).n_owned)

    def __call__(self) -> None:
        rm, comm = self.rm, self.comm
        for gdat, ldat, halo in self.prelude:
            if halo is not None:
                ldat.data[halo] = 0
            elif ldat.halo_dirty:
                rm.halo_exchange(comm, gdat)
        starts = [g.data.copy() if op == "sum" else None for g, op in self.reductions]
        self.site()
        for gdat in self.inc_dats:
            rm.reverse_halo_exchange(comm, gdat)
        for (g, op), start in zip(self.reductions, starts):
            if start is None:
                g.data[:] = comm.allreduce(g.data, op=op)
            else:
                g.data[:] = start + comm.allreduce(g.data - start, op="sum")


class PartitionedMesh:
    """Builds per-rank :class:`RankMesh` es from a global mesh + assignments."""

    def __init__(
        self,
        nranks: int,
        assignments: dict[Set, np.ndarray],
        maps: list[Map],
        dats: list[Dat],
        globals_: list[Global] | None = None,
    ):
        self.nranks = nranks
        self.assignments = {id(s): np.asarray(a, dtype=np.int64) for s, a in assignments.items()}
        self._sets = {id(s): s for s in assignments}
        for s, a in assignments.items():
            if a.shape[0] != s.total_size:
                raise APIError(f"assignment for {s.name} has wrong length")
            if a.size and (a.min() < 0 or a.max() >= nranks):
                raise APIError(f"assignment for {s.name} names ranks outside [0, {nranks})")
        self.maps = maps
        self.dats = dats
        self.globals_ = list(globals_ or [])
        for m in maps:
            for s in (m.from_set, m.to_set):
                if id(s) not in self.assignments:
                    raise APIError(f"no assignment given for set {s.name} used by map {m.name}")
        for d in dats:
            if id(d.set) not in self.assignments:
                raise APIError(f"no assignment given for set {d.set.name} of dat {d.name}")
        self.rank_meshes = [self._build_rank(r) for r in range(nranks)]

    # -- construction ------------------------------------------------------------

    @classmethod
    def from_primary(
        cls,
        nranks: int,
        primary: Set,
        primary_assignment: np.ndarray,
        maps: list[Map],
        dats: list[Dat],
        globals_: list[Global] | None = None,
    ) -> "PartitionedMesh":
        """Derive every other set's assignment from the primary set's.

        Propagates ownership through the maps (targets to the min rank of
        their sources; sources to the min rank of their targets) until all
        sets used by maps/dats are covered.
        """
        assignments: dict[Set, np.ndarray] = {primary: np.asarray(primary_assignment)}
        pending = True
        while pending:
            pending = False
            for m in maps:
                if m.from_set in assignments and m.to_set not in assignments:
                    assignments[m.to_set] = derive_partition(m, assignments[m.from_set])
                    pending = True
                elif m.to_set in assignments and m.from_set not in assignments:
                    assignments[m.from_set] = derive_source_partition(m, assignments[m.to_set])
                    pending = True
        for d in dats:
            if d.set not in assignments:
                raise APIError(
                    f"set {d.set.name} is unreachable from the primary set via maps; "
                    "pass its assignment explicitly"
                )
        return cls(nranks, assignments, maps, dats, globals_)

    def _build_rank(self, rank: int) -> RankMesh:
        rm = RankMesh(rank)

        # 1. per-set layouts: owned ids, halo ids (entries referenced through
        #    maps whose sources this rank owns but whose targets it does not)
        halo_needed: dict[int, set[int]] = {sid: set() for sid in self.assignments}
        for m in self.maps:
            src_assign = self.assignments[id(m.from_set)]
            owned_rows = np.nonzero(src_assign == rank)[0]
            tgt_assign = self.assignments[id(m.to_set)]
            referenced = np.unique(m.values[owned_rows])
            off_rank = referenced[tgt_assign[referenced] != rank]
            halo_needed[id(m.to_set)].update(off_rank.tolist())

        for sid, gset in self._sets.items():
            assign = self.assignments[sid]
            owned = np.nonzero(assign == rank)[0].astype(np.int64)
            halo_list = sorted(halo_needed[sid], key=lambda g: (int(assign[g]), g))
            halo = np.asarray(halo_list, dtype=np.int64)
            lset = Set(owned.shape[0], f"{gset.name}@{rank}", halo_nonexec=halo.shape[0])
            rm.layouts[sid] = _SetLayout(local_set=lset, owned_ids=owned, halo_ids=halo)
            rm.sets[sid] = lset

        # 2. local maps (rows for owned source elements only)
        for m in self.maps:
            src_layout = rm.layouts[id(m.from_set)]
            tgt_layout = rm.layouts[id(m.to_set)]
            lookup = _local_lookup(
                self._sets[id(m.to_set)].total_size, tgt_layout
            )
            lvals = lookup[m.values[src_layout.owned_ids]]
            # halo rows of the source set have no map data on this rank; the
            # local map covers owned rows only, matching owner-compute
            lmap = Map(
                src_layout.local_set,
                tgt_layout.local_set,
                m.arity,
                np.vstack([lvals, np.zeros((src_layout.halo_ids.shape[0], m.arity), dtype=np.int64)])
                if src_layout.halo_ids.size
                else lvals,
                f"{m.name}@{rank}",
            )
            rm.maps[id(m)] = lmap

        # 3. local dats (owned block then halo block)
        for d in self.dats:
            layout = rm.layouts[id(d.set)]
            ids = np.concatenate([layout.owned_ids, layout.halo_ids])
            ldat = Dat(
                layout.local_set,
                d.dim,
                d.data[ids] if ids.size else np.zeros((0, d.dim), dtype=d.dtype),
                dtype=d.dtype,
                name=f"{d.name}@{rank}",
            )
            rm.dats[id(d)] = ldat

        # 4. local globals (private copy per rank)
        for g in self.globals_:
            rm.globals[id(g)] = Global(g.dim, g.data.copy(), dtype=g.dtype, name=f"{g.name}@{rank}")

        return rm

    def finalise_exchanges(self) -> None:
        """Fill in send/recv index lists (needs all rank layouts built)."""
        for sid, gset in self._sets.items():
            assign = self.assignments[sid]
            # position of each global id within its owner's owned list
            owner_pos = np.zeros(gset.total_size, dtype=np.int64)
            for r in range(self.nranks):
                owned = self.rank_meshes[r].layouts[sid].owned_ids
                owner_pos[owned] = np.arange(owned.shape[0], dtype=np.int64)
            for r in range(self.nranks):
                layout = self.rank_meshes[r].layouts[sid]
                halo = layout.halo_ids
                if halo.size == 0:
                    continue
                owners = assign[halo]
                for p in np.unique(owners):
                    mask = owners == p
                    # receiver side: local halo indices on rank r
                    local_halo_idx = layout.n_owned + np.nonzero(mask)[0]
                    layout.recv[int(p)] = local_halo_idx.astype(np.int64)
                    # sender side: local owned indices on rank p, same order
                    sender_layout = self.rank_meshes[int(p)].layouts[sid]
                    sender_layout.send[r] = owner_pos[halo[mask]]

    def local(self, rank: int) -> RankMesh:
        return self.rank_meshes[rank]


def _local_lookup(global_size: int, layout: _SetLayout) -> np.ndarray:
    """global id -> local index (owned block then halo block); -1 elsewhere."""
    lookup = np.full(global_size, -1, dtype=np.int64)
    lookup[layout.owned_ids] = np.arange(layout.n_owned, dtype=np.int64)
    lookup[layout.halo_ids] = layout.n_owned + np.arange(
        layout.halo_ids.shape[0], dtype=np.int64
    )
    return lookup


def build_partitioned_mesh(
    nranks: int,
    primary: Set,
    primary_assignment: np.ndarray,
    maps: list[Map],
    dats: list[Dat],
    globals_: list[Global] | None = None,
) -> PartitionedMesh:
    """Convenience: derive assignments, build rank meshes, wire exchanges."""
    pm = PartitionedMesh.from_primary(
        nranks, primary, primary_assignment, maps, dats, globals_
    )
    pm.finalise_exchanges()
    return pm


def dump_dat_distributed(comm: SimComm, rm: "RankMesh", gdat: Dat, path) -> None:
    """Dump a dat to disk from a distributed run (rank 0 writes).

    The paper (Section II-C): "there are API calls to dump entire datasets
    to disk, even in a distributed memory environment" — owned values are
    gathered into global ordering and written once.
    """
    import numpy as np

    values = rm.gather_dat(comm, gdat)
    if comm.rank == 0:
        np.savez(path, data=values, dim=np.asarray([gdat.dim]))
    comm.barrier()
