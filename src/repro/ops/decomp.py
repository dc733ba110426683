"""Distributed-memory decomposition of structured blocks.

OPS performs "partitioning across processes and ... standard halo
exchanges, exchanging halo messages on-demand based on the type of access
and the stencils" (paper Section II-B).  A :class:`DecomposedBlock` splits
a block's index space over a cartesian process grid; each rank holds local
dats covering its subdomain plus ghost layers.  :meth:`LocalBlock.loop`
binds a loop site on a rank once (a :class:`RankLoop`): it intersects global
loop ranges with the owned subdomain, and its calls exchange face halos on
demand (dimension-by-dimension, so corner points are filled transitively).
:meth:`LocalBlock.par_loop` is the one-shot form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.access import Access
from repro.common.errors import APIError
from repro.ops.block import Block
from repro.ops.dat import Dat
from repro.ops.parloop import DatArg, LoopArg, loop
from repro.ops.reduction import Reduction
from repro.simmpi.cart import CartComm, dims_create
from repro.simmpi.comm import SimComm

_EXCH_TAG = 23


@dataclass
class _SubDomain:
    """One rank's share of the global index space."""

    offset: tuple[int, ...]  # global coordinate of local interior origin
    size: tuple[int, ...]


def _split_extents(n: int, parts: int) -> list[tuple[int, int]]:
    """Split [0, n) into ``parts`` near-equal contiguous extents."""
    cuts = [(n * p) // parts for p in range(parts + 1)]
    return [(cuts[p], cuts[p + 1]) for p in range(parts)]


class LocalBlock:
    """One rank's view of a decomposed block."""

    def __init__(self, decomp: "DecomposedBlock", rank: int):
        self.decomp = decomp
        self.rank = rank
        self.sub = decomp.subdomains[rank]
        self.block = Block(decomp.block.ndim, f"{decomp.block.name}@{rank}")
        #: id(global dat) -> local dat
        self.dats: dict[int, Dat] = {}
        for gdat in decomp.dats:
            local_size = tuple(
                self._local_extent(d, gdat) for d in range(self.block.ndim)
            )
            ldat = Dat(
                self.block,
                local_size,
                halo_depth=gdat.halo_depth,
                dtype=gdat.dtype,
                name=f"{gdat.name}@{rank}",
            )
            # initialise from the global dat (including its ghost layers)
            lo = self.sub.offset
            ldat.data[...] = gdat.region(
                [(-gdat.halo_depth + lo[d], lo[d] + local_size[d] + gdat.halo_depth)
                 for d in range(self.block.ndim)]
            )
            self.dats[id(gdat)] = ldat

    def _local_extent(self, d: int, gdat: Dat) -> int:
        """Local interior extent along dimension d for a dat of this size.

        Dats whose global extent differs from the block's nominal size
        (e.g. face data with +1) give their surplus to the last rank.
        """
        nominal_lo, nominal_hi = self.decomp.extents[d][self.decomp.coords(self.rank)[d]]
        extent = nominal_hi - nominal_lo
        surplus = gdat.size[d] - self.decomp.global_size[d]
        if self.decomp.coords(self.rank)[d] == self.decomp.dims[d] - 1:
            extent += surplus
        return extent

    def local_dat(self, gdat: Dat) -> Dat:
        return self.dats[id(gdat)]

    # -- halo exchange ------------------------------------------------------------

    def halo_exchange(self, comm: SimComm, gdat: Dat, depth: int | None = None) -> None:
        """Exchange ghost layers with face neighbours, one dimension at a time."""
        ldat = self.local_dat(gdat)
        if depth is None:
            depth = ldat.halo_depth
        depth = min(depth, ldat.halo_depth)
        cart = CartComm(comm, self.decomp.dims)
        nd = self.block.ndim
        nbytes = 0
        nmsgs = 0
        for d in range(nd):
            lo_nb, hi_nb = cart.shift(d)
            n_local = ldat.size[d]
            # ranges over full storage extent in other dims (so that corner
            # values propagate transitively across the dimension sweeps)
            full = [
                (-ldat.halo_depth, ldat.size[k] + ldat.halo_depth) for k in range(nd)
            ]

            def face(lo: int, hi: int) -> list[tuple[int, int]]:
                r = list(full)
                r[d] = (lo, hi)
                return r

            # send owned strips, receive into ghost strips
            if lo_nb is not None:
                comm.send(np.ascontiguousarray(ldat.region(face(0, depth))), lo_nb, _EXCH_TAG)
                nmsgs += 1
            if hi_nb is not None:
                comm.send(
                    np.ascontiguousarray(ldat.region(face(n_local - depth, n_local))),
                    hi_nb,
                    _EXCH_TAG,
                )
                nmsgs += 1
            if lo_nb is not None:
                ldat.region(face(-depth, 0))[...] = comm.recv(lo_nb, _EXCH_TAG)
            if hi_nb is not None:
                ldat.region(face(n_local, n_local + depth))[...] = comm.recv(hi_nb, _EXCH_TAG)
            for nb in (lo_nb, hi_nb):
                if nb is not None:
                    strip = depth
                    vol = strip
                    for k in range(nd):
                        if k != d:
                            vol *= ldat.size[k] + 2 * ldat.halo_depth
                    nbytes += vol * ldat.data.dtype.itemsize
        comm.counters.record_halo_exchange(nmsgs, nbytes)
        ldat.halo_dirty = False

    # -- distributed loop ------------------------------------------------------------

    def _local_ranges(self, global_ranges: list[tuple[int, int]]) -> list[tuple[int, int]] | None:
        """Intersect global loop ranges with this rank's responsibility.

        Edge ranks also own the global boundary overshoot (negative
        coordinates / beyond-size coordinates used by boundary loops).
        """
        out = []
        for d, (glo, ghi) in enumerate(global_ranges):
            olo, ohi = self.sub.offset[d], self.sub.offset[d] + self.sub.size[d]
            c = self.decomp.coords(self.rank)[d]
            resp_lo = olo if c > 0 else min(olo, glo)
            resp_hi = ohi if c < self.decomp.dims[d] - 1 else max(ohi, ghi)
            lo = max(glo, resp_lo)
            hi = min(ghi, resp_hi)
            if hi <= lo:
                return None
            out.append((lo - olo, hi - olo))
        return out

    def loop(self, comm: SimComm, kernel, global_ranges, *args: LoopArg, backend: str = "vec",
             name: str | None = None, flops_per_point: int = 0) -> "RankLoop":
        """Bind one distributed OPS loop site on this rank."""
        return RankLoop(self, comm, kernel, global_ranges, *args, backend=backend, name=name,
                        flops_per_point=flops_per_point)

    def par_loop(self, comm: SimComm, kernel, global_ranges, *args: LoopArg, **kwargs) -> None:
        """Execute one distributed OPS loop (SPMD collective call).

        Arguments reference the *global* dats; reductions are combined
        across ranks afterwards.  Keywords are :meth:`loop`'s.
        """
        self.loop(comm, kernel, global_ranges, *args, **kwargs)()

    def gather(self, comm: SimComm, gdat: Dat) -> np.ndarray | None:
        """Collect the dat's interior onto every rank in global layout."""
        ldat = self.local_dat(gdat)
        payload = (self.sub.offset, ldat.size, ldat.interior.copy())
        gathered = comm.gather(payload, root=0)
        out = None
        if comm.rank == 0:
            out = np.zeros(gdat.size, dtype=gdat.dtype)
            for offset, size, values in gathered:
                idx = tuple(slice(o, o + s) for o, s in zip(offset, size))
                out[idx] = values
        return comm.bcast(out, root=0)


class RankLoop:
    """One distributed OPS loop site on one rank, bound once.

    Binding intersects the ranges with the rank's responsibility, binds a
    local ``ops.loop`` on local dats and lists the stencil-read dats.  A
    call exchanges their dirty halos, runs the loop and combines the
    reductions — a rank with no points runs nothing but still joins them.
    Reductions are slots, as in ``ops.loop``: ``site(r1, ...)``.
    """

    __slots__ = ("lb", "comm", "site", "has_points", "exchanges")

    def __init__(self, lb: LocalBlock, comm: SimComm, kernel, global_ranges, *args: LoopArg,
                 backend: str = "vec", name: str | None = None, flops_per_point: int = 0):
        local_ranges = lb._local_ranges([tuple(int(c) for c in r) for r in global_ranges])
        largs: list[LoopArg] = []
        self.exchanges = []  # (global dat, local dat, depth)
        for arg in args:
            if isinstance(arg, Reduction):
                largs.append(arg)
                continue
            ldat = lb.local_dat(arg.dat)
            if arg.access in (Access.READ, Access.RW) and arg.stencil.max_depth > 0:
                # a second read of a dat would find its halos clean
                if not any(d is ldat for _, d, _ in self.exchanges):
                    self.exchanges.append((arg.dat, ldat, arg.stencil.max_depth))
            largs.append(DatArg(dat=ldat, access=arg.access, stencil=arg.stencil))
        self.lb, self.comm = lb, comm
        self.has_points = local_ranges is not None
        self.site = loop(kernel, lb.block, local_ranges or [(0, 0)] * lb.block.ndim, *largs,
                         backend=backend, name=name, flops_per_point=flops_per_point)

    def __call__(self, *reductions: Reduction) -> None:
        site, lb, comm = self.site, self.lb, self.comm
        args = site._bind(reductions) if reductions else site.args
        for gdat, ldat, depth in self.exchanges:
            if ldat.halo_dirty:
                lb.halo_exchange(comm, gdat, depth=depth)
        reds = list({id(args[i]): args[i] for i in site.slots}.values())  # each once
        starts = [r.value for r in reds]
        if self.has_points:
            site(*reductions)
        for red, start in zip(reds, starts):
            if red.kind == "inc":
                red.value = start + comm.allreduce(red.value - start, op="sum")
            else:
                red.combine_across(comm)


class DecomposedBlock:
    """Cartesian decomposition of one block and its dats over N ranks."""

    def __init__(
        self,
        nranks: int,
        block: Block,
        dats: list[Dat],
        *,
        global_size: tuple[int, ...] | None = None,
        dims: list[int] | None = None,
    ):
        self.block = block
        self.dats = list(dats)
        if not self.dats:
            raise APIError("a decomposed block needs at least one dat")
        if global_size is None:
            # nominal size: the elementwise minimum across dats (cell space)
            sizes = np.asarray([d.size for d in self.dats])
            global_size = tuple(int(s) for s in sizes.min(axis=0))
        self.global_size = global_size
        self.nranks = nranks
        self.dims = dims if dims is not None else dims_create(nranks, block.ndim)
        if int(np.prod(self.dims)) != nranks:
            raise APIError(f"dims {self.dims} do not cover {nranks} ranks")
        self.extents = [
            _split_extents(self.global_size[d], self.dims[d]) for d in range(block.ndim)
        ]
        self.subdomains = [self._subdomain(r) for r in range(nranks)]
        self.locals = [LocalBlock(self, r) for r in range(nranks)]

    def coords(self, rank: int) -> list[int]:
        out = []
        for extent in reversed(self.dims):
            out.append(rank % extent)
            rank //= extent
        return list(reversed(out))

    def _subdomain(self, rank: int) -> _SubDomain:
        coords = self.coords(rank)
        offset = []
        size = []
        for d in range(self.block.ndim):
            lo, hi = self.extents[d][coords[d]]
            offset.append(lo)
            size.append(hi - lo)
        return _SubDomain(offset=tuple(offset), size=tuple(size))

    def local(self, rank: int) -> LocalBlock:
        return self.locals[rank]


def dump_dat_distributed(comm: SimComm, lb: LocalBlock, gdat: Dat, path) -> None:
    """Dump an OPS dat's global interior from a decomposed run (rank 0 writes)."""
    values = lb.gather(comm, gdat)
    if comm.rank == 0:
        np.savez(path, data=values)
    comm.barrier()
