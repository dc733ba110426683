"""Hydra-proxy driver: 5-stage Runge-Kutta + 2-level multigrid per iteration.

Executes ~36 parallel loops per time step across 13 distinct kernels, of
which five are indirect — the loop-heavy profile the paper attributes to
Hydra.  Supports serial backends and distributed execution over the
partitioned-mesh runtime, with optional mesh renumbering and graph
partitioning (the OP2 optimisations behind paper Fig 3).
"""

from __future__ import annotations

import numpy as np

from repro import op2
from repro.apps.hydra.kernels import (
    RK_ALPHA,
    K_ADT,
    K_GRAD,
    K_GRAD_ZERO,
    K_IFLUX,
    K_MG_PROLONG,
    K_MG_RESTRICT,
    K_MG_SMOOTH,
    K_MG_ZERO,
    K_RK,
    K_SAVE,
    K_SRC,
    K_VFLUX,
    K_VPREP,
)
from repro.apps.hydra.mesh import HydraMesh, generate_hydra_mesh
from repro.simmpi.comm import SimComm


class HydraApp:
    """The Hydra proxy written against the OP2 API."""

    def __init__(
        self,
        mesh: HydraMesh | None = None,
        *,
        nx: int = 40,
        ny: int = 24,
        jitter: float = 0.1,
        backend: str = "vec",
    ):
        self.mesh = mesh if mesh is not None else generate_hydra_mesh(nx, ny, jitter=jitter)
        self.backend = backend
        self.rms = op2.Global(1, 0.0, name="h_rms")
        self.alpha = op2.Global(1, 1.0, name="h_alpha")
        self._sites: tuple | None = None  # see iteration_loops()

    # -- optimisations (paper Fig 3's OP2 bars) ---------------------------------------

    def renumber(self) -> None:
        """RCM-renumber the fine cells for locality (OP2 mesh reordering)."""
        from repro.op2.renumber import rcm_permutation

        self.mesh.permute_cells(rcm_permutation(self.mesh.fine.edge2cell))

    # -- the loop chain, serial or on a rank ------------------------------------------

    def iteration_loops(self) -> tuple:
        """The chain's thirteen ``op2.loop`` sites on the global mesh, in
        program order, bound on first use."""
        if self._sites is None:
            m = self.mesh
            f = m.fine
            be = self.backend
            self._sites = (
                op2.loop(K_SAVE, f.cells, m.q(op2.READ), m.qold(op2.WRITE), backend=be),
                op2.loop(K_VPREP, f.cells, m.q(op2.READ), m.visc(op2.WRITE), backend=be),
                # the Runge-Kutta stage
                op2.loop(K_GRAD_ZERO, f.cells, m.grad(op2.WRITE), backend=be),
                op2.loop(
                    K_GRAD,
                    f.edges,
                    f.x(op2.READ, f.edge2node, 0),
                    f.x(op2.READ, f.edge2node, 1),
                    m.q(op2.READ, f.edge2cell, 0),
                    m.q(op2.READ, f.edge2cell, 1),
                    m.grad(op2.INC, f.edge2cell, 0),
                    m.grad(op2.INC, f.edge2cell, 1),
                    backend=be,
                ),
                op2.loop(
                    K_ADT,
                    f.cells,
                    f.x(op2.READ, f.cell2node, 0),
                    f.x(op2.READ, f.cell2node, 1),
                    f.x(op2.READ, f.cell2node, 2),
                    f.x(op2.READ, f.cell2node, 3),
                    m.q(op2.READ),
                    m.adt(op2.WRITE),
                    backend=be,
                ),
                op2.loop(
                    K_IFLUX,
                    f.edges,
                    f.x(op2.READ, f.edge2node, 0),
                    f.x(op2.READ, f.edge2node, 1),
                    m.q(op2.READ, f.edge2cell, 0),
                    m.q(op2.READ, f.edge2cell, 1),
                    m.adt(op2.READ, f.edge2cell, 0),
                    m.adt(op2.READ, f.edge2cell, 1),
                    m.res(op2.INC, f.edge2cell, 0),
                    m.res(op2.INC, f.edge2cell, 1),
                    backend=be,
                ),
                op2.loop(
                    K_VFLUX,
                    f.edges,
                    f.x(op2.READ, f.edge2node, 0),
                    f.x(op2.READ, f.edge2node, 1),
                    m.grad(op2.READ, f.edge2cell, 0),
                    m.grad(op2.READ, f.edge2cell, 1),
                    m.visc(op2.READ, f.edge2cell, 0),
                    m.visc(op2.READ, f.edge2cell, 1),
                    m.res(op2.INC, f.edge2cell, 0),
                    m.res(op2.INC, f.edge2cell, 1),
                    backend=be,
                ),
                op2.loop(
                    K_SRC,
                    f.cells,
                    m.q(op2.READ),
                    m.visc(op2.READ),
                    m.res(op2.INC),
                    backend=be,
                ),
                op2.loop(
                    K_RK,
                    f.cells,
                    m.qold(op2.READ),
                    m.q(op2.WRITE),
                    m.res(op2.RW),
                    m.adt(op2.READ),
                    self.alpha(op2.READ),
                    self.rms(op2.INC),
                    backend=be,
                ),
                # the multigrid correction cycle
                op2.loop(K_MG_ZERO, m.coarse_cells, m.qc(op2.WRITE), m.resc(op2.WRITE), backend=be),
                op2.loop(
                    K_MG_RESTRICT,
                    f.cells,
                    m.q(op2.READ),
                    m.res(op2.READ),
                    m.qc(op2.INC, m.fine2coarse, 0),
                    m.resc(op2.INC, m.fine2coarse, 0),
                    backend=be,
                ),
                op2.loop(K_MG_SMOOTH, m.coarse_cells, m.qc(op2.RW), m.resc(op2.READ), backend=be),
                op2.loop(
                    K_MG_PROLONG,
                    f.cells,
                    m.qc(op2.READ, m.fine2coarse, 0),
                    m.q(op2.RW),
                    backend=be,
                ),
            )
        return self._sites

    def iteration(self) -> None:
        """One time step: five Runge-Kutta stages, then a multigrid cycle."""
        self._iterate(self.iteration_loops(), self.rms, self.alpha)

    def _iterate(self, loops: tuple, rms: op2.Global, alpha: op2.Global) -> None:
        """One time step of ``loops``, serial sites or rank handles; ``rms``
        and ``alpha`` are the globals they read and reduce into."""
        (save, vprep, grad_zero, grad, adt, iflux, vflux, src, rk,
         mg_zero, mg_restrict, mg_smooth, mg_prolong) = loops
        save()
        vprep()
        for stage, a in enumerate(RK_ALPHA):
            alpha.data[0] = a
            grad_zero()
            grad()
            adt()
            iflux()
            vflux()
            src()
            if stage == len(RK_ALPHA) - 1:
                rms.data[:] = 0.0
            rk()
        mg_zero()
        mg_restrict()
        mg_smooth()
        mg_prolong()

    def run(self, iterations: int) -> float:
        for _ in range(iterations):
            self.iteration()
        return float(np.sqrt(self.rms.value / self.mesh.fine.cells.size))

    # -- distributed ----------------------------------------------------------------------

    def build_partitioned(self, nranks: int, method: str = "block"):
        from repro.op2.halo import build_partitioned_mesh
        from repro.op2.partition import partition_set

        m = self.mesh
        f = m.fine
        coords = None
        if method == "rcb":
            coords = f.x.data[f.cell2node.values].mean(axis=1)
        assign = partition_set(
            f.cells.size, nranks, method, coords=coords, map_=f.cell2node
        ).assignment
        return build_partitioned_mesh(
            nranks, f.cells, assign, m.all_maps, m.all_dats, [self.rms, self.alpha]
        )

    def run_distributed(self, comm: SimComm, pm, iterations: int) -> float:
        """SPMD body: run the loop chain on one rank of a partitioned mesh."""
        rm = pm.local(comm.rank)
        loops = rm.loops(comm, self.iteration_loops())
        rms = rm.local_global(self.rms)
        alpha = rm.local_global(self.alpha)
        for _ in range(iterations):
            self._iterate(loops, rms, alpha)
        return float(np.sqrt(rms.value / self.mesh.fine.cells.size))
