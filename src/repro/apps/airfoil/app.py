"""Airfoil driver: the OP2 loop chain (paper Fig 8's sequence).

One outer iteration is save_soln followed by two Runge-Kutta-like inner
sweeps of adt_calc, res_calc, bres_calc, update — the 9-loop periodic
sequence the speculative checkpoint placement detects.
"""

from __future__ import annotations

import numpy as np

from repro import op2
from repro.apps.airfoil.kernels import (
    CFL,
    EPS,
    GAM,
    GM1,
    K_ADT_CALC,
    K_BRES_CALC,
    K_RES_CALC,
    K_SAVE_SOLN,
    K_UPDATE,
    QINF0,
    QINF1,
    QINF2,
    QINF3,
)
from repro.apps.airfoil.mesh import AirfoilMesh, generate_mesh
from repro.simmpi.comm import SimComm


def default_qinf() -> np.ndarray:
    """The free-stream conserved state (rho, rho*u, rho*v, rho*E)."""
    return np.asarray([QINF0, QINF1, QINF2, QINF3])


class AirfoilApp:
    """Airfoil written against the OP2 API."""

    RK_STEPS = 2  # inner sweeps per outer iteration, as in the original

    def __init__(self, mesh: AirfoilMesh | None = None, *, nx: int = 60, ny: int = 40,
                 jitter: float = 0.0, backend: str = "vec"):
        self.mesh = mesh if mesh is not None else generate_mesh(nx, ny, jitter=jitter)
        self.backend = backend
        self.rms = op2.Global(1, 0.0, name="rms")
        self._sites: tuple | None = None  # iteration()'s op2.loop handles

    # -- one outer iteration, serial ------------------------------------------------

    def iteration(self) -> None:
        """One outer iteration; its five loop sites are bound on first use."""
        if self._sites is None:
            m = self.mesh
            be = self.backend
            self._sites = (
                op2.loop(K_SAVE_SOLN, m.cells, m.q(op2.READ), m.qold(op2.WRITE), backend=be),
                op2.loop(
                    K_ADT_CALC,
                    m.cells,
                    m.x(op2.READ, m.cell2node, 0),
                    m.x(op2.READ, m.cell2node, 1),
                    m.x(op2.READ, m.cell2node, 2),
                    m.x(op2.READ, m.cell2node, 3),
                    m.q(op2.READ),
                    m.adt(op2.WRITE),
                    backend=be,
                ),
                op2.loop(
                    K_RES_CALC,
                    m.edges,
                    m.x(op2.READ, m.edge2node, 0),
                    m.x(op2.READ, m.edge2node, 1),
                    m.q(op2.READ, m.edge2cell, 0),
                    m.q(op2.READ, m.edge2cell, 1),
                    m.adt(op2.READ, m.edge2cell, 0),
                    m.adt(op2.READ, m.edge2cell, 1),
                    m.res(op2.INC, m.edge2cell, 0),
                    m.res(op2.INC, m.edge2cell, 1),
                    backend=be,
                ),
                op2.loop(
                    K_BRES_CALC,
                    m.bedges,
                    m.x(op2.READ, m.bedge2node, 0),
                    m.x(op2.READ, m.bedge2node, 1),
                    m.q(op2.READ, m.bedge2cell, 0),
                    m.adt(op2.READ, m.bedge2cell, 0),
                    m.res(op2.INC, m.bedge2cell, 0),
                    m.bound(op2.READ),
                    backend=be,
                ),
                op2.loop(
                    K_UPDATE,
                    m.cells,
                    m.qold(op2.READ),
                    m.q(op2.WRITE),
                    m.res(op2.RW),
                    m.adt(op2.READ),
                    self.rms(op2.INC),
                    backend=be,
                ),
            )
        save_soln, adt_calc, res_calc, bres_calc, update = self._sites
        save_soln()
        for _ in range(self.RK_STEPS):
            adt_calc()
            res_calc()
            bres_calc()
            self.rms.data[:] = 0.0
            update()

    def run(self, iterations: int) -> float:
        """Run ``iterations`` outer iterations; returns the final RMS residual."""
        for _ in range(iterations):
            self.iteration()
        return float(np.sqrt(self.rms.value / self.mesh.cells.size))

    # -- distributed execution ----------------------------------------------------------

    def build_partitioned(self, nranks: int, method: str = "block"):
        """Partition the mesh for ``nranks`` ranks (cells are primary)."""
        from repro.op2.halo import build_partitioned_mesh
        from repro.op2.partition import partition_set

        m = self.mesh
        coords = None
        if method == "rcb":
            # cell centroids from the 4 corner nodes
            coords = m.x.data[m.cell2node.values].mean(axis=1)
        assign = partition_set(
            m.cells.size, nranks, method, coords=coords, map_=m.cell2node
        ).assignment
        return build_partitioned_mesh(
            nranks, m.cells, assign, m.all_maps, m.all_dats, [self.rms]
        )

    def run_distributed(self, comm: SimComm, pm, iterations: int) -> float:
        """SPMD body: run the loop chain on one rank of a partitioned mesh."""
        m = self.mesh
        rm = pm.local(comm.rank)
        be = self.backend
        lrms = rm.local_global(self.rms)
        for _ in range(iterations):
            rm.par_loop(comm, K_SAVE_SOLN, m.cells, m.q(op2.READ), m.qold(op2.WRITE), backend=be)
            for _ in range(self.RK_STEPS):
                rm.par_loop(
                    comm,
                    K_ADT_CALC,
                    m.cells,
                    m.x(op2.READ, m.cell2node, 0),
                    m.x(op2.READ, m.cell2node, 1),
                    m.x(op2.READ, m.cell2node, 2),
                    m.x(op2.READ, m.cell2node, 3),
                    m.q(op2.READ),
                    m.adt(op2.WRITE),
                    backend=be,
                )
                rm.par_loop(
                    comm,
                    K_RES_CALC,
                    m.edges,
                    m.x(op2.READ, m.edge2node, 0),
                    m.x(op2.READ, m.edge2node, 1),
                    m.q(op2.READ, m.edge2cell, 0),
                    m.q(op2.READ, m.edge2cell, 1),
                    m.adt(op2.READ, m.edge2cell, 0),
                    m.adt(op2.READ, m.edge2cell, 1),
                    m.res(op2.INC, m.edge2cell, 0),
                    m.res(op2.INC, m.edge2cell, 1),
                    backend=be,
                )
                rm.par_loop(
                    comm,
                    K_BRES_CALC,
                    m.bedges,
                    m.x(op2.READ, m.bedge2node, 0),
                    m.x(op2.READ, m.bedge2node, 1),
                    m.q(op2.READ, m.bedge2cell, 0),
                    m.adt(op2.READ, m.bedge2cell, 0),
                    m.res(op2.INC, m.bedge2cell, 0),
                    m.bound(op2.READ),
                    backend=be,
                )
                lrms.data[:] = 0.0
                rm.par_loop(
                    comm,
                    K_UPDATE,
                    m.cells,
                    m.qold(op2.READ),
                    m.q(op2.WRITE),
                    m.res(op2.RW),
                    m.adt(op2.READ),
                    lrms(op2.INC),
                    backend=be,
                )
        return float(np.sqrt(lrms.value / self.mesh.cells.size))
