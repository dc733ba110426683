"""CloverLeaf hydro cycle on the OPS API.

One timestep follows the original's sequence: EOS + viscosity + CFL
timestep control, PdV predictor, EOS on the half-step state, revert,
acceleration, PdV corrector, volume fluxes, donor-cell advection of cell
quantities and momentum (x then y sweep), field reset.  Boundary
conditions are reflective free-slip, applied into the ghost layers before
the kernels that read them.
"""

from __future__ import annotations

import numpy as np

from repro import ops
from repro.apps.cloverleaf import kernels as K
from repro.apps.cloverleaf.state import (
    DT_INIT,
    DT_MAX,
    FIELD_INFO,
    CloverState,
    apply_reflective_bcs,
    clover_bm_state,
    reflect_dat,
)


class CloverLeafApp:
    """CloverLeaf 2D written against the OPS API."""

    def __init__(self, state: CloverState | None = None, *, nx: int = 64, ny: int = 64,
                 backend: str = "vec"):
        self.st = state if state is not None else clover_bm_state(nx, ny)
        self.backend = backend
        self.dt = DT_INIT
        self.step_count = 0

    # -- helpers --------------------------------------------------------------------

    def _loop(self, kernel, ranges, *args, name: str, flops: int = 0) -> None:
        ops.par_loop(
            kernel,
            self.st.block,
            ranges,
            *args,
            backend=self.backend,
            name=name,
            flops_per_point=flops,
        )

    def _apply_bcs(self, fields: list[str], depth: int = 2) -> None:
        """Reflective boundaries; overridden edge-aware in the MPI variant."""
        apply_reflective_bcs(self.st, fields, depth)

    # -- one timestep --------------------------------------------------------------------

    def timestep(self) -> float:
        """EOS, viscosity and the CFL dt (the `timestep` phase)."""
        st = self.st
        nx, ny = st.nx, st.ny
        cells = [(0, nx), (0, ny)]
        self._apply_bcs(["density0", "energy0", "xvel0", "yvel0"])
        self._loop(
            K.ideal_gas_kernel,
            cells,
            st.density0(ops.READ),
            st.energy0(ops.READ),
            st.pressure(ops.WRITE),
            st.soundspeed(ops.WRITE),
            name="ideal_gas",
            flops=5,
        )
        self._loop(
            K.make_viscosity_kernel(st.dx, st.dy),
            cells,
            st.xvel0(ops.READ, K.S_NODE4),
            st.yvel0(ops.READ, K.S_NODE4),
            st.density0(ops.READ),
            st.viscosity(ops.WRITE),
            name="viscosity",
            flops=20,
        )
        self._apply_bcs(["pressure", "viscosity"])
        dt_min = ops.Reduction("min", name="dt_min")
        self._loop(
            K.make_calc_dt_kernel(st.dx, st.dy),
            cells,
            st.density0(ops.READ),
            st.soundspeed(ops.READ),
            st.viscosity(ops.READ),
            st.xvel0(ops.READ, K.S_NODE4),
            st.yvel0(ops.READ, K.S_NODE4),
            dt_min,
            name="calc_dt",
            flops=25,
        )
        self.dt = float(min(dt_min.value, DT_MAX))
        return self.dt

    def lagrangian(self) -> None:
        """PdV predictor/corrector and nodal acceleration."""
        st = self.st
        nx, ny = st.nx, st.ny
        cells = [(0, nx), (0, ny)]
        nodes = [(0, nx + 1), (0, ny + 1)]
        self._loop(
            K.make_pdv_kernel(self.dt, st.dx, st.dy, corrector=False),
            cells,
            st.xvel0(ops.READ, K.S_NODE4),
            st.yvel0(ops.READ, K.S_NODE4),
            st.density0(ops.READ),
            st.energy0(ops.READ),
            st.pressure(ops.READ),
            st.viscosity(ops.READ),
            st.density1(ops.WRITE),
            st.energy1(ops.WRITE),
            name="pdv_predict",
            flops=25,
        )
        self._loop(
            K.ideal_gas_kernel,
            cells,
            st.density1(ops.READ),
            st.energy1(ops.READ),
            st.pressure(ops.WRITE),
            st.soundspeed(ops.WRITE),
            name="ideal_gas",
            flops=5,
        )
        self._loop(
            K.revert_kernel,
            cells,
            st.density0(ops.READ),
            st.energy0(ops.READ),
            st.density1(ops.WRITE),
            st.energy1(ops.WRITE),
            name="revert",
            flops=0,
        )
        self._apply_bcs(["pressure", "viscosity", "density0"])
        self._loop(
            K.make_accelerate_kernel(self.dt, st.dx, st.dy),
            nodes,
            st.density0(ops.READ, K.S_CELL4),
            st.pressure(ops.READ, K.S_CELL4),
            st.viscosity(ops.READ, K.S_CELL4),
            st.xvel0(ops.READ),
            st.yvel0(ops.READ),
            st.xvel1(ops.WRITE),
            st.yvel1(ops.WRITE),
            name="accelerate",
            flops=30,
        )
        self._apply_bcs(["xvel1", "yvel1"])
        self._loop(
            K.make_pdv_kernel(self.dt, st.dx, st.dy, corrector=True),
            cells,
            st.xvel0(ops.READ, K.S_NODE4),
            st.yvel0(ops.READ, K.S_NODE4),
            st.xvel1(ops.READ, K.S_NODE4),
            st.yvel1(ops.READ, K.S_NODE4),
            st.density0(ops.READ),
            st.energy0(ops.READ),
            st.pressure(ops.READ),
            st.viscosity(ops.READ),
            st.density1(ops.WRITE),
            st.energy1(ops.WRITE),
            name="pdv_correct",
            flops=35,
        )

    def advection(self) -> None:
        """Volume fluxes and donor-cell advection (direction-split sweeps).

        Like the original, the sweep order alternates each step (x-then-y on
        even steps, y-then-x on odd) to cancel splitting bias.
        """
        st = self.st
        nx, ny = st.nx, st.ny
        cells = [(0, nx), (0, ny)]
        self._loop(
            K.make_flux_calc_x_kernel(self.dt, st.dy),
            [(0, nx + 1), (0, ny)],
            st.xvel0(ops.READ, K.S_FACE_Y),
            st.xvel1(ops.READ, K.S_FACE_Y),
            st.vol_flux_x(ops.WRITE),
            name="flux_calc_x",
            flops=5,
        )
        self._loop(
            K.make_flux_calc_y_kernel(self.dt, st.dx),
            [(0, nx), (0, ny + 1)],
            st.yvel0(ops.READ, K.S_FACE_X),
            st.yvel1(ops.READ, K.S_FACE_X),
            st.vol_flux_y(ops.WRITE),
            name="flux_calc_y",
            flops=5,
        )
        order = ("x", "y") if self.step_count % 2 == 0 else ("y", "x")
        for i, direction in enumerate(order):
            first = i == 0
            self._apply_bcs(["density1", "energy1"])
            if direction == "x":
                self._loop(
                    K.mass_ener_flux_x_kernel,
                    [(0, nx + 1), (0, ny)],
                    st.vol_flux_x(ops.READ),
                    st.density1(ops.READ, K.S_DONOR_X),
                    st.energy1(ops.READ, K.S_DONOR_X),
                    st.mass_flux_x(ops.WRITE),
                    st.ener_flux_x(ops.WRITE),
                    name="mass_ener_flux_x",
                    flops=6,
                )
                self._loop(
                    K.make_advec_cell_x_kernel(st.dx, st.dy, first=first),
                    cells,
                    st.vol_flux_x(ops.READ, K.S_FACE_X),
                    st.vol_flux_y(ops.READ, K.S_FACE_Y),
                    st.mass_flux_x(ops.READ, K.S_FACE_X),
                    st.ener_flux_x(ops.READ, K.S_FACE_X),
                    st.density1(ops.RW),
                    st.energy1(ops.RW),
                    name="advec_cell_x",
                    flops=14,
                )
            else:
                self._loop(
                    K.mass_ener_flux_y_kernel,
                    [(0, nx), (0, ny + 1)],
                    st.vol_flux_y(ops.READ),
                    st.density1(ops.READ, K.S_DONOR_Y),
                    st.energy1(ops.READ, K.S_DONOR_Y),
                    st.mass_flux_y(ops.WRITE),
                    st.ener_flux_y(ops.WRITE),
                    name="mass_ener_flux_y",
                    flops=6,
                )
                self._loop(
                    K.make_advec_cell_y_kernel(st.dx, st.dy, first=first),
                    cells,
                    st.vol_flux_x(ops.READ, K.S_FACE_X),
                    st.vol_flux_y(ops.READ, K.S_FACE_Y),
                    st.mass_flux_y(ops.READ, K.S_FACE_Y),
                    st.ener_flux_y(ops.READ, K.S_FACE_Y),
                    st.density1(ops.RW),
                    st.energy1(ops.RW),
                    name="advec_cell_y",
                    flops=12,
                )
            self._momentum_sweep(direction)

    def _momentum_sweep(self, direction: str) -> None:
        st = self.st
        nx, ny = st.nx, st.ny
        nodes = [(0, nx + 1), (0, ny + 1)]
        self._apply_bcs(["density1", "mass_flux_x" if direction == "x" else "mass_flux_y"])
        self._loop(
            K.make_node_mass_kernel(st.dx, st.dy),
            nodes,
            st.density1(ops.READ, K.S_CELL4),
            st.node_mass(ops.WRITE),
            name="advec_mom_node_mass",
            flops=5,
        )
        for vel_name in ("xvel1", "yvel1"):
            vel = getattr(st, vel_name)
            self._apply_bcs([vel_name])
            if direction == "x":
                self._loop(
                    K.mom_flux_x_kernel,
                    nodes,
                    st.mass_flux_x(ops.READ, K.S_DONOR_Y),
                    vel(ops.READ, K.S_VEL_X),
                    st.mom_flux(ops.WRITE),
                    st.node_flux(ops.WRITE),
                    name="advec_mom_flux_x",
                    flops=4,
                )
                self._loop(
                    K.mom_update_x_kernel,
                    [(1, nx), (0, ny + 1)],
                    st.mom_flux(ops.READ, K.S_FACE_X),
                    st.node_flux(ops.READ, K.S_FACE_X),
                    st.node_mass(ops.READ),
                    vel(ops.RW),
                    name="advec_mom_update_x",
                    flops=6,
                )
            else:
                self._loop(
                    K.mom_flux_y_kernel,
                    nodes,
                    st.mass_flux_y(ops.READ, K.S_DONOR_X),
                    vel(ops.READ, K.S_VEL_Y),
                    st.mom_flux(ops.WRITE),
                    st.node_flux(ops.WRITE),
                    name="advec_mom_flux_y",
                    flops=4,
                )
                self._loop(
                    K.mom_update_y_kernel,
                    [(0, nx + 1), (1, ny)],
                    st.mom_flux(ops.READ, K.S_FACE_Y),
                    st.node_flux(ops.READ, K.S_FACE_Y),
                    st.node_mass(ops.READ),
                    vel(ops.RW),
                    name="advec_mom_update_y",
                    flops=6,
                )

    def reset(self) -> None:
        st = self.st
        nx, ny = st.nx, st.ny
        self._loop(
            K.reset_cell_kernel,
            [(0, nx), (0, ny)],
            st.density0(ops.WRITE),
            st.energy0(ops.WRITE),
            st.density1(ops.READ),
            st.energy1(ops.READ),
            name="reset_field_cell",
            flops=0,
        )
        self._loop(
            K.reset_node_kernel,
            [(0, nx + 1), (0, ny + 1)],
            st.xvel0(ops.WRITE),
            st.yvel0(ops.WRITE),
            st.xvel1(ops.READ),
            st.yvel1(ops.READ),
            name="reset_field_node",
            flops=0,
        )

    def step(self) -> float:
        """Advance one timestep; returns the dt taken."""
        dt = self.timestep()
        self.lagrangian()
        self.advection()
        self.reset()
        self.step_count += 1
        return dt

    def run(self, steps: int) -> dict[str, float]:
        for _ in range(steps):
            self.step()
        return self.field_summary()

    def field_summary(self) -> dict[str, float]:
        """The original's field_summary table: global conservation checks."""
        st = self.st
        vol = ops.Reduction("inc", name="vol")
        mass = ops.Reduction("inc", name="mass")
        ie = ops.Reduction("inc", name="ie")
        ke = ops.Reduction("inc", name="ke")
        press = ops.Reduction("inc", name="press")
        self._loop(
            K.make_field_summary_kernel(st.dx, st.dy),
            [(0, st.nx), (0, st.ny)],
            st.density0(ops.READ),
            st.energy0(ops.READ),
            st.pressure(ops.READ),
            st.xvel0(ops.READ, K.S_NODE4),
            st.yvel0(ops.READ, K.S_NODE4),
            vol,
            mass,
            ie,
            ke,
            press,
            name="field_summary",
            flops=20,
        )
        return {
            "volume": vol.value,
            "mass": mass.value,
            "ie": ie.value,
            "ke": ke.value,
            "pressure": press.value,
        }


class DistributedCloverLeafApp(CloverLeafApp):
    """CloverLeaf on a cartesian-decomposed block (SPMD, one instance per rank).

    Reuses the serial driver's loop chain verbatim: loops are routed
    through the rank's :class:`~repro.ops.decomp.LocalBlock` (which
    intersects ranges, exchanges halos on demand and combines reductions),
    and reflective boundaries are applied only on the ranks touching the
    physical domain edges — interior partition boundaries are filled by
    halo exchange.
    """

    def __init__(self, comm, decomp, state: CloverState, *, backend: str = "vec"):
        # note: self.st keeps the *global* dat handles; LocalBlock translates
        super().__init__(state, backend=backend)
        self.comm = comm
        self.decomp = decomp
        self.lb = decomp.local(comm.rank)
        coords = decomp.coords(comm.rank)
        self._lo_x = coords[0] == 0
        self._hi_x = coords[0] == decomp.dims[0] - 1
        self._lo_y = coords[1] == 0
        self._hi_y = coords[1] == decomp.dims[1] - 1

    def _loop(self, kernel, ranges, *args, name: str, flops: int = 0) -> None:
        self.lb.par_loop(
            self.comm,
            kernel,
            ranges,
            *args,
            backend=self.backend,
            name=name,
            flops_per_point=flops,
        )

    def _apply_bcs(self, fields: list[str], depth: int = 2) -> None:
        for fname in fields:
            centering, fx, fy = FIELD_INFO[fname]
            ldat = self.lb.local_dat(getattr(self.st, fname))
            reflect_dat(
                ldat,
                centering,
                fx,
                fy,
                lo_x=self._lo_x,
                hi_x=self._hi_x,
                lo_y=self._lo_y,
                hi_y=self._hi_y,
            )

    def gather_field(self, name: str):
        """Collect one field's interior in global layout (on every rank)."""
        return self.lb.gather(self.comm, getattr(self.st, name))
