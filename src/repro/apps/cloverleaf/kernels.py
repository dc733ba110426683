"""CloverLeaf OPS kernels.

Each factory returns an accessor-indexed kernel closed over the loop's
scalar parameters (dt, cell sizes) — the analogue of the Fortran kernels'
module constants.  Kernels use NumPy ufuncs, which operate identically on
the scalar accessors of the ``seq`` backend and the array accessors of the
``vec`` backend (whole ranges or lazy cross-loop tiles), so a single source
serves every target.

Stencil declarations for every kernel are collected in :data:`STENCILS`.
"""

from __future__ import annotations

import numpy as np

from repro import ops
from repro.apps.cloverleaf.state import DTC_SAFE, G_BIG, G_SMALL, GAMMA

# -- stencils -----------------------------------------------------------------

S_SELF = ops.Stencil(2, [(0, 0)], "S_SELF")
#: the four nodes of a cell / four cells of a node (after offset convention)
S_NODE4 = ops.Stencil(2, [(0, 0), (1, 0), (0, 1), (1, 1)], "S_NODE4")
S_CELL4 = ops.Stencil(2, [(0, 0), (-1, 0), (0, -1), (-1, -1)], "S_CELL4")
S_FACE_X = ops.Stencil(2, [(0, 0), (1, 0)], "S_FACE_X")
S_FACE_Y = ops.Stencil(2, [(0, 0), (0, 1)], "S_FACE_Y")
S_DONOR_X = ops.Stencil(2, [(0, 0), (-1, 0)], "S_DONOR_X")
S_DONOR_Y = ops.Stencil(2, [(0, 0), (0, -1)], "S_DONOR_Y")
S_NODE_PAIR_X = ops.Stencil(2, [(0, 0), (0, -1), (-1, 0), (-1, -1)], "S_NODE_PAIR_X")
S_VEL_X = ops.Stencil(2, [(0, 0), (-1, 0), (1, 0)], "S_VEL_X")
S_VEL_Y = ops.Stencil(2, [(0, 0), (0, -1), (0, 1)], "S_VEL_Y")


def ideal_gas_kernel(d, e, p, c):
    """EOS: pressure and soundspeed from density and specific energy."""
    dv = d[0, 0]
    ev = e[0, 0]
    p[0, 0] = (GAMMA - 1.0) * dv * ev
    c[0, 0] = np.sqrt(GAMMA * (GAMMA - 1.0) * ev)


def make_viscosity_kernel(dx: float, dy: float):
    """Artificial (von Neumann-Richtmyer-style) viscosity from velocity gradients."""

    def viscosity_kernel(xvel0, yvel0, density0, visc):
        ugrad = 0.5 * ((xvel0[1, 0] + xvel0[1, 1]) - (xvel0[0, 0] + xvel0[0, 1]))
        vgrad = 0.5 * ((yvel0[0, 1] + yvel0[1, 1]) - (yvel0[0, 0] + yvel0[1, 0]))
        div = ugrad / dx + vgrad / dy
        strain = (ugrad / dx) ** 2 + (vgrad / dy) ** 2
        visc[0, 0] = np.where(div < 0.0, 2.0 * density0[0, 0] * strain * dx * dy, 0.0)

    return viscosity_kernel


def make_calc_dt_kernel(dx: float, dy: float):
    """CFL timestep control: MIN reduction over cells."""

    def calc_dt_kernel(density0, soundspeed, viscosity, xvel0, yvel0, dt_min):
        cc = soundspeed[0, 0] ** 2 + 2.0 * viscosity[0, 0] / (
            density0[0, 0] + G_SMALL
        )
        cc = np.sqrt(cc) + G_SMALL
        u = 0.25 * np.abs(xvel0[0, 0] + xvel0[1, 0] + xvel0[0, 1] + xvel0[1, 1])
        v = 0.25 * np.abs(yvel0[0, 0] + yvel0[1, 0] + yvel0[0, 1] + yvel0[1, 1])
        dtc = DTC_SAFE * np.minimum(dx / (cc + u + G_SMALL), dy / (cc + v + G_SMALL))
        dt_min.min(np.minimum(dtc, G_BIG))

    return calc_dt_kernel


def make_pdv_kernel(dt: float, dx: float, dy: float, *, corrector: bool):
    """PdV work: density/energy change from the velocity divergence.

    Predictor uses half dt with the level-0 velocities; corrector uses the
    full dt with the average of level-0 and level-1 velocities.
    """
    volume = dx * dy
    frac = 0.5 * dt if not corrector else dt

    if not corrector:

        def pdv_kernel(xvel0, yvel0, density0, energy0, pressure, viscosity, density1, energy1):
            left = 0.5 * (xvel0[0, 0] + xvel0[0, 1]) * frac * dy
            right = 0.5 * (xvel0[1, 0] + xvel0[1, 1]) * frac * dy
            bottom = 0.5 * (yvel0[0, 0] + yvel0[1, 0]) * frac * dx
            top = 0.5 * (yvel0[0, 1] + yvel0[1, 1]) * frac * dx
            total = (right - left) + (top - bottom)
            vol_change = total / volume
            density1[0, 0] = density0[0, 0] / (1.0 + vol_change)
            energy1[0, 0] = energy0[0, 0] - (
                (pressure[0, 0] + viscosity[0, 0]) / (density0[0, 0] + G_SMALL)
            ) * vol_change

        return pdv_kernel

    def pdv_corrector_kernel(
        xvel0, yvel0, xvel1, yvel1, density0, energy0, pressure, viscosity, density1, energy1
    ):
        left = 0.25 * (xvel0[0, 0] + xvel0[0, 1] + xvel1[0, 0] + xvel1[0, 1]) * frac * dy
        right = 0.25 * (xvel0[1, 0] + xvel0[1, 1] + xvel1[1, 0] + xvel1[1, 1]) * frac * dy
        bottom = 0.25 * (yvel0[0, 0] + yvel0[1, 0] + yvel1[0, 0] + yvel1[1, 0]) * frac * dx
        top = 0.25 * (yvel0[0, 1] + yvel0[1, 1] + yvel1[0, 1] + yvel1[1, 1]) * frac * dx
        total = (right - left) + (top - bottom)
        vol_change = total / volume
        density1[0, 0] = density0[0, 0] / (1.0 + vol_change)
        energy1[0, 0] = energy0[0, 0] - (
            (pressure[0, 0] + viscosity[0, 0]) / (density0[0, 0] + G_SMALL)
        ) * vol_change

    return pdv_corrector_kernel


def revert_kernel(density0, energy0, density1, energy1):
    density1[0, 0] = density0[0, 0]
    energy1[0, 0] = energy0[0, 0]


def make_accelerate_kernel(dt: float, dx: float, dy: float):
    """Node acceleration from pressure and viscosity gradients (full dt).

    The gradient terms below average the two adjacent cell-pair differences
    (the 0.5 factors), so ``stepbymass`` carries the full dt — mirroring the
    original's halfdt times a two-pair *sum*.
    """
    volume = dx * dy

    def accelerate_kernel(density0, pressure, viscosity, xvel0, yvel0, xvel1, yvel1):
        nodal_mass = (
            0.25
            * (
                density0[0, 0]
                + density0[-1, 0]
                + density0[0, -1]
                + density0[-1, -1]
            )
            * volume
        )
        stepbymass = dt / (nodal_mass + G_SMALL)
        dpx = 0.5 * dy * (
            (pressure[0, 0] + pressure[0, -1]) - (pressure[-1, 0] + pressure[-1, -1])
        )
        dpy = 0.5 * dx * (
            (pressure[0, 0] + pressure[-1, 0]) - (pressure[0, -1] + pressure[-1, -1])
        )
        dvx = 0.5 * dy * (
            (viscosity[0, 0] + viscosity[0, -1]) - (viscosity[-1, 0] + viscosity[-1, -1])
        )
        dvy = 0.5 * dx * (
            (viscosity[0, 0] + viscosity[-1, 0]) - (viscosity[0, -1] + viscosity[-1, -1])
        )
        xvel1[0, 0] = xvel0[0, 0] - stepbymass * (dpx + dvx)
        yvel1[0, 0] = yvel0[0, 0] - stepbymass * (dpy + dvy)

    return accelerate_kernel


def make_flux_calc_x_kernel(dt: float, dy: float):
    def flux_calc_x_kernel(xvel0, xvel1, vol_flux_x):
        vol_flux_x[0, 0] = (
            0.25 * dt * dy * (xvel0[0, 0] + xvel0[0, 1] + xvel1[0, 0] + xvel1[0, 1])
        )

    return flux_calc_x_kernel


def make_flux_calc_y_kernel(dt: float, dx: float):
    def flux_calc_y_kernel(yvel0, yvel1, vol_flux_y):
        vol_flux_y[0, 0] = (
            0.25 * dt * dx * (yvel0[0, 0] + yvel0[1, 0] + yvel1[0, 0] + yvel1[1, 0])
        )

    return flux_calc_y_kernel


def mass_ener_flux_x_kernel(vol_flux_x, density1, energy1, mass_flux_x, ener_flux_x):
    """Donor-cell upwind mass/energy flux through x faces."""
    vf = vol_flux_x[0, 0]
    donor_d = np.where(vf > 0.0, density1[-1, 0], density1[0, 0])
    donor_e = np.where(vf > 0.0, energy1[-1, 0], energy1[0, 0])
    mass_flux_x[0, 0] = vf * donor_d
    ener_flux_x[0, 0] = vf * donor_d * donor_e


def mass_ener_flux_y_kernel(vol_flux_y, density1, energy1, mass_flux_y, ener_flux_y):
    vf = vol_flux_y[0, 0]
    donor_d = np.where(vf > 0.0, density1[0, -1], density1[0, 0])
    donor_e = np.where(vf > 0.0, energy1[0, -1], energy1[0, 0])
    mass_flux_y[0, 0] = vf * donor_d
    ener_flux_y[0, 0] = vf * donor_d * donor_e


def make_advec_cell_x_kernel(dx: float, dy: float, *, first: bool = True):
    """x-direction remap with Lagrangian pre/post volumes (conserves mass).

    ``pre_vol`` is the cell's Lagrangian volume: on the first sweep of a
    step it carries the whole volume change (x and y parts); on the second
    sweep only the x part remains.  The x pass removes the x part.
    """
    volume = dx * dy

    def advec_cell_x_kernel(
        vol_flux_x, vol_flux_y, mass_flux_x, ener_flux_x, density1, energy1
    ):
        dvx = vol_flux_x[1, 0] - vol_flux_x[0, 0]
        dvy = vol_flux_y[0, 1] - vol_flux_y[0, 0]
        pre_vol = volume + dvx + dvy if first else volume + dvx
        post_vol = pre_vol - dvx
        pre_mass = density1[0, 0] * pre_vol
        post_mass = pre_mass + mass_flux_x[0, 0] - mass_flux_x[1, 0]
        post_ener = (
            energy1[0, 0] * pre_mass + ener_flux_x[0, 0] - ener_flux_x[1, 0]
        ) / (post_mass + G_SMALL)
        density1[0, 0] = post_mass / post_vol
        energy1[0, 0] = post_ener

    return advec_cell_x_kernel


def make_advec_cell_y_kernel(dx: float, dy: float, *, first: bool = False):
    """y-direction remap: removes the y part of the volume change."""
    volume = dx * dy

    def advec_cell_y_kernel(
        vol_flux_x, vol_flux_y, mass_flux_y, ener_flux_y, density1, energy1
    ):
        dvx = vol_flux_x[1, 0] - vol_flux_x[0, 0]
        dvy = vol_flux_y[0, 1] - vol_flux_y[0, 0]
        pre_vol = volume + dvx + dvy if first else volume + dvy
        post_vol = pre_vol - dvy
        pre_mass = density1[0, 0] * pre_vol
        post_mass = pre_mass + mass_flux_y[0, 0] - mass_flux_y[0, 1]
        post_ener = (
            energy1[0, 0] * pre_mass + ener_flux_y[0, 0] - ener_flux_y[0, 1]
        ) / (post_mass + G_SMALL)
        density1[0, 0] = post_mass / post_vol
        energy1[0, 0] = post_ener

    return advec_cell_y_kernel


def make_node_mass_kernel(dx: float, dy: float):
    volume = dx * dy

    def node_mass_kernel(density1, node_mass):
        node_mass[0, 0] = (
            0.25
            * (
                density1[0, 0]
                + density1[-1, 0]
                + density1[0, -1]
                + density1[-1, -1]
            )
            * volume
        )

    return node_mass_kernel


def mom_flux_x_kernel(mass_flux_x, vel, mom_flux, node_flux):
    """Upwind momentum flux through the left boundary of each node cell."""
    flux = 0.5 * (mass_flux_x[0, -1] + mass_flux_x[0, 0])
    donor = np.where(flux > 0.0, vel[-1, 0], vel[0, 0])
    mom_flux[0, 0] = flux * donor
    node_flux[0, 0] = flux


def mom_flux_y_kernel(mass_flux_y, vel, mom_flux, node_flux):
    flux = 0.5 * (mass_flux_y[-1, 0] + mass_flux_y[0, 0])
    donor = np.where(flux > 0.0, vel[0, -1], vel[0, 0])
    mom_flux[0, 0] = flux * donor
    node_flux[0, 0] = flux


def mom_update_x_kernel(mom_flux, node_flux, node_mass, vel):
    """Conservative remap: (u*pre_mass + flux_in - flux_out) / post_mass."""
    post = node_mass[0, 0] + G_SMALL
    pre = node_mass[0, 0] - node_flux[0, 0] + node_flux[1, 0]
    vel[0, 0] = (vel[0, 0] * pre + mom_flux[0, 0] - mom_flux[1, 0]) / post


def mom_update_y_kernel(mom_flux, node_flux, node_mass, vel):
    post = node_mass[0, 0] + G_SMALL
    pre = node_mass[0, 0] - node_flux[0, 0] + node_flux[0, 1]
    vel[0, 0] = (vel[0, 0] * pre + mom_flux[0, 0] - mom_flux[0, 1]) / post


def reset_cell_kernel(density0, energy0, density1, energy1):
    density0[0, 0] = density1[0, 0]
    energy0[0, 0] = energy1[0, 0]


def reset_node_kernel(xvel0, yvel0, xvel1, yvel1):
    xvel0[0, 0] = xvel1[0, 0]
    yvel0[0, 0] = yvel1[0, 0]


def make_field_summary_kernel(dx: float, dy: float):
    volume = dx * dy

    def field_summary_kernel(density0, energy0, pressure, xvel0, yvel0, vol, mass, ie, ke, press):
        vsq = 0.25 * (
            (xvel0[0, 0] ** 2 + yvel0[0, 0] ** 2)
            + (xvel0[1, 0] ** 2 + yvel0[1, 0] ** 2)
            + (xvel0[0, 1] ** 2 + yvel0[0, 1] ** 2)
            + (xvel0[1, 1] ** 2 + yvel0[1, 1] ** 2)
        )
        cell_mass = density0[0, 0] * volume
        vol.inc(volume + 0.0 * cell_mass)
        mass.inc(cell_mass)
        ie.inc(cell_mass * energy0[0, 0])
        ke.inc(cell_mass * 0.5 * vsq)
        press.inc(volume * pressure[0, 0])

    return field_summary_kernel
