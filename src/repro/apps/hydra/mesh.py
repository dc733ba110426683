"""Two-level unstructured mesh for the Hydra proxy.

Reuses the Airfoil channel-mesh topology for the fine level and adds a
coarsened level (2x2 cell agglomeration) with a fine-to-coarse map — the
multigrid structure Hydra's solver is described with.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import op2
from repro.apps.airfoil.mesh import AirfoilMesh, generate_mesh
from repro.op2.renumber import apply_permutation

NVAR = 6  # rho, rho*u, rho*v, rho*E, k, omega
NGRAD = 2 * NVAR


@dataclass
class HydraMesh:
    """Fine Airfoil-style mesh plus a coarse multigrid level."""

    fine: AirfoilMesh
    coarse_cells: op2.Set
    fine2coarse: op2.Map
    # fine-level fields
    q: op2.Dat  # (cells, 6)
    qold: op2.Dat
    grad: op2.Dat  # (cells, 12)
    visc: op2.Dat  # (cells, 1) turbulent viscosity proxy
    adt: op2.Dat
    res: op2.Dat  # (cells, 6)
    # coarse-level fields
    qc: op2.Dat  # (coarse, 6) restricted state
    resc: op2.Dat  # (coarse, 6) restricted residual / correction

    @property
    def all_maps(self) -> list[op2.Map]:
        return self.fine.all_maps + [self.fine2coarse]

    @property
    def all_dats(self) -> list[op2.Dat]:
        return [
            self.fine.x,
            self.fine.bound,
            self.q,
            self.qold,
            self.grad,
            self.visc,
            self.adt,
            self.res,
            self.qc,
            self.resc,
        ]

    def permute_cells(self, perm: np.ndarray) -> None:
        """Renumber the fine cells, ``perm[new] = old``.

        Permutes every dat on ``fine.cells`` in place, rewrites the maps
        that target the cells (``edge2cell``, ``bedge2cell``) and rebinds
        the row-permuted maps that start from them (``fine2coarse``,
        ``cell2node``).
        """
        f = self.fine
        dats = [d for d in (*f.all_dats, *self.all_dats) if d.set is f.cells]
        apply_permutation(perm, dats, [f.edge2cell, f.bedge2cell])
        self.fine2coarse.values = self.fine2coarse.values[perm]
        f.cell2node.values = f.cell2node.values[perm]


def initial_state(n_cells: int, *, seed: int = 7) -> np.ndarray:
    """A smooth perturbed RANS-like state (positive density/energy/k/omega)."""
    rng = np.random.default_rng(seed)
    q = np.zeros((n_cells, NVAR))
    q[:, 0] = 1.0 + 0.01 * rng.standard_normal(n_cells)  # rho
    q[:, 1] = 0.4 * q[:, 0]  # rho*u
    q[:, 2] = 0.02 * rng.standard_normal(n_cells)  # rho*v
    q[:, 3] = 2.0 + 0.05 * rng.standard_normal(n_cells)  # rho*E
    q[:, 4] = 0.01 * (1.0 + 0.1 * rng.standard_normal(n_cells))  # k
    q[:, 5] = 1.0 + 0.05 * rng.standard_normal(n_cells)  # omega
    return q


def generate_hydra_mesh(nx: int, ny: int, *, jitter: float = 0.1, seed: int = 0) -> HydraMesh:
    """Build the two-level Hydra mesh (``nx``/``ny`` must be even)."""
    if nx % 2 or ny % 2:
        raise ValueError("hydra mesh needs even nx, ny for 2x2 coarsening")
    fine = generate_mesh(nx, ny, jitter=jitter, seed=seed)
    n_cells = fine.cells.size

    ncx, ncy = nx // 2, ny // 2
    coarse_cells = op2.Set(ncx * ncy, "coarse_cells")
    f2c = np.zeros((n_cells, 1), dtype=np.int64)
    for i in range(nx):
        for j in range(ny):
            f2c[i * ny + j, 0] = (i // 2) * ncy + (j // 2)
    fine2coarse = op2.Map(fine.cells, coarse_cells, 1, f2c, "fine2coarse")

    return HydraMesh(
        fine=fine,
        coarse_cells=coarse_cells,
        fine2coarse=fine2coarse,
        q=op2.Dat(fine.cells, NVAR, initial_state(n_cells, seed=seed + 7), name="q6"),
        qold=op2.Dat(fine.cells, NVAR, name="q6_old"),
        grad=op2.Dat(fine.cells, NGRAD, name="grad"),
        visc=op2.Dat(fine.cells, 1, name="visc"),
        adt=op2.Dat(fine.cells, 1, name="adt6"),
        res=op2.Dat(fine.cells, NVAR, name="res6"),
        qc=op2.Dat(coarse_cells, NVAR, name="qc"),
        resc=op2.Dat(coarse_cells, NVAR, name="resc"),
    )
