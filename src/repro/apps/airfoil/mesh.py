"""Synthetic unstructured quad mesh for Airfoil.

The original benchmark reads a 720k-cell far-field mesh around an aerofoil;
offline we generate a channel mesh with identical structure: quad cells,
interior edges carrying two cells, boundary edges carrying one cell plus a
boundary-condition flag (1 = solid wall along the bottom, representing the
aerofoil surface; 2 = far field).  Edge node orientation follows the
original convention: the flux normal ``(dy, -dx)`` of edge nodes ``(n1,
n2)`` points from ``cell1`` towards ``cell2`` (outward on boundaries), so a
uniform free stream produces an exactly zero residual — the consistency
invariant the tests check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import op2


@dataclass
class AirfoilMesh:
    """The Airfoil sets, maps and dats (paper Section II-A's mesh triple)."""

    nodes: op2.Set
    edges: op2.Set
    bedges: op2.Set
    cells: op2.Set
    edge2node: op2.Map
    edge2cell: op2.Map
    bedge2node: op2.Map
    bedge2cell: op2.Map
    cell2node: op2.Map
    x: op2.Dat  # node coordinates (dim 2)
    q: op2.Dat  # conserved flow variables on cells (dim 4)
    qold: op2.Dat
    adt: op2.Dat  # local timestep area/dt (dim 1)
    res: op2.Dat  # residual (dim 4)
    bound: op2.Dat  # boundary-condition flag on bedges (1=wall, 2=far field)
    nx: int
    ny: int

    @property
    def all_maps(self) -> list[op2.Map]:
        return [self.edge2node, self.edge2cell, self.bedge2node, self.bedge2cell, self.cell2node]

    @property
    def all_dats(self) -> list[op2.Dat]:
        return [self.x, self.q, self.qold, self.adt, self.res, self.bound]


def generate_mesh(
    nx: int,
    ny: int,
    *,
    qinf: np.ndarray | None = None,
    jitter: float = 0.0,
    seed: int = 0,
) -> AirfoilMesh:
    """Build an ``nx`` x ``ny``-cell channel mesh.

    ``jitter`` perturbs interior node coordinates by a fraction of the cell
    size (making the mesh genuinely irregular for partitioning/renumbering
    experiments) — geometric consistency, and hence the zero-residual
    invariant, is preserved because fluxes use the actual coordinates.
    """
    n_nodes = (nx + 1) * (ny + 1)
    n_cells = nx * ny
    nodes = op2.Set(n_nodes, "nodes")
    cells = op2.Set(n_cells, "cells")

    def nid(i: int, j: int) -> int:
        return i * (ny + 1) + j

    def cid(i: int, j: int) -> int:
        return i * ny + j

    # -- node coordinates (vectorised: benchmark meshes run to ~10^6 nodes) ---
    gi, gj = np.meshgrid(np.arange(nx + 1), np.arange(ny + 1), indexing="ij")
    xs = np.stack([gi.reshape(-1) / nx, gj.reshape(-1) / ny], axis=1)
    if jitter > 0:
        rng = np.random.default_rng(seed)
        interior_mask = (
            (gi > 0) & (gi < nx) & (gj > 0) & (gj < ny)
        ).reshape(-1)
        n_int = int(interior_mask.sum())
        xs[interior_mask] += rng.uniform(-jitter, jitter, (n_int, 2)) / np.asarray(
            [nx, ny], dtype=float
        )
    del gi, gj

    def nids(i, j):
        return i * (ny + 1) + j

    def cids(i, j):
        return i * ny + j

    # Each map's rows are built in temporaries that die once its Map has
    # taken its private copy, so at most one map is held twice at a time
    # (at 1.6 M cells each map is ~51 MB).

    # -- interior edges -------------------------------------------------------------
    # vertical faces between (i, j) and (i+1, j): normal +x
    vi, vj = np.meshgrid(np.arange(nx - 1), np.arange(ny), indexing="ij")
    vi, vj = vi.reshape(-1), vj.reshape(-1)
    # horizontal faces between (i, j) and (i, j+1): normal +y
    hi, hj = np.meshgrid(np.arange(nx), np.arange(ny - 1), indexing="ij")
    hi, hj = hi.reshape(-1), hj.reshape(-1)

    # -- boundary edges ----------------------------------------------------------------
    b_nodes: list[tuple[int, int]] = []
    b_cells: list[int] = []
    b_flag: list[float] = []
    for i in range(nx):  # bottom: solid wall (the "aerofoil" surface)
        b_nodes.append((nid(i + 1, 0), nid(i, 0)))
        b_cells.append(cid(i, 0))
        b_flag.append(1.0)
    for i in range(nx):  # top: far field
        b_nodes.append((nid(i, ny), nid(i + 1, ny)))
        b_cells.append(cid(i, ny - 1))
        b_flag.append(2.0)
    for j in range(ny):  # left: far field
        b_nodes.append((nid(0, j), nid(0, j + 1)))
        b_cells.append(cid(0, j))
        b_flag.append(2.0)
    for j in range(ny):  # right: far field
        b_nodes.append((nid(nx, j + 1), nid(nx, j)))
        b_cells.append(cid(nx - 1, j))
        b_flag.append(2.0)

    edges = op2.Set(vi.size + hi.size, "edges")
    bedges = op2.Set(len(b_nodes), "bedges")

    edge2node = op2.Map(edges, nodes, 2, np.vstack([
        np.stack([nids(vi + 1, vj + 1), nids(vi + 1, vj)], axis=1),
        np.stack([nids(hi, hj + 1), nids(hi + 1, hj + 1)], axis=1),
    ]), "edge2node")
    edge2cell = op2.Map(edges, cells, 2, np.vstack([
        np.stack([cids(vi, vj), cids(vi + 1, vj)], axis=1),
        np.stack([cids(hi, hj), cids(hi, hj + 1)], axis=1),
    ]), "edge2cell")
    del vi, vj, hi, hj
    bedge2node = op2.Map(bedges, nodes, 2, np.asarray(b_nodes), "bedge2node")
    bedge2cell = op2.Map(bedges, cells, 1, np.asarray(b_cells).reshape(-1, 1), "bedge2cell")

    # -- cell -> node (counter-clockwise) ------------------------------------------
    ci, cj = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    ci, cj = ci.reshape(-1), cj.reshape(-1)
    cell2node = op2.Map(cells, nodes, 4, np.stack(
        [nids(ci, cj), nids(ci + 1, cj), nids(ci + 1, cj + 1), nids(ci, cj + 1)],
        axis=1,
    ), "cell2node")
    del ci, cj

    # -- flow state: uniform free stream -------------------------------------------------
    if qinf is None:
        from repro.apps.airfoil.app import default_qinf

        qinf = default_qinf()
    q0 = np.tile(qinf, (n_cells, 1))

    return AirfoilMesh(
        nodes=nodes,
        edges=edges,
        bedges=bedges,
        cells=cells,
        edge2node=edge2node,
        edge2cell=edge2cell,
        bedge2node=bedge2node,
        bedge2cell=bedge2cell,
        cell2node=cell2node,
        x=op2.Dat(nodes, 2, xs, name="x"),
        q=op2.Dat(cells, 4, q0, name="q"),
        qold=op2.Dat(cells, 4, name="q_old"),
        adt=op2.Dat(cells, 1, name="adt"),
        res=op2.Dat(cells, 4, name="res"),
        bound=op2.Dat(bedges, 1, np.asarray(b_flag), name="bound"),
        nx=nx,
        ny=ny,
    )
