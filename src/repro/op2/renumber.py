"""Mesh renumbering for locality.

The paper lists "automatic mesh reordering to improve locality" among the
OP2 optimisations behind Hydra's 30% single-node gain.  We implement
reverse Cuthill-McKee over the target-set connectivity (via scipy's
csgraph) and propagate the permutation consistently through dats and maps.

:func:`locality_score` quantifies the gain: the mean index distance between
a map's targets, a direct proxy for cache-line reuse during gathers.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import reverse_cuthill_mckee

from repro.common.errors import APIError
from repro.op2.dat import Dat
from repro.op2.map import Map


def target_adjacency_matrix(map_: Map) -> sp.csr_matrix:
    """Symmetric adjacency of the map's target set (targets co-referenced)."""
    nt = map_.to_set.total_size
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals = map_.values
    for i in range(map_.arity):
        for j in range(map_.arity):
            if i == j:
                continue
            rows.append(vals[:, i])
            cols.append(vals[:, j])
    if not rows:
        return sp.csr_matrix((nt, nt))
    r = np.concatenate(rows)
    c = np.concatenate(cols)
    data = np.ones(r.shape[0], dtype=np.int8)
    adj = sp.coo_matrix((data, (r, c)), shape=(nt, nt)).tocsr()
    adj.data[:] = 1
    return adj


def rcm_permutation(map_: Map) -> np.ndarray:
    """RCM ordering of the map's target set: ``perm[new] = old``."""
    adj = target_adjacency_matrix(map_)
    return np.asarray(reverse_cuthill_mckee(adj, symmetric_mode=True), dtype=np.int64)


def apply_permutation(
    perm: np.ndarray,
    dats: list[Dat],
    maps_to_targets: list[Map],
) -> None:
    """Renumber a set: permute its dats in place, rebind referencing maps.

    ``perm[new] = old``; dats listed must live on the renumbered set, maps
    listed must *target* it.  Map storage is immutable, so each map gets a
    new ``values`` array, which invalidates every compiled loop built on it.
    """
    n = perm.shape[0]
    inverse = np.empty(n, dtype=np.int64)
    inverse[perm] = np.arange(n, dtype=np.int64)
    for dat in dats:
        if dat.data.shape[0] != n:
            raise APIError(f"dat {dat.name} does not live on the renumbered set")
        dat.data[:] = dat.data[perm]
    for m in maps_to_targets:
        if m.to_set.total_size != n:
            raise APIError(f"map {m.name} does not target the renumbered set")
        m.values = inverse[m.values]


def renumber_mesh(map_: Map, dats: list[Dat], other_maps: list[Map] | None = None) -> np.ndarray:
    """RCM-renumber the target set of ``map_``; returns the permutation used.

    ``dats`` are the datasets on the target set; ``other_maps`` are any
    additional maps also targeting it (all must be rewritten together).
    """
    perm = rcm_permutation(map_)
    maps = [map_] + list(other_maps or [])
    apply_permutation(perm, dats, maps)
    return perm


def locality_score(map_: Map) -> float:
    """Mean absolute index distance between consecutive targets of each element.

    Lower is better: gathered cache lines are reused when a map's targets
    are close in memory.
    """
    vals = map_.values
    if map_.arity < 2 or vals.shape[0] == 0:
        return 0.0
    diffs = np.abs(np.diff(vals.astype(np.int64), axis=1))
    return float(diffs.mean())


def bandwidth(map_: Map) -> int:
    """Max index spread within one element's targets (matrix-bandwidth-like)."""
    vals = map_.values
    if vals.shape[0] == 0:
        return 0
    return int((vals.max(axis=1) - vals.min(axis=1)).max())
