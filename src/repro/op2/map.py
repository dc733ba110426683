"""OP2 maps: fixed-arity indirections between sets."""

from __future__ import annotations

import numpy as np

from repro.common.errors import APIError
from repro.common.tokens import next_token
from repro.op2.set import Set

#: sentinel for "direct" (identity) access on the iteration set
IDENTITY = None


class Map:
    """A mapping from each element of ``from_set`` to ``arity`` elements of ``to_set``.

    e.g. ``edges -> vertices`` with arity 2, or ``cells -> vertices`` with
    arity 4 for quads.

    ``values`` is immutable storage: assigning it validates the shape and
    that every entry lies inside ``to_set``, then keeps a private
    C-contiguous int64 ``(from_set.total_size, arity)`` copy that is
    read-only (writing into it raises ``ValueError``).  Compiled loops read
    that array in place, so a checked map can never change under them.  To
    renumber, *rebind* it — ``m.values = inverse[m.values]`` — which
    invalidates every cached loop built on the old array; see
    :func:`repro.op2.renumber.apply_permutation`.
    """

    def __init__(self, from_set: Set, to_set: Set, arity: int, values, name: str | None = None):
        if arity < 1:
            raise APIError("map arity must be >= 1")
        self.from_set = from_set
        self.to_set = to_set
        self.arity = int(arity)
        self.name = name if name is not None else f"map_{from_set.name}_{to_set.name}"
        self.values = values
        #: process-unique identity for cache keys (never reused, unlike id())
        self.token = next_token()

    @property
    def values(self) -> np.ndarray:
        return self._values

    @values.setter
    def values(self, values) -> None:
        vals = np.array(values, dtype=np.int64, order="C")  # always a private copy
        if vals.ndim == 1:
            vals = vals.reshape(-1, self.arity)
        if vals.shape != (self.from_set.total_size, self.arity):
            raise APIError(
                f"map {self.name}: values shape {vals.shape} != "
                f"({self.from_set.total_size}, {self.arity})"
            )
        if vals.size and (vals.min() < 0 or vals.max() >= self.to_set.total_size):
            raise APIError(
                f"map {self.name}: entries must lie in [0, {self.to_set.total_size})"
            )
        vals.flags.writeable = False
        self._values = vals

    def __getitem__(self, idx) -> np.ndarray:
        return self.values[idx]

    def column(self, idx: int) -> np.ndarray:
        """The idx-th target of every source element (shape: from_set total)."""
        return self.values[:, idx]

    def adjacency_pairs(self) -> np.ndarray:
        """All (source, target) pairs, shape (total*arity, 2); analysis helper."""
        n = self.values.shape[0]
        src = np.repeat(np.arange(n, dtype=np.int64), self.arity)
        return np.stack([src, self.values.reshape(-1)], axis=1)

    def __repr__(self) -> str:
        return (
            f"Map({self.name!r}, {self.from_set.name}->{self.to_set.name}, "
            f"arity={self.arity})"
        )
