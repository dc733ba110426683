"""OPS dats: structured data with halo padding."""

from __future__ import annotations

import numpy as np

from repro.common.access import Access, validate_argument_access
from repro.common.errors import APIError
from repro.common.tokens import next_token
from repro.ops import lazy as _lazy
from repro.ops.block import Block
from repro.ops.stencil import Stencil, centre_stencil


class Dat:
    """Data on a structured block, padded with ``halo_depth`` ghost layers.

    Storage shape is ``size + 2*halo_depth`` per dimension; interior index
    ``i`` lives at storage index ``i + halo_depth``.  Different dats on one
    block may have different sizes (cell vs. face vs. vertex data).

    Calling a dat builds a loop argument::

        density(ops.READ, S2D_5PT)
        energy(ops.WRITE)          # defaults to the centre-point stencil
    """

    def __init__(
        self,
        block: Block,
        size,
        *,
        halo_depth: int = 2,
        dtype=np.float64,
        name: str | None = None,
        initial: float | np.ndarray | None = None,
    ):
        self.block = block
        size_t = tuple(int(s) for s in (size if hasattr(size, "__len__") else (size,)))
        if len(size_t) != block.ndim:
            raise APIError(f"dat size {size_t} does not match block ndim {block.ndim}")
        if any(s < 1 for s in size_t):
            raise APIError("dat sizes must be positive")
        if halo_depth < 0:
            raise APIError("halo depth must be non-negative")
        self.size = size_t
        self.halo_depth = int(halo_depth)
        self.name = name if name is not None else f"dat_{block.name}"
        storage = tuple(s + 2 * self.halo_depth for s in size_t)
        self._storage = np.zeros(storage, dtype=dtype)
        if initial is not None:
            if np.isscalar(initial):
                self.interior[...] = initial
            else:
                arr = np.asarray(initial, dtype=dtype)
                if arr.shape != size_t:
                    raise APIError(f"initial data shape {arr.shape} != {size_t}")
                self.interior[...] = arr
        self.dtype = self._storage.dtype
        #: owned data changed since the last halo exchange (MPI runtime flag)
        self.halo_dirty = True
        #: process-unique identity for cache keys (never reused, unlike id())
        self.token = next_token()
        block.register(self)

    @property
    def data(self) -> np.ndarray:
        """The padded storage array.

        Every access is a lazy-execution observation point: loops this dat
        (or any other) is queued on must land before the caller can look at
        or mutate the values.  The guard is one module-attribute check when
        nothing is queued, and re-entrant reads during a flush (accessors,
        plan guards) bypass it.
        """
        if _lazy.ACTIVE:
            _lazy.flush_point("dat_data")
        return self._storage

    @data.setter
    def data(self, array) -> None:
        # replacing the storage invalidates queued loops' eventual views
        # the same way it invalidates compiled plans: flush first
        if _lazy.ACTIVE:
            _lazy.flush_point("dat_data_set")
        self._storage = array

    @property
    def interior(self) -> np.ndarray:
        """Writable view of the interior (non-halo) region."""
        h = self.halo_depth
        idx = tuple(slice(h, h + s) for s in self.size)
        return self.data[idx]

    def storage_index(self, *point: int) -> tuple[int, ...]:
        """Map an interior index to its storage index."""
        return tuple(p + self.halo_depth for p in point)

    def region(self, ranges, offset: tuple[int, ...] = None) -> np.ndarray:
        """View of the storage for interior ``ranges`` shifted by ``offset``.

        ``ranges`` is ``[(lo, hi), ...]`` in interior coordinates; the
        returned view covers ``[lo+off, hi+off)`` per dimension.  Negative
        interior coordinates (into the halo) are legal down to
        ``-halo_depth``.
        """
        if offset is None:
            offset = (0,) * self.block.ndim
        idx = []
        for (lo, hi), off, s in zip(ranges, offset, self.size):
            a = lo + off + self.halo_depth
            b = hi + off + self.halo_depth
            if a < 0 or b > s + 2 * self.halo_depth:
                raise APIError(
                    f"dat {self.name}: range [{lo},{hi}) offset {off} leaves storage "
                    f"(halo depth {self.halo_depth})"
                )
            idx.append(slice(a, b))
        return self.data[tuple(idx)]

    def __call__(self, access: Access, stencil: Stencil | None = None):
        from repro.ops.parloop import DatArg  # import cycle with parloop

        validate_argument_access(access, is_global=False, dat=self.name)
        if stencil is None:
            stencil = centre_stencil(self.block.ndim)
        if stencil.ndim != self.block.ndim:
            raise APIError(
                f"stencil {stencil.name} is {stencil.ndim}-D, dat {self.name} "
                f"is {self.block.ndim}-D"
            )
        if access in (Access.WRITE, Access.RW, Access.INC):
            # writes through non-centre points would race between grid points
            non_centre = [p for p in stencil.points if any(c != 0 for c in p)]
            if non_centre:
                raise APIError(
                    f"dat {self.name}: write access must use the centre-point "
                    f"stencil (got extra points {non_centre})"
                )
        return DatArg(dat=self, access=access, stencil=stencil)

    def copy_from(self, other: "Dat") -> None:
        """Copy another dat's full storage (sizes must match)."""
        if other.data.shape != self.data.shape:
            raise APIError("dat shapes differ")
        self.data[...] = other.data

    def adopt_storage(self, array: np.ndarray) -> None:
        """Rebind the padded storage to an externally owned buffer.

        Used by :mod:`repro.mp.shm` to move a dat onto a shared-memory
        segment (and back off it).  The buffer must match the current
        storage exactly; the caller is responsible for keeping it alive for
        as long as the dat references it.
        """
        arr = np.asarray(array)
        if arr.shape != self._storage.shape or arr.dtype != self._storage.dtype:
            raise APIError(
                f"dat {self.name}: adopted storage {arr.shape}/{arr.dtype} != "
                f"{self._storage.shape}/{self._storage.dtype}"
            )
        self.data = arr  # the setter flushes queued lazy loops first

    def norm(self) -> float:
        """L2 norm of the interior (validation helper)."""
        v = self.interior
        return float(np.sqrt(np.sum(v * v)))

    def __repr__(self) -> str:
        return (
            f"Dat({self.name!r}, block={self.block.name}, size={self.size}, "
            f"halo={self.halo_depth})"
        )
