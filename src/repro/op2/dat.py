"""OP2 data: dats on sets, global reduction variables and constants."""

from __future__ import annotations

import numpy as np

from repro.common.access import Access
from repro.common.errors import APIError
from repro.common.tokens import next_token
from repro.op2.map import Map
from repro.op2.set import Set


class Dat:
    """Data defined on a :class:`Set`, ``dim`` components per element.

    Storage is AoS (row per element) by default; see :mod:`repro.op2.soa`
    for the Structure-of-Arrays transform used by the GPU backend.

    Calling a dat builds a loop argument::

        x(op2.READ, edge2node, 0)   # x at the first node of each edge
        q(op2.RW)                   # direct access on the iteration set
    """

    def __init__(self, set_: Set, dim: int, data=None, *, dtype=np.float64, name: str | None = None):
        if dim < 1:
            raise APIError("dat dim must be >= 1")
        self.set = set_
        self.dim = int(dim)
        self.name = name if name is not None else f"dat_{set_.name}"
        shape = (set_.total_size, self.dim)
        if data is None:
            self.data = np.zeros(shape, dtype=dtype)
        else:
            arr = np.asarray(data, dtype=dtype)
            if arr.ndim == 1:
                arr = arr.reshape(-1, self.dim) if self.dim > 1 else arr.reshape(-1, 1)
            if arr.shape != shape:
                raise APIError(
                    f"dat {self.name}: data shape {arr.shape} != {shape}"
                )
            self.data = arr.copy()
        self.dtype = self.data.dtype
        #: dirty-halo flag: set when owned data changes, cleared on exchange
        self.halo_dirty = True
        #: process-unique identity for cache keys (never reused, unlike id())
        self.token = next_token()
        #: physical storage layout: "aos" (row per element) or "soa"
        #: (component-major).  ``data`` is always the logical (n, dim) view;
        #: under SoA it is a transposed view of the component-major storage,
        #: so every backend runs unchanged on either layout (the executable
        #: counterpart of the generated-code strategies in paper Fig 7).
        self.layout = "aos"

    def convert_to_soa(self) -> None:
        """Switch physical storage to Structure-of-Arrays (component-major)."""
        if self.layout == "soa":
            return
        storage = np.ascontiguousarray(self.data.T)
        self.data = storage.T  # logical (n, dim) view over SoA storage
        self.layout = "soa"

    def convert_to_aos(self) -> None:
        """Switch physical storage back to Array-of-Structures (row-major)."""
        if self.layout == "aos":
            return
        self.data = np.ascontiguousarray(self.data)
        self.layout = "aos"

    @property
    def nbytes_per_elem(self) -> int:
        return self.dim * self.data.dtype.itemsize

    def __call__(self, access: Access, map_: Map | None = None, idx: int | None = None):
        from repro.op2.args import Arg  # cycle: args needs Dat for typing

        return Arg.from_dat(self, access, map_, idx)

    def adopt_storage(self, array: np.ndarray) -> None:
        """Rebind the element storage to an externally owned buffer.

        Used by :mod:`repro.mp.shm` to move a dat onto a shared-memory
        segment (and back off it).  SoA dats are refused: their ``data``
        is a transposed view and rebinding it would silently change the
        physical layout.
        """
        if self.layout != "aos":
            raise APIError(f"dat {self.name}: cannot adopt storage under SoA layout")
        arr = np.asarray(array)
        if arr.shape != self.data.shape or arr.dtype != self.data.dtype:
            raise APIError(
                f"dat {self.name}: adopted storage {arr.shape}/{arr.dtype} != "
                f"{self.data.shape}/{self.data.dtype}"
            )
        self.data = arr

    def duplicate(self, name: str | None = None) -> "Dat":
        """Deep copy (same set/dim), e.g. for reference comparisons."""
        return Dat(self.set, self.dim, self.data.copy(), dtype=self.dtype,
                   name=name or f"{self.name}_copy")

    def norm(self) -> float:
        """L2 norm over owned entries; convergence checks in the apps."""
        owned = self.data[: self.set.size]
        return float(np.sqrt(np.sum(owned * owned)))

    def __repr__(self) -> str:
        return f"Dat({self.name!r}, set={self.set.name}, dim={self.dim}, dtype={self.dtype})"


class Global:
    """A global (reduction) variable: ``op_arg_gbl`` in OP2.

    Under MPI the per-rank partial values are combined with an allreduce
    whose operator is taken from the access mode (INC -> sum, MIN/MAX).
    """

    def __init__(self, dim: int, data=None, *, dtype=np.float64, name: str | None = None):
        if dim < 1:
            raise APIError("global dim must be >= 1")
        self.dim = int(dim)
        self.name = name if name is not None else "gbl"
        if data is None:
            self.data = np.zeros(self.dim, dtype=dtype)
        else:
            arr = np.atleast_1d(np.asarray(data, dtype=dtype)).astype(dtype)
            if arr.shape != (self.dim,):
                raise APIError(f"global {self.name}: shape {arr.shape} != ({self.dim},)")
            self.data = arr.copy()
        self.dtype = self.data.dtype
        #: process-unique identity for cache keys (never reused, unlike id())
        self.token = next_token()

    def __call__(self, access: Access):
        from repro.op2.args import Arg

        return Arg.from_global(self, access)

    def accumulate(self, rows: np.ndarray) -> None:
        """Fold per-element ``(n, dim)`` increment rows into the value.

        The one definition of a global INC sum: the interpreted vec
        backend, the compiled plans and the native tier (which stages the
        same rows from C) all reduce through this NumPy call, so they agree
        bitwise on whatever summation order this NumPy build uses.
        """
        self.data += rows.sum(axis=0)

    @property
    def value(self) -> float:
        """Scalar convenience accessor (dim-1 globals)."""
        if self.dim != 1:
            raise APIError("value only defined for dim-1 globals")
        return float(self.data[0])

    def __repr__(self) -> str:
        return f"Global({self.name!r}, dim={self.dim}, data={self.data!r})"


class Const:
    """A read-only constant visible to kernels (op_decl_const)."""

    def __init__(self, dim: int, data, *, dtype=np.float64, name: str | None = None):
        self.dim = int(dim)
        arr = np.atleast_1d(np.asarray(data, dtype=dtype))
        if arr.shape != (self.dim,):
            raise APIError(f"const: shape {arr.shape} != ({self.dim},)")
        self._data = arr
        self._data.setflags(write=False)
        self.name = name if name is not None else "const"

    @property
    def data(self) -> np.ndarray:
        return self._data

    @property
    def value(self) -> float:
        if self.dim != 1:
            raise APIError("value only defined for dim-1 consts")
        return float(self._data[0])

    def __repr__(self) -> str:
        return f"Const({self.name!r}, data={self._data!r})"
