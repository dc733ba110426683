"""OP2 C-style API aliases.

The paper's applications are written against the C/Fortran OP2 API
(``op_decl_set``, ``op_decl_map``, ``op_decl_dat``, ``op_arg_dat``,
``op_par_loop``).  These aliases let ported code keep that shape::

    cells = op_decl_set(ncell, "cells")
    e2c   = op_decl_map(edges, cells, 2, conn, "edge2cell")
    q     = op_decl_dat(cells, 4, "double", values, "q")
    op_par_loop(kernel, "res_calc", edges,
                op_arg_dat(q, 0, e2c, 4, "double", OP_READ),
                op_arg_gbl(rms, 1, "double", OP_INC))

The ``dim``/``"double"`` arguments are accepted (and validated where
meaningful) for source compatibility.
"""

from __future__ import annotations

import numpy as np

from repro.common.access import Access, OP_INC, OP_MAX, OP_MIN, OP_READ, OP_RW, OP_WRITE
from repro.common.errors import APIError
from repro.op2.args import Arg
from repro.op2.dat import Dat, Global
from repro.op2.kernel import Kernel
from repro.op2.map import Map
from repro.op2.parloop import par_loop
from repro.op2.set import Set

#: C API's "no indirection" sentinel
OP_ID = None
#: C API's index value for identity access
OP_NONE = -2

_DTYPES = {"double": np.float64, "float": np.float32, "int": np.int64, "real(8)": np.float64}


def op_decl_set(size: int, name: str) -> Set:
    return Set(size, name)


def op_decl_map(from_set: Set, to_set: Set, dim: int, values, name: str) -> Map:
    return Map(from_set, to_set, dim, values, name)


def op_decl_dat(set_: Set, dim: int, typ: str, data, name: str) -> Dat:
    dtype = _DTYPES.get(typ)
    if dtype is None:
        raise APIError(f"unknown OP2 type string {typ!r}")
    return Dat(set_, dim, data, dtype=dtype, name=name)


def op_decl_gbl(data, dim: int, typ: str, name: str = "gbl") -> Global:
    dtype = _DTYPES.get(typ)
    if dtype is None:
        raise APIError(f"unknown OP2 type string {typ!r}")
    return Global(dim, data, dtype=dtype, name=name)


def op_arg_dat(dat: Dat, idx: int, map_: Map | None, dim: int, typ: str, acc: Access) -> Arg:
    """The C API's argument builder; ``idx``/``map`` of -1/OP_ID mean direct."""
    if dim != dat.dim:
        raise APIError(f"op_arg_dat: dim {dim} != dat {dat.name}'s dim {dat.dim}")
    if map_ is None or idx in (-1, OP_NONE):
        return Arg.from_dat(dat, acc, None, None)
    return Arg.from_dat(dat, acc, map_, idx)


def op_arg_gbl(glob: Global, dim: int, typ: str, acc: Access) -> Arg:
    if dim != glob.dim:
        raise APIError(f"op_arg_gbl: dim {dim} != global's dim {glob.dim}")
    return Arg.from_global(glob, acc)


def op_par_loop(kernel, name: str, iterset: Set, *args: Arg, backend: str = "vec") -> None:
    """C-style loop call: user function first, loop name second."""
    k = kernel if isinstance(kernel, Kernel) else Kernel(kernel, name)
    par_loop(k, iterset, *args, backend=backend)


__all__ = [
    "OP_ID",
    "OP_NONE",
    "OP_READ",
    "OP_WRITE",
    "OP_RW",
    "OP_INC",
    "OP_MIN",
    "OP_MAX",
    "op_decl_set",
    "op_decl_map",
    "op_decl_dat",
    "op_decl_gbl",
    "op_arg_dat",
    "op_arg_gbl",
    "op_par_loop",
]
