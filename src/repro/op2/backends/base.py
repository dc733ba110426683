"""Gather / compute / scatter machinery of the interpreted ``vec`` backend.

A vectorised loop executes in three phases, exactly like the generated
code in the paper: gather the indirect operands into contiguous
buffers, apply the vectorised kernel to whole arrays, and scatter results
back (with ``np.add.at`` providing the coloured-increment semantics for
OP_INC arguments — duplicates accumulate correctly).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.common.access import Access
from repro.op2.args import Arg
from repro.op2.kernel import Kernel

IndexLike = slice | np.ndarray


def _gather(arg: Arg, idx: IndexLike, n: int) -> np.ndarray:
    """Build the kernel input buffer for one argument over ``idx`` elements."""
    if arg.is_global:
        g = arg.glob
        if arg.access is Access.READ:
            return np.broadcast_to(g.data, (n, g.dim))
        if arg.access is Access.INC:
            return np.zeros((n, g.dim), dtype=g.dtype)
        # MIN/MAX start from the current value so the kernel can fold into it
        return np.tile(g.data, (n, 1))

    dat = arg.dat
    if arg.is_direct:
        if arg.access is Access.WRITE and not isinstance(idx, slice):
            # fancy indexing copies: hand the kernel a clean output buffer
            return np.empty((n, dat.dim), dtype=dat.dtype)
        # slice -> writable view (writes land in place); fancy -> copy,
        # scattered back afterwards
        return dat.data[idx]

    cols = arg.map.values[idx, arg.idx]
    if arg.access is Access.INC:
        return np.zeros((n, dat.dim), dtype=dat.dtype)
    return dat.data[cols]


def _scatter(arg: Arg, buf: np.ndarray, idx: IndexLike) -> None:
    """Write one argument's buffer back after the kernel ran."""
    if arg.is_global:
        g = arg.glob
        if arg.access is Access.INC:
            g.accumulate(buf)
        elif arg.access is Access.MIN:
            g.data[:] = np.minimum(g.data, buf.min(axis=0))
        elif arg.access is Access.MAX:
            g.data[:] = np.maximum(g.data, buf.max(axis=0))
        return

    if not arg.access.writes:
        return
    dat = arg.dat
    if arg.is_direct:
        if isinstance(idx, slice):
            return  # wrote through the view already
        dat.data[idx] = buf
        return

    cols = arg.map.values[idx, arg.idx]
    if arg.access is Access.INC:
        np.add.at(dat.data, cols, buf)
    else:  # WRITE / RW through a map
        dat.data[cols] = buf


def execute_subset(kernel: Kernel, args: Sequence[Arg], idx: IndexLike, n: int) -> None:
    """Gather -> vectorised kernel -> scatter over the ``idx`` elements."""
    if n == 0:
        return
    buffers = [_gather(arg, idx, n) for arg in args]
    kernel.vec_func(*buffers)
    for arg, buf in zip(args, buffers):
        _scatter(arg, buf, idx)
