"""Access descriptors shared by OP2 and OPS.

The access mode of every argument is the heart of the access-execute
abstraction: the library uses it to derive halo exchanges, race-avoidance
colouring, reduction handling and checkpoint save/drop decisions.
"""

from __future__ import annotations

import enum

import numpy as np

from repro.common.errors import AccessDeclarationError


class Access(enum.Enum):
    """How a parallel-loop argument accesses its dataset.

    Mirrors OP2's ``OP_READ`` / ``OP_WRITE`` / ``OP_RW`` / ``OP_INC`` and the
    global-reduction modes ``OP_MIN`` / ``OP_MAX``.
    """

    READ = "read"
    WRITE = "write"
    RW = "rw"
    INC = "inc"
    MIN = "min"
    MAX = "max"

    @property
    def reads(self) -> bool:
        """True if the old value of the data is observed by the kernel."""
        return self in (Access.READ, Access.RW, Access.INC, Access.MIN, Access.MAX)

    @property
    def writes(self) -> bool:
        """True if the kernel may modify the data."""
        return self is not Access.READ

    @property
    def is_reduction(self) -> bool:
        """True for modes that combine contributions (INC/MIN/MAX)."""
        return self in (Access.INC, Access.MIN, Access.MAX)

    @property
    def short(self) -> str:
        """One/two-letter code used in Figure-8-style tables (R/W/I/RW/MIN/MAX)."""
        return {
            Access.READ: "R",
            Access.WRITE: "W",
            Access.RW: "RW",
            Access.INC: "I",
            Access.MIN: "MIN",
            Access.MAX: "MAX",
        }[self]


def validate_argument_access(
    access: Access,
    *,
    is_global: bool,
    dat: str | None = None,
    loop: str | None = None,
    arg_index: int | None = None,
) -> None:
    """Check an access mode is legal for the argument it is declared on.

    MIN/MAX are reduction modes: their results are combined across
    threads and ranks, which only makes sense for Global/Reduction
    handles — per-element dats have no combine step.  Called at
    declaration time by the op2/ops descriptor builders and re-checked
    when a loop validates its arguments (for descriptors built by hand),
    so the error can name the loop and argument position.
    """
    if access in (Access.MIN, Access.MAX) and not is_global:
        where = f" of loop {loop!r}" if loop else ""
        pos = f" (argument {arg_index})" if arg_index is not None else ""
        raise AccessDeclarationError(
            f"{access.name} access declared for {dat or 'a dat'!r}{pos}{where}: "
            "MIN/MAX are global-reduction modes and are only valid on "
            "Global/Reduction arguments",
            dat=dat, access=access.name, loop=loop, arg_index=arg_index,
        )


def fold_extreme(ufunc, running, values):
    """``ufunc`` (``np.minimum``/``np.maximum``) folded over the rows of
    ``values`` in order, from ``running``: a MIN/MAX reduction's result.

    The bits are the serial fold's, which the native tier's C select also
    gives (the first NaN met is kept, a tie goes to the later operand).
    ``ufunc.reduce`` orders its SIMD lanes its own way, which only shows
    when the result is ±0 or a NaN — every other value has one bit pattern
    — so only then are the rows refolded in order with ``ufunc.accumulate``.
    """
    part = ufunc.reduce(values, axis=0)
    if np.any((part == 0) | (part != part)):
        first = np.reshape(running, (1, *np.shape(part)))
        return ufunc.accumulate(np.concatenate((first, values)), axis=0)[-1]
    return ufunc(running, part)


# OP2/OPS-style module-level aliases, so application code reads like the paper.
OP_READ = Access.READ
OP_WRITE = Access.WRITE
OP_RW = Access.RW
OP_INC = Access.INC
OP_MIN = Access.MIN
OP_MAX = Access.MAX
