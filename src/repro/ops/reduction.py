"""Global reductions for OPS loops (the ``ops_arg_reduce`` analogue).

Kernels receive a reduction *handle* and fold values into it explicitly::

    def field_summary(vol_frac, mass, vol):
        cell = vol_frac[0, 0] * cell_volume
        vol.inc(cell)
        mass.inc(cell * density[0, 0])

The same kernel works on both backends: the sequential backend passes
scalars to ``inc``/``min``/``max``; the vectorised backend passes whole
arrays, which the handle reduces with the matching NumPy reduction.  Under
MPI the per-rank partials are combined with an allreduce by the decomposed
runtime.
"""

from __future__ import annotations

import numpy as np

from repro.common.access import Access
from repro.common.errors import APIError
from repro.ops import lazy as _lazy


class Reduction:
    """A scalar reduction target with a fixed combining operation."""

    def __init__(self, kind: str = "inc", initial: float | None = None, name: str | None = None):
        if kind not in ("inc", "min", "max"):
            raise APIError("reduction kind must be 'inc', 'min' or 'max'")
        self.kind = kind
        self.name = name if name is not None else f"red_{kind}"
        if initial is None:
            initial = {"inc": 0.0, "min": np.inf, "max": -np.inf}[kind]
        # a brand-new handle cannot be referenced by any queued loop, so
        # the initial assignment bypasses the observation hook
        self._value = float(initial)

    @property
    def value(self) -> float:
        """The reduction result — a lazy-execution observation point.

        Reading (or externally assigning) the value forces queued loops to
        land first, so ``dt = dt_min.value`` after a queued timestep loop
        can never see a stale partial.  Kernel-side folds during a flush
        re-enter through the same property but the flush guard makes that
        a no-op.
        """
        if _lazy.ACTIVE:
            _lazy.flush_point("reduction_value")
        return self._value

    @value.setter
    def value(self, v: float) -> None:
        if _lazy.ACTIVE:
            _lazy.flush_point("reduction_value_set")
        self._value = v

    # -- kernel-facing fold operations ---------------------------------------

    def inc(self, v) -> None:
        if self.kind != "inc":
            raise APIError(f"reduction {self.name} is {self.kind!r}, not 'inc'")
        self.value += float(np.sum(v))

    # min/max fold like np.minimum/np.maximum (the native tier's C select):
    # the first NaN met is kept, and a tie goes to the later operand — the
    # builtins would drop a NaN (``min(inf, nan)`` is ``inf``)

    def min(self, v) -> None:
        if self.kind != "min":
            raise APIError(f"reduction {self.name} is {self.kind!r}, not 'min'")
        self.value = float(np.minimum(self.value, np.min(v)))

    def max(self, v) -> None:
        if self.kind != "max":
            raise APIError(f"reduction {self.name} is {self.kind!r}, not 'max'")
        self.value = float(np.maximum(self.value, np.max(v)))

    # -- runtime-facing -----------------------------------------------------------

    @property
    def access(self) -> Access:
        return {"inc": Access.INC, "min": Access.MIN, "max": Access.MAX}[self.kind]

    def combine_across(self, comm) -> None:
        """Allreduce this reduction's value over a communicator (MPI runtime)."""
        op = {"inc": "sum", "min": "min", "max": "max"}[self.kind]
        self.value = float(comm.allreduce(self.value, op=op))

    def reset(self, initial: float | None = None) -> None:
        if initial is None:
            initial = {"inc": 0.0, "min": np.inf, "max": -np.inf}[self.kind]
        self.value = float(initial)

    def __repr__(self) -> str:
        return f"Reduction({self.name!r}, kind={self.kind!r}, value={self.value})"
