"""Sequential reference backend.

Calls the elementwise user function once per element with direct views into
the dats — a human-readable simple loop nest "recommended for debugging
purposes" (paper Section II-C).  Slow, but the semantic baseline every other
backend is tested against.
"""

from __future__ import annotations

from typing import Sequence

from repro.op2.args import Arg
from repro.op2.kernel import Kernel


def execute_seq(kernel: Kernel, args: Sequence[Arg], n: int) -> None:
    """Run the loop elementwise over the first ``n`` elements."""
    for e in range(n):
        views = []
        for arg in args:
            if arg.is_global:
                views.append(arg.glob.data)
            elif arg.is_direct:
                views.append(arg.dat.data[e])
            else:
                views.append(arg.dat.data[arg.map.values[e, arg.idx]])
        kernel.func(*views)
