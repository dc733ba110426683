"""OPS stencils: declared access patterns for dat arguments."""

from __future__ import annotations

from repro.common.errors import APIError


class Stencil:
    """A declared set of relative offsets a kernel may access.

    The runtime can verify every actual access against the declaration
    (paper Section II-C: "OPS can automatically check whether the used
    stencils match the declared ones").
    """

    def __init__(self, ndim: int, points, name: str | None = None):
        self.ndim = int(ndim)
        pts = []
        for p in points:
            t = tuple(int(c) for c in (p if isinstance(p, (tuple, list)) else (p,)))
            if len(t) != ndim:
                raise APIError(f"stencil point {t} is not {ndim}-dimensional")
            pts.append(t)
        if not pts:
            raise APIError("stencils need at least one point")
        self.points = tuple(dict.fromkeys(pts))  # dedup, keep order
        self.name = name if name is not None else f"S{ndim}D_{len(self.points)}PT"

    def __contains__(self, offset: tuple[int, ...]) -> bool:
        return tuple(offset) in self.points

    @property
    def extent(self) -> tuple[tuple[int, int], ...]:
        """Per-dimension (min, max) offset; determines required halo depth."""
        return tuple(
            (min(p[d] for p in self.points), max(p[d] for p in self.points))
            for d in range(self.ndim)
        )

    @property
    def max_depth(self) -> int:
        """Largest absolute offset in any dimension."""
        return max(max(abs(lo), abs(hi)) for lo, hi in self.extent)

    def writes_only_centre(self) -> bool:
        return self.points == ((0,) * self.ndim,)

    def __repr__(self) -> str:
        return f"Stencil({self.name!r}, {list(self.points)})"


_CENTRES: dict[int, Stencil] = {}


def centre_stencil(ndim: int) -> Stencil:
    """The one shared centre-point stencil of ``ndim`` dimensions.

    A dat argument declared without a stencil gets it; sharing it saves
    building a new one on every call.
    """
    stencil = _CENTRES.get(ndim)
    if stencil is None:
        stencil = _CENTRES[ndim] = Stencil(ndim, [(0,) * ndim])
    return stencil


#: common pre-defined stencils, named like OPS's headers
S1D_0 = Stencil(1, [(0,)], "S1D_0")
S1D_3PT = Stencil(1, [(-1,), (0,), (1,)], "S1D_3PT")
S2D_00 = Stencil(2, [(0, 0)], "S2D_00")
S2D_5PT = Stencil(2, [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)], "S2D_5PT")
