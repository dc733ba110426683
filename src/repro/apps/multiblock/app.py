"""Two-block diffusion solver with explicit inter-block halos."""

from __future__ import annotations

import numpy as np

from repro import ops

ALPHA = 0.2  # diffusion number (stable for the 5-point explicit scheme)


def diffuse_kernel(u, unew):
    unew[0, 0] = u[0, 0] + ALPHA * (
        u[1, 0] + u[-1, 0] + u[0, 1] + u[0, -1] - 4.0 * u[0, 0]
    )


def _reflect_sides(dat: ops.Dat, *, lo_x=True, hi_x=True, lo_y=True, hi_y=True) -> None:
    """Zero-flux (mirror) boundaries on the selected physical sides."""
    h = dat.halo_depth
    a = dat.data
    sx, sy = dat.size
    for k in range(1, h + 1):
        if lo_x:
            a[h - k, :] = a[h + k - 1, :]
        if hi_x:
            a[h + sx - 1 + k, :] = a[h + sx - k, :]
        if lo_y:
            a[:, h - k] = a[:, h + k - 1]
        if hi_y:
            a[:, h + sy - 1 + k] = a[:, h + sy - k]


class MultiBlockDiffusion:
    """Diffusion on [0, 2n) x [0, m), split into a left and a right block.

    Each step: reflect the six *outer* boundaries, apply the inter-block
    halo group (each block's ghost column comes from its neighbour's edge
    column — the explicit synchronisation point), then one ``ops_par_loop``
    per block.
    """

    def __init__(self, n: int, m: int, *, initial: np.ndarray | None = None,
                 backend: str = "vec"):
        self.n, self.m = n, m
        self.backend = backend
        self.left_block = ops.Block(2, "left")
        self.right_block = ops.Block(2, "right")
        self.uL = ops.Dat(self.left_block, (n, m), halo_depth=1, name="uL")
        self.uR = ops.Dat(self.right_block, (n, m), halo_depth=1, name="uR")
        self.vL = ops.Dat(self.left_block, (n, m), halo_depth=1, name="vL")
        self.vR = ops.Dat(self.right_block, (n, m), halo_depth=1, name="vR")
        if initial is not None:
            assert initial.shape == (2 * n, m)
            self.uL.interior[...] = initial[:n]
            self.uR.interior[...] = initial[n:]

        # user-declared inter-block halos: the paper's explicit coupling
        self.interface = ops.HaloGroup(
            [
                # right block's low-x ghost column <- left block's last column
                ops.Halo(self.uL, self.uR, [(n - 1, n), (0, m)], [(-1, 0), (0, m)]),
                # left block's high-x ghost column <- right block's first column
                ops.Halo(self.uR, self.uL, [(0, 1), (0, m)], [(n, n + 1), (0, m)]),
            ],
            name="interface",
        )

    def step(self) -> None:
        # physical boundaries (the interface sides are NOT reflected)
        _reflect_sides(self.uL, hi_x=False)
        _reflect_sides(self.uR, lo_x=False)
        # explicit inter-block synchronisation point
        self.interface.apply()
        r = [(0, self.n), (0, self.m)]
        ops.par_loop(
            diffuse_kernel, self.left_block, r,
            self.uL(ops.READ, ops.S2D_5PT), self.vL(ops.WRITE),
            backend=self.backend, name="diffuse_L",
        )
        ops.par_loop(
            diffuse_kernel, self.right_block, r,
            self.uR(ops.READ, ops.S2D_5PT), self.vR(ops.WRITE),
            backend=self.backend, name="diffuse_R",
        )
        self.uL.interior[...] = self.vL.interior
        self.uR.interior[...] = self.vR.interior

    def run(self, steps: int) -> np.ndarray:
        for _ in range(steps):
            self.step()
        return self.solution()

    def solution(self) -> np.ndarray:
        return np.vstack([self.uL.interior, self.uR.interior])

    def total(self) -> float:
        """Conserved quantity (zero-flux boundaries conserve the integral)."""
        return float(self.uL.interior.sum() + self.uR.interior.sum())


class SingleBlockDiffusion:
    """The same problem on one (2n, m) block: the validation oracle."""

    def __init__(self, n: int, m: int, *, initial: np.ndarray | None = None,
                 backend: str = "vec"):
        self.n, self.m = n, m
        self.backend = backend
        self.block = ops.Block(2, "union")
        self.u = ops.Dat(self.block, (2 * n, m), halo_depth=1, name="u")
        self.v = ops.Dat(self.block, (2 * n, m), halo_depth=1, name="v")
        if initial is not None:
            self.u.interior[...] = initial

    def step(self) -> None:
        _reflect_sides(self.u)
        ops.par_loop(
            diffuse_kernel, self.block, [(0, 2 * self.n), (0, self.m)],
            self.u(ops.READ, ops.S2D_5PT), self.v(ops.WRITE),
            backend=self.backend, name="diffuse",
        )
        self.u.interior[...] = self.v.interior

    def run(self, steps: int) -> np.ndarray:
        for _ in range(steps):
            self.step()
        return self.u.interior.copy()
