"""3-D OPS: blocks, stencils, loops and decomposition in three dimensions."""

import numpy as np
import pytest

from repro import ops
from repro.ops.decomp import DecomposedBlock
from repro.simmpi import run_spmd

S3D_7PT = ops.Stencil(
    3,
    [(0, 0, 0), (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)],
    "S3D_7PT",
)


def smooth3d(a, b):
    b[0, 0, 0] = (
        a[1, 0, 0] + a[-1, 0, 0] + a[0, 1, 0] + a[0, -1, 0] + a[0, 0, 1] + a[0, 0, -1]
    ) / 6.0


def setup(n=8):
    blk = ops.Block(3, "cube")
    u = ops.Dat(blk, (n, n, n), halo_depth=1, name="u3")
    v = ops.Dat(blk, (n, n, n), halo_depth=1, name="v3")
    u.interior[...] = np.arange(n**3, dtype=float).reshape(n, n, n)
    return blk, u, v


class TestCore:
    def test_storage_shape(self):
        blk, u, v = setup(6)
        assert u.data.shape == (8, 8, 8)

    def test_seq_vec_agree(self):
        blk, u, v = setup(6)
        r = [(1, 5)] * 3
        ops.par_loop(smooth3d, blk, r, u(ops.READ, S3D_7PT), v(ops.WRITE), backend="seq")
        ref = v.interior.copy()
        v.data[:] = 0
        ops.par_loop(smooth3d, blk, r, u(ops.READ, S3D_7PT), v(ops.WRITE), backend="vec")
        np.testing.assert_allclose(v.interior, ref)

    def test_stencil_checking_3d(self):
        blk, u, v = setup(6)

        def bad(a, b):
            b[0, 0, 0] = a[1, 1, 0]

        from repro.common.errors import StencilMismatchError

        with pytest.raises(StencilMismatchError):
            ops.par_loop(bad, blk, [(1, 3)] * 3, u(ops.READ, S3D_7PT), v(ops.WRITE),
                         check=True)

    def test_reduction_3d(self):
        blk, u, v = setup(5)
        tot = ops.Reduction("inc")

        def summing(a, t):
            t.inc(a[0, 0, 0])

        ops.par_loop(summing, blk, [(0, 5)] * 3, u(ops.READ), tot)
        assert tot.value == pytest.approx(u.interior.sum())


class TestDecomposed3D:
    @pytest.mark.parametrize("nranks", [2, 8])
    def test_matches_serial(self, nranks):
        blk, u, v = setup(8)
        r = [(1, 7)] * 3
        ops.par_loop(smooth3d, blk, r, u(ops.READ, S3D_7PT), v(ops.WRITE))
        ref = v.interior.copy()

        blk2, u2, v2 = setup(8)
        dec = DecomposedBlock(nranks, blk2, [u2, v2])

        def main(comm):
            lb = dec.local(comm.rank)
            lb.par_loop(comm, smooth3d, r, u2(ops.READ, S3D_7PT), v2(ops.WRITE))
            return lb.gather(comm, v2)

        gathered = run_spmd(nranks, main)[0]
        np.testing.assert_allclose(gathered, ref)

    def test_dims_cover_three_axes(self):
        blk, u, v = setup(8)
        dec = DecomposedBlock(8, blk, [u, v])
        assert sorted(dec.dims, reverse=True) == dec.dims
        assert int(np.prod(dec.dims)) == 8


class TestHeatEquation3D:
    def test_explicit_heat_step_converges_to_mean(self):
        """Integration: repeated smoothing relaxes toward the volume mean."""
        blk = ops.Block(3)
        n = 6
        u = ops.Dat(blk, (n, n, n), halo_depth=1)
        v = ops.Dat(blk, (n, n, n), halo_depth=1)
        rng = np.random.default_rng(0)
        u.interior[...] = rng.random((n, n, n))

        def jacobi(a, b):
            b[0, 0, 0] = a[0, 0, 0] + 0.1 * (
                a[1, 0, 0] + a[-1, 0, 0] + a[0, 1, 0] + a[0, -1, 0]
                + a[0, 0, 1] + a[0, 0, -1] - 6.0 * a[0, 0, 0]
            )

        def reflect(dat):
            h = dat.halo_depth
            a = dat.data
            for ax in range(3):
                sl_lo = [slice(None)] * 3
                sl_src = [slice(None)] * 3
                sl_lo[ax] = h - 1
                sl_src[ax] = h
                a[tuple(sl_lo)] = a[tuple(sl_src)]
                sl_hi = [slice(None)] * 3
                sl_src2 = [slice(None)] * 3
                sl_hi[ax] = h + n
                sl_src2[ax] = h + n - 1
                a[tuple(sl_hi)] = a[tuple(sl_src2)]

        before_spread = u.interior.std()
        for _ in range(40):
            reflect(u)
            ops.par_loop(jacobi, blk, [(0, n)] * 3, u(ops.READ, S3D_7PT), v(ops.WRITE))
            u.interior[...] = v.interior
        assert u.interior.std() < 0.2 * before_spread
        # diffusion with reflective walls conserves the mean
        assert u.interior.mean() == pytest.approx(u.interior.mean())
