"""Structured-block decomposition: subdomains, halos, distributed loops."""

import numpy as np
import pytest

from repro import ops
from repro.ops.decomp import DecomposedBlock, _split_extents
from repro.simmpi import World, run_spmd


def smooth(a, b):
    b[0, 0] = 0.25 * (a[1, 0] + a[-1, 0] + a[0, 1] + a[0, -1])


def summing(a, t):
    t.inc(a[0, 0])


def make_problem(nx=16, ny=12):
    blk = ops.Block(2)
    u = ops.Dat(blk, (nx, ny), halo_depth=2, name="u")
    v = ops.Dat(blk, (nx, ny), halo_depth=2, name="v")
    u.interior[...] = np.arange(nx * ny, dtype=float).reshape(nx, ny)
    return blk, u, v


class TestSplitExtents:
    def test_cover_whole_range(self):
        ext = _split_extents(17, 4)
        assert ext[0][0] == 0 and ext[-1][1] == 17
        assert all(ext[i][1] == ext[i + 1][0] for i in range(3))

    def test_balanced(self):
        sizes = [hi - lo for lo, hi in _split_extents(17, 4)]
        assert max(sizes) - min(sizes) <= 1


class TestDecomposition:
    def test_subdomains_tile_the_domain(self):
        blk, u, v = make_problem()
        dec = DecomposedBlock(4, blk, [u, v])
        covered = np.zeros((16, 12), dtype=int)
        for r in range(4):
            sub = dec.subdomains[r]
            covered[
                sub.offset[0] : sub.offset[0] + sub.size[0],
                sub.offset[1] : sub.offset[1] + sub.size[1],
            ] += 1
        assert (covered == 1).all()

    def test_local_dats_initialised_from_global(self):
        blk, u, v = make_problem()
        dec = DecomposedBlock(4, blk, [u, v])
        for r in range(4):
            lb = dec.local(r)
            sub = dec.subdomains[r]
            np.testing.assert_allclose(
                lb.local_dat(u).interior,
                u.interior[
                    sub.offset[0] : sub.offset[0] + sub.size[0],
                    sub.offset[1] : sub.offset[1] + sub.size[1],
                ],
            )

    def test_face_dat_surplus_to_last_rank(self):
        blk = ops.Block(2)
        cell = ops.Dat(blk, (8, 8), name="cell")
        xface = ops.Dat(blk, (9, 8), name="xface")
        dec = DecomposedBlock(4, blk, [cell, xface], global_size=(8, 8))
        sizes_x = [dec.local(r).local_dat(xface).size[0] for r in range(4)]
        assert sum(s for r, s in enumerate(sizes_x) if dec.coords(r)[1] == 0) == 9

    def test_dims_must_cover_ranks(self):
        blk, u, v = make_problem()
        with pytest.raises(Exception):
            DecomposedBlock(4, blk, [u], dims=[3, 2])


class TestDistributedLoops:
    @pytest.mark.parametrize("nranks", [2, 4])
    def test_stencil_loop_matches_serial(self, nranks):
        blk, u, v = make_problem()
        ops.par_loop(smooth, blk, [(1, 15), (1, 11)], u(ops.READ, ops.S2D_5PT),
                     v(ops.WRITE))
        ref = v.interior.copy()

        blk2, u2, v2 = make_problem()
        dec = DecomposedBlock(nranks, blk2, [u2, v2])

        def main(comm):
            lb = dec.local(comm.rank)
            lb.par_loop(comm, smooth, [(1, 15), (1, 11)],
                        u2(ops.READ, ops.S2D_5PT), v2(ops.WRITE))
            return lb.gather(comm, v2)

        gathered = run_spmd(nranks, main)[0]
        np.testing.assert_allclose(gathered, ref)

    def test_reduction_combined_across_ranks(self):
        blk, u, v = make_problem()
        dec = DecomposedBlock(4, blk, [u, v])

        def main(comm):
            lb = dec.local(comm.rank)
            t = ops.Reduction("inc")
            lb.par_loop(comm, summing, [(0, 16), (0, 12)], u(ops.READ), t)
            return t.value

        out = run_spmd(4, main)
        assert all(v == pytest.approx(u.interior.sum()) for v in out)

    def test_halo_exchange_messages_counted(self):
        blk, u, v = make_problem()
        dec = DecomposedBlock(4, blk, [u, v])
        world = World(4)

        def main(comm):
            lb = dec.local(comm.rank)
            lb.par_loop(comm, smooth, [(1, 15), (1, 11)],
                        u(ops.READ, ops.S2D_5PT), v(ops.WRITE))

        run_spmd(4, main, world=world)
        assert world.total_counters().halo_exchanges > 0

    def test_rank_outside_range_executes_nothing(self):
        blk, u, v = make_problem()
        dec = DecomposedBlock(4, blk, [u, v], dims=[4, 1])

        def main(comm):
            lb = dec.local(comm.rank)
            # range confined to the first rank's cells
            lb.par_loop(comm, smooth, [(1, 3), (1, 11)],
                        u(ops.READ, ops.S2D_5PT), v(ops.WRITE))
            return float(lb.local_dat(v).interior.sum())

        out = run_spmd(4, main)
        assert out[1] == 0.0 and out[0] != 0.0


class TestDecompositionProperty:
    from hypothesis import given, settings, strategies as st

    @given(
        nx=st.integers(5, 24),
        ny=st.integers(5, 24),
        nranks=st.integers(1, 6),
        seed=st.integers(0, 40),
    )
    @settings(max_examples=15, deadline=None)
    def test_property_stencil_loop_partition_invariant(self, nx, ny, nranks, seed):
        """Any grid size / rank count: decomposed result equals serial."""
        rng = np.random.default_rng(seed)
        init = rng.standard_normal((nx, ny))

        blk = ops.Block(2)
        u = ops.Dat(blk, (nx, ny), halo_depth=2)
        v = ops.Dat(blk, (nx, ny), halo_depth=2)
        u.interior[...] = init
        r = [(1, nx - 1), (1, ny - 1)]
        ops.par_loop(smooth, blk, r, u(ops.READ, ops.S2D_5PT), v(ops.WRITE))
        ref = v.interior.copy()

        blk2 = ops.Block(2)
        u2 = ops.Dat(blk2, (nx, ny), halo_depth=2)
        v2 = ops.Dat(blk2, (nx, ny), halo_depth=2)
        u2.interior[...] = init
        dec = DecomposedBlock(nranks, blk2, [u2, v2])

        def main(comm):
            lb = dec.local(comm.rank)
            lb.par_loop(comm, smooth, r, u2(ops.READ, ops.S2D_5PT), v2(ops.WRITE))
            return lb.gather(comm, v2)

        gathered = run_spmd(nranks, main)[0]
        np.testing.assert_allclose(gathered, ref, atol=1e-14)
