"""Structured-block decomposition: subdomains, halos, distributed loops."""

import numpy as np
import pytest

from repro import ops
from repro.apps.cloverleaf import clover_bm_state
from repro.apps.cloverleaf.app import DistributedCloverLeafApp
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


# -- rank-local loop handles --------------------------------------------------------


def smooth_min(a, b, t):
    b[0, 0] = 0.25 * (a[1, 0] + a[-1, 0] + a[0, 1] + a[0, -1])
    t.min(b[0, 0])


class OneShotCloverLeaf(DistributedCloverLeafApp):
    """The distributed step with every site a fresh ``LocalBlock.par_loop``."""

    def _site(self, key, bind):
        return bind()

    def _loop(self, kernel, ranges, *args, name, flops=0):
        # bound per call, so this call's reductions are already in args
        return lambda *reductions: self.lb.par_loop(
            self.comm, kernel, ranges, *args,
            backend=self.backend, name=name, flops_per_point=flops,
        )


class TestRankLoops:
    @pytest.mark.parametrize("nranks", [2, 4])
    def test_handles_match_one_shot_par_loop(self, nranks):
        def run(cls):
            gstate = clover_bm_state(16, 12)
            dec = DecomposedBlock(nranks, gstate.block, gstate.all_dats, global_size=(16, 12))

            def main(comm):
                app = cls(comm, dec, gstate)
                books = []
                for _ in range(3):
                    app.step()
                    c = comm.counters
                    books.append((c.halo_exchanges, c.messages_sent, c.bytes_sent))
                fields = [app.gather_field(f) for f in ("density0", "energy0", "xvel0", "yvel0")]
                return app.field_summary(), app.dt, fields, books

            return run_spmd(nranks, main)

        ref, got = run(OneShotCloverLeaf), run(DistributedCloverLeafApp)
        for (s_ref, dt_ref, f_ref, b_ref), (s_got, dt_got, f_got, b_got) in zip(ref, got):
            assert s_got == s_ref and dt_got == dt_ref and b_got == b_ref
            for a, b in zip(f_got, f_ref):
                np.testing.assert_array_equal(a, b)
        assert ref[0][3][-1][0] > 0  # the step did exchange

    def test_replay_never_looks_up_or_certifies(self, monkeypatch):
        from repro.lint import abstract as lint_abstract
        from repro.ops import execplan as ops_exec

        blk, u, v = make_problem()
        dec = DecomposedBlock(2, blk, [u, v])
        calls = []

        def count(module, attr):
            real = getattr(module, attr)
            monkeypatch.setattr(module, attr, lambda *a: calls.append(attr) or real(*a))

        def main(comm):
            lb = dec.local(comm.rank)
            r = [(1, 15), (1, 11)]
            fwd = lb.loop(comm, smooth_min, r, u(ops.READ, ops.S2D_5PT), v(ops.WRITE),
                          ops.Reduction("min"))
            back = lb.loop(comm, smooth, r, v(ops.READ, ops.S2D_5PT), u(ops.WRITE))
            fwd(ops.Reduction("min"))
            back()
            ops.lazy_flush()
            comm.barrier()
            if comm.rank == 0:
                count(ops_exec, "lookup")
                count(lint_abstract, "certify_callable")
            comm.barrier()
            for _ in range(3):
                t = ops.Reduction("min")
                fwd(t)
                back()
            return t.value

        out = run_spmd(2, main)
        assert calls == [] and out[0] == out[1]

    def test_empty_rank_joins_min_reduction(self):
        blk, u, v = make_problem()
        w = ops.Dat(blk, (16, 12), halo_depth=2, name="w")
        t = ops.Reduction("min")
        ops.par_loop(smooth_min, blk, [(1, 3), (1, 11)], u(ops.READ, ops.S2D_5PT),
                     w(ops.WRITE), t)
        dec = DecomposedBlock(4, blk, [u, v], dims=[4, 1])

        def main(comm):
            lb = dec.local(comm.rank)
            # range confined to the first rank's cells
            site = lb.loop(comm, smooth_min, [(1, 3), (1, 11)], u(ops.READ, ops.S2D_5PT),
                           v(ops.WRITE), ops.Reduction("min"))
            values = []
            for _ in range(2):
                red = ops.Reduction("min")
                site(red)
                values.append(red.value)
            return site.has_points, values

        out = run_spmd(4, main)
        assert [has for has, _ in out] == [True, False, False, False]
        assert all(values == [t.value, t.value] for _, values in out)

    def test_reduction_passed_twice_is_combined_once(self):
        def twice(a, t, s):
            t.inc(a[0, 0])
            s.inc(a[0, 0])

        blk, u, v = make_problem()
        dec = DecomposedBlock(4, blk, [u, v])

        def main(comm):
            t = ops.Reduction("inc")
            site = dec.local(comm.rank).loop(comm, twice, [(0, 16), (0, 12)], u(ops.READ), t, t)
            site()
            once = t.value
            site()  # folds into the bound reduction again: only this call's sum is added
            return once, t.value

        total = 2 * u.interior.sum()
        assert run_spmd(4, main) == [(pytest.approx(total), pytest.approx(2 * total))] * 4
