"""Lazy par_loop queueing and cross-loop tiled execution (repro.ops.lazy).

Three layers of evidence that laziness is invisible:

* a **differential battery** — every proxy app (CloverLeaf 2D/3D, Sod,
  multi-block diffusion, airfoil through the op2 hook) runs lazy-on vs
  eager-off, at 1 and 4 simulated ranks, and must agree bitwise (fused
  tiles execute the same NumPy ufuncs over sub-ranges; ``inc`` reductions
  never fuse, so no re-association is possible);
* **property tests** — randomly generated synthetic loop chains must yield
  schedules that respect every dependence edge and cover each loop's
  iteration space exactly once;
* **flush-semantics tests** — every observation point (``Dat.data``,
  ``Reduction.value``, checkpoint trigger, ``timing_report``, an op2 loop,
  an SPMD rank return) forces a flush, so no program can read stale data.

Plus regression coverage for the chain-schedule cache: hits across
timesteps (including dt-baking kernel factories), misses on dat
replacement, counters in the report footer.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import ops
from repro.apps.cloverleaf import CloverLeafApp, clover_bm_state
from repro.apps.cloverleaf.app import DistributedCloverLeafApp
from repro.apps.cloverleaf3d import CloverLeaf3DApp
from repro.apps.multiblock.app import MultiBlockDiffusion
from repro.apps.sod import SodApp
from repro.common.config import get_config, swap
from repro.common.counters import PerfCounters
from repro.common.errors import APIError
from repro.common.profiling import counters_scope
from repro.common.report import timing_report
from repro.lint.dataflow import AccessRecord, build_dependence_graph
from repro.ops import lazy as lazy_mod
from repro.ops.decomp import DecomposedBlock
from repro.ops.tileplan import DEFAULT_TILE, LoopSpec, build_tile_schedule
from repro.simmpi import run_spmd
from repro.verify import diff_backends


@pytest.fixture(autouse=True)
def _lazy_hygiene():
    """No test may leak queued loops into the next (conftest resets caches)."""
    yield
    assert lazy_mod.ACTIVE == 0, "test left loops queued"
    assert not get_config().lazy, "test left lazy mode configured"


def smooth(a, b):
    b[0, 0] = 0.25 * (a[1, 0] + a[-1, 0] + a[0, 1] + a[0, -1])


def accum(b, a):
    a[0, 0] = a[0, 0] + b[0, 0]


def _chain_setup(n=24, seed=0):
    blk = ops.Block(2)
    u = ops.Dat(blk, (n, n), halo_depth=2, name="u")
    v = ops.Dat(blk, (n, n), halo_depth=2, name="v")
    u.interior[...] = np.random.default_rng(seed).random((n, n))
    return blk, u, v


def _queue_chain(blk, u, v, n=24, steps=2):
    r = [(1, n - 1), (1, n - 1)]
    for _ in range(steps):
        ops.par_loop(smooth, blk, r, u(ops.READ, ops.S2D_5PT), v(ops.WRITE),
                     backend="vec")
        ops.par_loop(accum, blk, r, v(ops.READ), u(ops.RW), backend="vec")


# ---------------------------------------------------------------------------
# differential battery: lazy == eager on every proxy app
# ---------------------------------------------------------------------------


def _lazy_vs_eager(run_fn):
    """Run ``run_fn()`` eager and lazy; return the diff report (bitwise)."""

    def run(mode):
        with swap(lazy=(mode == "lazy")):
            out = run_fn()
            lazy_mod.flush("battery_end")
            return out

    return diff_backends(run, ["eager", "lazy"], reference="eager", trace=False)


class TestDifferentialBattery:
    def test_cloverleaf_2d(self):
        def run():
            app = CloverLeafApp(nx=12, ny=10, backend="vec")
            summary = app.run(3)
            st_ = app.st
            out = {k: np.asarray([v]) for k, v in summary.items()}
            out.update(
                density=st_.density0.interior.copy(),
                energy=st_.energy0.interior.copy(),
                xvel=st_.xvel0.interior.copy(),
                yvel=st_.yvel0.interior.copy(),
            )
            return out

        _lazy_vs_eager(run).assert_agree()

    def test_cloverleaf_3d(self):
        def run():
            app = CloverLeaf3DApp(8, 8, 6)
            summary = app.run(2)
            out = {k: np.asarray([v]) for k, v in summary.items()}
            out["density"] = app.st.density0.interior.copy()
            out["energy"] = app.st.energy0.interior.copy()
            return out

        _lazy_vs_eager(run).assert_agree()

    def test_sod_shock_tube(self):
        def run():
            app = SodApp(n=120, backend="vec")
            for _ in range(8):
                app.step()
            return {k: v.copy() for k, v in app.profiles().items()}

        _lazy_vs_eager(run).assert_agree()

    def test_multiblock_diffusion(self):
        def run():
            initial = np.add.outer(np.arange(16.0), np.sin(np.arange(8.0)))
            mb = MultiBlockDiffusion(8, 8, initial=initial)
            mb.run(4)
            return {"u": mb.solution().copy()}

        _lazy_vs_eager(run).assert_agree()

    def test_airfoil_via_op2_hook(self):
        # airfoil is an op2 (unstructured) app: its loops never queue, but a
        # lazy-configured process must run it unchanged — and its par_loops
        # must drain any pending ops queue (the mixed-API hook)
        from repro.apps.airfoil.app import AirfoilApp
        from repro.apps.airfoil.mesh import generate_mesh

        def run():
            app = AirfoilApp(generate_mesh(8, 6, jitter=0.1), backend="vec")
            app.run(2)
            m = app.mesh
            return {"q": m.q.data.copy(), "res": m.res.data.copy(),
                    "rms": np.asarray([app.rms.value])}

        _lazy_vs_eager(run).assert_agree()

    def test_battery_actually_fused(self):
        """The battery must exercise fusion, not fall back to whole loops."""
        c = PerfCounters()
        with counters_scope(c), swap(lazy=True):
            app = CloverLeafApp(nx=12, ny=10, backend="vec")
            app.run(2)
            lazy_mod.flush("check")
        assert c.lazy_loops > 0
        assert c.lazy_tiles > 0, "no fused tiles: battery is vacuous"
        assert c.lazy_bytes_saved > 0

    def test_wide_then_narrow_reader_then_write(self):
        """Runtime regression for the WAR pruning hole (review): a wide
        read of ``u``, then a centre read, then a write to ``u``.  The
        write's tiles must be skewed by the *wide* stencil even though
        the centre read is the nearer WAR source — under-skewing clobbers
        ``u`` before the logically-earlier wide read consumes it."""
        wide5 = ops.Stencil(2, [(0, 0), (2, 0), (-2, 0), (0, 2), (0, -2)],
                            "S2D_5PT_W2")

        def wide(a, b):
            b[0, 0] = a[2, 0] + a[-2, 0] + a[0, 2] + a[0, -2]

        def narrow(a, c):
            c[0, 0] = 0.5 * a[0, 0]

        def clobber(a):
            a[0, 0] = 7.0

        n = 32

        def run():
            blk = ops.Block(2)
            u = ops.Dat(blk, (n, n), halo_depth=2, name="u")
            b = ops.Dat(blk, (n, n), halo_depth=2, name="b")
            c = ops.Dat(blk, (n, n), halo_depth=2, name="c")
            u.interior[...] = np.random.default_rng(7).random((n, n))
            r = [(2, n - 2), (2, n - 2)]
            with swap(lazy_tile=(8, 8)):
                ops.par_loop(wide, blk, r, u(ops.READ, wide5), b(ops.WRITE),
                             backend="vec")
                ops.par_loop(narrow, blk, r, u(ops.READ), c(ops.WRITE),
                             backend="vec")
                ops.par_loop(clobber, blk, r, u(ops.WRITE), backend="vec")
                out = {"b": b.interior.copy(), "c": c.interior.copy(),
                       "u": u.interior.copy()}
            return out

        _lazy_vs_eager(run).assert_agree()

    @pytest.mark.parametrize("nranks", [1, 4])
    def test_cloverleaf_ranks(self, nranks):
        def run(mode):
            gstate = clover_bm_state(12, 8)
            dec = DecomposedBlock(nranks, gstate.block, gstate.all_dats,
                                  global_size=(12, 8))

            def main(comm):
                app = DistributedCloverLeafApp(comm, dec, gstate)
                s = app.run(2)
                return s, app.gather_field("density0")

            # config is process-global: swap on the caller thread covers all
            # rank threads (swapping inside rank bodies would race restores)
            with swap(lazy=(mode == "lazy")):
                s, dens = run_spmd(nranks, main)[0]
            out = {k: np.asarray([v]) for k, v in s.items()}
            out["density"] = dens
            return out

        diff_backends(
            run, ["eager", "lazy"], reference="eager", trace=False
        ).assert_agree()

    @pytest.mark.parametrize("nranks", [1, 4])
    def test_multiblock_ranks(self, nranks):
        """Per-rank independent problems: each rank queues and flushes its
        own chain on its own thread (the queue is thread-local)."""

        def run(mode):
            def main(comm):
                initial = np.add.outer(
                    np.arange(16.0) + comm.rank, np.sin(np.arange(8.0))
                )
                mb = MultiBlockDiffusion(8, 8, initial=initial)
                mb.run(3)
                return mb.solution().copy()

            with swap(lazy=(mode == "lazy")):
                sols = run_spmd(nranks, main)
            return {f"u{r}": sols[r] for r in range(nranks)}

        diff_backends(
            run, ["eager", "lazy"], reference="eager", trace=False
        ).assert_agree()


# ---------------------------------------------------------------------------
# property tests: the tile scheduler on synthetic chains
# ---------------------------------------------------------------------------


def _synthetic_chain(draw, ndims=(1, 2), tiles=st.integers(3, 8)):
    ndim = draw(st.sampled_from(ndims))
    n_loops = draw(st.integers(2, 5))
    refs = ["a", "b", "c", "d"]
    specs = []
    for _ in range(n_loops):
        ranges = tuple(
            (lo, lo + draw(st.integers(4, 18)))
            for lo in (draw(st.integers(0, 3)) for _ in range(ndim))
        )
        accs = []
        for ref in draw(st.sets(st.sampled_from(refs), min_size=1, max_size=3)):
            reads = draw(st.booleans())
            writes = draw(st.booleans()) or not reads
            offsets = ()
            if reads:
                pts = draw(
                    st.sets(
                        st.tuples(*(st.integers(-2, 2) for _ in range(ndim))),
                        min_size=1, max_size=4,
                    )
                )
                offsets = tuple(sorted(pts))
            accs.append(
                AccessRecord(ref=ref, reads=reads, writes=writes, offsets=offsets)
            )
        specs.append(LoopSpec(ranges=ranges, accesses=tuple(accs),
                              fusable=True, block_id="blk"))
    tile = draw(st.one_of(st.none(), tiles))
    return specs, (tile,) * ndim if tile else None


@st.composite
def chains(draw):
    return _synthetic_chain(draw)


@st.composite
def default_chains(draw):
    """Chains up to 3-D under the default (whole-row) tile shape."""
    return _synthetic_chain(draw, ndims=(1, 2, 3), tiles=st.nothing())


def _stencil_chain(ndim, n):
    """a -> b (+-1 stencil) -> c (+-1 stencil) -> d, the last loop
    node-ranged: ``n + 1`` points per dimension against ``n`` cells."""
    star = tuple(sorted({tuple(s * (d == k) for d in range(ndim))
                         for k in range(ndim) for s in (-1, 0, 1)}))
    centre = ((0,) * ndim,)
    cells, nodes = ((0, n),) * ndim, ((0, n + 1),) * ndim
    loops = [("a", "b", star, cells), ("b", "c", star, cells),
             ("c", "d", centre, nodes)]
    return [
        LoopSpec(ranges=r, block_id="blk", accesses=(
            AccessRecord(src, True, False, offs),
            AccessRecord(dst, False, True, centre)))
        for src, dst, offs, r in loops
    ]


def _assert_no_reachable_inversion(seq, src, dst, ext, label):
    """No ``src``-loop entry in the flat execution ``seq`` may run after a
    ``dst``-loop entry whose points it can reach through extent ``ext``."""
    for pos_dst, (l_dst, r_dst) in enumerate(seq):
        if l_dst != dst:
            continue
        for pos_src in range(pos_dst + 1, len(seq)):
            l_src, r_src = seq[pos_src]
            if l_src != src:
                continue
            overlap = all(
                min(sa[1], da[1] + e) > max(sa[0], da[0] - e)
                for sa, da, e in zip(r_src, r_dst, ext)
            )
            assert not overlap, (
                f"{label}: src slice {r_src} runs after dependent "
                f"dst slice {r_dst}"
            )


def _pairwise_conflicts(specs):
    """Every ordered conflicting loop pair, *unpruned*: (src, dst, offsets).

    RAW carries the destination's read stencil, WAR the source's, WAW
    none — the full relation a legal schedule must respect, independent
    of whatever pruning ``build_dependence_graph`` applies.
    """
    out = []
    for j, sj in enumerate(specs):
        for i, si in enumerate(specs[:j]):
            for rj in sj.accesses:
                for ri in si.accesses:
                    if ri.ref != rj.ref:
                        continue
                    if ri.writes and rj.reads:
                        out.append((i, j, rj.offsets))
                    if ri.reads and rj.writes:
                        out.append((i, j, ri.offsets))
                    if ri.writes and rj.writes:
                        out.append((i, j, ()))
    return out


class TestSchedulerProperties:
    @given(chain=st.one_of(chains(), default_chains()))
    @settings(max_examples=60, deadline=None)
    def test_exact_once_coverage(self, chain):
        """Each loop's tile entries partition its iteration space exactly."""
        specs, tile = chain
        schedule = build_tile_schedule(specs, tile_shape=tile)
        covered_loops = set()
        for group in schedule.groups:
            if not group.fused:
                covered_loops.update(group.loops)  # executed whole: trivially exact
                continue
            for local, chain_idx in enumerate(group.loops):
                spec = specs[chain_idx]
                lo = [r[0] for r in spec.ranges]
                shape = tuple(r[1] - r[0] for r in spec.ranges)
                count = np.zeros(shape, dtype=np.int32)
                for t in group.tiles:
                    for entry in t:
                        if entry.loop != local:
                            continue
                        idx = tuple(
                            slice(a - o, b - o)
                            for (a, b), o in zip(entry.ranges, lo)
                        )
                        count[idx] += 1
                assert count.min() == 1 and count.max() == 1, (
                    f"loop {chain_idx}: coverage counts {np.unique(count)}"
                )
                covered_loops.add(chain_idx)
        assert covered_loops == set(range(len(specs)))

    @given(chain=st.one_of(chains(), default_chains()))
    @settings(max_examples=60, deadline=None)
    def test_dependence_edges_respected(self, chain):
        """No tile entry of a dependent loop executes before an entry of its
        source loop whose points it can reach through the edge's offsets."""
        specs, tile = chain
        schedule = build_tile_schedule(specs, tile_shape=tile)
        for group in schedule.groups:
            if not group.fused or group.graph is None:
                continue
            # flat execution sequence: (local loop index, ranges), in order
            seq = [(e.loop, e.ranges) for t in group.tiles for e in t]
            ndim = len(specs[group.loops[0]].ranges)
            for edge in group.graph.edges:
                ext = [
                    max((abs(p[d]) for p in edge.offsets), default=0)
                    for d in range(ndim)
                ]
                _assert_no_reachable_inversion(
                    seq, edge.src, edge.dst, ext,
                    f"edge {edge.src}->{edge.dst} ({edge.kind}, ext {ext})",
                )

    @given(chain=st.one_of(chains(), default_chains()))
    @settings(max_examples=60, deadline=None)
    def test_all_pairwise_conflicts_respected(self, chain):
        """Same legality check as above, but against the *unpruned*
        pairwise conflict relation instead of the graph the schedule was
        built from — a pruning rule that drops a needed constraint (e.g.
        a far reader's wide stencil before a later write) cannot hide
        behind its own graph here."""
        specs, tile = chain
        schedule = build_tile_schedule(specs, tile_shape=tile)
        for group in schedule.groups:
            if not group.fused:
                continue
            gspecs = [specs[i] for i in group.loops]
            seq = [(e.loop, e.ranges) for t in group.tiles for e in t]
            ndim = len(gspecs[0].ranges)
            for src, dst, offsets in _pairwise_conflicts(gspecs):
                ext = [
                    max((abs(p[d]) for p in offsets), default=0)
                    for d in range(ndim)
                ]
                _assert_no_reachable_inversion(
                    seq, src, dst, ext, f"pair {src}->{dst} (ext {ext})"
                )

    @given(chain=chains())
    @settings(max_examples=30, deadline=None)
    def test_program_order_within_tiles(self, chain):
        specs, tile = chain
        schedule = build_tile_schedule(specs, tile_shape=tile)
        for group in schedule.groups:
            for t in group.tiles:
                local = [e.loop for e in t]
                assert local == sorted(local)

    def test_inc_reduction_never_fuses(self):
        specs = [
            LoopSpec(ranges=((0, 16),), accesses=(
                AccessRecord("a", True, True, ((0,),)),), fusable=True,
                block_id="b"),
            LoopSpec(ranges=((0, 16),), accesses=(
                AccessRecord("a", True, False, ((0,),)),), fusable=False,
                block_id="b"),
            LoopSpec(ranges=((0, 16),), accesses=(
                AccessRecord("a", True, True, ((0,),)),), fusable=True,
                block_id="b"),
        ]
        schedule = build_tile_schedule(specs, tile_shape=(4,))
        assert all(
            not g.fused for g in schedule.groups if 1 in g.loops
        )

    def test_cross_block_loops_split_groups(self):
        acc = (AccessRecord("a", True, True, ((0,),)),)
        specs = [
            LoopSpec(ranges=((0, 16),), accesses=acc, block_id="left"),
            LoopSpec(ranges=((0, 16),), accesses=acc, block_id="right"),
        ]
        schedule = build_tile_schedule(specs, tile_shape=(4,))
        assert not any(g.fused for g in schedule.groups)

    def test_nonpositive_tile_edge_rejected(self):
        """``lazy_tile=(0, 64)`` is an error, not a silent one-row cut."""
        acc = (AccessRecord("a", True, True, ((0, 0),)),)
        specs = [LoopSpec(ranges=((0, 16), (0, 16)), accesses=acc, block_id="b")] * 2
        for tile in ((0, 4), (4, -1)):
            with pytest.raises(APIError, match="tile edges must be positive"):
                build_tile_schedule(specs, tile_shape=tile)

    @pytest.mark.parametrize("ndim,n", [(2, 200), (2, 20), (3, 24)])
    def test_default_keeps_contiguous_rows_whole(self, ndim, n):
        """Default tiles cut the outer dimensions only: every fused entry's
        last-dimension range is its loop's full range."""
        specs = _stencil_chain(ndim, n)
        schedule = build_tile_schedule(specs)
        fused = [g for g in schedule.groups if g.fused]
        assert fused and all(g.n_tiles > 1 for g in fused)
        for g in fused:
            for tile in g.tiles:
                for e in tile:
                    assert e.ranges[-1] == specs[g.loops[e.loop]].ranges[-1]

    def test_default_empty_last_dim_runs_unfused(self):
        """An empty contiguous range must not become a zero tile edge."""
        acc = (AccessRecord("a", True, True, ((0, 0),)),)
        specs = [LoopSpec(ranges=((0, 16), (3, 3)), accesses=acc, block_id="b")] * 2
        assert not any(g.fused for g in build_tile_schedule(specs).groups)

    def test_default_1d_chain_still_cuts(self):
        """A 1-D group has no outer dimension: the default keeps cutting
        its only one, or the chain would silently run unfused."""
        specs = _stencil_chain(1, 2 * DEFAULT_TILE)
        schedule = build_tile_schedule(specs)
        assert schedule.fused_tiles > 1

    def test_whole_row_edge_leaves_no_sliver(self):
        """``lazy_tile=(e, N)`` on an N x N chain with a node-ranged
        (N + 1) loop must not split a one-point column off that loop:
        it schedules exactly like an edge far past the extent."""
        n, e = 48, 16
        specs = _stencil_chain(2, n)
        whole = build_tile_schedule(specs, tile_shape=(e, n))
        wide = build_tile_schedule(specs, tile_shape=(e, 10 * n))
        assert whole.fused_tiles == n // e
        assert [g.tiles for g in whole.groups] == [g.tiles for g in wide.groups]


def test_cloverleaf_default_tiles_are_row_bands():
    """CloverLeaf 256^2 under ``lazy_scope()``: every fused group runs as
    one column of DEFAULT_TILE-row bands (cell- and node-ranged loops
    alike), never cutting the contiguous dimension."""
    n = 256
    app = CloverLeafApp(nx=n, ny=n, backend="vec")
    c = PerfCounters()
    with counters_scope(c), lazy_mod.lazy_scope():
        app.run(1)
    bands = n // DEFAULT_TILE
    assert c.lazy_groups > 0
    assert c.lazy_tiles == bands * c.lazy_groups
    for chain in lazy_mod.chains.entries():
        assert all(g.n_tiles == bands for g in chain.schedule.groups if g.fused)


class TestDependenceGraphPruning:
    """The pruning in build_dependence_graph must never drop a constraint
    that is not carried point-wise by an explicit edge chain."""

    def test_war_fans_out_to_all_prior_readers(self):
        """Regression (review): two readers with different stencils, no
        intervening write, then a writer — both stencils must reach the
        graph, or max_extent under-computes the tile skew."""
        g = build_dependence_graph([
            [AccessRecord("a", True, False, ((-2,), (2,)))],
            [AccessRecord("a", True, False, ((0,),))],
            [AccessRecord("a", False, True, ((0,),))],
        ])
        war = {(e.src, e.dst): e.offsets for e in g.edges if e.kind == "war"}
        assert set(war) == {(0, 2), (1, 2)}
        assert war[(0, 2)] == ((-2,), (2,))
        assert g.max_extent(1) == (2,)

    def test_war_stops_after_most_recent_writer(self):
        """Readers behind the last writer stay pruned: each holds its own
        WAR edge to that writer, which chains forward centre-to-centre."""
        g = build_dependence_graph([
            [AccessRecord("a", True, False, ((-2,),))],
            [AccessRecord("a", False, True, ((0,),))],
            [AccessRecord("a", True, False, ((1,),))],
            [AccessRecord("a", False, True, ((0,),))],
        ])
        war = {(e.src, e.dst) for e in g.edges if e.kind == "war"}
        assert war == {(0, 1), (2, 3)}

    def test_read_write_loop_joins_war_fanout(self):
        """A read-write loop terminates the fan-out but contributes its
        own read's WAR edge first."""
        g = build_dependence_graph([
            [AccessRecord("a", True, False, ((2,),))],
            [AccessRecord("a", True, True, ((0,),))],
            [AccessRecord("a", False, True, ((0,),))],
        ])
        war = {(e.src, e.dst) for e in g.edges if e.kind == "war"}
        assert war == {(0, 1), (1, 2)}


# ---------------------------------------------------------------------------
# flush semantics: every observation point drains the queue
# ---------------------------------------------------------------------------


class TestFlushSemantics:
    def _queued(self):
        blk, u, v = _chain_setup()
        with swap(lazy=True):
            _queue_chain(blk, u, v)
        assert lazy_mod.queued_loops() == 4
        return blk, u, v

    def _eager_reference(self):
        blk, u, v = _chain_setup()
        _queue_chain(blk, u, v)
        return u.interior.copy(), v.interior.copy()

    def test_dat_data_read_flushes(self):
        ref_u, _ = self._eager_reference()
        _, u, v = self._queued()
        h = u.halo_depth
        got = u.data[h:-h, h:-h]  # .data access is the observation point
        assert lazy_mod.queued_loops() == 0
        np.testing.assert_array_equal(got, ref_u)

    def test_dat_interior_read_flushes(self):
        ref_u, _ = self._eager_reference()
        _, u, v = self._queued()
        np.testing.assert_array_equal(u.interior, ref_u)
        assert lazy_mod.queued_loops() == 0

    def test_unrelated_dat_read_flushes(self):
        # any data observation drains the whole thread queue, even a dat the
        # queued loops never touch: ordering stays trivially correct
        blk, u, v = self._queued()
        w = ops.Dat(blk, (4, 4), name="w")
        _ = w.data
        assert lazy_mod.queued_loops() == 0

    def test_dat_data_write_flushes(self):
        _, u, v = self._queued()
        u.data = np.zeros_like(u.data)
        assert lazy_mod.queued_loops() == 0

    def test_reduction_value_flushes(self):
        blk, u, v = _chain_setup()
        total_eager = ops.Reduction("inc")

        def summing(a, t):
            t.inc(a[0, 0])

        r = [(1, 23), (1, 23)]
        ops.par_loop(smooth, blk, r, u(ops.READ, ops.S2D_5PT), v(ops.WRITE),
                     backend="vec")
        ops.par_loop(summing, blk, r, v(ops.READ), total_eager, backend="vec")
        expect = total_eager.value

        blk2, u2, v2 = _chain_setup()
        total = ops.Reduction("inc")
        with swap(lazy=True):
            ops.par_loop(smooth, blk2, r, u2(ops.READ, ops.S2D_5PT),
                         v2(ops.WRITE), backend="vec")
            ops.par_loop(summing, blk2, r, v2(ops.READ), total, backend="vec")
            assert lazy_mod.queued_loops() == 2
            assert total.value == expect  # the read is the flush point
        assert lazy_mod.queued_loops() == 0

    def test_timing_report_flushes_and_footers(self):
        c = PerfCounters()
        with counters_scope(c), swap(lazy=True):
            blk, u, v = _chain_setup()
            _queue_chain(blk, u, v)
            assert lazy_mod.queued_loops() == 4
            text = timing_report(c)
        assert lazy_mod.queued_loops() == 0
        assert "lazy:" in text
        assert "fused groups" in text
        assert "chain cache" in text

    def test_checkpoint_trigger_flushes(self):
        from repro.checkpoint.manager import CheckpointManager

        _, u, v = self._queued()
        mgr = CheckpointManager()
        mgr.trigger()
        assert lazy_mod.queued_loops() == 0
        mgr.finalize()

    def test_op2_par_loop_flushes(self):
        from repro import op2

        _, u, v = self._queued()
        nodes = op2.Set(8, "nodes")
        x = op2.Dat(nodes, 1, np.zeros(8), name="x")
        k = op2.Kernel(lambda a: None, name="noop",
                       vec_func=lambda a: np.multiply(a, 1.0, out=a))
        op2.par_loop(k, nodes, x(op2.RW), backend="vec")
        assert lazy_mod.queued_loops() == 0

    def test_observer_install_drains_queue(self):
        """Installing an observer is an observation point: loops queued
        before the install execute *unobserved* (eager execution would
        have run them before the observer existed), so the observer sees
        exactly the eager event stream from installation onwards."""
        from repro.common.profiling import add_loop_observer, remove_loop_observer

        ref_u, _ = self._eager_reference()
        blk, u, v = self._queued()
        seen = []

        def obs(event):
            seen.append(event.name)

        add_loop_observer(obs)
        try:
            assert lazy_mod.queued_loops() == 0
            assert seen == []
            np.testing.assert_array_equal(u.interior, ref_u)
        finally:
            remove_loop_observer(obs)

    def test_cross_thread_observer_forces_whole_loop_replay(self):
        """A global observer installed from another thread cannot drain
        this thread's queue; the flush falls back to whole-loop replay so
        the observer still sees per-loop events in eager order."""
        from repro.common.profiling import add_loop_observer, remove_loop_observer

        ref_u, _ = self._eager_reference()
        blk, u, v = self._queued()
        seen = []

        def obs(event):
            seen.append(event.name)

        t = threading.Thread(target=add_loop_observer, args=(obs,))
        t.start()
        t.join()
        try:
            assert lazy_mod.queued_loops() == 4
            np.testing.assert_array_equal(u.interior, ref_u)
        finally:
            remove_loop_observer(obs)
        assert seen == ["smooth", "accum", "smooth", "accum"]

    def test_observed_loops_never_queue(self):
        from repro.common.profiling import add_loop_observer, remove_loop_observer

        blk, u, v = _chain_setup()
        seen = []

        def obs(event):
            seen.append(event.name)

        add_loop_observer(obs)
        try:
            with swap(lazy=True):
                _queue_chain(blk, u, v, steps=1)
                assert lazy_mod.queued_loops() == 0  # executed eagerly
        finally:
            remove_loop_observer(obs)
        assert seen == ["smooth", "accum"]

    def test_queue_limit_forces_flush(self, monkeypatch):
        blk, u, v = _chain_setup()
        monkeypatch.setattr(lazy_mod, "QUEUE_LIMIT", 6)
        with swap(lazy=True):
            for _ in range(5):
                _queue_chain(blk, u, v, steps=1)
            # 10 loops queued against a limit of 6: at least one forced flush
            assert lazy_mod.queued_loops() < 6
            lazy_mod.flush("end")

    def test_seq_backend_never_queues(self):
        blk, u, v = _chain_setup()
        with swap(lazy=True):
            ops.par_loop(smooth, blk, [(1, 23), (1, 23)],
                         u(ops.READ, ops.S2D_5PT), v(ops.WRITE), backend="seq")
            assert lazy_mod.queued_loops() == 0

    def test_flush_error_drops_rest_of_queue(self):
        blk, u, v = _chain_setup()

        def boom(a, b):
            raise RuntimeError("kernel exploded")

        with swap(lazy=True):
            r = [(1, 23), (1, 23)]
            ops.par_loop(boom, blk, r, u(ops.READ), v(ops.WRITE), backend="vec")
            ops.par_loop(smooth, blk, r, u(ops.READ, ops.S2D_5PT), v(ops.WRITE),
                         backend="vec")
            with pytest.raises(RuntimeError, match="kernel exploded"):
                _ = v.interior
        # the failing flush dropped the tail; nothing left queued
        assert lazy_mod.queued_loops() == 0

    def test_lazy_scope_flushes_on_exit(self):
        ref_u, _ = self._eager_reference()
        blk, u, v = _chain_setup()
        with lazy_mod.lazy_scope():
            _queue_chain(blk, u, v)
            assert lazy_mod.queued_loops() == 4
        assert lazy_mod.queued_loops() == 0
        np.testing.assert_array_equal(u.interior, ref_u)


class TestSpmdAndServices:
    def test_rank_return_flushes(self):
        """Loops queued by a rank body land before run_spmd returns."""
        holders = {}

        def main(comm):
            blk, u, v = _chain_setup(seed=comm.rank)
            _queue_chain(blk, u, v)
            holders[comm.rank] = u
            # no observation before return: the executor's rank_return
            # flush point is the only thing landing these loops

        with swap(lazy=True):
            run_spmd(4, main)
        assert lazy_mod.ACTIVE == 0
        for rank, u in holders.items():
            ref_blk, ref_u, ref_v = _chain_setup(seed=rank)
            _queue_chain(ref_blk, ref_u, ref_v)
            np.testing.assert_array_equal(u.interior, ref_u.interior)

    def test_dead_rank_abandons_queue(self):
        """A rank dying mid-chain drops its queued tail without executing
        it and without leaking the global queue count."""

        def main(comm):
            blk, u, v = _chain_setup()
            _queue_chain(blk, u, v)
            if comm.rank == 1:
                raise RuntimeError("injected rank death")

        with swap(lazy=True), pytest.raises(RuntimeError, match="rank 1 failed"):
            run_spmd(2, main)
        assert lazy_mod.ACTIVE == 0

    def test_composes_with_resilient_driver(self, tmp_path):
        """run_resilient_spmd under a lazy-configured process: checkpoint
        observers force eager behaviour, faults still recover, results
        match the eager run."""
        from repro.resilience.driver import run_resilient_spmd
        from repro.resilience.faults import FaultPlan
        from repro.resilience.jobs import AirfoilJob

        job = AirfoilJob(2, 5, nx=10, ny=6)
        with swap(lazy=True):
            res = run_resilient_spmd(
                2, job, ckpt_dir=tmp_path, frequency=8,
                plan=FaultPlan().kill(1, at_loop=12),
            )
        assert res.restarts == 1
        assert lazy_mod.ACTIVE == 0

        job2 = AirfoilJob(2, 5, nx=10, ny=6)
        ref = run_resilient_spmd(
            2, job2, ckpt_dir=tmp_path / "ref", frequency=8,
            plan=FaultPlan().kill(1, at_loop=12),
        )
        np.testing.assert_equal(res.results, ref.results)


# ---------------------------------------------------------------------------
# chain-schedule cache
# ---------------------------------------------------------------------------


class TestOnePlanPerLoop:
    def test_tiles_replay_three_plans_within_a_four_entry_lru(self):
        """Tile bounds are run-time arguments of a loop's plan, not plan
        keys: 36 tiles x 3 loops fit an LRU of 4 with nothing evicted, and
        accounting sums to the eager run's exactly."""
        from repro.common.config import Config, configure

        def damp(a, b):
            b[0, 0] = 0.5 * (a[0, 0] + b[0, 0])

        def run(lazy_on):
            ops.clear_plan_cache()
            blk, u, v = _chain_setup(n=96)
            r = [(0, 96), (0, 96)]
            flushes = []
            with swap(lazy=lazy_on, lazy_tile=(16, 16)):
                for _ in range(2):
                    c = PerfCounters()
                    with counters_scope(c):
                        ops.par_loop(smooth, blk, r, u(ops.READ, ops.S2D_5PT),
                                     v(ops.WRITE), backend="vec")
                        ops.par_loop(accum, blk, r, v(ops.READ), u(ops.RW),
                                     backend="vec")
                        ops.par_loop(damp, blk, r, u(ops.READ), v(ops.RW),
                                     backend="vec")
                        lazy_mod.flush("step")
                    flushes.append(c)
            return u.data.copy(), v.data.copy(), flushes

        ops.set_plan_cache_capacity(4)
        try:
            u_e, v_e, eager = run(False)
            u_l, v_l, lazy = run(True)
        finally:
            configure(execplan_cache_size=Config().execplan_cache_size)
        np.testing.assert_array_equal(u_l, u_e)
        np.testing.assert_array_equal(v_l, v_e)
        first, second = lazy
        assert first.lazy_tiles > 30  # really tiled: 6x6 cuts plus skew
        assert (first.plan_misses, first.plan_hits) == (3, 0)
        assert (second.plan_misses, second.plan_hits) == (0, 3)
        assert second.plan_hit_rate == 1.0
        assert first.plan_evictions == second.plan_evictions == 0
        for got, want in zip(lazy, eager):
            for name in ("smooth", "accum", "damp"):
                g, w = got.loops[name], want.loops[name]
                assert (g.iterations, g.bytes_read, g.bytes_written, g.flops) == (
                    w.iterations, w.bytes_read, w.bytes_written, w.flops), name

    def test_compiled_path_off_replays_whole_loops(self):
        """Tiles are sub-range replays of compiled plans; without the
        compiled path the queue degrades to eager order, still bitwise."""
        def run(**cfg):
            blk, u, v = _chain_setup()
            with swap(**cfg):
                _queue_chain(blk, u, v)
                lazy_mod.flush("end")
            return u.data.copy()

        c = PerfCounters()
        with counters_scope(c):
            lazy = run(lazy=True, use_execplan=False)
        np.testing.assert_array_equal(lazy, run(lazy=False))
        assert c.lazy_flushes == 1 and c.lazy_tiles == 0


class TestChainCache:
    def test_repeat_chain_hits(self):
        c = PerfCounters()
        blk, u, v = _chain_setup()
        with counters_scope(c), swap(lazy=True):
            for _ in range(3):
                _queue_chain(blk, u, v, steps=1)
                lazy_mod.flush("step")
        assert c.chain_misses == 1
        assert c.chain_hits == 2
        assert c.chain_hit_rate == pytest.approx(2 / 3)

    def test_factory_kernels_share_schedule(self):
        """Kernels re-created every step (baking dt into a closure) must hit:
        the cache keys on kernel *code*, not closure values."""

        def make_step(dt):
            def stepk(a, b):
                b[0, 0] = a[0, 0] + dt * a[1, 0]

            return stepk

        c = PerfCounters()
        blk, u, v = _chain_setup()
        r = [(1, 23), (1, 23)]
        with counters_scope(c), swap(lazy=True):
            for step in range(4):
                k = make_step(0.1 / (step + 1))  # fresh closure every step
                ops.par_loop(k, blk, r, u(ops.READ, ops.S2D_5PT), v(ops.WRITE),
                             backend="vec")
                ops.par_loop(accum, blk, r, v(ops.READ), u(ops.RW),
                             backend="vec")
                lazy_mod.flush("step")
        assert c.chain_misses == 1
        assert c.chain_hits == 3

    def test_dat_replacement_invalidates(self):
        """A new Dat draws a new token: same code, different chain key."""
        c = PerfCounters()
        blk, u, v = _chain_setup()
        with counters_scope(c), swap(lazy=True):
            _queue_chain(blk, u, v, steps=1)
            lazy_mod.flush("a")
            v2 = ops.Dat(blk, (24, 24), halo_depth=2, name="v")  # replacement
            r = [(1, 23), (1, 23)]
            ops.par_loop(smooth, blk, r, u(ops.READ, ops.S2D_5PT),
                         v2(ops.WRITE), backend="vec")
            ops.par_loop(accum, blk, r, v2(ops.READ), u(ops.RW), backend="vec")
            lazy_mod.flush("b")
        assert c.chain_misses == 2
        assert c.chain_hits == 0

    def test_range_change_invalidates(self):
        c = PerfCounters()
        blk, u, v = _chain_setup()
        with counters_scope(c), swap(lazy=True):
            _queue_chain(blk, u, v, steps=1)
            lazy_mod.flush("a")
            r = [(2, 22), (2, 22)]  # different iteration ranges
            ops.par_loop(smooth, blk, r, u(ops.READ, ops.S2D_5PT), v(ops.WRITE),
                         backend="vec")
            ops.par_loop(accum, blk, r, v(ops.READ), u(ops.RW), backend="vec")
            lazy_mod.flush("b")
        assert c.chain_misses == 2

    def test_cache_is_bounded(self):
        blk, u, v = _chain_setup()
        with swap(lazy=True, execplan_cache_size=2):
            for shift in range(4):
                r = [(1, 20 + shift), (1, 20 + shift)]
                ops.par_loop(smooth, blk, r, u(ops.READ, ops.S2D_5PT),
                             v(ops.WRITE), backend="vec")
                ops.par_loop(accum, blk, r, v(ops.READ), u(ops.RW),
                             backend="vec")
                lazy_mod.flush("step")
        stats = lazy_mod.chain_cache_stats()
        assert stats["size"] <= 2
        assert stats["evictions"] >= 2

    def test_stats_shape(self):
        stats = lazy_mod.chain_cache_stats()
        assert set(stats) == set(ops.plan_cache_stats()) == {
            "size", "hits", "misses", "invalidations", "evictions"}
