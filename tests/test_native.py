"""Native compiled-kernel backend: admission, bitwise parity, degradation.

The native tier (:mod:`repro.native`) compiles certified kernels to C and
slots them under the execplan cache.  These tests gate it the only way
that matters for an active library: **bitwise** against the vec executor
on every proxy app (rank 1 and rank 4), with every degradation path — no
compiler, corrupt cached object, untranslatable kernel, ``REPRO_NATIVE=0``
— falling back to identical results and exactly one fallback record.
"""

from __future__ import annotations

import contextlib
import io
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import ops, telemetry
from repro.common.config import swap
from repro.common.counters import PerfCounters
from repro.common.plancache import clear_plan_caches
from repro.common.profiling import counters_scope
from repro.common.report import timing_report
from repro.native import cache as ncache
from repro.native import cgen as ncgen
from repro.native import plan as nplan
from repro.simmpi import run_spmd
from repro.verify import diff_backends

#: tests that assert compiled kernels actually ran need a toolchain; on a
#: compiler-free box (the CI no-compiler leg) everything else still runs
#: and proves the graceful-degradation story
requires_cc = pytest.mark.skipif(
    ncache.find_compiler() is None, reason="no C compiler available"
)


@pytest.fixture(autouse=True)
def _native_cache_isolation(tmp_path):
    """Every test compiles into its own disk cache and a fresh memory cache."""
    ncache.clear_memory_cache()
    ncache._reset_compiler_cache()
    with swap(native_cache_dir=str(tmp_path / "natcache")):
        yield
    ncache.clear_memory_cache()
    ncache._reset_compiler_cache()


def _native_vs_vec(run_fn, *, trace=True):
    """Diff one app run with the native tier on vs off — bitwise, no tolerance.

    Admission happens at plan build, so each mode starts from empty plan
    caches (exactly what a fresh process sees).
    """

    def run(mode):
        clear_plan_caches()
        with swap(native=(mode == "native")):
            return run_fn()

    return diff_backends(run, ["vec", "native"], reference="vec", trace=trace)


# ---------------------------------------------------------------------------
# differential battery: native == vec on every proxy app, ranks 1 and 4
# ---------------------------------------------------------------------------


class TestDiffBatteryRank1:
    def test_airfoil(self):
        from repro.apps.airfoil.app import AirfoilApp
        from repro.apps.airfoil.mesh import generate_mesh

        def run():
            app = AirfoilApp(generate_mesh(8, 6, jitter=0.1), backend="vec")
            app.run(2)
            m = app.mesh
            return {"q": m.q.data, "qold": m.qold.data, "res": m.res.data,
                    "rms": np.asarray([app.rms.value])}

        _native_vs_vec(run).assert_agree()

    def test_cloverleaf(self):
        from repro.apps.cloverleaf import CloverLeafApp

        def run():
            app = CloverLeafApp(nx=12, ny=10, backend="vec")
            summary = app.run(3)
            st = app.st
            out = {k: np.asarray([v]) for k, v in summary.items()}
            out.update(density=st.density0.interior, energy=st.energy0.interior,
                       xvel=st.xvel0.interior, yvel=st.yvel0.interior)
            return out

        _native_vs_vec(run).assert_agree()

    def test_sod(self):
        from repro.apps.sod.app import SodApp

        def run():
            app = SodApp(n=120, backend="vec")
            for _ in range(20):
                app.step()
            return app.profiles()

        _native_vs_vec(run).assert_agree()

    def test_multiblock(self):
        from repro.apps.multiblock.app import MultiBlockDiffusion

        def run():
            initial = np.add.outer(np.arange(16.0), np.sin(np.arange(8.0)))
            mb = MultiBlockDiffusion(8, 8, initial=initial, backend="vec")
            mb.run(4)
            return {"u": mb.solution()}

        _native_vs_vec(run).assert_agree()

    @requires_cc
    def test_native_loops_actually_ran(self):
        """The battery is vacuous if admission quietly declines everything."""
        from repro.apps.cloverleaf import CloverLeafApp

        counters = PerfCounters()
        with counters_scope(counters), swap(native=True):
            CloverLeafApp(nx=10, ny=8, backend="vec").run(2)
        assert counters.native_calls > 0
        assert counters.native_compiles > 0


class TestDiffBatteryRank4:
    """Rank-4 runs: per-rank plans compile per-rank native loops (each rank
    thread builds its own signatures).  Loop traces interleave across rank
    threads, so only final states are compared — bitwise."""

    def test_airfoil_rank4(self):
        from repro.apps.airfoil.app import AirfoilApp
        from repro.apps.airfoil.mesh import generate_mesh

        def run():
            mesh = generate_mesh(10, 8, jitter=0.1)
            app = AirfoilApp(mesh)
            pm = app.build_partitioned(4, "block")

            def main(comm):
                rms = app.run_distributed(comm, pm, 2)
                return rms, pm.local(comm.rank).gather_dat(comm, mesh.q)

            rms, q = run_spmd(4, main)[0]
            return {"q": q, "rms": np.asarray([rms])}

        _native_vs_vec(run, trace=False).assert_agree()

    def test_cloverleaf_rank4(self):
        from repro.apps.cloverleaf import clover_bm_state
        from repro.apps.cloverleaf.app import DistributedCloverLeafApp
        from repro.ops.decomp import DecomposedBlock

        def run():
            gstate = clover_bm_state(12, 8)
            dec = DecomposedBlock(4, gstate.block, gstate.all_dats,
                                  global_size=(12, 8))

            def main(comm):
                app = DistributedCloverLeafApp(comm, dec, gstate)
                s = app.run(2)
                return s, app.gather_field("density0")

            s, dens = run_spmd(4, main)[0]
            return {"density": dens, **{k: np.asarray([v]) for k, v in s.items()}}

        _native_vs_vec(run, trace=False).assert_agree()

    @requires_cc
    @pytest.mark.parametrize("nranks", [1, 4])
    def test_airfoil_distributed_update_is_native(self, nranks):
        """`update` stages its global INC per rank before the allreduce:
        every rank's plan runs compiled and rms stays the vec tier's bits."""
        from repro.apps.airfoil.app import AirfoilApp
        from repro.apps.airfoil.mesh import generate_mesh
        from repro.op2 import execplan

        def run():
            mesh = generate_mesh(10, 8, jitter=0.1)
            app = AirfoilApp(mesh)
            pm = app.build_partitioned(nranks, "block")
            rms = run_spmd(nranks, lambda comm: app.run_distributed(comm, pm, 3))
            return {"rms": np.asarray(rms), "q": mesh.q.data}

        with swap(execplan_cache_size=64):  # every rank's plans stay cached
            _native_vs_vec(run, trace=False).assert_agree()
        updates = [p for p in execplan.plans.entries() if p.kernel.name == "update"]
        assert len(updates) == nranks and all(p.native is not None for p in updates)

    @pytest.mark.parametrize("app", ["sod", "multiblock"])
    def test_decomposed_stencil_rank4(self, app):
        """sod/multiblock have no distributed driver; their rank-4 leg runs
        an app-shaped stencil+reduction chain through DecomposedBlock."""
        if app == "sod":
            shape, ranges = (64,), [(1, 63)]

            def kern(u, v, t):
                v[0] = 0.25 * (u[-1] + u[1]) + 0.5 * u[0]
                t.min(v[0])

            sten = ops.Stencil(1, [(0,), (-1,), (1,)], "S1D_3PT_T")
        else:
            shape, ranges = (16, 12), [(1, 15), (1, 11)]

            def kern(u, v, t):
                v[0, 0] = 0.25 * (u[1, 0] + u[-1, 0] + u[0, 1] + u[0, -1])
                t.min(v[0, 0])

            sten = ops.S2D_5PT

        def run():
            from repro.ops.decomp import DecomposedBlock

            blk = ops.Block(len(shape))
            u = ops.Dat(blk, shape, halo_depth=2, name="u")
            v = ops.Dat(blk, shape, halo_depth=2, name="v")
            u.interior[...] = np.random.default_rng(7).random(shape)
            dec = DecomposedBlock(4, blk, [u, v])

            def main(comm):
                lb = dec.local(comm.rank)
                t = ops.Reduction("min")
                for _ in range(3):
                    lb.par_loop(comm, kern, ranges, u(ops.READ, sten),
                                v(ops.WRITE), t)
                    lb.par_loop(comm, kern, ranges, v(ops.READ, sten),
                                u(ops.WRITE), t)
                return t.value, lb.gather(comm, u)

            t, gathered = run_spmd(4, main)[0]
            return {"u": gathered, "t": np.asarray([t])}

        _native_vs_vec(run, trace=False).assert_agree()


class TestLazyThroughNative:
    @requires_cc
    def test_lazy_tiles_execute_compiled(self):
        """Queued loops drain through one range-parametric plan per loop —
        the plan an eager call of the site replays, its native object
        retargeted per tile — and the result stays bitwise."""
        from repro.ops import lazy as lazy_mod

        def smooth(a, b):
            b[0, 0] = 0.25 * (a[1, 0] + a[-1, 0] + a[0, 1] + a[0, -1])

        def accum(b, a):
            a[0, 0] = a[0, 0] + b[0, 0]

        def run(lazy_on: bool):
            clear_plan_caches()
            blk = ops.Block(2)
            u = ops.Dat(blk, (24, 24), halo_depth=2, name="u")
            v = ops.Dat(blk, (24, 24), halo_depth=2, name="v")
            u.interior[...] = np.random.default_rng(3).random((24, 24))
            r = [(1, 23), (1, 23)]
            counters = PerfCounters()
            with counters_scope(counters), swap(native=True, lazy=lazy_on):
                for _ in range(2):
                    ops.par_loop(smooth, blk, r, u(ops.READ, ops.S2D_5PT),
                                 v(ops.WRITE), backend="vec")
                    ops.par_loop(accum, blk, r, v(ops.READ), u(ops.RW),
                                 backend="vec")
                lazy_mod.flush("test_end")
            return u.interior.copy(), counters

        u_eager, c_eager = run(False)
        u_lazy, c_lazy = run(True)
        np.testing.assert_array_equal(u_eager, u_lazy)
        # the lazy drain itself executed through compiled kernels: several
        # tiles per loop, but only the two sites' plans were ever built
        assert c_lazy.lazy_flushes == 1 and c_lazy.lazy_tiles > 1
        assert c_lazy.native_calls > c_eager.native_calls
        assert c_lazy.plan_misses <= 2
        assert c_lazy.plan_evictions == 0


def _smooth(a, b):
    b[0, 0] = 0.25 * (a[1, 0] + a[-1, 0] + a[0, 1] + a[0, -1])


def _smooth_exp(a, b):
    # exp has no bitwise C spelling: the native tier declines, vec runs
    b[0, 0] = np.exp(0.25 * (a[1, 0] + a[-1, 0] + a[0, 1] + a[0, -1]))


def _scale_minmax(a, b, lo, hi):
    b[0, 0] = b[0, 0] * 0.5 + a[0, 1]
    lo.min(a[0, 0])
    hi.max(b[0, 0])


class TestRangeParametricPlan:
    """One plan, built for the full range, replayed over sub-ranges."""

    RANGES = [(1, 21), (0, 17)]

    @staticmethod
    def _site(kernel):
        blk = ops.Block(2)
        a = ops.Dat(blk, (22, 17), halo_depth=2, name="a")
        b = ops.Dat(blk, (22, 17), halo_depth=2, name="b")
        rng = np.random.default_rng(11)
        a.data[...] = rng.random(a.data.shape)
        b0 = rng.random(b.data.shape)
        reds = kernel is _scale_minmax

        def args():
            dats = (a(ops.READ, ops.S2D_5PT), b(ops.RW if reds else ops.WRITE))
            return dats + ((ops.Reduction("min"), ops.Reduction("max")) if reds else ())

        def observe(call_args):
            return [b.data.copy(), *(r.value for r in call_args[2:])]

        def reset():
            b.data[...] = b0  # in place: the plan guards on storage identity

        return blk, args, observe, reset

    @pytest.mark.parametrize("kernel,native", [
        pytest.param(_smooth, True, marks=requires_cc),
        (_smooth, False),
        (_smooth_exp, True),
        pytest.param(_scale_minmax, True, marks=requires_cc),
        (_scale_minmax, False),
    ])
    def test_exact_partition_is_bitwise_whole(self, kernel, native):
        from repro.ops import execplan

        full = self.RANGES
        blk, args, observe, reset = self._site(kernel)
        with swap(native=native):
            first = args()
            plan = execplan.lookup(kernel, blk, full, first, kernel.__name__, 0)
        assert (plan.native is not None) == (native and kernel is not _smooth_exp)
        reset()
        plan.execute(first)
        expected = observe(first)

        def cuts(lo, hi):
            return st.sets(st.integers(lo + 1, hi - 1), max_size=4).map(
                lambda inner: [lo, *sorted(inner), hi]
            )

        @settings(max_examples=25, deadline=None)
        @given(xs=cuts(*full[0]), ys=cuts(*full[1]), order=st.randoms())
        def prop(xs, ys, order):
            tiles = [
                ((x0, x1), (y0, y1))
                for x0, x1 in zip(xs, xs[1:]) for y0, y1 in zip(ys, ys[1:])
            ]
            order.shuffle(tiles)  # no cross-point dependence inside one loop
            reset()
            tiled = args()
            for tile in tiles:
                plan.execute(tiled, tile)
            for got, want in zip(observe(tiled), expected):
                np.testing.assert_array_equal(got, want)
            # whole-range replay right after a sub-range: must rebind
            reset()
            again = args()
            plan.execute(again)
            for got, want in zip(observe(again), expected):
                np.testing.assert_array_equal(got, want)

        prop()


# ---------------------------------------------------------------------------
# staged sums: C fills the stage, NumPy's own reducer folds it
# ---------------------------------------------------------------------------


def _ginc_direct(x, s1, s2, s3, lo, hi):
    s1[0] += x[0] * x[1]
    s1[0] += x[1]
    for c in range(2):
        s2[c] += x[c] * x[c]
    s3[0] += x[0]
    s3[2] += x[0] / 3.0
    s3[2] += x[1] * 0.1
    lo[0] = min(lo[0], x[0])
    hi[0] = max(hi[0], x[1])


def _ginc_indirect(xa, xb, acc, s1, s2, s3, lo):
    d = xa[0] - xb[1]
    acc[0] += d
    s1[0] += d * d
    s1[0] += xb[0]
    for c in range(2):
        s2[c] += xa[c] * d
    s3[1] += d
    s3[1] += d * 0.25
    lo[0] = min(lo[0], d)


GINC_SIZES = [*range(1, 10), 127, 128, 129, 1000, 4097]


def _run_ginc(indirect: bool, n: int, seed: int, native: bool):
    """One loop with dim-1/2/3 global INCs beside MIN/MAX globals."""
    from repro import op2

    rng = np.random.default_rng(seed)
    # magnitudes spread over 16 decades: any reordering of the sum shows
    x0 = rng.standard_normal((n, 2)) * 10.0 ** rng.integers(-8, 8, (n, 2))
    init = rng.standard_normal(8)
    elems = op2.Set(n, "elems")
    gl = [op2.Global(d, init[:d] * (d + 1), name=f"s{d}") for d in (1, 2, 3)]
    lo = op2.Global(1, [init[6]], name="lo")
    hi = op2.Global(1, [init[7]], name="hi")
    out = {}
    clear_plan_caches()
    counters = PerfCounters()
    with counters_scope(counters), swap(native=native):
        if indirect:
            nodes = op2.Set(max(2, n // 3), "nodes")
            x = op2.Dat(nodes, 2, np.resize(x0, (nodes.size, 2)), name="x")
            acc = op2.Dat(nodes, 1, name="acc")
            e2n = op2.Map(elems, nodes, 2, rng.integers(0, nodes.size, (n, 2)), "e2n")
            k = op2.Kernel(_ginc_indirect, "ginc_indirect")
            for _ in range(2):  # the second call starts from non-trivial sums
                op2.par_loop(
                    k, elems, x(op2.READ, e2n, 0), x(op2.READ, e2n, 1),
                    acc(op2.INC, e2n, 0), *(g(op2.INC) for g in gl), lo(op2.MIN),
                    backend="vec",
                )
            out["acc"] = acc.data.copy()
        else:
            x = op2.Dat(elems, 2, x0, name="x")
            k = op2.Kernel(_ginc_direct, "ginc_direct")
            for _ in range(2):
                op2.par_loop(
                    k, elems, x(op2.READ), *(g(op2.INC) for g in gl),
                    lo(op2.MIN), hi(op2.MAX), backend="vec",
                )
    for g in (*gl, lo, hi):
        out[g.name] = g.data.copy()
    return out, counters


class TestStagedGlobalInc:
    @requires_cc
    @pytest.mark.parametrize("indirect", [False, True], ids=["direct", "indirect"])
    def test_native_equals_vec_bitwise(self, indirect):
        @settings(max_examples=20, deadline=None)
        @given(n=st.sampled_from(GINC_SIZES), seed=st.integers(0, 2**16))
        def prop(n, seed):
            got, counters = _run_ginc(indirect, n, seed, native=True)
            want, _ = _run_ginc(indirect, n, seed, native=False)
            assert counters.native_calls == 2 and not counters.native_declines
            for name, arr in want.items():
                np.testing.assert_array_equal(got[name], arr, err_msg=name)

        prop()

    def test_stage_is_not_scattered(self):
        """A ginc slot is zeroed and filled like an INC buffer, but phase B
        leaves it alone — the plan layer sums it."""

        def k(x, s):
            s[0] += x[0]
            s[0] += x[0] * x[0]

        code = ncgen.generate_op2(k, [("direct", 1, "READ"), ("ginc", 1)], "gi")
        assert code.scratch_spec == ((1, 1),)
        assert code.ptr_spec == (("dat", 0), ("scratch", 1))
        assert "S1[e * 1 + 0] = 0.0;" in code.source
        assert code.source.count("S1[e * 1 + 0] +=") == 2
        assert "w1" not in code.source and not code.red_spec

    @requires_cc
    def test_rebound_global_readmits_native_tier(self):
        """Rebinding a global's storage invalidates the site once; the
        rebuilt site is admitted again and keeps running natively."""
        from repro import op2

        def run(native):
            clear_plan_caches()
            elems = op2.Set(40, "elems")
            x = op2.Dat(elems, 2, np.random.default_rng(5).random((40, 2)), name="x")
            gl = [op2.Global(d, name=f"s{d}") for d in (1, 2, 3)]
            lo, hi = op2.Global(1, [9.0], name="lo"), op2.Global(1, [-9.0], name="hi")
            k = op2.Kernel(_ginc_direct, "ginc_direct")
            counters = PerfCounters()
            with counters_scope(counters), swap(native=native):
                for rebind in (False, True, False):
                    if rebind:
                        gl[1].data = gl[1].data.copy()
                    op2.par_loop(
                        k, elems, x(op2.READ), *(g(op2.INC) for g in gl),
                        lo(op2.MIN), hi(op2.MAX), backend="vec",
                    )
            return [g.data.copy() for g in (*gl, lo, hi)], counters

        want, _ = run(False)
        got, counters = run(True)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)
        assert counters.native_calls == 3
        assert counters.native_declines == {}
        assert counters.plan_invalidations == 1

    def test_global_written_twice_declines(self):
        from repro import op2

        def k(x, s, t):
            s[0] += x[0]
            t[0] += x[0]

        elems = op2.Set(8, "elems")
        x = op2.Dat(elems, 1, np.arange(8.0), name="x")
        g = op2.Global(1, name="g")
        counters = PerfCounters()
        with counters_scope(counters), swap(native=True):
            op2.par_loop(op2.Kernel(k, "twice"), elems, x(op2.READ),
                         g(op2.INC), g(op2.INC), backend="vec")
        assert g.value == 56.0 and counters.native_calls == 0
        assert counters.native_declines == {
            ("op2", "twice"): "global written through several arguments"}


# ---------------------------------------------------------------------------
# indirect writes: maps read in place, the first INC on a dat in the sweep
# ---------------------------------------------------------------------------


def _inc_read_target(x, a, r):
    r[0] += x[0] * a[1]
    r[1] += x[1] - a[0]


def _inc_twice(x, y, r, t):
    r[0] += x[0]
    r[1] -= x[1] * y[0]
    t[0] += y[1] - x[0]
    t[1] += x[1]


def _inc_same_component(x, y, r):
    r[0] += x[0]
    r[0] += y[1] * 3.0
    r[1] -= y[0]


def _write_and_rw(x, y, w, v):
    w[0] = x[0] * y[1]
    v[1] = v[0] * 0.5 + x[1]


#: (kernel, [(dat, access, map index), ...]) with dats "x", "y" (read, on
#: nodes) and "r", "t" (written, on nodes); ``staged`` is the expected flag
#: of every indirect write, in argument order
STAGING_CASES = {
    "target_read_by_another_arg": (
        _inc_read_target, [("x", "READ", 0), ("r", "READ", 1), ("r", "INC", 0)], [True]),
    "two_incs_on_one_dat": (
        _inc_twice, [("x", "READ", 0), ("y", "READ", 1), ("r", "INC", 0), ("r", "INC", 1)],
        [False, True]),
    "same_component_twice": (
        _inc_same_component, [("x", "READ", 0), ("y", "READ", 1), ("r", "INC", 1)], [False]),
    "write_and_rw": (
        _write_and_rw, [("x", "READ", 0), ("y", "READ", 1), ("r", "WRITE", 0), ("t", "RW", 1)],
        [True, True]),
}


#: which node rows the edges of :func:`_run_staging` target, as fractions
#: of the rows: all of them, or a third that one thread owns at teams 2, 3
TARGETS = {"all": (0, 3), "first_third": (0, 1), "last_third": (2, 3)}


def _run_staging(case: str, native: bool, n: int = 600, seed: int = 5, targets: str = "all"):
    """Two calls of one indirect loop over ``n`` > SCATTER_MIN edges."""
    from repro import op2
    from repro.op2.execplan import SCATTER_MIN

    assert n >= SCATTER_MIN  # vec takes the segment scatter
    kernel, spec, _ = STAGING_CASES[case]
    rng = np.random.default_rng(seed)
    nodes = op2.Set(n // 4, "nodes")
    edges = op2.Set(n, "edges")
    lo, hi = (nodes.size * t // 3 for t in TARGETS[targets])
    e2n = op2.Map(edges, nodes, 2, rng.integers(lo, hi, (n, 2)), "e2n")
    # magnitudes over 16 decades: any reassociation of a sum shows
    dats = {
        name: op2.Dat(
            nodes, 2,
            rng.standard_normal((nodes.size, 2)) * 10.0 ** rng.integers(-8, 8, (nodes.size, 2)),
            name=name,
        )
        for name in "xyrt"
    }
    clear_plan_caches()
    counters = PerfCounters()
    k = op2.Kernel(kernel, case)
    with counters_scope(counters), swap(native=native):
        for _ in range(2):
            op2.par_loop(
                k, edges,
                *(dats[d](getattr(op2, acc), e2n, i) for d, acc, i in spec),
                backend="vec",
            )
    return {name: d.data.copy() for name, d in dats.items()}, counters


class TestIndirectStaging:
    @requires_cc
    @pytest.mark.parametrize("case", sorted(STAGING_CASES))
    def test_native_equals_vec_bitwise(self, case, monkeypatch):
        seen = []
        generate = ncgen.generate_op2

        def spy(fn, argspecs, loop_name):
            seen.append(argspecs)
            return generate(fn, argspecs, loop_name)

        monkeypatch.setattr(ncgen, "generate_op2", spy)
        got, counters = _run_staging(case, native=True)
        want, _ = _run_staging(case, native=False)
        assert counters.native_calls == 2 and not counters.native_declines
        staged = [s[6] for s in seen[0] if s[0] == "ind" and s[2] != "READ"]
        assert staged == STAGING_CASES[case][2]
        for name, arr in want.items():
            np.testing.assert_array_equal(got[name], arr, err_msg=name)

    @requires_cc
    def test_res_calc_plan_allocates_at_most_one_stage(self):
        """8 indirect arguments over 2 maps: no map copies, and only the
        second ``res`` INC gets an ``(n, 4)`` stage."""
        import tracemalloc

        from repro import op2
        from repro.apps.airfoil.kernels import K_RES_CALC
        from repro.apps.airfoil.mesh import generate_mesh
        from repro.native import plan as nplan

        m = generate_mesh(120, 80)
        args = [
            m.x(op2.READ, m.edge2node, 0), m.x(op2.READ, m.edge2node, 1),
            m.q(op2.READ, m.edge2cell, 0), m.q(op2.READ, m.edge2cell, 1),
            m.adt(op2.READ, m.edge2cell, 0), m.adt(op2.READ, m.edge2cell, 1),
            m.res(op2.INC, m.edge2cell, 0), m.res(op2.INC, m.edge2cell, 1),
        ]
        n = m.edges.size
        with swap(native=True):
            # warm: compile, certify and load outside the measurement
            assert nplan.try_compile_op2(K_RES_CALC, args, n, "res_calc") is not None
            tracemalloc.start()
            try:
                loop = nplan.try_compile_op2(K_RES_CALC, args, n, "res_calc")
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert loop is not None
        assert peak < n * 4 * 8 + 64 * 1024, peak


def _summary(a, b, total, weighted, lo):
    w = a[0, 0] * b[0, 0]
    total.inc(w)
    weighted.inc(w * 0.5 + a[1, 0])
    total.inc(b[0, 0] - w)
    lo.min(w)


class TestStagedOpsInc:
    RANGES = [(0, 36), (2, 29)]
    #: 3 x 4 sub-ranges of RANGES, swept in row-major order
    TILES = [((x0, x1), (y0, y1))
             for x0, x1 in ((0, 16), (16, 32), (32, 36))
             for y0, y1 in ((2, 10), (10, 18), (18, 26), (26, 29))]

    @requires_cc
    @pytest.mark.parametrize("sweep", ["vec", "tiled"])
    def test_native_equals_vec_bitwise(self, sweep):
        """One sweep per ``.inc()`` call, folded by ``Reduction.inc`` itself
        in call order — per sub-range when ``tiled`` drives the plan tile by
        tile, exactly as vec does."""
        from repro.ops import execplan

        def run(native):
            clear_plan_caches()
            blk = ops.Block(2)
            a = ops.Dat(blk, (37, 29), halo_depth=1, name="a")
            b = ops.Dat(blk, (37, 29), halo_depth=1, name="b")
            rng = np.random.default_rng(2)
            a.data[...] = rng.standard_normal(a.data.shape) * 1e6
            b.data[...] = rng.standard_normal(b.data.shape)
            total = ops.Reduction("inc", initial=0.125)
            weighted, lo = ops.Reduction("inc"), ops.Reduction("min")
            counters = PerfCounters()
            with counters_scope(counters), swap(native=native):
                for _ in range(2):
                    args = (a(ops.READ, ops.S2D_5PT), b(ops.READ), total, weighted, lo)
                    if sweep == "vec":
                        ops.par_loop(_summary, blk, self.RANGES, *args, backend="vec")
                        continue
                    plan = execplan.lookup(_summary, blk, self.RANGES, args, "_summary", 0)
                    for tile in self.TILES:
                        plan.execute(args, tile)
            return (total.value, weighted.value, lo.value), counters

        want, _ = run(False)
        got, counters = run(True)
        assert got == want
        calls = 2 if sweep == "vec" else 2 * len(self.TILES)
        assert counters.native_calls == calls and not counters.native_declines

    def test_unstageable_folds_decline(self):
        scale = 2.0

        def scalar_only(a, t):
            t.inc(scale * 3.0)  # np.sum adds this once, not once per point

        def bare_view(a, t):
            t.inc(a[0])  # np.sum walks the strided view in another order

        def under_branch(a, t):
            if scale > 1.0:
                t.inc(a[0] * scale)

        def writes_too(a, t):
            a[0] = a[0] * scale  # one sweep per fold would scale it again
            t.inc(a[0] * scale)

        def view_or_not(a, t):
            w = a[0]
            if scale > 1.0:
                w = a[0] * scale
            t.inc(w)  # a view unless the branch ran

        for kernel, writes, reason in [
            (scalar_only, False, "reads no dat"), (bare_view, False, "dat view"),
            (under_branch, False, "under control flow"),
            (writes_too, True, "writes a dat"), (view_or_not, False, "dat view"),
        ]:
            with pytest.raises(ncgen.Untranslatable, match=reason):
                ncgen.generate_ops(kernel, [("dat", writes), ("red", "inc")], 1, "inc")


class TestConstantFlags:
    ARGSPECS = [("dat", False)] * 4 + [("dat", True)] * 2

    def test_advec_flags_share_one_source(self):
        from repro.apps.cloverleaf.kernels import make_advec_cell_x_kernel

        first, second = (
            ncgen.generate_ops(
                make_advec_cell_x_kernel(0.1, 0.2, first=flag), self.ARGSPECS, 2, "advec")
            for flag in (True, False)
        )
        assert first.source == second.source
        assert "=first" in first.const_names and "cv[" in first.source

    @requires_cc
    def test_flag_values_match_vec_and_share_one_object(self):
        def run(native):
            clear_plan_caches()
            counters = PerfCounters()
            out = []
            with counters_scope(counters), swap(native=native):
                for flag in (True, False):
                    def k(a, b):
                        b[0] = a[0] * flag + (a[0] if flag else -a[0]) - flag

                    blk = ops.Block(1)
                    a = ops.Dat(blk, 16, halo_depth=1, name="a")
                    b = ops.Dat(blk, 16, halo_depth=1, name="b")
                    a.interior[...] = np.linspace(0.5, 2.0, 16)
                    ops.par_loop(k, blk, [(0, 16)], a(ops.READ), b(ops.WRITE),
                                 backend="vec")
                    out.append(b.interior.copy())
            return out, counters

        want, _ = run(False)
        got, counters = run(True)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)
        assert not np.array_equal(got[0], got[1])
        assert counters.native_calls == 2
        assert (counters.native_compiles, counters.native_cache_hits) == (1, 1)

    def test_array_flag_still_declines(self):
        flag = np.ones(3, dtype=bool)

        def k(a, b):
            b[0] = a[0] if flag else -a[0]

        with pytest.raises(ncgen.Untranslatable,
                           match="free name 'flag' is not a numeric scalar"):
            ncgen.generate_ops(k, [("dat", False), ("dat", True)], 1, "flag")


class TestBundledAppsFullyNative:
    @requires_cc
    def test_no_loop_of_airfoil_or_cloverleaf_declines(self):
        """Native coverage 1.0: a decline on a bundled loop halves that
        loop's throughput, so it must fail here, not pass silently."""
        from repro.apps.airfoil.app import AirfoilApp
        from repro.apps.airfoil.mesh import generate_mesh
        from repro.apps.cloverleaf import CloverLeafApp

        counters = PerfCounters()
        with counters_scope(counters), swap(native=True):
            AirfoilApp(generate_mesh(8, 6, jitter=0.1), backend="vec").run(2)
            CloverLeafApp(nx=12, ny=10, backend="vec").run(2)
        assert counters.native_declines == {}
        assert counters.native_fallbacks == 0 and counters.native_calls > 0
        assert "declined" not in timing_report(counters)
        # ... and a natively-run op2 site never cut its vec schedule
        from repro.op2 import execplan

        plans = execplan.plans.entries()
        assert plans and all(p.native is not None and p.subsets is None for p in plans)


# ---------------------------------------------------------------------------
# threads: every team size gives the single-thread bits
# ---------------------------------------------------------------------------


@pytest.fixture
def threads_everywhere(monkeypatch):
    """Split every native sweep, however small (the bundled test meshes are
    far below ``THREAD_MIN``); yields a setter for the team size."""
    monkeypatch.setattr(nplan, "THREAD_MIN", 0)
    return lambda team: monkeypatch.setattr(nplan, "TEAM", team)


def _at_teams(threads_everywhere, run, teams=(1, 2)):
    """``run()`` at each team size from empty plan caches: (states, counters)."""
    states, counters = [], []
    for team in teams:
        threads_everywhere(team)
        clear_plan_caches()
        c = PerfCounters()
        with counters_scope(c), swap(native=True):
            states.append(run())
        counters.append(c)
    return states, counters


def _assert_bitwise(a: dict, b: dict) -> None:
    assert a.keys() == b.keys()
    for name in a:
        x, y = np.asarray(a[name]), np.asarray(b[name])
        assert x.dtype == y.dtype and x.shape == y.shape, name
        assert np.array_equal(x.view(np.uint8), y.view(np.uint8)), name


def _op2_state(mesh, *globs) -> dict:
    from repro import op2

    out = {n: d.data.copy() for n, d in vars(mesh).items() if isinstance(d, op2.Dat)}
    out.update({g.name: g.data.copy() for g in globs})
    return out


class TestThreadCountInvariance:
    """Teams of 1 and 2 on every bundled app the battery covers: each dat
    and global bitwise, and the team of 2 really split its sweeps."""

    def _check(self, threads_everywhere, run, *, serial_loops=()):
        (one, two), (c1, c2) = _at_teams(threads_everywhere, run)
        _assert_bitwise(one, two)
        assert c1.native_calls == c2.native_calls > 0
        assert c1.native_threaded_calls == 0
        # op2 loops the owner rule cannot split stay on one thread
        serial = sum(c2.loops[n].invocations for n in serial_loops if n in c2.loops)
        assert c2.native_threaded_calls == c2.native_calls - serial > 0
        assert not c2.native_declines and not c2.native_thread_declines

    @requires_cc
    @pytest.mark.parametrize("lazy", [False, True], ids=["eager", "lazy"])
    def test_cloverleaf(self, threads_everywhere, lazy):
        from repro.apps.cloverleaf import CloverLeafApp

        def run():
            with swap(lazy=lazy, lazy_tile=(8, 8) if lazy else None):
                app = CloverLeafApp(nx=24, ny=20, backend="vec")
                summary = app.run(3)
                out = {d.name: d.data.copy() for d in app.st.all_dats}
            out.update({k: np.asarray([v]) for k, v in summary.items()})
            return out

        self._check(threads_everywhere, run)

    @requires_cc
    def test_airfoil(self, threads_everywhere):
        from repro.apps.airfoil.app import AirfoilApp
        from repro.apps.airfoil.mesh import generate_mesh

        def run():
            app = AirfoilApp(generate_mesh(16, 12, jitter=0.1), backend="vec")
            app.run(3)
            return _op2_state(app.mesh, app.rms)

        # res_calc and bres_calc split by ownership of their swept res rows
        self._check(threads_everywhere, run)

    @requires_cc
    def test_hydra(self, threads_everywhere):
        from repro.apps.hydra import HydraApp, generate_hydra_mesh

        def run():
            app = HydraApp(generate_hydra_mesh(16, 12, jitter=0.1))
            app.run(3)
            return _op2_state(app.mesh, app.rms, app.alpha)

        # h_mg_restrict's two swept INCs go through one map entry: one owner
        self._check(threads_everywhere, run)


class TestOwnerRule:
    """Swept-INC loops and phase-B scatters split by ownership of target
    rows: teams 1, 2 and 3 (an odd team catches an off-by-one in the
    ``R·t/nt`` cuts) bitwise on every dat and global."""

    TEAMS = (1, 2, 3)

    @requires_cc
    def test_airfoil_with_permuted_edges(self, threads_everywhere):
        """Edges in random order: ownership interleaves element by element."""
        from repro.apps.airfoil.app import AirfoilApp
        from repro.apps.airfoil.mesh import generate_mesh

        def run():
            mesh = generate_mesh(16, 12, jitter=0.1)
            perm = np.random.default_rng(3).permutation(mesh.edges.size)
            mesh.edge2node.values = mesh.edge2node.values[perm]
            mesh.edge2cell.values = mesh.edge2cell.values[perm]
            app = AirfoilApp(mesh, backend="vec")
            app.run(3)
            return _op2_state(app.mesh, app.rms)

        states, (c1, *split) = _at_teams(threads_everywhere, run, self.TEAMS)
        for state in states[1:]:
            _assert_bitwise(states[0], state)
        assert c1.native_threaded_calls == 0 < c1.native_calls
        for c in split:
            assert c.native_threaded_calls == c.native_calls == c1.native_calls
            assert not c.native_declines and not c.native_thread_declines

    @requires_cc
    @pytest.mark.parametrize("targets", sorted(TARGETS))
    @pytest.mark.parametrize("case", sorted(STAGING_CASES))
    def test_staging_cases_equal_vec(self, threads_everywhere, case, targets):
        """Swept and staged INCs, WRITE and RW scatters, with edges spread
        over all rows or skewed onto one thread's rows: native equals vec
        bitwise at every team size."""
        want, _ = _run_staging(case, native=False, targets=targets)
        for team in self.TEAMS:
            threads_everywhere(team)
            got, c = _run_staging(case, native=True, targets=targets)
            assert c.native_calls == 2 and not c.native_thread_declines
            assert c.native_threaded_calls == (2 if team > 1 else 0)
            _assert_bitwise(want, got)


def _swept_and_min(x, r, g):
    r[0] += x[0]
    g[0] = min(g[0], x[0])


def _swept_twice(x, r, t):
    r[0] += x[0]
    t[0] += x[0] * 3.0


#: loops the owner rule cannot split: (kernel, access per argument after
#: ``x``, map index per indirect argument, the recorded reason)
SERIAL_CASES = {
    "min_global": (_swept_and_min, ("INC", "MIN"), (0,),
                   "threads: MIN/MAX global with in-sweep INC"),
    "two_map_entries": (_swept_twice, ("INC", "INC"), (0, 1),
                        "threads: in-sweep INCs through different map entries"),
}


class TestOwnerRuleDeclines:
    """The two loops that stay on one thread, each with its one reason in
    the counters and the ``native:`` footer."""

    @requires_cc
    @pytest.mark.parametrize("case", sorted(SERIAL_CASES))
    def test_stays_on_one_thread_with_reason(self, threads_everywhere, case):
        from repro import op2

        kernel, accs, idxs, reason = SERIAL_CASES[case]
        k = op2.Kernel(kernel, case)

        def run():
            rng = np.random.default_rng(11)
            nodes = op2.Set(50, "nodes")
            edges = op2.Set(400, "edges")
            e2n = op2.Map(edges, nodes, 2, rng.integers(0, 50, (400, 2)), "e2n")
            x = op2.Dat(edges, 1, rng.standard_normal(400) * 1e6, name="x")
            r = op2.Dat(nodes, 1, rng.standard_normal(50), name="r")
            t = op2.Dat(nodes, 1, rng.standard_normal(50), name="t")
            g = op2.Global(1, 0.5, name="g")
            written = (r(op2.INC, e2n, idxs[0]),
                       g(op2.MIN) if accs[1] == "MIN" else t(op2.INC, e2n, idxs[1]))
            for _ in range(2):
                op2.par_loop(k, edges, x(op2.READ), *written, backend="vec")
            return {"r": r.data.copy(), "t": t.data.copy(), "g": g.data.copy()}

        (one, two), (c1, c2) = _at_teams(threads_everywhere, run)
        _assert_bitwise(one, two)
        assert c2.native_calls == 2 and c2.native_threaded_calls == 0
        assert c2.native_thread_declines == [f"{case}: {reason}"]
        assert f"  declined {case}: {reason}" in timing_report(c2).splitlines()
        clear_plan_caches()
        with swap(native=False):
            _assert_bitwise(one, run())


def _nan(payload: int) -> float:
    """A quiet NaN carrying ``payload``: tells which NaN a fold kept."""
    return float(np.array([0x7FF8000000000000 | payload], dtype=np.uint64).view(np.float64)[0])


#: the extreme planted in the first and in the second half of a sweep (the
#: two blocks of a team of 2); the blocks' registers then differ in bits,
#: so folding them out of order would show
_PLANTS = {
    "zero_ties": (-0.0, 0.0),
    "zero_ties_reversed": (0.0, -0.0),
    "nans": (_nan(1), _nan(2)),
    "nan_second_block": (0.0, _nan(3)),
}


def _planted(n: int, case: str, fill: float) -> np.ndarray:
    """``fill`` (1.0 under a min, -1.0 under a max) with the case's pair."""
    x = np.full(n, fill)
    x[1], x[n // 2 + 1] = _PLANTS[case]
    return x


def _bits(v) -> int:
    return int(np.asarray(v, dtype=np.float64).view(np.uint64))


class TestThreadedMinMax:
    """The block registers fold in block order: ±0 ties and NaN payloads
    come out as the single-thread sweep's, wherever they sit."""

    @requires_cc
    @pytest.mark.parametrize("case", sorted(_PLANTS))
    def test_ops_reduction(self, threads_everywhere, case):
        def fold(a, b, lo, hi):
            lo.min(a[0, 0])
            hi.max(b[0, 0])

        def run():
            blk = ops.Block(2)
            u = ops.Dat(blk, (10, 3), halo_depth=1, name="u")
            w = ops.Dat(blk, (10, 3), halo_depth=1, name="w")
            u.interior[...] = _planted(10, case, 1.0)[:, None]
            w.interior[...] = _planted(10, case, -1.0)[:, None]
            lo, hi = ops.Reduction("min"), ops.Reduction("max")
            ops.par_loop(fold, blk, [(0, 10), (0, 3)], u(ops.READ), w(ops.READ), lo, hi,
                         backend="vec")
            return {"lo": np.asarray([lo.value]), "hi": np.asarray([hi.value])}

        (one, two), (_, c2) = _at_teams(threads_everywhere, run)
        _assert_bitwise(one, two)
        assert c2.native_threaded_calls == 1
        clear_plan_caches()
        with swap(native=False):
            vec = run()
        np.testing.assert_array_equal(one["lo"], vec["lo"])
        np.testing.assert_array_equal(one["hi"], vec["hi"])

    @requires_cc
    @pytest.mark.parametrize("case", sorted(_PLANTS))
    @pytest.mark.parametrize("kind", ["MIN", "MAX"])
    def test_op2_global(self, threads_everywhere, case, kind):
        from repro import op2

        def fold_min(x, g):
            g[0] = min(g[0], x[0])

        def fold_max(x, g):
            g[0] = max(g[0], x[0])

        kernel = op2.Kernel(fold_min if kind == "MIN" else fold_max)

        def run():
            cells = op2.Set(40, "cells")
            x = op2.Dat(cells, 1, _planted(40, case, 1.0 if kind == "MIN" else -1.0), name="x")
            g = op2.Global(1, 0.5 if kind == "MIN" else -0.5, name="g")
            op2.par_loop(kernel, cells, x(op2.READ), g(getattr(op2, kind)))
            return {"g": g.data.copy()}

        (one, two), (_, c2) = _at_teams(threads_everywhere, run)
        _assert_bitwise(one, two)
        assert c2.native_threaded_calls == 1
        clear_plan_caches()
        with swap(native=False):
            vec = run()
        np.testing.assert_array_equal(one["g"], vec["g"])

    def test_block_fold_matches_sequential_fold(self):
        """The combine's algebra on its own: the NumPy select is
        associative bit for bit, so any split folds like the whole."""
        rng = np.random.default_rng(7)
        pool = [0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, _nan(5), _nan(6), 0.5]

        def sel(a, b):  # the C select of cgen._np_select, for "<"
            return a if (a < b or a != a) else b

        for _ in range(200):
            xs = [pool[i] for i in rng.integers(0, len(pool), rng.integers(1, 9))]
            whole = np.inf
            for x in xs:
                whole = sel(whole, x)
            for cut in range(len(xs) + 1):
                parts = []
                for block in (xs[:cut], xs[cut:]):
                    r = np.inf
                    for x in block:
                        r = sel(r, x)
                    parts.append(r)
                assert _bits(sel(sel(np.inf, parts[0]), parts[1])) == _bits(whole)


# ---------------------------------------------------------------------------
# fold order: the row-chunk buffers keep the serial fold's bits
# ---------------------------------------------------------------------------


def _fold1(a, b, lo, hi):
    lo.min(a[0])
    hi.max(b[0])


def _fold2(a, b, lo, hi):
    lo.min(a[0, 0])
    hi.max(b[0, 0])


def _fold3(a, b, lo, hi):
    lo.min(a[0, 0, 0])
    hi.max(b[0, 0, 0])


_FOLD_KERNELS = {1: _fold1, 2: _fold2, 3: _fold3}

#: innermost widths around the C's 256-point row chunk
_FOLD_WIDTHS = (1, 255, 256, 257, 513)


def _serial_fold(values, kind: str) -> float:
    """The single-thread C fold over ``values`` in order: the first NaN
    met, else the last extreme (a tie goes to the later operand)."""
    r = np.inf if kind == "min" else -np.inf
    for x in values:
        if not ((r < x if kind == "min" else r > x) or r != r):
            r = x
    return r


def _edges(n: int, *, chunks: bool, splits: bool) -> list:
    """Indices of one dimension of extent ``n`` where a fold can go wrong:
    its ends, the row-chunk edges and the rows where teams of 2 and 3 cut."""
    marks = {0, n - 1}
    if chunks:
        marks |= {254, 255, 256, 257, 511, 512}
    if splits:
        for nt in (2, 3):
            for t in range(1, nt):
                cut = n * t // nt
                marks |= {cut - 1, cut}
                if chunks:  # chunks restart at each thread's first point
                    marks |= {cut + 255, cut + 256}
    return sorted(m for m in marks if 0 <= m < n)


def _fold_field(shape: tuple, case: str, seed: int = 3) -> np.ndarray:
    """A min field: values in [1, 2) (``"infs"``: all +inf, the identity)
    with the case's plants at every mark, cycling in fold order.

    ``zero_ties`` alternates -0.0/+0.0, so the result's sign names the
    last zero met; ``nans`` plants zeros, then a distinct NaN payload at
    every mark of the second half, so the result names the first NaN
    met; ``infs`` alternates -inf/+inf."""
    ndim = len(shape)
    per_dim = [
        _edges(n, chunks=d == ndim - 1, splits=d == 0) for d, n in enumerate(shape)
    ]
    marks = list(np.ndindex(*(len(m) for m in per_dim)))
    points = [tuple(per_dim[d][i] for d, i in enumerate(ix)) for ix in marks]
    rng = np.random.default_rng(seed)
    if case == "infs":
        x = np.full(shape, np.inf)
    else:
        x = rng.uniform(1.0, 2.0, shape)
    half = len(points) // 2
    for j, pt in enumerate(points):
        if case == "infs":
            x[pt] = (-np.inf, np.inf)[j % 2]
        elif case == "nans" and j >= half:
            x[pt] = _nan(j + 1)
        else:
            x[pt] = (-0.0, 0.0)[j % 2]
    return x


def _copy2(a, b):
    b[0, 0] = a[0, 0]


def _run_fold(kernel, shape: tuple, case: str, tile=None) -> dict:
    """``kernel`` over the whole field: ``{"lo": min, "hi": max}``.  With
    a ``tile``, a lazy copy loop queues first and the fold fuses with it,
    so the fold runs tile by tile (a lone loop is not tiled)."""
    ndim = len(shape)
    blk = ops.Block(ndim)
    u = ops.Dat(blk, shape, halo_depth=1, name="u")
    w = ops.Dat(blk, shape, halo_depth=1, name="w")
    field = _fold_field(shape, case)
    u.interior[...] = field
    w.interior[...] = -field
    lo, hi = ops.Reduction("min"), ops.Reduction("max")
    ranges = [(0, n) for n in shape]
    with swap(lazy=tile is not None, lazy_tile=tile):
        if tile is not None:
            v = ops.Dat(blk, shape, halo_depth=1, name="v")
            ops.par_loop(_copy2, blk, ranges, u(ops.READ), v(ops.WRITE), backend="vec")
            u = v
        ops.par_loop(kernel, blk, ranges, u(ops.READ), w(ops.READ), lo, hi, backend="vec")
        out = {"lo": np.asarray([lo.value]), "hi": np.asarray([hi.value])}
    return out


class TestFoldOrder:
    """Min/max reductions fold a 256-point row chunk at a time: NaNs,
    ±0 ties and ±inf planted at chunk edges and team cuts come out with
    the serial fold's bits at every team size, in 1-, 2- and 3-D loops and
    on lazy tiles.  The vec tier refolds a ±0 or NaN result in point order
    (``common.access.fold_extreme``), so it carries the same bits."""

    @requires_cc
    @pytest.mark.parametrize("case", ["zero_ties", "nans", "infs"])
    @pytest.mark.parametrize("ndim", [1, 2, 3])
    def test_bitwise_at_teams_1_to_3(self, threads_everywhere, ndim, case):
        kernel = _FOLD_KERNELS[ndim]
        outer = {1: (), 2: (7,), 3: (5, 2)}[ndim]
        for width in _FOLD_WIDTHS:
            shape = (*outer, width)
            field = _fold_field(shape, case)
            want = {
                "lo": np.asarray([_serial_fold(field.ravel(), "min")]),
                "hi": np.asarray([_serial_fold((-field).ravel(), "max")]),
            }
            states, counters = _at_teams(
                threads_everywhere, lambda: _run_fold(kernel, shape, case), (1, 2, 3)
            )
            for team, (got, c) in enumerate(zip(states, counters), 1):
                assert c.native_calls == 1 and c.native_declines == {}, (shape, team)
                _assert_bitwise(got, want)
            clear_plan_caches()
            with swap(native=False):
                _assert_bitwise(_run_fold(kernel, shape, case), want)

    @requires_cc
    @pytest.mark.parametrize("case", ["zero_ties", "nans", "infs"])
    def test_lazy_tiles(self, threads_everywhere, case):
        """Tiles of (4, 300) points: each is a sub-range whose chunks start
        at its own first column; tiles fold in row-major tile order."""
        shape, tile = (8, 700), (4, 300)
        field = _fold_field(shape, case)
        order = [
            field[r0:r0 + tile[0], c0:c0 + tile[1]].ravel()
            for r0 in range(0, shape[0], tile[0])
            for c0 in range(0, shape[1], tile[1])
        ]
        values = np.concatenate(order)
        want = {
            "lo": np.asarray([_serial_fold(values, "min")]),
            "hi": np.asarray([_serial_fold(-values, "max")]),
        }
        states, counters = _at_teams(
            threads_everywhere, lambda: _run_fold(_fold2, shape, case, tile), (1, 2, 3)
        )
        for got, c in zip(states, counters):
            # both loops run every tile natively
            assert c.lazy_tiles == len(order) and c.native_calls == 2 * len(order)
            _assert_bitwise(got, want)
        clear_plan_caches()
        with swap(native=False):
            _assert_bitwise(_run_fold(_fold2, shape, case, tile), want)

    @requires_cc
    @pytest.mark.parametrize("case", ["zero_ties", "nans"])
    def test_op2_global_min(self, threads_everywhere, case):
        """A one-column op2 ``Global`` MIN, planted at the ends and team
        cuts: native at every team and vec's scatter give the serial bits."""
        from repro import op2

        def fold_min(x, g):
            g[0] = min(g[0], x[0])

        kernel = op2.Kernel(fold_min)
        field = _fold_field((600,), case)
        want = {"g": np.asarray([_serial_fold(field, "min")])}

        def run():
            cells = op2.Set(field.size, "cells")
            x = op2.Dat(cells, 1, field, name="x")
            g = op2.Global(1, np.inf, name="g")
            op2.par_loop(kernel, cells, x(op2.READ), g(op2.MIN))
            return {"g": g.data.copy()}

        states, counters = _at_teams(threads_everywhere, run, (1, 2, 3))
        for team, (got, c) in enumerate(zip(states, counters), 1):
            assert c.native_calls == 1 and c.native_declines == {}
            assert c.native_threaded_calls == int(team > 1)
            _assert_bitwise(got, want)
        clear_plan_caches()
        with swap(native=False):
            _assert_bitwise(run(), want)


class TestReductionFold:
    """``ops.Reduction`` min/max fold like ``np.minimum``/``np.maximum``,
    the native C select: a NaN propagates, and a ±0 tie ends on the same
    bits on seq, vec and native (the later operand wins)."""

    @staticmethod
    def _run(case: str, backend: str, native: bool) -> dict:
        def fold(a, b, lo, hi):
            lo.min(a[0, 0])
            hi.max(b[0, 0])

        clear_plan_caches()
        c = PerfCounters()
        with counters_scope(c), swap(native=native):
            blk = ops.Block(2)
            u = ops.Dat(blk, (10, 3), halo_depth=1, name="u")
            w = ops.Dat(blk, (10, 3), halo_depth=1, name="w")
            u.interior[...] = _planted(10, case, 1.0)[:, None]
            w.interior[...] = _planted(10, case, -1.0)[:, None]
            lo, hi = ops.Reduction("min"), ops.Reduction("max")
            ops.par_loop(fold, blk, [(0, 10), (0, 3)], u(ops.READ), w(ops.READ), lo, hi,
                         backend=backend)
        assert c.native_calls == int(native)
        return {"lo": lo.value, "hi": hi.value}

    def test_nan_is_kept_by_later_folds(self):
        red = ops.Reduction("min")
        red.min(np.array([3.0, np.nan, 1.0]))
        red.min(np.array([0.5]))
        assert np.isnan(red.value)
        red = ops.Reduction("max", initial=np.nan)
        red.max(7.0)
        assert np.isnan(red.value)

    @requires_cc
    @pytest.mark.parametrize("case", ["nans", "nan_second_block"])
    def test_nan_propagates_on_every_tier(self, case):
        for backend, native in (("seq", False), ("vec", False), ("vec", True)):
            got = self._run(case, backend, native)
            assert np.isnan(got["lo"]) and np.isnan(got["hi"]), (backend, native)

    @requires_cc
    @pytest.mark.parametrize("case", ["zero_ties", "zero_ties_reversed"])
    def test_signed_zero_ties_same_bits_on_every_tier(self, case):
        want = self._run(case, "seq", False)
        # the later of the two zeros wins, as np.minimum(-0.0, 0.0) is 0.0
        assert _bits(want["lo"]) == _bits(_PLANTS[case][1])
        for backend, native in (("vec", False), ("vec", True)):
            got = self._run(case, backend, native)
            assert _bits(got["lo"]) == _bits(want["lo"]), (backend, native)
            assert _bits(got["hi"]) == _bits(want["hi"]), (backend, native)


# ---------------------------------------------------------------------------
# graceful degradation: every refusal path falls back to identical results
# ---------------------------------------------------------------------------


def _run_sod_once():
    from repro.apps.sod.app import SodApp

    clear_plan_caches()
    app = SodApp(n=80, backend="vec")
    for _ in range(5):
        app.step()
    return app.profiles()


class TestDegradation:
    def test_no_compiler_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_CC", "none")
        ncache._reset_compiler_cache()
        assert ncache.find_compiler() is None
        with swap(native=True):
            with_native = _run_sod_once()
        monkeypatch.delenv("REPRO_NATIVE_CC")
        ncache._reset_compiler_cache()
        with swap(native=False):
            without = _run_sod_once()
        for k in without:
            np.testing.assert_array_equal(with_native[k], without[k])

    def test_no_compiler_records_one_fallback_per_loop(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_CC", "none")
        ncache._reset_compiler_cache()
        blk = ops.Block(1)
        u = ops.Dat(blk, 16, halo_depth=1, name="u")

        def double(a):
            a[0] = a[0] * 2.0

        counters = PerfCounters()
        with counters_scope(counters), swap(native=True), telemetry.tracing() as trc:
            for _ in range(5):
                ops.par_loop(double, blk, [(0, 16)], u(ops.RW), backend="vec")
        # one fallback at plan build, not one per call
        assert counters.native_fallbacks == 1
        assert counters.native_calls == 0
        falls = [e for e in trc.events()
                 if isinstance(e, telemetry.InstantEvent) and e.name == "native.fallback"]
        assert len(falls) == 1
        assert falls[0].attrs["reason"] == "no C compiler available"

    @requires_cc
    def test_compiler_without_openmp_runs_compiled_on_one_thread(
        self, tmp_path, monkeypatch, threads_everywhere
    ):
        """A compiler that rejects -fopenmp: every loop still runs compiled
        and bitwise, on teams of 1, with one explained decline per process."""
        wrapper = tmp_path / "cc-no-openmp"
        wrapper.write_text(
            "#!/bin/sh\n"
            'for a in "$@"; do\n'
            '  [ "$a" = -fopenmp ] && { echo "unsupported: $a" >&2; exit 1; }\n'
            "done\n"
            f'exec {ncache.find_compiler()} "$@"\n'
        )
        wrapper.chmod(0o755)
        monkeypatch.setenv("REPRO_NATIVE_CC", str(wrapper))
        ncache._reset_compiler_cache()
        threads_everywhere(2)

        from repro.apps.cloverleaf import CloverLeafApp

        def run():
            app = CloverLeafApp(nx=12, ny=10, backend="vec")
            app.run(2)
            return {d.name: d.data.copy() for d in app.st.all_dats}

        counters = PerfCounters()
        with counters_scope(counters), swap(native=True), telemetry.tracing() as trc:
            with_native = run()
        assert nplan.team_size() == 1 and ncache.openmp() is False
        assert counters.native_calls > 0 and counters.native_threaded_calls == 0
        assert counters.native_declines == {} and counters.native_fallbacks == 0
        assert counters.native_thread_declines == ["threads: no OpenMP"]
        assert "  declined threads: no OpenMP" in timing_report(counters).splitlines()
        assert [e.attrs["reason"] for e in trc.events()
                if isinstance(e, telemetry.InstantEvent)
                and e.name == "native.threads_declined"] == ["threads: no OpenMP"]
        clear_plan_caches()
        with swap(native=False):
            _assert_bitwise(with_native, run())

        import repro.native.__main__ as cli

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["info"]) == 0
        assert "openmp    : no" in out.getvalue()
        assert "team size : 1" in out.getvalue()

    @staticmethod
    def _plant_corrupt_object(source):
        """Put garbage at the cache slot for ``source`` WITHOUT dlopening a
        good object there first — dlopen caches by path in-process, so a
        previously loaded handle would mask the corrupt file entirely."""
        import os

        key = ncache.source_key(source)
        os.makedirs(ncache.cache_dir(), exist_ok=True)
        so = os.path.join(ncache.cache_dir(), f"{key}.so")
        bad = so + ".bad"
        with open(bad, "wb") as f:
            f.write(b"not an ELF object")
        os.replace(bad, so)
        return so

    @requires_cc
    def test_corrupt_cached_object_recompiles(self):
        code = ncgen.generate_ops(_square_kernel, [("dat", True)], 1, "corrupt_t")
        self._plant_corrupt_object(code.source)
        kern, cached = ncache.load_kernel(code.source)
        assert not cached  # recompiled, not loaded stale
        assert kern.make_call is not None

    @requires_cc
    @pytest.mark.parametrize("planted", [b"not an ELF object", b"\x7fELF truncated"])
    def test_corrupt_object_never_reaches_find_library(self, monkeypatch, planted):
        """A bad cached object is rejected (no ELF magic) or fails to
        dlopen, and recompiles without cffi's ``find_library`` retry, which
        forks ``ldconfig`` from a process that may hold OpenMP threads."""
        import ctypes.util
        import os

        def forbidden(name):
            raise AssertionError(f"find_library({name!r}) called")

        monkeypatch.setattr(ctypes.util, "find_library", forbidden)
        code = ncgen.generate_ops(_square_kernel, [("dat", True)], 1, "corrupt_fl")
        so = self._plant_corrupt_object(code.source)
        with open(so, "wb") as f:
            f.write(planted)
        kern, cached = ncache.load_kernel(code.source)
        assert not cached
        with open(kern.path, "rb") as f:
            assert f.read(4) == b"\x7fELF"
        assert os.path.getsize(kern.path) > len(planted)

    @requires_cc
    def test_shared_storage_declines(self):
        """Two dats on one buffer (``adopt_storage``): a loop writing one and
        reading the other would break the C's ``restrict`` promise, so it
        declines once, with a reason, and runs vec's bits."""
        def scale(x, y):
            x[0, 0] = y[0, 0] * 2.0 + 1.0

        def run(native):
            clear_plan_caches()
            blk = ops.Block(2)
            a = ops.Dat(blk, (6, 5), halo_depth=1, name="a")
            b = ops.Dat(blk, (6, 5), halo_depth=1, name="b")
            a.interior[...] = np.random.default_rng(2).uniform(-1.0, 1.0, (6, 5))
            b.adopt_storage(a.data)
            c = PerfCounters()
            with counters_scope(c), swap(native=native):
                for _ in range(2):
                    ops.par_loop(scale, blk, [(0, 6), (0, 5)], a(ops.WRITE), b(ops.READ),
                                 backend="vec")
            return a.data.copy(), c

        got, c = run(True)
        assert c.native_calls == 0 and c.native_fallbacks == 1
        assert c.native_declines == {
            ("ops", "scale"): "written dat a shares storage with another argument"
        }
        want, _ = run(False)
        _assert_bitwise({"a": got}, {"a": want})

    def test_corrupt_object_without_compiler_raises(self, monkeypatch):
        code = ncgen.generate_ops(_square_kernel, [("dat", True)], 1, "corrupt_nc")
        self._plant_corrupt_object(code.source)
        monkeypatch.setattr(ncache, "find_compiler", lambda: None)
        with pytest.raises(ncache.NativeUnavailable):
            ncache.load_kernel(code.source)

    def test_untranslatable_kernel_falls_back(self):
        """A kernel the certifier declines runs interpreted, same results."""
        blk = ops.Block(1)
        u = ops.Dat(blk, 16, halo_depth=1, name="u")
        u.interior[...] = np.linspace(0.5, 2.0, 16)

        def transcendental(a):
            a[0] = np.exp(a[0])  # exp: NumPy SIMD is not libm -> declined

        counters = PerfCounters()
        with counters_scope(counters), swap(native=True):
            ops.par_loop(transcendental, blk, [(0, 16)], u(ops.RW), backend="vec")
        with_native = u.interior.copy()
        assert counters.native_fallbacks >= 1
        assert counters.native_calls == 0

        u.interior[...] = np.linspace(0.5, 2.0, 16)
        clear_plan_caches()
        with swap(native=False):
            ops.par_loop(transcendental, blk, [(0, 16)], u(ops.RW), backend="vec")
        np.testing.assert_array_equal(with_native, u.interior)

    def test_config_off_disables_and_counts(self):
        blk = ops.Block(1)
        u = ops.Dat(blk, 16, halo_depth=1, name="u")

        def double(a):
            a[0] = a[0] * 2.0

        counters = PerfCounters()
        with counters_scope(counters), swap(native=False):
            ops.par_loop(double, blk, [(0, 16)], u(ops.RW), backend="vec")
        assert counters.native_calls == 0
        assert counters.native_fallbacks == 1  # reason: disabled

    @requires_cc
    def test_storage_rebind_drops_native_tier(self):
        """Replacing dat.data invalidates the ops plan (identity guards), and
        the rebuilt plan re-admits native against the new storage."""
        blk = ops.Block(1)
        u = ops.Dat(blk, 16, halo_depth=1, name="u")
        u.interior[...] = 1.0

        def double(a):
            a[0] = a[0] * 2.0

        counters = PerfCounters()
        with counters_scope(counters), swap(native=True):
            ops.par_loop(double, blk, [(0, 16)], u(ops.RW), backend="vec")
            u.data = u.data.copy()  # rebind storage under the plan
            ops.par_loop(double, blk, [(0, 16)], u(ops.RW), backend="vec")
        np.testing.assert_array_equal(u.interior, np.full(16, 4.0))
        assert counters.native_calls == 2  # both plans ran natively


def _square_kernel(a):
    a[0] = a[0] * a[0]


# ---------------------------------------------------------------------------
# codegen unit level: exact C idioms the bitwise guarantee rests on
# ---------------------------------------------------------------------------


class TestCodegen:
    def test_power_two_lowers_to_multiply(self):
        def k(a, b):
            b[0] = a[0] ** 2

        code = ncgen.generate_ops(k, [("dat", False), ("dat", True)], 1, "p2")
        assert "* t1" in code.source and "pow(" not in code.source

    def test_min_fold_uses_numpy_select(self):
        def k(a, t):
            t.min(a[0])

        code = ncgen.generate_ops(k, [("dat", False), ("red", "min")], 1, "mn")
        # the register keeps its NaN, else the chunk's next value wins ties,
        # spelled branch-free: ((r < w) | (r != r)) ? r : w
        assert "r0 = (((r0 < w0[k]) | (r0 != r0)) ? r0 : w0[k]);" in code.source

    def test_closure_scalars_go_through_cv(self):
        dt = 0.125

        def k(a, b):
            b[0] = a[0] * dt

        code = ncgen.generate_ops(k, [("dat", False), ("dat", True)], 1, "cv")
        assert "cv[0]" in code.source
        assert "0.125" not in code.source  # never baked into the text
        assert code.const_names == ("=dt",)

    def test_inc_reduction_declined(self):
        """Only a *computed* value is staged: a bare view is summed by NumPy
        in strided order, which a dense stage would not reproduce."""
        def k(a, t):
            t.inc(a[0])

        with pytest.raises(ncgen.Untranslatable, match="dat view"):
            ncgen.generate_ops(k, [("dat", False), ("red", "inc")], 1, "inc")

    def test_inc_reduction_one_sweep_per_call(self):
        def k(a, t, u):
            t.inc(a[0] * 2.0)
            u.inc(a[0] + a[1])
            t.inc(a[0] * a[0])

        code = ncgen.generate_ops(
            k, [("dat", False), ("red", "inc"), ("red", "inc")], 1, "inc")
        assert code.ptr_spec == (("dat", 0), ("stage", None))
        assert code.stage_args == (1, 2, 1) and not code.red_spec
        assert "if (sel == 2) q[i0] =" in code.source

    def test_transcendental_declined(self):
        def k(a, b):
            b[0] = np.sin(a[0])

        with pytest.raises(ncgen.Untranslatable):
            ncgen.generate_ops(k, [("dat", False), ("dat", True)], 1, "sin")

    def test_op2_two_phase_scatter_order(self):
        """A staged indirect INC: phase A computes into scratch; phase B, a
        ``scatter`` run after the sweep's region by the same team,
        accumulates in element order into the rows thread t owns — per
        row, the schedule np.add.at is bitwise-equal to.  Both arguments
        read the one map in place."""

        def k(x, r):
            r[0] += x[0]

        code = ncgen.generate_op2(
            k, [("ind", 1, "READ", 0, 2, 0, True), ("ind", 1, "INC", 0, 2, 1, True)],
            "scat")
        src = code.source
        a_phase = src.index("S1[e * 1 + 0] = 0.0")
        b_cut = src.index("const long long lo1 = n[2] * t / nt, hi1 = n[2] * (t + 1) / nt;")
        b_guard = src.index("if (w1 < lo1 || w1 >= hi1) continue;")
        b_phase = src.index("p1[w1 * 1 + 0] += S1[e * 1 + 0]")
        sweeps = src.index("sweep(p, m, n, red, cv, n0 * t / nt, n0 * (t + 1) / nt,")
        assert a_phase < b_cut < b_guard < b_phase < sweeps < src.index(
            "scatter(p, m, n, t, nt);")
        assert code.row_args == (1,) and code.threaded
        assert "const long long w1 = M0[e * 2 + 1];" in code.source
        assert code.scratch_spec == ((1, 1),)
        assert code.map_spec == (("map", 0),)

    def test_op2_first_inc_applied_in_sweep(self):
        """An unstaged INC accumulates into a per-element local added to
        its row at the end of the element: no scratch, no phase B."""

        def k(x, r):
            r[0] += x[0]
            r[0] += x[1]

        code = ncgen.generate_op2(
            k, [("ind", 2, "READ", 0, 2, 0, True), ("ind", 1, "INC", 1, 1, 0, False)],
            "swept")
        assert code.scratch_spec == ()
        assert code.map_spec == (("map", 0), ("map", 1))
        # the owner rule: the swept row is loaded and checked before any
        # other load, and the sweep's cuts are that dat's rows n[2]
        assert code.row_args == (1,) and code.threaded
        assert code.source.index("if (row1 < lo || row1 >= hi) continue;") < (
            code.source.index("const long long row0 ="))
        assert "n[2] * t / nt, n[2] * (t + 1) / nt" in code.source
        assert "double s1[1] = {0};" in code.source
        assert code.source.count("s1[0] +=") == 2
        assert code.source.index("s1[0] +=") < code.source.index(
            "p1[row1 * 1 + 0] += s1[0];")
        assert "long long w1" not in code.source

    @staticmethod
    def _ops_units(monkeypatch) -> dict:
        """Loop name -> generated C of every OPS loop CloverLeaf (2-D, with
        its field summary), CloverLeaf 3-D and Sod (1-D) admit."""
        from repro.apps.cloverleaf import CloverLeafApp
        from repro.apps.cloverleaf3d.app import CloverLeaf3DApp
        from repro.apps.sod.app import SodApp

        units = {}
        generate = ncgen.generate_ops

        def capture(fn, argspecs, ndim, loop_name):
            code = generate(fn, argspecs, ndim, loop_name)
            units[loop_name] = code.source
            return code

        monkeypatch.setattr(ncgen, "generate_ops", capture)
        # generation precedes the compile, which is not needed here
        monkeypatch.setattr(ncache, "find_compiler", lambda: None)
        clear_plan_caches()
        with swap(native=True):
            CloverLeafApp(nx=12, ny=10, backend="vec").run(1)
            CloverLeaf3DApp(6, 5, 4).run(1)
            SodApp(n=40, backend="vec").step()
        clear_plan_caches()
        return units

    @staticmethod
    def _sweep(source: str) -> str:
        start = source.index("static void sweep(")
        return source[start:source.index("\n}\n", start)]

    def test_every_ops_unit_is_vectorisable(self, monkeypatch):
        """restrict dat pointers, constants read before the nest, ``omp
        simd`` on the innermost loop and no short-circuit in the body."""
        import re

        units = self._ops_units(monkeypatch)
        assert len(units) >= 30 and "calc_dt" in units and "field_summary" in units
        for name, source in units.items():
            sweep = self._sweep(source)
            ndim = int(re.search(r"(\d)-D nest", source).group(1))
            assert "double *restrict p" in sweep, name
            assert not re.search(r"double \*(?!restrict)\w+ = p\[", sweep), name
            nest = sweep[min(sweep.index("    for ("), sweep.index("#pragma omp simd")):]
            assert "cv[" not in nest, name
            lines = nest.splitlines()
            simd = [i for i, ln in enumerate(lines) if ln == "#pragma omp simd"]
            assert len(simd) == 1, name
            loop = lines[simd[0] + 1].strip()
            assert loop.startswith(f"for (long long i{ndim - 1} = "), name
            # nothing inside it is another dimension of the nest
            assert not any(ln.strip().startswith("for (long long i") for ln in lines[simd[0] + 2:])
            assert "&&" not in sweep and "||" not in sweep, name

    @requires_cc
    def test_gcc_vectorises_the_innermost_loops(self, monkeypatch, tmp_path):
        """GCC's own report, under the cache's flags: the innermost loops of
        calc_dt (a min fold), viscosity (a select with an arithmetic arm)
        and pdv_correct vectorise on baseline x86-64."""
        import re

        cc = ncache.find_compiler()
        version = subprocess.run([cc, "--version"], capture_output=True, text=True).stdout
        if "Free Software Foundation" not in version or "clang" in version:
            pytest.skip("vectorisation report is GCC's")
        units = self._ops_units(monkeypatch)
        for name in ("calc_dt", "viscosity", "pdv_correct"):
            src = tmp_path / f"{name}.c"
            src.write_text(units[name])
            # the innermost loop's 1-based lines: its header to its brace
            lines = units[name].splitlines()
            head = lines.index("#pragma omp simd") + 1
            indent = lines[head][: len(lines[head]) - len(lines[head].lstrip())]
            close = lines.index(indent + "}", head)
            proc = subprocess.run(
                [cc, *ncache.CFLAGS, "-fopt-info-vec-optimized", "-o",
                 str(tmp_path / f"{name}.so"), str(src), "-lm"],
                capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
            vectorised = {
                int(m.group(1))
                for m in re.finditer(r"\.c:(\d+):\d+: optimized: loop vectorized", proc.stderr)
            }
            assert any(head < ln <= close + 1 for ln in vectorised), (name, proc.stderr)

    def test_cache_key_covers_source_and_flags(self):
        k1 = ncache.source_key("int x;")
        assert k1 == ncache.source_key("int x;")
        assert k1 != ncache.source_key("int y;")

    @requires_cc
    def test_warm_cache_loads_without_compiling(self):
        code = ncgen.generate_ops(_square_kernel, [("dat", True)], 1, "warm")
        _, cached0 = ncache.load_kernel(code.source)
        assert not cached0
        ncache.clear_memory_cache()  # keep the disk entry, drop the handle
        _, cached1 = ncache.load_kernel(code.source)
        assert cached1


# ---------------------------------------------------------------------------
# telemetry and reporting
# ---------------------------------------------------------------------------


class TestNativeTelemetry:
    @requires_cc
    def test_compile_span_and_cache_instants(self):
        blk = ops.Block(1)
        u = ops.Dat(blk, 16, halo_depth=1, name="u")

        def double(a):
            a[0] = a[0] * 2.0

        counters = PerfCounters()
        with counters_scope(counters), swap(native=True), telemetry.tracing() as trc:
            ops.par_loop(double, blk, [(0, 16)], u(ops.RW), backend="vec")
            clear_plan_caches()  # force a second plan build: warm cache this time
            ops.par_loop(double, blk, [(0, 16)], u(ops.RW), backend="vec")
        spans = [e.name for e in trc.events() if isinstance(e, telemetry.SpanEvent)]
        instants = [e.name for e in trc.events()
                    if isinstance(e, telemetry.InstantEvent)]
        assert "native.compile" in spans
        assert "native.cache_miss" in instants
        assert "native.cache_hit" in instants
        assert counters.native_compiles == 1
        assert counters.native_cache_misses == 1
        assert counters.native_cache_hits == 1
        assert counters.native_calls == 2

    def test_timing_report_native_footer(self):
        counters = PerfCounters()
        counters.record_native_call()
        counters.record_native_compile()
        counters.record_native_cache_miss()
        counters.record_native_cache_hit()
        report = timing_report(counters)
        assert "native: 1 compiled-kernel calls" in report
        assert "so-cache 1/1 hit/miss (50.0%)" in report
        assert "1 cc runs" in report

    def test_footer_absent_without_native_activity(self):
        assert "native:" not in timing_report(PerfCounters())

    def test_lazy_declines_once_per_loop_with_reason_in_footer(self):
        """One plan per loop: a declined site is declined (and explained)
        once, however many tiles the flush cuts it into."""
        from repro.ops import lazy as lazy_mod

        def warm(a, b):
            b[0, 0] = np.exp(a[1, 0] - a[0, 0])

        def blend(b, a):
            a[0, 0] = 0.5 * (a[0, 0] + b[0, 0])

        blk = ops.Block(2)
        u = ops.Dat(blk, (24, 24), halo_depth=2, name="u")
        v = ops.Dat(blk, (24, 24), halo_depth=2, name="v")
        r = [(1, 23), (1, 23)]
        counters = PerfCounters()
        with counters_scope(counters), swap(native=False, lazy=True, lazy_tile=(8, 8)):
            ops.par_loop(warm, blk, r, u(ops.READ, ops.S2D_5PT), v(ops.WRITE),
                         backend="vec")
            ops.par_loop(blend, blk, r, v(ops.READ), u(ops.RW), backend="vec")
            lazy_mod.flush("end")
        assert counters.lazy_tiles > 4
        assert counters.native_fallbacks == 2
        assert counters.native_declines == {
            ("ops", "warm"): "disabled", ("ops", "blend"): "disabled"}
        footer = timing_report(counters).splitlines()
        at = next(i for i, ln in enumerate(footer) if ln.startswith("native:"))
        assert footer[at + 1:at + 3] == [
            "  declined ops:blend: disabled", "  declined ops:warm: disabled"]


# ---------------------------------------------------------------------------
# cache CLI
# ---------------------------------------------------------------------------


class TestNativeCli:
    @requires_cc
    def test_info_clear_prune_roundtrip(self, tmp_path, monkeypatch):
        import repro.native.__main__ as cli

        code = ncgen.generate_ops(_square_kernel, [("dat", True)], 1, "cli")
        ncache.load_kernel(code.source)
        assert cli.main(["info"]) == 0
        info = ncache.cache_info()
        assert info["objects"] == 1 and info["sources"] == 1
        assert cli.main(["prune", "--days", "30"]) == 0
        assert ncache.cache_info()["objects"] == 1  # too young to prune
        assert cli.main(["clear"]) == 0
        assert ncache.cache_info()["objects"] == 0

    def test_module_entrypoint(self, tmp_path):
        import os

        env = {**os.environ, "REPRO_NATIVE_CACHE_DIR": str(tmp_path / "cli_cache")}
        out = subprocess.run(
            [sys.executable, "-m", "repro.native", "info"],
            capture_output=True, text=True, env=env,
        )
        assert out.returncode == 0
        assert "cache dir" in out.stdout
        assert "openmp    :" in out.stdout and "team size :" in out.stdout
