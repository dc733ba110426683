"""Compiled loop executors: equivalence, caching, invalidation, accounting.

The compiled fast path (``repro.op2.execplan`` / ``repro.ops.execplan``)
must be *observationally identical* to the interpreted path it replaces —
bitwise, not just tolerance-close — while amortising validation, gather
index construction, buffer allocation and INC scatter scheduling across
invocations of the same loop site.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import op2, ops
from repro.apps.airfoil.app import AirfoilApp
from repro.apps.airfoil.mesh import generate_mesh
from repro.apps.cloverleaf import CloverLeafApp
from repro.apps.multiblock.app import MultiBlockDiffusion
from repro.common.config import Config, configure, get_config, swap
from repro.common.counters import PerfCounters
from repro.common.plancache import clear_plan_caches
from repro.common.profiling import add_loop_observer, counters_scope, remove_loop_observer
from repro.common.report import timing_report
from repro.native.cache import find_compiler
from repro.op2 import execplan as op2_exec
from repro.ops import execplan as ops_exec
from repro.simmpi import run_spmd

requires_cc = pytest.mark.skipif(find_compiler() is None, reason="no C compiler available")


# -- bitwise equivalence: compiled vs interpreted -----------------------------------


class TestOp2Equivalence:
    @staticmethod
    def _airfoil(backend: str, use_plan: bool):
        clear_plan_caches()
        with swap(use_execplan=use_plan):
            app = AirfoilApp(generate_mesh(8, 6, jitter=0.15), backend=backend)
            rms = app.run(2)
        m = app.mesh
        return rms, m.q.data.copy(), m.res.data.copy(), m.adt.data.copy()

    @pytest.mark.parametrize("backend", ["vec"])
    def test_airfoil_compiled_is_bitwise(self, backend):
        rms_i, q_i, res_i, adt_i = self._airfoil(backend, False)
        rms_c, q_c, res_c, adt_c = self._airfoil(backend, True)
        assert rms_c == rms_i
        np.testing.assert_array_equal(q_c, q_i)
        np.testing.assert_array_equal(res_c, res_i)
        np.testing.assert_array_equal(adt_c, adt_i)

    def test_distributed_owned_extents_are_bitwise(self):
        # ranks 1-4 exercise the n_elements-restricted owner-compute path
        # and halo staleness propagation through the compiled executor
        def run(nranks: int, use_plan: bool):
            clear_plan_caches()
            with swap(use_execplan=use_plan):
                mesh = generate_mesh(10, 8, jitter=0.1)
                app = AirfoilApp(mesh)
                pm = app.build_partitioned(nranks, "block")

                def main(comm):
                    rms = app.run_distributed(comm, pm, 2)
                    return rms, pm.local(comm.rank).gather_dat(comm, mesh.q)

                rms, q = run_spmd(nranks, main)[0]
                return rms, np.asarray(q).copy()

        for nranks in (1, 2, 3, 4):
            rms_i, q_i = run(nranks, False)
            rms_c, q_c = run(nranks, True)
            assert rms_c == rms_i, f"nranks={nranks}"
            np.testing.assert_array_equal(q_c, q_i, err_msg=f"nranks={nranks}")


class TestOpsEquivalence:
    @staticmethod
    def _clover(backend: str, use_plan: bool):
        clear_plan_caches()
        with swap(use_execplan=use_plan):
            app = CloverLeafApp(nx=10, ny=8, backend=backend)
            summary = app.run(2)
        st_ = app.st
        return summary, {
            "density": st_.density0.interior.copy(),
            "energy": st_.energy0.interior.copy(),
            "xvel": st_.xvel0.interior.copy(),
            "yvel": st_.yvel0.interior.copy(),
        }

    @pytest.mark.parametrize("backend", ["vec"])
    def test_cloverleaf_compiled_is_bitwise(self, backend):
        sum_i, fields_i = self._clover(backend, False)
        sum_c, fields_c = self._clover(backend, True)
        assert sum_c == sum_i
        for key in fields_i:
            np.testing.assert_array_equal(fields_c[key], fields_i[key], err_msg=key)

    @pytest.mark.parametrize("backend", ["vec"])
    def test_multiblock_compiled_is_bitwise(self, backend):
        def run(use_plan: bool):
            clear_plan_caches()
            initial = np.add.outer(np.arange(16.0), np.sin(np.arange(8.0)))
            with swap(use_execplan=use_plan):
                mb = MultiBlockDiffusion(8, 8, initial=initial, backend=backend)
                mb.run(4)
            return mb.solution()

        np.testing.assert_array_equal(run(True), run(False))

    def test_reduction_handles_rebind_per_call(self):
        # apps build a fresh Reduction per invocation; the cached plan must
        # rebind the caller's handle, not fold into the compile-time one
        block = ops.Block(2, "redblk")
        d = ops.Dat(block, (5, 4), initial=np.arange(20.0).reshape(5, 4), name="v")

        def total(v, r):
            r.inc(v[0, 0])

        stats0 = ops_exec.plan_cache_stats()
        results = []
        for _ in range(3):
            r = ops.Reduction("inc", name="total")
            ops.par_loop(total, block, [(0, 5), (0, 4)], d(ops.READ), r, backend="vec")
            results.append(r.value)
        stats1 = ops_exec.plan_cache_stats()
        assert results == [float(np.arange(20.0).sum())] * 3
        assert stats1["misses"] - stats0["misses"] == 1
        assert stats1["hits"] - stats0["hits"] == 2


# -- the INC scatter plan: exact np.add.at association ------------------------------


def _run_inc_loop(cols: list[int], vals: np.ndarray, base: np.ndarray, use_plan: bool):
    clear_plan_caches()
    n_edges, n_nodes = len(cols), base.shape[0]
    edges = op2.Set(n_edges, "edges")
    nodes = op2.Set(n_nodes, "nodes")
    e2n = op2.Map(edges, nodes, 1, [[c] for c in cols], "e2n")
    x = op2.Dat(edges, 1, vals.reshape(-1, 1), name="x")
    acc = op2.Dat(nodes, 1, base.reshape(-1, 1).copy(), name="acc")
    k = op2.Kernel(
        lambda v, out: out.__setitem__(0, v[0]),
        "copy_inc",
        vec_func=lambda v, out: out.__setitem__(Ellipsis, v),
    )
    # SCATTER_MIN=1 forces the segment plan even on tiny loops
    with pytest.MonkeyPatch.context() as mp, swap(use_execplan=use_plan):
        mp.setattr(op2_exec, "SCATTER_MIN", 1)
        op2.par_loop(k, edges, x(op2.READ), acc(op2.INC, e2n, 0), backend="vec")
    return acc.data[:, 0].copy()


class TestIncScatterPlan:
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_segment_scatter_matches_add_at_exactly(self, data):
        n_nodes = data.draw(st.integers(2, 10), label="n_nodes")
        n_edges = data.draw(st.integers(1, 120), label="n_edges")
        # duplicate-heavy on purpose: few targets, many contributions
        cols = data.draw(
            st.lists(st.integers(0, n_nodes - 1), min_size=n_edges, max_size=n_edges),
            label="cols",
        )
        finite = st.floats(-1e8, 1e8, allow_nan=False, allow_infinity=False)
        vals = np.asarray(
            data.draw(st.lists(finite, min_size=n_edges, max_size=n_edges), label="vals")
        )
        base = np.asarray(
            data.draw(st.lists(finite, min_size=n_nodes, max_size=n_nodes), label="base")
        )
        compiled = _run_inc_loop(cols, vals, base, True)
        interpreted = _run_inc_loop(cols, vals, base, False)
        np.testing.assert_array_equal(compiled, interpreted)

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.integers(1, 500), m=st.integers(1, 200), arity=st.integers(1, 3),
        pool=st.integers(1, 40), frac=st.floats(0.01, 1.0), seed=st.integers(0, 2**16),
    )
    def test_bitmap_count_and_boundary_scan_equal_np_unique(
        self, rows, m, arity, pool, frac, seed
    ):
        """The O(n) replacements for ``np.unique`` — a seen-bitmap for the
        distinct-target count, a diff scan for the segment boundaries of
        the sorted scatter column — on sparse targets and ``n`` < map rows."""
        from repro.op2 import parloop

        rng = np.random.default_rng(seed)
        used = rng.choice(rows, size=min(pool, rows), replace=False)
        values = used[rng.integers(0, used.size, (m, arity))].astype(np.int64)
        n = max(1, int(frac * m))
        cols = [values[:, j] for j in range(arity)]

        parloop._unique_count_cache.clear()
        want = np.unique(np.concatenate([c[:n] for c in cols])).size
        assert parloop._unique_union(("probe",), cols, n, rows) == want
        assert parloop._unique_count_cache[(("probe",), n)] == want

        col = np.ascontiguousarray(values[:n, 0])
        plan = op2_exec._segment_scatter(None, col, 1, np.float64)
        perm = np.argsort(col, kind="stable")
        targets, starts = np.unique(col[perm], return_index=True)
        counts = np.diff(np.append(starts, n))
        if counts.max() > op2_exec._MAX_SEGMENT_ROUNDS:
            assert plan[0] == op2_exec._S_INC_ADD_AT
            return
        order = np.argsort(-counts, kind="stable")
        np.testing.assert_array_equal(plan[2], perm)
        np.testing.assert_array_equal(plan[3], targets[order])
        assert len(plan[4]) == counts.max()
        for k, (n_k, src) in enumerate(plan[4]):
            assert n_k == np.count_nonzero(counts > k)
            np.testing.assert_array_equal(src, starts[order][:n_k] + k)

    def test_degenerate_segment_falls_back_to_add_at(self):
        # >64 contributions onto one target: the plan must pick the add.at
        # opcode and still match exactly
        rng = np.random.default_rng(7)
        cols = [0] * 200 + [1] * 3
        vals = rng.random(203) * 1e6
        base = rng.random(2)
        np.testing.assert_array_equal(
            _run_inc_loop(cols, vals, base, True),
            _run_inc_loop(cols, vals, base, False),
        )


# -- plan caches: per-API keys and guards (the LRU itself: test_plancache.py) -------


def _direct_loop_site():
    nodes = op2.Set(16, "nodes")
    x = op2.Dat(nodes, 1, np.arange(16.0), name="x")
    k = op2.Kernel(
        lambda a: a.__setitem__(0, a[0] * 2.0),
        "double",
        vec_func=lambda a: a.__setitem__(Ellipsis, a * 2.0),
    )
    return nodes, x, k


class TestOp2Registry:
    def test_vec_schedule_is_cut_on_first_non_native_execute(self):
        """A plan builds only the tier it runs: looking a site up cuts no
        gather/scatter schedule; the first execute without a native kernel
        (lambda kernels never compile) does, once."""
        nodes, x, k = _direct_loop_site()
        plan = op2_exec.lookup(k, nodes, (x(op2.RW),), nodes.size)
        assert plan.native is None and plan.subsets is None
        plan.execute()
        cut = plan.subsets
        assert len(cut) == 1 and cut[0].n == nodes.size
        plan.execute()
        assert plan.subsets is cut
        np.testing.assert_array_equal(x.data[:, 0], np.arange(16.0) * 4.0)

    def test_miss_then_hits(self):
        nodes, x, k = _direct_loop_site()
        s0 = op2_exec.plan_cache_stats()
        for _ in range(5):
            op2.par_loop(k, nodes, x(op2.RW), backend="vec")
        s1 = op2_exec.plan_cache_stats()
        assert s1["misses"] - s0["misses"] == 1
        assert s1["hits"] - s0["hits"] == 4
        np.testing.assert_array_equal(x.data[:, 0], np.arange(16.0) * 32.0)

    def test_disabled_by_config(self):
        nodes, x, k = _direct_loop_site()
        s0 = op2_exec.plan_cache_stats()
        with swap(use_execplan=False):
            op2.par_loop(k, nodes, x(op2.RW), backend="vec")
        s1 = op2_exec.plan_cache_stats()
        assert (s1["hits"], s1["misses"]) == (s0["hits"], s0["misses"])

    def test_map_replacement_invalidates(self):
        nodes = op2.Set(4, "nodes")
        edges = op2.Set(3, "edges")
        e2n = op2.Map(edges, nodes, 2, [[0, 1], [1, 2], [2, 3]], "e2n")
        x = op2.Dat(nodes, 1, np.arange(4.0), name="x")
        s = op2.Dat(edges, 1, np.zeros(3), name="s")
        k = op2.Kernel(
            lambda a, b, out: out.__setitem__(0, a[0] + b[0]),
            "esum",
            vec_func=lambda a, b, out: out.__setitem__(Ellipsis, a + b),
        )

        def run():
            op2.par_loop(k, edges, x(op2.READ, e2n, 0), x(op2.READ, e2n, 1),
                         s(op2.WRITE), backend="vec")

        run()
        run()
        s0 = op2_exec.plan_cache_stats()
        # renumbering-style update: same shape, new values array
        e2n.values = np.array([[3, 2], [2, 1], [1, 0]], dtype=e2n.values.dtype)
        run()
        s1 = op2_exec.plan_cache_stats()
        assert s1["invalidations"] - s0["invalidations"] == 1
        assert s1["misses"] - s0["misses"] == 1
        np.testing.assert_array_equal(s.data[:, 0], [5.0, 3.0, 1.0])

    def test_clear_plan_cache_empties(self):
        """op2's reset also drops the unique-count memo."""
        from repro.op2 import parloop

        AirfoilApp(generate_mesh(4, 3)).run(1)
        assert op2_exec.plan_cache_stats()["size"] >= 1
        assert parloop._unique_count_cache
        op2.clear_plan_cache()
        assert op2_exec.plan_cache_stats()["size"] == 0
        assert not parloop._unique_count_cache

    def test_written_dats_marked_halo_dirty(self):
        nodes, x, k = _direct_loop_site()
        for _ in range(2):  # miss, then hit: both must mark staleness
            x.halo_dirty = False
            op2.par_loop(k, nodes, x(op2.RW), backend="vec")
            assert x.halo_dirty


class TestOpsRegistry:
    @staticmethod
    def _site():
        block = ops.Block(2, "regblk")
        d = ops.Dat(block, (6, 5), initial=1.5, name="u")

        def scale(u):
            u[0, 0] = u[0, 0] * 2.0

        return block, d, scale

    def test_miss_then_hits(self):
        block, d, scale = self._site()
        s0 = ops_exec.plan_cache_stats()
        for _ in range(4):
            ops.par_loop(scale, block, [(0, 6), (0, 5)], d(ops.RW), backend="vec")
        s1 = ops_exec.plan_cache_stats()
        assert s1["misses"] - s0["misses"] == 1
        assert s1["hits"] - s0["hits"] == 3
        np.testing.assert_array_equal(d.interior, np.full((6, 5), 24.0))

    def test_storage_replacement_invalidates(self):
        # cached views alias dat.data, so replacing the array must recompile
        block, d, scale = self._site()
        ops.par_loop(scale, block, [(0, 6), (0, 5)], d(ops.RW), backend="vec")
        s0 = ops_exec.plan_cache_stats()
        d.data = d.data.copy()
        ops.par_loop(scale, block, [(0, 6), (0, 5)], d(ops.RW), backend="vec")
        s1 = ops_exec.plan_cache_stats()
        assert s1["invalidations"] - s0["invalidations"] == 1
        np.testing.assert_array_equal(d.interior, np.full((6, 5), 6.0))

    def test_equivalent_factory_closures_share_a_plan(self):
        # make_*_kernel(dx, dy) returns a fresh closure per call; equal
        # captured values must map to the same compiled plan
        block = ops.Block(2, "facblk")
        d = ops.Dat(block, (4, 4), initial=1.0, name="w")

        def make_kernel(c):
            def axpy(u):
                u[0, 0] = u[0, 0] + c

            return axpy

        s0 = ops_exec.plan_cache_stats()
        ops.par_loop(make_kernel(2.0), block, [(0, 4), (0, 4)], d(ops.RW),
                     backend="vec", name="axpy")
        ops.par_loop(make_kernel(2.0), block, [(0, 4), (0, 4)], d(ops.RW),
                     backend="vec", name="axpy")
        ops.par_loop(make_kernel(3.0), block, [(0, 4), (0, 4)], d(ops.RW),
                     backend="vec", name="axpy")
        s1 = ops_exec.plan_cache_stats()
        assert s1["hits"] - s0["hits"] == 1
        assert s1["misses"] - s0["misses"] == 2
        np.testing.assert_array_equal(d.interior, np.full((4, 4), 8.0))

    def test_changed_default_argument_recompiles(self):
        # Sod's pdv bakes the timestep in as a default (frac=0.5 * dt); a
        # token that ignored __defaults__ would replay the first step's dt
        block = ops.Block(2, "defblk")
        d = ops.Dat(block, (4, 4), initial=1.0, name="v")

        def step(dt):
            def advance(u, frac=0.5 * dt):
                u[0, 0] = u[0, 0] + frac

            ops.par_loop(advance, block, [(0, 4), (0, 4)], d(ops.RW),
                         backend="vec", name="advance")

        s0 = ops_exec.plan_cache_stats()
        step(1.0)
        step(1.0)
        step(3.0)
        s1 = ops_exec.plan_cache_stats()
        assert s1["hits"] - s0["hits"] == 1
        assert s1["misses"] - s0["misses"] == 2
        np.testing.assert_array_equal(d.interior, np.full((4, 4), 3.5))

    def test_checking_bypasses_compiled_path(self):
        block, d, scale = self._site()
        s0 = ops_exec.plan_cache_stats()
        ops.par_loop(scale, block, [(0, 6), (0, 5)], d(ops.RW), backend="vec",
                     check=True)
        s1 = ops_exec.plan_cache_stats()
        assert (s1["hits"], s1["misses"]) == (s0["hits"], s0["misses"])


# -- counters and timing_report -----------------------------------------------------


class TestRangeArgument:
    def test_sub_range_outside_plan_raises_instead_of_running(self):
        from repro.common.errors import APIError

        block, d, scale = TestOpsRegistry._site()
        full = [(1, 5), (0, 5)]
        args = (d(ops.RW),)
        plan = ops_exec.lookup(scale, block, full, args, "scale", 0)
        before = d.data.copy()
        for bad in (
            [(0, 5), (0, 5)],   # one row below the plan's range
            [(1, 6), (0, 5)],   # one row above: still inside the storage
            [(1, 5), (-1, 2)],  # into the halo
            [(3, 2), (0, 5)],   # negative extent
            [(1, 5)],           # wrong rank
        ):
            with pytest.raises(APIError, match="sub-range"):
                plan.execute(args, bad)
        np.testing.assert_array_equal(d.data, before)
        plan.execute(args, [(1, 5), (0, 5)])  # the full range itself is a legal slice
        assert d.interior[0, 0] == 1.5 and d.interior[1, 0] == 3.0


# -- the one site contract, on both libraries -------------------------------------


def _double_op2(a):
    a[0] = a[0] * 2.0


def _double_ops(u):
    u[0, 0] = u[0, 0] * 2.0


def _contract_site(api: str):
    """A dat and a call of one compiled site that doubles it."""
    if api == "op2":
        cells = op2.Set(16, "cells")
        d = op2.Dat(cells, 1, np.arange(16.0), name="d")
        k = op2.Kernel(_double_op2, "double")
        return d, lambda: op2.par_loop(k, cells, d(op2.RW), backend="vec")
    block = ops.Block(2, "siteblk")
    d = ops.Dat(block, (4, 4), initial=np.arange(16.0).reshape(4, 4), name="d")
    return d, lambda: ops.par_loop(
        _double_ops, block, [(0, 4), (0, 4)], d(ops.RW), backend="vec", name="double"
    )


def _values(d) -> np.ndarray:
    return d.data.ravel() if isinstance(d, op2.Dat) else d.interior.ravel()


@pytest.mark.parametrize("api", ["op2", "ops"])
class TestSiteContract:
    """op2 and ops compiled sites keep one observer, skip and guard contract."""

    def test_observed_calls_get_fresh_equal_events(self, api):
        _, run = _contract_site(api)
        events = []
        add_loop_observer(events.append)
        try:
            run()
            run()
        finally:
            remove_loop_observer(events.append)
        assert len(events) == 2
        assert events[0] is not events[1] and events[0] == events[1]

    def test_skip_runs_nothing_books_nothing_marks_halos(self, api):
        d, run = _contract_site(api)
        run()  # build the site: the skipped call below replays it
        before = _values(d).copy()

        def skip(event):
            event.skip = True

        d.halo_dirty = False
        counters = PerfCounters()
        add_loop_observer(skip)
        try:
            with counters_scope(counters):
                run()
        finally:
            remove_loop_observer(skip)
        np.testing.assert_array_equal(_values(d), before)
        assert counters.plan_hits == 1 and counters.loops == {}
        assert d.halo_dirty

    @pytest.mark.parametrize("native", [False, pytest.param(True, marks=requires_cc)])
    def test_rebound_storage_invalidates_once_and_rebuilds(self, api, native, tmp_path):
        d, run = _contract_site(api)
        counters = PerfCounters()
        with counters_scope(counters), swap(native=native, native_cache_dir=str(tmp_path)):
            run()
            d.data = d.data.copy()
            run()
            run()
        assert counters.plan_invalidations == 1
        assert (counters.plan_misses, counters.plan_hits) == (2, 1)
        # native: the rebuilt site is admitted again and runs compiled C
        assert counters.native_calls == (3 if native else 0)
        assert counters.native_declines == ({} if native else {(api, "double"): "disabled"})
        np.testing.assert_array_equal(_values(d), np.arange(16.0) * 8.0)


_REGISTRIES = {"op2": (op2, op2_exec.plan_cache_stats), "ops": (ops, ops_exec.plan_cache_stats)}


class TestResizeEvictionAccounting:
    """One resize evicts every plan cache, through the books a lookup uses."""

    @pytest.mark.parametrize("api", sorted(_REGISTRIES))
    def test_resize_counts_and_traces_evictions(self, api):
        from repro import telemetry

        nodes = op2.Set(8, "nodes")
        x = op2.Dat(nodes, 1, np.zeros(8), name="x")
        for i in range(3):
            k = op2.Kernel(lambda a: None, f"k{i}", vec_func=lambda a: None)
            op2.par_loop(k, nodes, x(op2.RW), backend="vec")
        block, d, scale = TestOpsRegistry._site()
        for hi in (4, 5, 6):
            ops.par_loop(scale, block, [(0, hi), (0, 5)], d(ops.RW), backend="vec")
        before = {m: stats() for m, (_, stats) in _REGISTRIES.items()}
        assert [s["size"] for s in before.values()] == [3, 3]
        counters = PerfCounters()
        try:
            with counters_scope(counters), telemetry.tracing() as trc:
                _REGISTRIES[api][0].set_plan_cache_capacity(1)
            assert get_config().execplan_cache_size == 1
        finally:
            configure(execplan_cache_size=Config().execplan_cache_size)
        for m, (_, stats) in _REGISTRIES.items():
            after = stats()
            assert (after["size"], after["evictions"] - before[m]["evictions"]) == (1, 2), m
        assert counters.plan_evictions == 4
        evicted = [e.attrs["kernel"] for e in trc.events()
                   if isinstance(e, telemetry.InstantEvent) and e.name == "plan_eviction"]
        assert sorted(evicted) == ["k0", "k1", "scale", "scale"]


class TestPlanCacheCapacity:
    """``REPRO_EXECPLAN_CACHE_SIZE`` parsing and the resize API, via both packages."""

    def teardown_method(self):
        configure(execplan_cache_size=Config().execplan_cache_size)

    @pytest.mark.parametrize("api", sorted(_REGISTRIES))
    def test_env_var_default(self, api, monkeypatch):
        mod, _ = _REGISTRIES[api]
        for raw, expected in (("7", 7), ("garbage", 512), (None, 512)):
            if raw is None:
                monkeypatch.delenv("REPRO_EXECPLAN_CACHE_SIZE")
            else:
                monkeypatch.setenv("REPRO_EXECPLAN_CACHE_SIZE", raw)
            assert Config().execplan_cache_size == expected  # bad values ignored
            mod.set_plan_cache_capacity(Config().execplan_cache_size)
            assert get_config().execplan_cache_size == expected

    @pytest.mark.parametrize("api", sorted(_REGISTRIES))
    def test_api_rejects_nonsense(self, api):
        mod, _ = _REGISTRIES[api]
        for bad in (0, -1):
            with pytest.raises(ValueError):
                mod.set_plan_cache_capacity(bad)

    @pytest.mark.parametrize("api", sorted(_REGISTRIES))
    def test_capacity_shrink_evicts_now(self, api):
        mod, stats = _REGISTRIES[api]
        clear_plan_caches()
        if api == "op2":
            AirfoilApp(generate_mesh(4, 3), backend="vec").run(2)
        else:
            CloverLeafApp(nx=6, ny=4, backend="vec").run(1)
        before = stats()
        assert before["size"] > 1
        mod.set_plan_cache_capacity(1)
        after = stats()
        assert after["size"] == 1
        assert after["evictions"] > before["evictions"]
        assert get_config().execplan_cache_size == 1


class TestPlanCounters:
    def test_hit_rate_after_warmup_exceeds_99_percent(self):
        counters = PerfCounters()
        with counters_scope(counters), swap(use_execplan=True):
            app = AirfoilApp(generate_mesh(6, 4, jitter=0.1), backend="vec")
            app.run(100)
        assert counters.plan_misses > 0
        assert counters.plan_hit_rate >= 0.99
        report = timing_report(counters)
        assert "execplan:" in report
        assert "hit rate" in report

    def test_report_silent_without_compiled_loops(self):
        counters = PerfCounters()
        with counters_scope(counters), swap(use_execplan=False):
            app = AirfoilApp(generate_mesh(4, 3), backend="vec")
            app.run(1)
        assert "execplan" not in timing_report(counters)
