"""Prebound loop sites: ``op2.loop`` / ``ops.loop`` replay exactly what ``par_loop`` runs.

A handle validates once and pins its compiled site; every call must still
be observationally identical to the matching ``par_loop`` call — bitwise
results on every tier, the same lazy queueing, observer events and skips,
the same invalidations after a storage rebind — while its hit path forms
no signature and takes no plan-cache lookup.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import op2, ops
from repro.apps.airfoil.app import AirfoilApp
from repro.apps.airfoil.kernels import (
    K_ADT_CALC,
    K_BRES_CALC,
    K_RES_CALC,
    K_SAVE_SOLN,
    K_UPDATE,
)
from repro.apps.airfoil.mesh import generate_mesh
from repro.apps.cloverleaf import CloverLeafApp
from repro.apps.cloverleaf.app import DT_SITES
from repro.common.config import get_config, swap
from repro.common.counters import PerfCounters
from repro.common.errors import APIError, DescriptorViolation, StencilMismatchError
from repro.common.plancache import clear_plan_caches, set_plan_cache_capacity
from repro.common.profiling import add_loop_observer, counters_scope, remove_loop_observer
from repro.lint import abstract as lint_abstract
from repro.native.cache import find_compiler
from repro.op2 import execplan as op2_exec
from repro.ops import execplan as ops_exec
from repro.ops import lazy as ops_lazy

requires_cc = pytest.mark.skipif(find_compiler() is None, reason="no C compiler available")

#: (backend, native) per tier: generated C, the NumPy sweep, the interpreter
TIERS = [
    pytest.param("vec", True, id="native", marks=requires_cc),
    pytest.param("vec", False, id="vec"),
    pytest.param("seq", False, id="seq"),
]
#: eager, and lazy with tiles small enough to cut the test meshes
MODES = [
    pytest.param({}, id="eager"),
    pytest.param({"lazy": True, "lazy_tile": (4, 4)}, id="lazy"),
]


# -- par_loop references: the apps' step, one par_loop per call ------------------


def airfoil_par_loop_iteration(app: AirfoilApp) -> None:
    """``AirfoilApp.iteration`` written with ``op2.par_loop``."""
    m = app.mesh
    be = app.backend
    op2.par_loop(K_SAVE_SOLN, m.cells, m.q(op2.READ), m.qold(op2.WRITE), backend=be)
    for _ in range(app.RK_STEPS):
        op2.par_loop(
            K_ADT_CALC, m.cells,
            m.x(op2.READ, m.cell2node, 0), m.x(op2.READ, m.cell2node, 1),
            m.x(op2.READ, m.cell2node, 2), m.x(op2.READ, m.cell2node, 3),
            m.q(op2.READ), m.adt(op2.WRITE),
            backend=be,
        )
        op2.par_loop(
            K_RES_CALC, m.edges,
            m.x(op2.READ, m.edge2node, 0), m.x(op2.READ, m.edge2node, 1),
            m.q(op2.READ, m.edge2cell, 0), m.q(op2.READ, m.edge2cell, 1),
            m.adt(op2.READ, m.edge2cell, 0), m.adt(op2.READ, m.edge2cell, 1),
            m.res(op2.INC, m.edge2cell, 0), m.res(op2.INC, m.edge2cell, 1),
            backend=be,
        )
        op2.par_loop(
            K_BRES_CALC, m.bedges,
            m.x(op2.READ, m.bedge2node, 0), m.x(op2.READ, m.bedge2node, 1),
            m.q(op2.READ, m.bedge2cell, 0), m.adt(op2.READ, m.bedge2cell, 0),
            m.res(op2.INC, m.bedge2cell, 0), m.bound(op2.READ),
            backend=be,
        )
        app.rms.data[:] = 0.0
        op2.par_loop(
            K_UPDATE, m.cells,
            m.qold(op2.READ), m.q(op2.WRITE), m.res(op2.RW), m.adt(op2.READ),
            app.rms(op2.INC),
            backend=be,
        )


class ParLoopCloverLeaf(CloverLeafApp):
    """The serial CloverLeaf step with every site a fresh ``ops.par_loop`` call."""

    def _site(self, key, bind):
        return bind()

    def _loop(self, kernel, ranges, *args, name, flops=0):
        # bound per call, so this call's reductions are already in args
        return lambda *reductions: ops.par_loop(
            kernel, self.st.block, ranges, *args,
            backend=self.backend, name=name, flops_per_point=flops,
        )


def _airfoil_run(step, backend: str) -> tuple[dict, list]:
    app = AirfoilApp(generate_mesh(12, 8, jitter=0.1), backend=backend)
    per_step = []
    for _ in range(3):
        c = PerfCounters()
        with counters_scope(c):
            step(app)
        per_step.append(_books(c))
    m = app.mesh
    state = {"q": m.q.data, "res": m.res.data, "adt": m.adt.data, "rms": app.rms.data}
    return {k: v.copy() for k, v in state.items()}, per_step


def _clover_run(cls, backend: str) -> tuple[dict, list]:
    app = cls(nx=12, ny=12, backend=backend)
    per_step = []
    for _ in range(3):
        c = PerfCounters()
        with counters_scope(c):
            app.step()
            ops.lazy_flush()
        per_step.append(_books(c))
    summary = app.field_summary()
    st = app.st
    state = {n: getattr(st, n).data.copy() for n in ("density0", "energy0", "xvel0", "yvel0")}
    state["summary"] = np.array(list(summary.values()))
    state["dt"] = np.array(app.dt)
    return state, per_step


def _books(c: PerfCounters) -> tuple:
    """What a step must book identically through sites and through par_loop."""
    calls = tuple(sorted((name, rec.invocations, rec.iterations) for name, rec in c.loops.items()))
    return calls, c.lazy_flushes, c.lazy_loops, c.lazy_tiles


def _assert_bitwise(a: dict, b: dict) -> None:
    assert a.keys() == b.keys()
    for k in a:
        np.testing.assert_array_equal(a[k], b[k], err_msg=k)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("backend,native", TIERS)
class TestSitesMatchParLoop:
    def test_airfoil(self, backend, native, mode, tmp_path):
        with swap(native=native, native_cache_dir=str(tmp_path), **mode):
            ref, ref_books = _airfoil_run(airfoil_par_loop_iteration, backend)
            clear_plan_caches()
            got, got_books = _airfoil_run(AirfoilApp.iteration, backend)
        _assert_bitwise(got, ref)
        assert got_books == ref_books

    def test_cloverleaf(self, backend, native, mode, tmp_path):
        with swap(native=native, native_cache_dir=str(tmp_path), **mode):
            ref, ref_books = _clover_run(ParLoopCloverLeaf, backend)
            clear_plan_caches()
            got, got_books = _clover_run(CloverLeafApp, backend)
        _assert_bitwise(got, ref)
        assert got_books == ref_books
        if mode and backend == "vec":  # seq loops never queue
            assert sum(b[3] for b in got_books) > sum(b[1] for b in got_books)  # tiles cut


# -- the hit path -----------------------------------------------------------------


def _double_op2(a):
    a[0] = a[0] * 2.0


def _double_ops(u):
    u[0, 0] = u[0, 0] * 2.0


def _site(api: str):
    """A dat and a prebound site that doubles it."""
    if api == "op2":
        cells = op2.Set(16, "cells")
        d = op2.Dat(cells, 1, np.arange(16.0), name="d")
        return d, op2.loop(op2.Kernel(_double_op2, "double"), cells, d(op2.RW))
    block = ops.Block(2, "siteblk")
    d = ops.Dat(block, (4, 4), initial=np.arange(16.0).reshape(4, 4), name="d")
    return d, ops.loop(_double_ops, block, [(0, 4), (0, 4)], d(ops.RW), name="double")


def _values(d) -> np.ndarray:
    return d.data.ravel() if isinstance(d, op2.Dat) else d.interior.ravel()


_EXEC = {"op2": op2_exec, "ops": ops_exec}


@pytest.mark.parametrize("api", ["op2", "ops"])
class TestHitPath:
    """The eager path; :class:`TestLazyHitPath` is the same under ``lazy=True``."""

    @pytest.fixture(autouse=True)
    def _eager(self):
        with swap(lazy=False):
            yield

    def test_replay_books_one_hit_and_never_looks_up(self, api, monkeypatch):
        d, site = _site(api)
        c = PerfCounters()
        with counters_scope(c):
            site()
        assert (c.plan_misses, c.plan_hits) == (1, 0)
        calls = []
        real = _EXEC[api].lookup
        monkeypatch.setattr(_EXEC[api], "lookup", lambda *a: calls.append(a) or real(*a))
        with counters_scope(c):
            for _ in range(3):
                site()
        assert calls == []
        assert (c.plan_misses, c.plan_hits) == (1, 3)
        np.testing.assert_array_equal(_values(d), np.arange(16.0) * 16.0)

    def test_cleared_cache_is_looked_up_once_again(self, api):
        _, site = _site(api)
        site()
        pinned = site.pin.site
        clear_plan_caches()
        c = PerfCounters()
        with counters_scope(c):
            site()
            site()
        assert (c.plan_misses, c.plan_hits, c.plan_invalidations) == (1, 1, 0)
        assert site.pin.site is not pinned

    def test_eviction_does_not_unpin(self, api):
        d, site = _site(api)
        _, other = _site(api)
        capacity = get_config().execplan_cache_size
        set_plan_cache_capacity(1)
        try:
            site()
            other()  # evicts site's plan from the cache
            assert _EXEC[api].plans.entries() == [other.pin.site]
            c = PerfCounters()
            with counters_scope(c):
                site()
            assert (c.plan_misses, c.plan_hits, c.plan_evictions) == (0, 1, 0)
        finally:
            set_plan_cache_capacity(capacity)
        np.testing.assert_array_equal(_values(d), np.arange(16.0) * 4.0)

    def test_observer_skip_is_honoured(self, api):
        d, site = _site(api)
        site()
        before = _values(d).copy()
        events = []

        def skip(event):
            events.append(event)
            event.skip = True

        d.halo_dirty = False
        c = PerfCounters()
        add_loop_observer(skip)
        try:
            with counters_scope(c):
                site()
        finally:
            remove_loop_observer(skip)
        np.testing.assert_array_equal(_values(d), before)
        assert [e.name for e in events] == ["double"]
        assert c.loops == {} and d.halo_dirty

    @pytest.mark.parametrize("native", [False, pytest.param(True, marks=requires_cc)])
    def test_rebound_storage_invalidates_once_then_replays(self, api, native, tmp_path):
        d, site = _site(api)
        c = PerfCounters()
        with counters_scope(c), swap(native=native, native_cache_dir=str(tmp_path)):
            site()
            if api == "op2":
                d.data = d.data.copy()
            else:
                d.adopt_storage(d.data.copy())
            site()
            site()
        assert c.plan_invalidations == 1
        assert (c.plan_misses, c.plan_hits) == (2, 1)
        np.testing.assert_array_equal(_values(d), np.arange(16.0) * 8.0)

    def test_native_off_and_cleared_takes_the_vec_tier(self, api, tmp_path):
        if find_compiler() is None:
            pytest.skip("no C compiler available")
        d, site = _site(api)
        with swap(native_cache_dir=str(tmp_path)):
            site()
            assert site.pin.site.native is not None
            c = PerfCounters()
            with swap(native=False), counters_scope(c):
                clear_plan_caches()
                site()
        assert site.pin.site.native is None
        assert c.native_calls == 0 and c.plan_misses == 1
        np.testing.assert_array_equal(_values(d), np.arange(16.0) * 4.0)

    def test_verification_switched_on_after_binding_interprets(self, api):
        d, site = _site(api)
        site()
        c = PerfCounters()
        with swap(verify_descriptors=True), counters_scope(c):
            site()
        assert c.loops_sanitized == 1
        assert (c.plan_hits, c.plan_misses) == (0, 0)
        np.testing.assert_array_equal(_values(d), np.arange(16.0) * 4.0)


class TestLazyHitPath:
    """A lazy call of an ``ops.loop`` handle pushes the handle's prebuilt
    queue record, and the flush fetches the plan through the handle's pin:
    after the first step nothing is certified, signed or looked up."""

    @pytest.fixture(autouse=True)
    def _lazy(self, tmp_path):
        with swap(lazy=True, native_cache_dir=str(tmp_path)):
            yield

    @staticmethod
    def _count(monkeypatch, module, attr) -> list:
        calls = []
        real = getattr(module, attr)
        monkeypatch.setattr(module, attr, lambda *a: calls.append(a) or real(*a))
        return calls

    def test_replayed_step_never_looks_up_or_certifies(self, monkeypatch):
        app = CloverLeafApp(nx=12, ny=12)
        # the advection sweeps alternate their order: the second step
        # binds the other half of the sites
        for _ in range(2):
            app.step()
        ops.lazy_flush()
        dt = app.dt
        lookups = self._count(monkeypatch, ops_exec, "lookup")
        certs = self._count(monkeypatch, lint_abstract, "certify_callable")
        enqueues = self._count(monkeypatch, ops_lazy, "enqueue")
        for _ in range(2):
            c = PerfCounters()
            with counters_scope(c):
                app.step()
            # every queued loop was fetched through its pin: one hit each
            assert c.lazy_loops > 0
            assert c.plan_hits == c.lazy_loops
            assert (c.plan_misses, c.plan_invalidations) == (0, 0)
        assert app.dt == dt  # no dt site was rebound
        assert (lookups, certs, enqueues) == ([], [], [])

    @pytest.mark.parametrize("native", [False, pytest.param(True, marks=requires_cc)])
    def test_rebound_storage_invalidates_once_then_replays(self, native):
        d, site = _site("ops")
        c = PerfCounters()
        with counters_scope(c), swap(native=native):
            site()
            ops.lazy_flush()
            site()
            # the rebind drains the queue first: the queued call hits the
            # plan built on the old storage, the next flush finds it stale
            d.adopt_storage(d.data.copy())
            site()
            assert ops_lazy.queued_loops() == 1
            ops.lazy_flush()
            site()
        assert c.plan_invalidations == 1
        assert (c.plan_misses, c.plan_hits) == (2, 2)
        np.testing.assert_array_equal(_values(d), np.arange(16.0) * 16.0)

    @requires_cc
    def test_native_off_and_cleared_before_the_flush_takes_the_vec_tier(self):
        d, site = _site("ops")
        site()
        ops.lazy_flush()
        assert site.pin.site.native is not None
        site()
        assert ops_lazy.queued_loops() == 1
        c = PerfCounters()
        with swap(native=False), counters_scope(c):
            clear_plan_caches()
            ops.lazy_flush()
        assert site.pin.site.native is None
        assert c.native_calls == 0 and c.plan_misses == 1
        np.testing.assert_array_equal(_values(d), np.arange(16.0) * 4.0)

    def test_calc_dt_queues_the_calls_own_reduction(self):
        app = CloverLeafApp(nx=12, ny=12)
        app.step()
        ops.lazy_flush()
        calc_dt = app._sites["calc_dt"]
        dt_min = ops.Reduction("min", name="dt_min")
        calc_dt(dt_min)
        queued = ops_lazy._state.queue[-1]
        assert queued.args[-1] is dt_min and queued.pin is calc_dt.pin
        assert queued.sig is calc_dt.record.sig  # a copy of the handle's record
        got = dt_min.value  # an observation point: drains the queue
        assert ops_lazy.queued_loops() == 0
        with swap(lazy=False):
            ref = ops.Reduction("min", name="dt_min")
            calc_dt(ref)
        assert got == ref.value < np.inf

    @pytest.mark.parametrize("first,then", [
        pytest.param(False, True, id="eager-then-lazy"),
        pytest.param(True, False, id="lazy-then-eager"),
    ])
    def test_mode_switch_after_binding_matches_par_loop(self, first, then):
        def run(cls):
            app = cls(nx=12, ny=12)
            for lazy in (first, then, then):
                with swap(lazy=lazy, lazy_tile=(4, 4)):
                    app.step()
                    ops.lazy_flush()
            st = app.st
            return {
                n: getattr(st, n).data.copy()
                for n in ("density0", "energy0", "pressure", "xvel0", "yvel0")
            }

        ref = run(ParLoopCloverLeaf)
        clear_plan_caches()
        _assert_bitwise(run(CloverLeafApp), ref)


def _peek_east(u, v):
    v[0, 0] = u[1, 0]


def test_stencil_checking_switched_on_after_binding_interprets():
    block = ops.Block(2, "chk")
    u = ops.Dat(block, (4, 4), halo_depth=1, initial=1.0, name="u")
    v = ops.Dat(block, (4, 4), halo_depth=1, name="v")
    # the kernel reads (1, 0) through a centre-only stencil: only a checked,
    # interpreted run can notice
    site = ops.loop(_peek_east, block, [(0, 4), (0, 4)], u(ops.READ), v(ops.WRITE))
    site()
    with swap(check_stencils=True), pytest.raises(StencilMismatchError):
        site()
    with pytest.raises(StencilMismatchError):
        ops.loop(_peek_east, block, [(0, 4), (0, 4)], u(ops.READ), v(ops.WRITE), check=True)()


def _bad_write(a, b):
    a[0] = b[0]  # writes an argument declared READ


def test_descriptor_violation_surfaces_through_a_site():
    cells = op2.Set(8, "cells")
    a = op2.Dat(cells, 1, np.zeros(8), name="a")
    b = op2.Dat(cells, 1, np.ones(8), name="b")
    site = op2.loop(op2.Kernel(_bad_write, "bad"), cells, a(op2.READ), b(op2.READ))
    site()
    with swap(verify_descriptors=True), pytest.raises(DescriptorViolation):
        site()


def _noise(u):
    u[0, 0] = np.random.random(u[0, 0].shape)


def test_rng_kernel_stays_interpreted():
    block = ops.Block(2, "rng")
    u = ops.Dat(block, (4, 4), name="u")
    site = ops.loop(_noise, block, [(0, 4), (0, 4)], u(ops.WRITE))
    c = PerfCounters()
    np.random.seed(7)
    with counters_scope(c):
        site()
        site()
    got = u.interior.copy()
    assert site.pin.site is None
    assert (c.plan_hits, c.plan_misses) == (0, 0)
    np.random.seed(7)
    ops.par_loop(_noise, block, [(0, 4), (0, 4)], u(ops.WRITE))
    ops.par_loop(_noise, block, [(0, 4), (0, 4)], u(ops.WRITE))
    np.testing.assert_array_equal(u.interior, got)


def _fold_min(u, lo):
    lo.min(u[0, 0])


class TestReductionSlots:
    def _site(self):
        block = ops.Block(2, "red")
        u = ops.Dat(block, (4, 4), initial=np.arange(16.0).reshape(4, 4) + 3.0, name="u")
        return u, ops.loop(_fold_min, block, [(0, 4), (0, 4)], u(ops.READ), ops.Reduction("min"))

    @pytest.mark.parametrize("lazy", [False, True])
    def test_fresh_handles_are_bound_per_call(self, lazy):
        u, site = self._site()
        got = []
        with swap(lazy=lazy):
            for shift in (0.0, -5.0, 2.0):
                u.interior[...] += shift
                lo = ops.Reduction("min", name="lo")
                site(lo)
                got.append(lo.value)
        assert got == [3.0, -2.0, 0.0]
        bound = site.args[1]
        assert bound.value == np.inf  # the handle bound at loop(...) never folds

    def test_slot_count_and_kind_are_checked(self):
        _, site = self._site()
        with pytest.raises(APIError, match="reduction slots"):
            site(ops.Reduction("min"), ops.Reduction("min"))
        with pytest.raises(APIError, match="'min' Reduction"):
            site(ops.Reduction("max"))


class TestValidatedAtBinding:
    def test_op2_invalid_argument_raises_at_loop(self):
        cells = op2.Set(4, "cells")
        nodes = op2.Set(5, "nodes")
        d = op2.Dat(nodes, 1, np.zeros(5), name="d")
        with pytest.raises(APIError):
            op2.loop(op2.Kernel(_double_op2, "double"), cells, d(op2.RW))
        with pytest.raises(APIError):
            op2.loop(op2.Kernel(_double_op2, "double"), cells, "not an arg")
        with pytest.raises(APIError, match="unknown backend|available"):
            op2.loop(op2.Kernel(_double_op2, "double"), nodes, d(op2.RW), backend="omp")

    def test_ops_invalid_argument_raises_at_loop(self):
        block = ops.Block(2, "b")
        other = ops.Block(2, "o")
        d = ops.Dat(other, (4, 4), name="d")
        with pytest.raises(APIError):
            ops.loop(_double_ops, block, [(0, 4), (0, 4)], d(ops.RW))
        with pytest.raises(APIError):
            ops.loop(_double_ops, other, [(0, 4)], d(ops.RW))
        with pytest.raises(APIError, match="unknown backend|available"):
            ops.loop(_double_ops, other, [(0, 4), (0, 4)], d(ops.RW), backend="tiled")


class TestDtRebinding:
    def test_dt_sites_rebind_only_when_dt_moves(self):
        app = CloverLeafApp(nx=8, ny=8)
        with swap(lazy=False):
            app.step()
            sites = dict(app._sites)
            app.dt = app.dt  # unchanged: nothing rebinds
            app.step()  # dt stays at DT_MAX on this mesh
            assert all(app._sites[k] is v for k, v in sites.items())
            app.dt = app.dt * 0.5
            assert not set(DT_SITES) & set(app._sites)
            c = PerfCounters()
            with counters_scope(c):
                app.lagrangian()
                app.advection()
        rebound = {k for k in DT_SITES if app._sites[k] is not sites[k]}
        assert rebound == set(DT_SITES)
        assert c.plan_misses == len(DT_SITES)
