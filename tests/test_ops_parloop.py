"""OPS parallel loops: backend equivalence, reductions, stencil checking."""

import numpy as np
import pytest

from repro import op2, ops
from repro.common.counters import PerfCounters
from repro.common.errors import APIError, StencilMismatchError
from repro.common.profiling import add_loop_observer, counters_scope, remove_loop_observer
from repro.ops import lazy


def smooth(a, b):
    b[0, 0] = 0.25 * (a[1, 0] + a[-1, 0] + a[0, 1] + a[0, -1])


def copy_k(a, b):
    b[0, 0] = a[0, 0]


def op2_double(a):
    a[0] = 2.0 * a[0]


def setup(nx=12, ny=10):
    blk = ops.Block(2)
    u = ops.Dat(blk, (nx, ny), halo_depth=2, name="u")
    v = ops.Dat(blk, (nx, ny), halo_depth=2, name="v")
    u.interior[...] = np.arange(nx * ny, dtype=float).reshape(nx, ny)
    return blk, u, v


class TestBackendEquivalence:
    @pytest.mark.parametrize("backend", ["vec"])
    def test_matches_seq(self, backend):
        blk, u, v = setup()
        ops.par_loop(smooth, blk, [(1, 11), (1, 9)], u(ops.READ, ops.S2D_5PT),
                     v(ops.WRITE), backend="seq")
        ref = v.interior.copy()
        v.data[:] = 0
        ops.par_loop(smooth, blk, [(1, 11), (1, 9)], u(ops.READ, ops.S2D_5PT),
                     v(ops.WRITE), backend=backend)
        np.testing.assert_allclose(v.interior, ref)


class TestReductions:
    def test_inc(self):
        blk, u, v = setup()
        total = ops.Reduction("inc")

        def summing(a, t):
            t.inc(a[0, 0])

        ops.par_loop(summing, blk, [(0, 12), (0, 10)], u(ops.READ), total)
        assert total.value == pytest.approx(u.interior.sum())

    def test_min_and_seq_vec_agree(self):
        blk, u, v = setup()

        def minner(a, t):
            t.min(a[0, 0])

        for be in ("seq", "vec"):
            t = ops.Reduction("min")
            ops.par_loop(minner, blk, [(2, 7), (3, 8)], u(ops.READ), t, backend=be)
            assert t.value == u.interior[2:7, 3:8].min()

    def test_kind_mismatch_raises(self):
        r = ops.Reduction("inc")
        with pytest.raises(APIError):
            r.min(1.0)

    def test_reset(self):
        r = ops.Reduction("min")
        r.min(3.0)
        r.reset()
        assert r.value == np.inf


class TestStencilChecking:
    def test_out_of_stencil_access_detected(self):
        blk, u, v = setup()

        def bad(a, b):
            b[0, 0] = a[2, 0]

        with pytest.raises(StencilMismatchError, match="outside declared"):
            ops.par_loop(bad, blk, [(2, 4), (2, 4)], u(ops.READ, ops.S2D_5PT),
                         v(ops.WRITE), check=True)

    def test_write_with_read_access_detected(self):
        blk, u, v = setup()

        def sneaky(a, b):
            a[0, 0] = 1.0
            b[0, 0] = 0.0

        with pytest.raises(StencilMismatchError, match="writes"):
            ops.par_loop(sneaky, blk, [(0, 2), (0, 2)], u(ops.READ), v(ops.WRITE),
                         check=True)

    def test_read_of_writeonly_detected(self):
        blk, u, v = setup()

        def peek(a, b):
            b[0, 0] = b[0, 0] + a[0, 0]

        with pytest.raises(StencilMismatchError, match="write-only"):
            ops.par_loop(peek, blk, [(0, 2), (0, 2)], u(ops.READ), v(ops.WRITE),
                         check=True)

    def test_checks_in_seq_mode_too(self):
        blk, u, v = setup()

        def bad(a, b):
            b[0, 0] = a[2, 0]

        with pytest.raises(StencilMismatchError):
            ops.par_loop(bad, blk, [(2, 3), (2, 3)], u(ops.READ, ops.S2D_5PT),
                         v(ops.WRITE), backend="seq", check=True)

    def test_valid_kernel_passes_checks(self):
        blk, u, v = setup()
        ops.par_loop(smooth, blk, [(1, 11), (1, 9)], u(ops.READ, ops.S2D_5PT),
                     v(ops.WRITE), check=True)


class TestValidation:
    def test_range_count_must_match_ndim(self):
        blk, u, v = setup()
        with pytest.raises(APIError):
            ops.par_loop(copy_k, blk, [(0, 5)], u(ops.READ), v(ops.WRITE))

    def test_foreign_block_dat_rejected(self):
        blk, u, v = setup()
        other = ops.Block(2)
        w = ops.Dat(other, (12, 10))
        with pytest.raises(APIError, match="block"):
            ops.par_loop(copy_k, blk, [(0, 5), (0, 5)], u(ops.READ), w(ops.WRITE))

    def test_negative_range_rejected(self):
        blk, u, v = setup()
        with pytest.raises(APIError):
            ops.par_loop(copy_k, blk, [(5, 2), (0, 5)], u(ops.READ), v(ops.WRITE))

    def test_unknown_backend(self):
        blk, u, v = setup()
        # no "tiled": cache blocking is lazy_scope(lazy_tile=...), not a backend
        for backend in ("opencl", "tiled"):
            with pytest.raises(APIError, match="available: seq, vec$"):
                ops.par_loop(copy_k, blk, [(0, 2), (0, 2)], u(ops.READ), v(ops.WRITE),
                             backend=backend)


class TestUnknownBackendRejectedAtEntry:
    """Both ``par_loop``s reject a backend outside {seq, vec} before any side
    effect: an observer (a checkpoint manager) never records a loop that did
    not run, and loops already queued by the lazy runtime stay queued."""

    @staticmethod
    def _bad_call(api: str, backend: str):
        """The rejected call, with its data built up front (building data
        is itself a lazy observation point)."""
        if api == "ops":
            blk, u, w = setup()
            return lambda: ops.par_loop(
                copy_k, blk, [(0, 4), (0, 4)], u(ops.READ), w(ops.WRITE),
                backend=backend, name="kk",
            )
        s = op2.Set(4, "s")
        d = op2.Dat(s, 1, np.ones(4), name="d")
        k = op2.Kernel(op2_double, "kk")
        return lambda: op2.par_loop(k, s, d(op2.RW), backend=backend)

    @pytest.mark.parametrize("backend", ["openmp", "cuda"])
    @pytest.mark.parametrize("api", ["op2", "ops"])
    def test_no_event_observed(self, api, backend):
        call = self._bad_call(api, backend)
        events = []
        add_loop_observer(events.append)
        try:
            with pytest.raises(APIError, match="available: seq, vec$"):
                call()
        finally:
            remove_loop_observer(events.append)
        assert events == []

    @pytest.mark.parametrize("backend", ["openmp", "cuda"])
    @pytest.mark.parametrize("api", ["op2", "ops"])
    def test_nothing_flushed(self, api, backend):
        blk, u, v = setup()
        call = self._bad_call(api, backend)
        with lazy.lazy_scope():
            ops.par_loop(copy_k, blk, [(0, 12), (0, 10)], u(ops.READ), v(ops.WRITE))
            assert lazy.queued_loops() == 1
            with pytest.raises(APIError, match="available: seq, vec$"):
                call()
            assert lazy.queued_loops() == 1
        np.testing.assert_array_equal(v.interior, u.interior)


class TestCounters:
    def test_traffic_accounting_counts_stencil_reads(self):
        blk, u, v = setup()
        c = PerfCounters()
        with counters_scope(c):
            ops.par_loop(smooth, blk, [(1, 11), (1, 9)], u(ops.READ, ops.S2D_5PT),
                         v(ops.WRITE), flops_per_point=4)
        rec = c.loop("smooth")
        pts = 10 * 8
        assert rec.iterations == pts
        assert rec.bytes_read == pts * 8 * 5  # 5-point stencil
        assert rec.bytes_written == pts * 8
        assert rec.flops == pts * 4
