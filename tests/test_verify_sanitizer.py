"""Access-descriptor sanitizer: mis-declared kernels must be caught.

Each test builds a deliberately wrong kernel — a READ argument that is
written, a WRITE that reads its old value, an INC that overwrites instead
of incrementing, writes outside the declared footprint or stencil — and
asserts the sanitizer raises a :class:`DescriptorViolation` naming the
loop and the offending argument.  The real proxy apps must run clean.
"""

import numpy as np
import pytest

from repro import op2, ops
from repro.common.config import get_config
from repro.common.counters import PerfCounters
from repro.common.errors import DescriptorViolation, StencilMismatchError
from repro.common.profiling import counters_scope
from repro.verify import sanitized


def make_sets(n=12, m=8):
    rng = np.random.default_rng(7)
    elems = op2.Set(n, "elems")
    nodes = op2.Set(m, "nodes")
    e2n = op2.Map(elems, nodes, 2, rng.integers(0, m, size=(n, 2)), name="e2n")
    src = op2.Dat(elems, 1, data=rng.random((n, 1)) + 1.0, name="src")
    dst = op2.Dat(elems, 1, data=np.zeros((n, 1)), name="dst")
    acc = op2.Dat(nodes, 1, data=rng.random((m, 1)), name="acc")
    return elems, nodes, e2n, src, dst, acc


class TestOp2Violations:
    def test_read_arg_written_seq(self):
        elems, nodes, e2n, src, dst, acc = make_sets()

        def bad(s, d):
            s[0] = 99.0  # writes its READ argument

        k = op2.Kernel(bad, name="writes_read_arg")
        with sanitized():
            with pytest.raises(DescriptorViolation) as exc:
                op2.par_loop(k, elems, src(op2.READ), dst(op2.WRITE), backend="seq")
        assert exc.value.loop == "writes_read_arg"
        assert exc.value.arg_index == 0
        assert exc.value.kind == "read-arg-written"

    def test_read_arg_written_vec(self):
        elems, nodes, e2n, src, dst, acc = make_sets()
        k = op2.Kernel(
            lambda s, d: None,
            name="vec_writes_read",
            vec_func=lambda s, d: (s.__setitem__(slice(None), 0.0),
                                   d.__setitem__(slice(None), 1.0)),
        )
        with sanitized():
            with pytest.raises(DescriptorViolation) as exc:
                op2.par_loop(k, elems, src(op2.READ), dst(op2.WRITE), backend="vec")
        assert exc.value.kind == "read-arg-written"
        assert "writes_read" in str(exc.value) or exc.value.loop == "vec_writes_read"

    def test_write_reads_old_value(self):
        elems, nodes, e2n, src, dst, acc = make_sets()
        dst.data[:] = 7.0

        def bad(s, d):
            d[0] = s[0] + d[0]  # declared WRITE, but reads the old value

        k = op2.Kernel(bad, name="impure_write",
                       vec_func=lambda s, d: np.copyto(d, s + d))
        with sanitized():
            with pytest.raises(DescriptorViolation) as exc:
                op2.par_loop(k, elems, src(op2.READ), dst(op2.WRITE), backend="vec")
        assert exc.value.loop == "impure_write"
        assert exc.value.arg_index == 1
        assert exc.value.kind == "write-reads-old-value"

    def test_partial_write_of_declared_footprint(self):
        elems, nodes, e2n, src, dst, acc = make_sets()

        def bad(s, d):
            pass  # declared WRITE but never writes

        def bad_vec(s, d):
            pass

        k = op2.Kernel(bad, name="unwritten_write", vec_func=bad_vec)
        with sanitized():
            with pytest.raises(DescriptorViolation) as exc:
                op2.par_loop(k, elems, src(op2.READ), dst(op2.WRITE), backend="vec")
        assert exc.value.kind == "write-reads-old-value"
        assert exc.value.arg_index == 1

    def test_inc_that_overwrites(self):
        elems, nodes, e2n, src, dst, acc = make_sets()

        def bad(s, d):
            d[0] = s[0]  # declared INC, assigns instead of incrementing

        k = op2.Kernel(bad, name="assigning_inc")
        with sanitized():
            with pytest.raises(DescriptorViolation) as exc:
                op2.par_loop(k, elems, src(op2.READ), dst(op2.INC), backend="seq")
        assert exc.value.loop == "assigning_inc"
        assert exc.value.arg_index == 1
        assert exc.value.kind == "inc-not-increment"

    def test_inc_global_that_depends_on_value(self):
        elems, nodes, e2n, src, dst, acc = make_sets()
        g = op2.Global(1, 1.0, name="total")

        def bad(s, gv):
            gv[0] = s[0]  # overwrites the running reduction

        k = op2.Kernel(bad, name="assigning_global")
        with sanitized():
            with pytest.raises(DescriptorViolation) as exc:
                op2.par_loop(k, elems, src(op2.READ), g(op2.INC), backend="seq")
        assert exc.value.kind == "inc-not-increment"
        assert exc.value.arg_index == 1

    def test_write_outside_declared_map_column(self):
        # a map whose slot-0 column never targets the last node: a kernel
        # that writes that node anyway escapes its declared footprint
        n, m = 12, 8
        elems = op2.Set(n, "elems")
        nodes = op2.Set(m, "nodes")
        vals = np.stack([np.arange(n) % (m - 1), np.arange(n) % m], axis=1)
        e2n = op2.Map(elems, nodes, 2, vals, name="e2n")
        src = op2.Dat(elems, 1, data=np.ones((n, 1)), name="src")
        acc = op2.Dat(nodes, 1, data=np.zeros((m, 1)), name="acc")
        outside_row = m - 1

        def bad(s, a):
            a[0] += s[0]
            acc.data[outside_row, 0] += 1.0  # bypasses the declared slot

        k = op2.Kernel(bad, name="escapes_footprint")
        with sanitized(shadow=False):
            with pytest.raises(DescriptorViolation) as exc:
                op2.par_loop(k, elems, src(op2.READ), acc(op2.INC, e2n, 0),
                             backend="seq")
        assert exc.value.loop == "escapes_footprint"
        assert exc.value.kind == "write-outside-footprint"
        assert outside_row in exc.value.indices

    def test_clean_indirect_inc_passes(self):
        elems, nodes, e2n, src, dst, acc = make_sets()

        def good(s, a0, a1):
            a0[0] += s[0]
            a1[0] -= s[0]

        def good_vec(s, a0, a1):
            a0[:] += s
            a1[:] -= s

        k = op2.Kernel(good, name="good_flux", vec_func=good_vec)
        for backend in ("seq", "vec"):
            with sanitized():
                op2.par_loop(k, elems, src(op2.READ),
                             acc(op2.INC, e2n, 0), acc(op2.INC, e2n, 1),
                             backend=backend)

    def test_counters_record_sanitized_loops(self):
        elems, nodes, e2n, src, dst, acc = make_sets()
        # np.copyto works on both the seq scalar views and the vec arrays;
        # the scalar func must be real — the shadow pair executes it on seq
        k = op2.Kernel(lambda s, d: np.copyto(d, s), name="copy",
                       vec_func=lambda s, d: np.copyto(d, s))
        counters = PerfCounters()
        with counters_scope(counters), sanitized():
            op2.par_loop(k, elems, src(op2.READ), dst(op2.WRITE), backend="vec")
        assert counters.loops_sanitized == 1
        assert counters.shadow_runs == 2

    def test_off_by_default(self):
        assert get_config().verify_descriptors is False
        elems, nodes, e2n, src, dst, acc = make_sets()

        def bad(s, d):
            d[0] = s[0] + d[0]

        k = op2.Kernel(bad, name="unchecked",
                       vec_func=lambda s, d: np.copyto(d, s + d))
        op2.par_loop(k, elems, src(op2.READ), dst(op2.WRITE), backend="vec")


def make_block(n=6, m=5):
    block = ops.Block(2, "b")
    u = ops.Dat(block, (n, m), halo_depth=1, name="u")
    v = ops.Dat(block, (n, m), halo_depth=1, name="v")
    u.interior[...] = np.arange(n * m, dtype=float).reshape(n, m)
    return block, u, v, [(0, n), (0, m)]


class TestOpsViolations:
    def test_access_outside_declared_stencil(self):
        block, u, v, r = make_block()

        def bad(uv, vv):
            vv[0, 0] = uv[1, 0]  # S2D_00 declares only the centre point

        with sanitized():
            with pytest.raises(DescriptorViolation) as exc:
                ops.par_loop(bad, block, [(0, 5), (0, 5)],
                             u(ops.READ, ops.S2D_00), v(ops.WRITE),
                             name="off_stencil")
        assert exc.value.loop == "off_stencil"
        assert exc.value.arg_index == 0
        assert exc.value.kind == "stencil"
        assert (1, 0) in exc.value.indices

    def test_read_arg_written_via_accessor(self):
        block, u, v, r = make_block()

        def bad(uv, vv):
            uv[0, 0] = 3.0

        with sanitized():
            with pytest.raises(DescriptorViolation) as exc:
                ops.par_loop(bad, block, r, u(ops.READ, ops.S2D_00),
                             v(ops.WRITE), name="ops_writes_read")
        assert exc.value.kind == "read-arg-written"
        assert exc.value.arg_index == 0

    def test_read_arg_written_bypassing_accessor(self):
        block, u, v, r = make_block()

        def bad(uv, vv):
            vv[0, 0] = uv[0, 0]
            u.interior[0, 0] += 1.0  # sneaks past the accessor

        with sanitized():
            with pytest.raises(DescriptorViolation) as exc:
                ops.par_loop(bad, block, r, u(ops.READ, ops.S2D_00),
                             v(ops.WRITE), name="ops_sneaky_write")
        assert exc.value.loop == "ops_sneaky_write"
        assert exc.value.kind == "read-arg-written"

    def test_read_only_views_under_guard(self):
        block, u, v, r = make_block()

        def bad(uv, vv):
            view = uv[0, 0]
            view += 1.0  # in-place on the returned array view

        with sanitized():
            with pytest.raises(ValueError, match="read-only"):
                ops.par_loop(bad, block, r, u(ops.READ, ops.S2D_00),
                             v(ops.WRITE), name="ops_inplace", backend="vec")

    def test_write_outside_iteration_range(self):
        block, u, v, r = make_block()

        def bad(uv, vv):
            vv[0, 0] = uv[0, 0]
            v.data[0, 0] = 42.0  # halo corner, outside the loop's range

        with sanitized():
            with pytest.raises(DescriptorViolation) as exc:
                ops.par_loop(bad, block, r, u(ops.READ, ops.S2D_00),
                             v(ops.WRITE), name="ops_escape")
        assert exc.value.kind == "write-outside-footprint"

    def test_clean_stencil_loop_passes(self):
        block, u, v, r = make_block()

        def good(uv, vv):
            vv[0, 0] = 0.25 * (uv[1, 0] + uv[-1, 0] + uv[0, 1] + uv[0, -1])

        inner = [(1, 5), (1, 4)]
        for backend in ("seq", "vec"):
            with sanitized():
                ops.par_loop(good, block, inner, u(ops.READ, ops.S2D_5PT),
                             v(ops.WRITE), name="good_stencil", backend=backend)

    def test_plain_check_still_raises_stencil_error(self):
        # outside the sanitizer, check=True keeps its original exception type
        block, u, v, r = make_block()

        def bad(uv, vv):
            vv[0, 0] = uv[1, 0]

        with pytest.raises(StencilMismatchError):
            ops.par_loop(bad, block, [(0, 5), (0, 5)],
                         u(ops.READ, ops.S2D_00), v(ops.WRITE),
                         name="plain_check", check=True)


class TestAppsRunClean:
    def test_airfoil_clean_all_backends(self):
        from repro.apps.airfoil.app import AirfoilApp

        for backend in ("seq", "vec"):
            app = AirfoilApp(nx=5, ny=4, jitter=0.1, backend=backend)
            with sanitized():
                rms = app.run(1)
            assert np.isfinite(rms)

    def test_cloverleaf_clean(self):
        from repro.apps.cloverleaf import CloverLeafApp

        app = CloverLeafApp(nx=8, ny=8)
        with sanitized():
            summary = app.run(1)
        assert np.isfinite(summary["ke"])

    def test_multiblock_clean(self):
        from repro.apps.multiblock.app import MultiBlockDiffusion

        mb = MultiBlockDiffusion(6, 6)
        mb.uL.interior[...] = 1.0
        with sanitized():
            mb.run(2)
        assert np.isfinite(mb.total())

    def test_sanitized_run_matches_plain_run(self):
        from repro.apps.airfoil.app import AirfoilApp
        from repro.apps.airfoil.mesh import generate_mesh

        plain = AirfoilApp(generate_mesh(5, 4, jitter=0.1))
        r1 = plain.run(2)
        checked = AirfoilApp(generate_mesh(5, 4, jitter=0.1))
        with sanitized():
            r2 = checked.run(2)
        assert r1 == r2
        np.testing.assert_array_equal(plain.mesh.q.data, checked.mesh.q.data)
