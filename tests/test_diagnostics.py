"""Diagnostics: timing reports and distributed dataset dumps."""

import numpy as np
import pytest

from repro import op2, ops
from repro.common.counters import PerfCounters
from repro.common.profiling import counters_scope
from repro.common.report import timing_report
from repro.simmpi import run_spmd


def k_scale(v, out):
    out[0] = 2.0 * v[0]


K = op2.Kernel(k_scale, "k_scale", flops_per_elem=1)


class TestTimingReport:
    def _run(self):
        c = PerfCounters()
        s = op2.Set(100)
        v = op2.Dat(s, 1, np.ones(100))
        out = op2.Dat(s, 1)
        with counters_scope(c):
            for _ in range(3):
                op2.par_loop(K, s, v(op2.READ), out(op2.WRITE))
        return c

    def test_contains_loop_row(self):
        text = timing_report(self._run())
        assert "k_scale" in text
        assert "GB/s" in text

    def test_totals_line(self):
        text = timing_report(self._run())
        assert "total" in text

    def test_top_filter(self):
        c = self._run()
        c.loop("other_loop").wall_seconds = 99.0
        text = timing_report(c, top=1)
        assert "other_loop" in text
        # the loop's *row* is filtered; a compiler-free box still names it
        # in the `declined` footer
        assert not any(ln.startswith("k_scale") for ln in text.splitlines())

    def test_comm_line_when_present(self):
        c = self._run()
        c.record_halo_exchange(4, 4096)
        text = timing_report(c)
        assert "halo exchanges" in text

    def test_airfoil_report_renders(self):
        from repro.apps.airfoil import AirfoilApp

        c = PerfCounters()
        with counters_scope(c):
            AirfoilApp(nx=8, ny=6).run(1)
        text = timing_report(c)
        for loop in ("res_calc", "update", "adt_calc"):
            assert loop in text


class TestDistributedDump:
    def test_op2_dump(self, tmp_path):
        from repro.apps.airfoil import AirfoilApp, generate_mesh
        from repro.op2.halo import dump_dat_distributed

        mesh = generate_mesh(8, 6)
        app = AirfoilApp(mesh)
        pm = app.build_partitioned(3, "block")
        path = tmp_path / "q.npz"

        def main(comm):
            rm = pm.local(comm.rank)
            app.run_distributed(comm, pm, 1)
            dump_dat_distributed(comm, rm, mesh.q, path)

        run_spmd(3, main)
        with np.load(path) as npz:
            assert npz["data"].shape == (mesh.cells.size, 4)
            # matches a serial run
            mesh2 = generate_mesh(8, 6)
            AirfoilApp(mesh2).run(1)
            np.testing.assert_allclose(npz["data"], mesh2.q.data, atol=1e-12)

    def test_ops_dump(self, tmp_path):
        from repro.ops.decomp import DecomposedBlock, dump_dat_distributed

        blk = ops.Block(2)
        u = ops.Dat(blk, (8, 8), halo_depth=1)
        u.interior[...] = np.arange(64.0).reshape(8, 8)
        dec = DecomposedBlock(4, blk, [u])
        path = tmp_path / "u.npz"

        def main(comm):
            dump_dat_distributed(comm, dec.local(comm.rank), u, path)

        run_spmd(4, main)
        with np.load(path) as npz:
            np.testing.assert_array_equal(npz["data"], u.interior)
