"""Cross-backend differential harness: every backend computes the same thing.

The harness (``repro.verify.diff``) runs each proxy app once per backend,
compares final states against the ``seq`` reference — bitwise where the
loop chain is order-independent, ULP/tolerance-bounded where INC scatters
and reductions legitimately re-associate — and localises any disagreement
to the first diverging loop.
"""

import numpy as np
import pytest

from repro.apps.airfoil.app import AirfoilApp
from repro.apps.airfoil.mesh import generate_mesh
from repro.apps.cloverleaf import CloverLeafApp, clover_bm_state
from repro.apps.cloverleaf.app import DistributedCloverLeafApp
from repro.apps.hydra import HydraApp, generate_hydra_mesh
from repro.apps.multiblock.app import MultiBlockDiffusion
from repro.ops.decomp import DecomposedBlock
from repro.simmpi import run_spmd
from repro.verify import (
    BackendDivergence,
    Tolerance,
    diff_backends,
    first_divergence,
    max_ulp_diff,
    trace_scope,
)

#: INC scatters and reductions re-associate across backends; everything
#: else must agree to the last bit (atol soaks up near-zero residual sums)
REASSOC = Tolerance(ulp=64, rtol=1e-12, atol=1e-12)


class TestUlpDistance:
    def test_identical_is_zero(self):
        a = np.array([1.0, -2.5, 0.0, np.inf])
        assert max_ulp_diff(a, a.copy()) == 0.0

    def test_adjacent_floats_are_one_ulp(self):
        a = np.array([1.0, -1.0, 1e-300])
        b = np.nextafter(a, np.inf)
        assert max_ulp_diff(a, b) == 1.0

    def test_signed_zero_is_zero_ulp(self):
        assert max_ulp_diff(np.array([0.0]), np.array([-0.0])) == 0.0

    def test_crosses_zero_monotonically(self):
        # distance through zero = steps to zero from both sides
        a = np.array([np.nextafter(0.0, 1.0)])
        b = np.array([np.nextafter(0.0, -1.0)])
        assert max_ulp_diff(a, b) == 2.0

    def test_shape_mismatch_is_inf(self):
        assert max_ulp_diff(np.zeros(3), np.zeros(4)) == np.inf

    def test_nan_pattern_mismatch_is_inf(self):
        assert max_ulp_diff(np.array([np.nan]), np.array([1.0])) == np.inf

    def test_matching_nans_agree(self):
        a = np.array([np.nan, 2.0])
        assert max_ulp_diff(a, a.copy()) == 0.0


class TestTolerance:
    def test_default_is_bitwise(self):
        t = Tolerance()
        assert t.arrays_agree(np.array([1.0]), np.array([1.0]))
        assert not t.arrays_agree(np.array([1.0]), np.array([np.nextafter(1.0, 2)]))

    def test_ulp_bound(self):
        t = Tolerance(ulp=2)
        a = np.array([1.0])
        assert t.arrays_agree(a, np.nextafter(a, np.inf))
        assert not t.arrays_agree(a, np.array([1.0 + 1e-9]))

    def test_rtol_atol(self):
        t = Tolerance(rtol=1e-10)
        assert t.arrays_agree(np.array([1.0]), np.array([1.0 + 1e-12]))
        assert not t.arrays_agree(np.array([1.0]), np.array([1.001]))


class TestTraceScope:
    def test_records_loops_and_written_args(self):
        def run():
            app = AirfoilApp(nx=4, ny=3, backend="vec")
            app.run(1)

        with trace_scope() as trace:
            run()
        # one outer iteration: save_soln + RK_STEPS * (adt, res, bres, update)
        assert trace.loop_names[0] == "save_soln"
        assert trace.loop_names.count("res_calc") == AirfoilApp.RK_STEPS
        save = trace.records[0]
        assert set(save.written) == {"q_old"}
        update = trace.records[trace.loop_names.index("update")]
        assert {"q", "res", "rms"} <= set(update.written)

    def test_captures_post_loop_state(self):
        # qold is written by save_soln; the recorded copy must equal q
        with trace_scope() as trace:
            app = AirfoilApp(nx=4, ny=3, backend="vec")
            app.run(1)
        save = trace.records[0]
        np.testing.assert_array_equal(
            save.written["q_old"], app.mesh.qold.data
        )

    def test_first_divergence_localises(self):
        def run(poison: bool):
            app = AirfoilApp(nx=4, ny=3, jitter=0.1, backend="vec")
            with trace_scope() as trace:
                app.iteration()
                if poison:
                    # corrupt res mid-run: the *next* iteration's loops see it
                    app.mesh.res.data += 1e-3
                app.iteration()
            return trace

        good, bad = run(False), run(True)
        div = first_divergence(good, bad, REASSOC)
        assert div is not None
        # the poison lands between iterations: localised at the loop whose
        # post-state snapshot first includes it (update writes res last)
        assert div.loop == "update"
        assert div.arg == "res"
        assert first_divergence(good, run(False), REASSOC) is None


class TestAirfoilBackends:
    @staticmethod
    def _run(backend):
        app = AirfoilApp(generate_mesh(8, 6, jitter=0.1), backend=backend)
        app.run(2)
        m = app.mesh
        return {"q": m.q.data, "qold": m.qold.data, "res": m.res.data,
                "rms": np.asarray([app.rms.value])}

    def test_all_backends_agree_with_seq(self):
        report = diff_backends(self._run, ["seq", "vec"], tol=REASSOC)
        report.assert_agree()

    def test_injected_divergence_is_localised(self):
        def run(backend):
            app = AirfoilApp(generate_mesh(8, 6, jitter=0.1), backend="vec")
            app.run(1)
            if backend == "broken":
                # corrupt the state between outer iterations: every later
                # loop computes from the poisoned q
                app.mesh.q.data *= 1.0 + 1e-6
            app.run(1)
            m = app.mesh
            return {"q": m.q.data, "res": m.res.data}

        report = diff_backends(run, ["seq", "broken"], tol=REASSOC)
        assert not report.agree
        with pytest.raises(BackendDivergence) as exc:
            report.assert_agree()
        div = exc.value.divergence
        assert div is not None
        # the poison lands after iteration 1's last loop ('update'), so
        # that loop's post-state snapshot is the earliest diverging one
        assert div.loop == "update"
        assert div.arg == "q"
        assert "q" in report.comparisons["broken"].mismatched


class TestCloverLeafBackends:
    @staticmethod
    def _run(backend):
        app = CloverLeafApp(nx=10, ny=8, backend=backend)
        summary = app.run(2)
        st = app.st
        out = {k: np.asarray([v]) for k, v in summary.items()}
        out.update(
            density=st.density0.interior, energy=st.energy0.interior,
            xvel=st.xvel0.interior, yvel=st.yvel0.interior,
        )
        return out

    def test_backends_agree_with_seq(self):
        report = diff_backends(self._run, ["seq", "vec"], tol=REASSOC)
        report.assert_agree()


class TestMultiblockBackends:
    @staticmethod
    def _run(backend):
        initial = np.add.outer(np.arange(16.0), np.sin(np.arange(8.0)))
        mb = MultiBlockDiffusion(8, 8, initial=initial, backend=backend)
        mb.run(4)
        return {"u": mb.solution()}

    def test_backends_agree_bitwise(self):
        # pure WRITE loops: no scatter reassociation, so bitwise holds
        report = diff_backends(self._run, ["seq", "vec"])
        report.assert_agree()


class TestRankCounts:
    """Distributed runs vs serial: final state only (rank threads share the
    process-wide observer, so loop traces interleave and are not compared)."""

    def test_airfoil_rank_counts_agree(self):
        def run(label):
            mesh = generate_mesh(10, 8, jitter=0.1)
            app = AirfoilApp(mesh)
            if label == "serial":
                rms = app.run(2)
                return {"q": mesh.q.data, "rms": np.asarray([rms])}
            nranks = int(label)
            pm = app.build_partitioned(nranks, "block")

            def main(comm):
                rms = app.run_distributed(comm, pm, 2)
                return rms, pm.local(comm.rank).gather_dat(comm, mesh.q)

            rms, q = run_spmd(nranks, main)[0]
            return {"q": q, "rms": np.asarray([rms])}

        report = diff_backends(
            run, ["serial", "1", "2", "3"],
            reference="serial", tol=REASSOC, trace=False,
        )
        report.assert_agree()

    def test_hydra_rank_counts_agree(self):
        def run(label):
            mesh = generate_hydra_mesh(8, 6, jitter=0.1)
            app = HydraApp(mesh)
            if label == "serial":
                rms = app.run(2)
                return {"q": mesh.q.data, "rms": np.asarray([rms])}
            nranks = int(label)
            pm = app.build_partitioned(nranks, "rcb")

            def main(comm):
                rms = app.run_distributed(comm, pm, 2)
                return rms, pm.local(comm.rank).gather_dat(comm, mesh.q)

            rms, q = run_spmd(nranks, main)[0]
            return {"q": q, "rms": np.asarray([rms])}

        report = diff_backends(
            run, ["serial", "1", "2", "4"],
            reference="serial", tol=REASSOC, trace=False,
        )
        report.assert_agree()

    @pytest.mark.parametrize("nranks", [2, 4])
    def test_cloverleaf_rank_counts_agree(self, nranks):
        serial = CloverLeafApp(nx=12, ny=8)
        s_ser = serial.run(2)

        gstate = clover_bm_state(12, 8)
        dec = DecomposedBlock(nranks, gstate.block, gstate.all_dats,
                              global_size=(12, 8))

        def main(comm):
            app = DistributedCloverLeafApp(comm, dec, gstate)
            s = app.run(2)
            return s, app.gather_field("density0")

        s_dist, dens = run_spmd(nranks, main)[0]
        for key in s_ser:
            assert s_dist[key] == pytest.approx(s_ser[key], rel=1e-12), key
        assert REASSOC.arrays_agree(dens, serial.st.density0.interior)
