"""CloverLeaf: conservation, original-vs-OPS parity, distributed runs."""

import numpy as np
import pytest

from repro.apps.cloverleaf import CloverLeafApp, CloverLeafReference, clover_bm_state
from repro.apps.cloverleaf.app import DistributedCloverLeafApp
from repro.apps.cloverleaf.state import DT_MAX
from repro.common.counters import PerfCounters
from repro.common.profiling import counters_scope, loop_chain_record
from repro.ops.decomp import DecomposedBlock
from repro.simmpi import run_spmd


class TestSetup:
    def test_clover_bm_regions(self):
        st = clover_bm_state(16, 16)
        assert st.density0.interior[0, 0] == 1.0
        assert st.density0.interior[-1, -1] == 0.2
        assert st.energy0.interior[0, 0] == 2.5

    def test_staggered_field_sizes(self):
        st = clover_bm_state(8, 6)
        assert st.density0.size == (8, 6)
        assert st.xvel0.size == (9, 7)
        assert st.vol_flux_x.size == (9, 6)
        assert st.vol_flux_y.size == (8, 7)


class TestConservation:
    def test_mass_exactly_conserved(self):
        app = CloverLeafApp(nx=24, ny=24)
        before = app.field_summary()["mass"]
        app.run(15)
        after = app.field_summary()["mass"]
        assert after == pytest.approx(before, rel=1e-12)

    def test_volume_constant(self):
        app = CloverLeafApp(nx=16, ny=16)
        s = app.run(5)
        assert s["volume"] == pytest.approx(100.0)

    def test_energy_flows_from_source_region(self):
        app = CloverLeafApp(nx=24, ny=24)
        app.run(20)
        # the shock expands: kinetic energy appears
        s = app.field_summary()
        assert s["ke"] > 0.0
        assert np.isfinite(list(s.values())).all()

    def test_dt_obeys_cap(self):
        app = CloverLeafApp(nx=16, ny=16)
        for _ in range(5):
            assert app.step() <= DT_MAX

    def test_density_stays_positive(self):
        app = CloverLeafApp(nx=24, ny=24)
        app.run(20)
        assert (app.st.density0.interior > 0).all()


class TestOriginalParity:
    """Paper Fig 5 methodology: OPS vs hand-coded original."""

    def test_bitwise_parity(self):
        app = CloverLeafApp(nx=24, ny=20)
        ref = CloverLeafReference(24, 20)
        sa = app.run(8)
        sr = ref.run(8)
        for key in sa:
            if key == "volume":
                # OPS sums per-cell volumes; the reference multiplies once
                assert sa[key] == pytest.approx(sr[key], rel=1e-12)
            else:
                assert sa[key] == sr[key], key
        np.testing.assert_array_equal(
            app.st.density0.interior, ref._int(ref.density0, (24, 20))
        )
        np.testing.assert_array_equal(
            app.st.xvel0.interior, ref._int(ref.xvel0, (25, 21))
        )

    def test_seq_backend_matches_vec(self):
        a = CloverLeafApp(nx=8, ny=8, backend="seq")
        b = CloverLeafApp(nx=8, ny=8, backend="vec")
        sa = a.run(2)
        sb = b.run(2)
        for key in sa:
            assert sa[key] == pytest.approx(sb[key], rel=1e-13), key


class TestLoopChain:
    def test_kernel_families_present(self):
        """All the original's kernel families appear in one step."""
        app = CloverLeafApp(nx=8, ny=8)
        with loop_chain_record() as events:
            app.step()
            app.field_summary()
        names = {e.name for e in events}
        for expected in (
            "ideal_gas", "viscosity", "calc_dt", "pdv_predict", "revert",
            "accelerate", "pdv_correct", "flux_calc_x", "flux_calc_y",
            "mass_ener_flux_x", "advec_cell_x", "advec_mom_node_mass",
            "advec_mom_flux_x", "advec_mom_update_x", "reset_field_cell",
            "reset_field_node", "field_summary",
        ):
            assert expected in names, expected

    def test_traffic_recorded_per_kernel(self):
        c = PerfCounters()
        app = CloverLeafApp(nx=16, ny=16)
        with counters_scope(c):
            app.step()
        assert c.loop("advec_cell_x").bytes_moved > 0
        assert c.loop("calc_dt").iterations == 16 * 16


class TestDistributed:
    @pytest.mark.parametrize("nranks", [2, 4])
    def test_matches_serial_bitwise(self, nranks):
        serial = CloverLeafApp(nx=20, ny=16)
        s_ser = serial.run(4)

        gstate = clover_bm_state(20, 16)
        dec = DecomposedBlock(nranks, gstate.block, gstate.all_dats, global_size=(20, 16))

        def main(comm):
            app = DistributedCloverLeafApp(comm, dec, gstate)
            s = app.run(4)
            return s, app.gather_field("density0")

        s_dist, dens = run_spmd(nranks, main)[0]
        for key in s_ser:
            assert s_dist[key] == pytest.approx(s_ser[key], rel=1e-13), key
        np.testing.assert_allclose(dens, serial.st.density0.interior, atol=1e-14)

    def test_dt_agrees_across_ranks(self):
        gstate = clover_bm_state(16, 16)
        dec = DecomposedBlock(4, gstate.block, gstate.all_dats, global_size=(16, 16))

        def main(comm):
            app = DistributedCloverLeafApp(comm, dec, gstate)
            return app.step()

        dts = run_spmd(4, main)
        assert len(set(dts)) == 1


class TestSymmetry:
    def test_square_blast_stays_diagonally_symmetric(self):
        """The clover_bm source is symmetric under x<->y on a square grid;
        the solution must stay so (direction-split bias cancels over the
        alternating sweeps)."""
        app = CloverLeafApp(nx=24, ny=24)
        app.run(12)  # even number: both sweep orders applied equally
        # symmetry holds to the direction-splitting error, O(dt^2) per step
        d = app.st.density0.interior
        np.testing.assert_allclose(d, d.T, atol=5e-4)
        e = app.st.energy0.interior
        np.testing.assert_allclose(e, e.T, atol=5e-3)
        # velocities swap components under the reflection
        xv = app.st.xvel0.interior
        yv = app.st.yvel0.interior
        np.testing.assert_allclose(xv, yv.T, atol=1e-3)
