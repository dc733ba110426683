"""Hydra proxy: parity, distributed execution, optimisation invariance."""

import numpy as np
import pytest

from repro.apps.hydra import HydraApp, HydraReference, generate_hydra_mesh
from repro.common.counters import PerfCounters
from repro.common.profiling import counters_scope, loop_chain_record
from repro.simmpi import run_spmd


class TestMesh:
    def test_two_levels(self):
        m = generate_hydra_mesh(8, 6)
        assert m.fine.cells.size == 48
        assert m.coarse_cells.size == 12

    def test_fine2coarse_covers_coarse(self):
        m = generate_hydra_mesh(8, 6)
        assert set(m.fine2coarse.values[:, 0]) == set(range(12))
        counts = np.bincount(m.fine2coarse.values[:, 0])
        assert (counts == 4).all()

    def test_odd_sizes_rejected(self):
        with pytest.raises(ValueError):
            generate_hydra_mesh(7, 6)

    def test_initial_state_physical(self):
        m = generate_hydra_mesh(8, 6)
        assert (m.q.data[:, 0] > 0).all()  # density
        assert (m.q.data[:, 5] > 0).all()  # omega


class TestParity:
    def test_reference_matches_op2(self):
        m = generate_hydra_mesh(10, 8, jitter=0.1)
        app = HydraApp(m)
        ref = HydraReference(m)
        r1 = app.run(3)
        r2 = ref.run(3)
        assert r1 == pytest.approx(r2, rel=1e-13)
        np.testing.assert_allclose(m.q.data, ref.q, rtol=1e-12, atol=1e-14)

    def test_state_stays_finite(self):
        m = generate_hydra_mesh(10, 8, jitter=0.1)
        HydraApp(m).run(10)
        assert np.isfinite(m.q.data).all()
        assert (m.q.data[:, 0] > 0).all()


class TestLoopProfile:
    def test_hydra_has_more_loops_than_airfoil(self):
        """The paper's Hydra characterisation: a larger, loop-heavier app."""
        from repro.apps.airfoil import AirfoilApp

        with loop_chain_record() as hydra_events:
            HydraApp(generate_hydra_mesh(6, 4)).iteration()
        with loop_chain_record() as airfoil_events:
            AirfoilApp(nx=6, ny=4).iteration()
        assert len(hydra_events) > 2 * len(airfoil_events)
        assert len({e.name for e in hydra_events}) > len({e.name for e in airfoil_events})

    def test_hydra_moves_more_bytes_per_cell(self):
        """Paper: Hydra 'moves many times more data per grid point'."""
        from repro.apps.airfoil import AirfoilApp

        ch, ca = PerfCounters(), PerfCounters()
        mh = generate_hydra_mesh(8, 6)
        with counters_scope(ch):
            HydraApp(mh).iteration()
        aa = AirfoilApp(nx=8, ny=6)
        with counters_scope(ca):
            aa.iteration()
        bytes_per_cell_h = sum(r.bytes_moved for r in ch.loops.values()) / mh.fine.cells.size
        bytes_per_cell_a = sum(r.bytes_moved for r in ca.loops.values()) / aa.mesh.cells.size
        assert bytes_per_cell_h > 2 * bytes_per_cell_a


class TestDistributed:
    @pytest.mark.parametrize("nranks", [2, 4])
    def test_matches_serial(self, nranks):
        ms = generate_hydra_mesh(8, 6, jitter=0.1)
        serial = HydraApp(ms)
        rms_s = serial.run(2)

        mp = generate_hydra_mesh(8, 6, jitter=0.1)
        app = HydraApp(mp)
        pm = app.build_partitioned(nranks, "rcb")

        def main(comm):
            r = app.run_distributed(comm, pm, 2)
            return r, pm.local(comm.rank).gather_dat(comm, mp.q)

        r_d, q_d = run_spmd(nranks, main)[0]
        assert r_d == pytest.approx(rms_s, rel=1e-12)
        np.testing.assert_allclose(q_d, ms.q.data, atol=1e-12)


class TestOptimisations:
    def test_renumbering_preserves_results(self):
        a = HydraApp(generate_hydra_mesh(8, 6, jitter=0.1))
        r1 = a.run(2)
        b = HydraApp(generate_hydra_mesh(8, 6, jitter=0.1))
        b.renumber()
        r2 = b.run(2)
        assert r1 == pytest.approx(r2, rel=1e-12)

    def test_renumbering_improves_edge_locality(self):
        from repro.op2.renumber import locality_score

        # jittered generation order is already fairly local; scramble it
        m = generate_hydra_mesh(12, 8)
        rng = np.random.default_rng(0)
        perm = rng.permutation(m.fine.cells.size)
        m.permute_cells(perm)

        before = locality_score(m.fine.edge2cell)
        app = HydraApp(m)
        app.renumber()
        assert locality_score(m.fine.edge2cell) < before
