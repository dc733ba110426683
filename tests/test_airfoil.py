"""Airfoil: physical invariants, original-vs-OP2 parity, distributed runs."""

import numpy as np
import pytest

from repro import op2
from repro.apps.airfoil import AirfoilApp, AirfoilReference, generate_mesh
from repro.apps.airfoil.kernels import K_BRES_CALC, K_RES_CALC
from repro.simmpi import run_spmd


def perturb(mesh, amplitude=0.05, seed=1):
    """Add a smooth density/energy bump so the flow actually evolves."""
    rng = np.random.default_rng(seed)
    mesh.q.data[:, 0] *= 1.0 + amplitude * rng.random(mesh.cells.size)
    mesh.q.data[:, 3] *= 1.0 + amplitude * rng.random(mesh.cells.size)


class TestMesh:
    def test_entity_counts(self):
        m = generate_mesh(8, 6)
        assert m.cells.size == 48
        assert m.nodes.size == 9 * 7
        assert m.edges.size == 7 * 6 + 8 * 5
        assert m.bedges.size == 2 * 8 + 2 * 6

    def test_boundary_flags(self):
        m = generate_mesh(8, 6)
        flags = m.bound.data[:, 0]
        assert (flags[:8] == 1.0).all()  # bottom wall
        assert (flags[8:] == 2.0).all()  # far field

    def test_cell_nodes_counter_clockwise(self):
        m = generate_mesh(4, 4)
        corners = m.x.data[m.cell2node.values]  # (n,4,2)
        # shoelace area positive for CCW
        x, y = corners[..., 0], corners[..., 1]
        area = 0.5 * np.sum(
            x * np.roll(y, -1, axis=1) - np.roll(x, -1, axis=1) * y, axis=1
        )
        assert (area > 0).all()

    def test_jitter_preserves_boundary(self):
        m = generate_mesh(6, 6, jitter=0.3)
        xs = m.x.data
        # boundary nodes stay on the unit square
        on_boundary = (
            np.isclose(xs[:, 0], 0) | np.isclose(xs[:, 0], 1)
            | np.isclose(xs[:, 1], 0) | np.isclose(xs[:, 1], 1)
        )
        assert on_boundary.sum() == 2 * 7 + 2 * 5


class TestInvariants:
    def test_uniform_flow_zero_residual(self):
        """Free-stream preservation: the defining consistency check."""
        m = generate_mesh(10, 8, jitter=0.2)
        op2.par_loop(
            K_RES_CALC, m.edges,
            m.x(op2.READ, m.edge2node, 0), m.x(op2.READ, m.edge2node, 1),
            m.q(op2.READ, m.edge2cell, 0), m.q(op2.READ, m.edge2cell, 1),
            m.adt(op2.READ, m.edge2cell, 0), m.adt(op2.READ, m.edge2cell, 1),
            m.res(op2.INC, m.edge2cell, 0), m.res(op2.INC, m.edge2cell, 1),
        )
        op2.par_loop(
            K_BRES_CALC, m.bedges,
            m.x(op2.READ, m.bedge2node, 0), m.x(op2.READ, m.bedge2node, 1),
            m.q(op2.READ, m.bedge2cell, 0), m.adt(op2.READ, m.bedge2cell, 0),
            m.res(op2.INC, m.bedge2cell, 0), m.bound(op2.READ),
        )
        assert np.abs(m.res.data).max() < 1e-12

    def test_rms_decreases_from_perturbation(self):
        """The dissipation damps a perturbation: residual shrinks."""
        m = generate_mesh(12, 10)
        perturb(m)
        app = AirfoilApp(m)
        app.run(1)
        first = np.sqrt(app.rms.value / m.cells.size)
        app.run(30)
        last = np.sqrt(app.rms.value / m.cells.size)
        assert last < first

    def test_state_stays_finite(self):
        m = generate_mesh(12, 10, jitter=0.1)
        perturb(m)
        AirfoilApp(m).run(20)
        assert np.isfinite(m.q.data).all()


class TestOriginalParity:
    """Paper Fig 3 methodology: Original vs DSL must agree exactly."""

    def test_bitwise_parity_over_iterations(self):
        m = generate_mesh(10, 8, jitter=0.1)
        perturb(m)
        ref = AirfoilReference(m)
        app = AirfoilApp(m)
        r_app = app.run(5)
        r_ref = ref.run(5)
        # the state evolves identically; the rms reduction may differ by one
        # ulp because the summation association differs (per-component
        # accumulation vs whole-array sum)
        np.testing.assert_array_equal(m.q.data, ref.q)
        assert r_app == pytest.approx(r_ref, rel=1e-13)

    @pytest.mark.parametrize("backend", ["seq", "vec"])
    def test_all_backends_match_reference(self, backend):
        m = generate_mesh(6, 5, jitter=0.1)
        perturb(m)
        ref = AirfoilReference(m)
        app = AirfoilApp(m, backend=backend)
        app.run(2)
        ref.run(2)
        np.testing.assert_allclose(m.q.data, ref.q, rtol=1e-12)


class TestDistributed:
    @pytest.mark.parametrize("method,nranks", [("block", 2), ("rcb", 4), ("greedy", 3)])
    def test_matches_serial(self, method, nranks):
        m_ser = generate_mesh(12, 8, jitter=0.1)
        perturb(m_ser)
        serial = AirfoilApp(m_ser)
        rms_ser = serial.run(3)

        m_par = generate_mesh(12, 8, jitter=0.1)
        perturb(m_par)
        app = AirfoilApp(m_par)
        pm = app.build_partitioned(nranks, method)

        def main(comm):
            rms = app.run_distributed(comm, pm, 3)
            return rms, pm.local(comm.rank).gather_dat(comm, m_par.q)

        out = run_spmd(nranks, main)
        rms_par, q_par = out[0]
        assert rms_par == pytest.approx(rms_ser, rel=1e-12)
        np.testing.assert_allclose(q_par, m_ser.q.data, atol=1e-12)

    def test_all_ranks_agree_on_rms(self):
        m = generate_mesh(8, 6)
        perturb(m)
        app = AirfoilApp(m)
        pm = app.build_partitioned(3, "block")
        out = run_spmd(3, lambda comm: app.run_distributed(comm, pm, 2))
        assert len(set(out)) == 1
