"""Executing OP2 loops over SoA-stored dats (the runtime side of Fig 7)."""

import numpy as np
import pytest

from repro import op2
from repro.apps.airfoil import AirfoilApp, generate_mesh


def k_axpy(a, out):
    out[0] = 2.0 * a[0] + a[1]
    out[1] = a[0] - a[1]


K = op2.Kernel(k_axpy, "k_axpy")


class TestLayoutMechanics:
    def test_logical_view_preserved(self):
        s = op2.Set(4)
        d = op2.Dat(s, 2, np.arange(8, dtype=float))
        before = d.data.copy()
        d.convert_to_soa()
        np.testing.assert_array_equal(d.data, before)
        assert d.layout == "soa"
        # physical storage really is component-major
        assert d.data.base.shape == (2, 4)
        assert d.data.base[0, 1] == d.data[1, 0]

    def test_roundtrip(self):
        s = op2.Set(3)
        d = op2.Dat(s, 2, np.arange(6, dtype=float))
        before = d.data.copy()
        d.convert_to_soa()
        d.convert_to_aos()
        np.testing.assert_array_equal(d.data, before)
        assert d.data.flags["C_CONTIGUOUS"]

    def test_idempotent(self):
        s = op2.Set(3)
        d = op2.Dat(s, 2)
        d.convert_to_soa()
        d.convert_to_soa()
        assert d.layout == "soa"


class TestExecutionOnSoA:
    @pytest.mark.parametrize("backend", ["seq", "vec"])
    def test_direct_loop_identical(self, backend):
        s = op2.Set(10)
        vals = np.random.default_rng(0).standard_normal((10, 2))
        a1 = op2.Dat(s, 2, vals)
        o1 = op2.Dat(s, 2)
        op2.par_loop(K, s, a1(op2.READ), o1(op2.WRITE), backend=backend)

        a2 = op2.Dat(s, 2, vals)
        o2 = op2.Dat(s, 2)
        a2.convert_to_soa()
        o2.convert_to_soa()
        op2.par_loop(K, s, a2(op2.READ), o2(op2.WRITE), backend=backend)
        np.testing.assert_array_equal(o2.data, o1.data)

    def test_full_airfoil_runs_on_soa_state(self):
        """The GPU-style layout conversion is transparent to the whole app."""
        rng = np.random.default_rng(4)

        def perturbed():
            m = generate_mesh(10, 8, jitter=0.1)
            m.q.data[:, 0] *= 1.0 + 0.05 * rng.random(m.cells.size)
            return m

        rng = np.random.default_rng(4)
        m1 = perturbed()
        rng = np.random.default_rng(4)
        m2 = perturbed()
        AirfoilApp(m1).run(3)
        for dat in (m2.q, m2.qold, m2.res, m2.x):
            dat.convert_to_soa()
        AirfoilApp(m2).run(3)
        np.testing.assert_array_equal(m2.q.data, m1.q.data)
