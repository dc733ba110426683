"""OP2 data model: sets, maps, dats, globals, consts, args."""

import numpy as np
import pytest

from repro import op2
from repro.common.errors import APIError


class TestSet:
    def test_sizes(self):
        s = op2.Set(10, halo_exec=2, halo_nonexec=3)
        assert len(s) == 10
        assert s.exec_size == 12
        assert s.total_size == 15

    def test_negative_rejected(self):
        with pytest.raises(APIError):
            op2.Set(-1)

    def test_auto_name(self):
        assert op2.Set(1).name.startswith("set_")


class TestMap:
    def test_shape_validation(self):
        a, b = op2.Set(3), op2.Set(5)
        with pytest.raises(APIError):
            op2.Map(a, b, 2, [[0, 1]])  # too few rows

    def test_range_validation(self):
        a, b = op2.Set(2), op2.Set(3)
        with pytest.raises(APIError):
            op2.Map(a, b, 1, [[0], [7]])

    def test_flat_values_reshaped(self):
        a, b = op2.Set(2), op2.Set(4)
        m = op2.Map(a, b, 2, [0, 1, 2, 3])
        assert m.values.shape == (2, 2)

    def test_column(self):
        a, b = op2.Set(2), op2.Set(4)
        m = op2.Map(a, b, 2, [[0, 1], [2, 3]])
        np.testing.assert_array_equal(m.column(1), [1, 3])

    def test_adjacency_pairs(self):
        a, b = op2.Set(2), op2.Set(4)
        m = op2.Map(a, b, 2, [[0, 1], [2, 3]])
        pairs = m.adjacency_pairs()
        assert pairs.shape == (4, 2)
        assert pairs[0].tolist() == [0, 0]

    def test_values_are_read_only(self):
        a, b = op2.Set(2), op2.Set(4)
        m = op2.Map(a, b, 2, [[0, 1], [2, 3]])
        with pytest.raises(ValueError):
            m.values[0, 0] = 3
        with pytest.raises(ValueError):
            m.column(1)[:] = 0
        np.testing.assert_array_equal(m.values, [[0, 1], [2, 3]])

    def test_rebind_validates_bounds_and_shape(self):
        a, b = op2.Set(2), op2.Set(4)
        m = op2.Map(a, b, 2, [[0, 1], [2, 3]])
        with pytest.raises(APIError):
            m.values = [[0, 1], [2, 4]]
        with pytest.raises(APIError):
            m.values = [[0, 1]]
        np.testing.assert_array_equal(m.values, [[0, 1], [2, 3]])  # unchanged
        m.values = [[3, 2], [1, 0]]
        assert m.values.flags["C_CONTIGUOUS"] and not m.values.flags.writeable

    def test_caller_array_stays_writable_and_unaliased(self):
        a, b = op2.Set(2), op2.Set(4)
        arr = np.array([[0, 1], [2, 3]], dtype=np.int64)
        m = op2.Map(a, b, 2, arr)
        assert arr.flags.writeable
        assert not np.shares_memory(arr, m.values)
        arr[0, 0] = 3
        assert m.values[0, 0] == 0


class TestDat:
    def test_allocation_zeroed(self):
        s = op2.Set(3)
        d = op2.Dat(s, 2)
        assert d.data.shape == (3, 2)
        assert not d.data.any()

    def test_1d_data_reshaped(self):
        s = op2.Set(3)
        d = op2.Dat(s, 1, [1.0, 2.0, 3.0])
        assert d.data.shape == (3, 1)

    def test_wrong_shape_rejected(self):
        s = op2.Set(3)
        with pytest.raises(APIError):
            op2.Dat(s, 2, np.zeros((4, 2)))

    def test_data_copied_in(self):
        s = op2.Set(2)
        src = np.ones((2, 1))
        d = op2.Dat(s, 1, src)
        src[:] = 5
        assert d.data[0, 0] == 1.0

    def test_halo_allocation(self):
        s = op2.Set(3, halo_nonexec=2)
        assert op2.Dat(s, 1).data.shape == (5, 1)

    def test_norm_only_over_owned(self):
        s = op2.Set(2, halo_nonexec=1)
        d = op2.Dat(s, 1, [3.0, 4.0, 100.0])
        assert d.norm() == pytest.approx(5.0)

    def test_duplicate_is_deep(self):
        s = op2.Set(2)
        d = op2.Dat(s, 1, [1.0, 2.0])
        d2 = d.duplicate()
        d2.data[:] = 9
        assert d.data[0, 0] == 1.0


class TestGlobal:
    def test_scalar_value(self):
        g = op2.Global(1, 4.5)
        assert g.value == 4.5

    def test_vector_global(self):
        g = op2.Global(3, [1.0, 2.0, 3.0])
        assert g.data.shape == (3,)

    def test_value_requires_dim1(self):
        with pytest.raises(APIError):
            _ = op2.Global(2, [1.0, 2.0]).value

    def test_rw_access_rejected(self):
        g = op2.Global(1, 0.0)
        with pytest.raises(APIError):
            g(op2.RW)


class TestConst:
    def test_readonly(self):
        c = op2.Const(1, 1.4, name="gam")
        with pytest.raises(ValueError):
            c.data[0] = 2.0

    def test_value(self):
        assert op2.Const(1, 1.4).value == 1.4


class TestArgs:
    def _mesh(self):
        nodes, edges = op2.Set(4), op2.Set(3)
        m = op2.Map(edges, nodes, 2, [[0, 1], [1, 2], [2, 3]])
        x = op2.Dat(nodes, 1)
        return nodes, edges, m, x

    def test_direct_arg(self):
        nodes, edges, m, x = self._mesh()
        arg = x(op2.READ)
        assert arg.is_direct and not arg.is_indirect

    def test_indirect_arg(self):
        nodes, edges, m, x = self._mesh()
        arg = x(op2.READ, m, 0)
        assert arg.is_indirect

    def test_indirect_needs_index(self):
        nodes, edges, m, x = self._mesh()
        with pytest.raises(APIError):
            x(op2.READ, m)

    def test_index_out_of_arity(self):
        nodes, edges, m, x = self._mesh()
        with pytest.raises(APIError):
            x(op2.READ, m, 2)

    def test_map_target_must_match_dat_set(self):
        nodes, edges, m, x = self._mesh()
        wrong = op2.Dat(edges, 1)
        with pytest.raises(APIError):
            wrong(op2.READ, m, 0)

    def test_creates_race_only_for_indirect_writes(self):
        nodes, edges, m, x = self._mesh()
        assert x(op2.INC, m, 0).creates_race
        assert not x(op2.READ, m, 0).creates_race
        assert not x(op2.INC).creates_race

    def test_validate_against_iterset(self):
        nodes, edges, m, x = self._mesh()
        arg = x(op2.READ, m, 0)
        arg.validate_against(edges)  # fine
        with pytest.raises(APIError):
            arg.validate_against(nodes)

    def test_direct_arg_wrong_set(self):
        nodes, edges, m, x = self._mesh()
        with pytest.raises(APIError):
            x(op2.READ).validate_against(edges)

    def test_describe(self):
        nodes, edges, m, x = self._mesh()
        assert "(R)" in x(op2.READ, m, 0).describe()
