"""SoA layout transform and the npz mesh store."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import op2
from repro.common.errors import APIError
from repro.op2.io import dump_dat, load_dat_values, read_mesh, write_mesh
from repro.op2.soa import aos_index, soa_index, soa_stride, to_aos, to_soa


class TestSoA:
    def test_layout(self):
        s = op2.Set(3)
        d = op2.Dat(s, 2, [[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]])
        flat = to_soa(d)
        # component 0 of all elements first, then component 1
        np.testing.assert_allclose(flat, [1, 2, 3, 10, 20, 30])

    def test_stride_is_set_size(self):
        s = op2.Set(5, halo_nonexec=2)
        assert soa_stride(op2.Dat(s, 3)) == 7

    def test_index_functions_match_layout(self):
        s = op2.Set(4)
        d = op2.Dat(s, 3, np.arange(12, dtype=float))
        flat = to_soa(d)
        stride = soa_stride(d)
        for e in range(4):
            for c in range(3):
                assert flat[soa_index(e, c, stride)] == d.data[e, c]
                assert d.data.reshape(-1)[aos_index(e, c, 3)] == d.data[e, c]

    @given(n=st.integers(1, 30), dim=st.integers(1, 6), seed=st.integers(0, 99))
    @settings(max_examples=30, deadline=None)
    def test_property_roundtrip(self, n, dim, seed):
        rng = np.random.default_rng(seed)
        data = rng.standard_normal((n, dim))
        s = op2.Set(n)
        d = op2.Dat(s, dim, data)
        np.testing.assert_array_equal(to_aos(to_soa(d), n, dim), data)

    def test_bad_flat_shape(self):
        with pytest.raises(Exception):
            to_aos(np.zeros(5), 2, 3)


class TestMeshIO:
    def test_roundtrip(self, tmp_path):
        nodes, edges = op2.Set(4, "nodes"), op2.Set(3, "edges")
        m = op2.Map(edges, nodes, 2, [[0, 1], [1, 2], [2, 3]], "e2n")
        x = op2.Dat(nodes, 1, [1.0, 2.0, 3.0, 4.0], name="x")
        path = tmp_path / "mesh.npz"
        write_mesh(path, {"nodes": nodes, "edges": edges}, {"e2n": m}, {"x": x})
        sets, maps, dats = read_mesh(path)
        assert sets["nodes"].size == 4
        assert maps["e2n"].arity == 2
        np.testing.assert_array_equal(maps["e2n"].values, m.values)
        np.testing.assert_allclose(dats["x"].data, x.data)

    def test_map_set_wiring_restored(self, tmp_path):
        nodes, edges = op2.Set(4, "nodes"), op2.Set(3, "edges")
        m = op2.Map(edges, nodes, 2, [[0, 1], [1, 2], [2, 3]], "e2n")
        path = tmp_path / "mesh.npz"
        write_mesh(path, {"nodes": nodes, "edges": edges}, {"e2n": m}, {})
        sets, maps, _ = read_mesh(path)
        assert maps["e2n"].from_set is sets["edges"]
        assert maps["e2n"].to_set is sets["nodes"]

    def test_object_array_refused(self, tmp_path):
        """Loading a mesh must never unpickle: object arrays are refused."""
        path = tmp_path / "evil.npz"
        np.savez(
            path,
            set_names=np.asarray(["nodes"], dtype=object),
            **{"set/nodes": np.asarray([4], dtype=np.int64)},
        )
        with pytest.raises(APIError, match="not a plain-array mesh file"):
            read_mesh(path)

    def test_dump_dat_owned_only(self, tmp_path):
        s = op2.Set(3, halo_nonexec=2)
        d = op2.Dat(s, 1, [1.0, 2.0, 3.0, 9.0, 9.0])
        path = tmp_path / "d.npz"
        dump_dat(path, d)
        np.testing.assert_allclose(load_dat_values(path)[:, 0], [1, 2, 3])
