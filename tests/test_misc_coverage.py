"""Smaller behaviours not covered elsewhere."""

import time

import numpy as np
import pytest

from repro import op2, ops
from repro.common.counters import LoopRecord, PerfCounters, Timer
from repro.simmpi import run_spmd


class TestTimer:
    def test_accumulates_wall_time(self):
        rec = LoopRecord("k")
        with Timer(rec):
            time.sleep(0.01)
        with Timer(rec):
            time.sleep(0.01)
        assert rec.wall_seconds >= 0.02


class TestKernelVecSource:
    def test_source_available_after_first_use(self):
        def k(a, b):
            b[0] = a[0] + 1.0

        kern = op2.Kernel(k, "k_src_test")
        assert kern.vec_source is not None
        assert "k_src_test_vec" in kern.vec_source

    def test_hand_given_vec_func_has_no_source(self):
        def k(a, b):
            b[0] = a[0]

        def kv(a, b):
            b[:, 0] = a[:, 0]

        kern = op2.Kernel(k, "k_hand", vec_func=kv)
        assert kern.vec_func is kv
        assert kern.vec_source is None

    def test_repr(self):
        def k(a):
            a[0] = 0.0

        assert "flops=7" in repr(op2.Kernel(k, "k", flops_per_elem=7))


class TestSimmpiProbe:
    def test_probe_sees_pending_message(self):
        def main(comm):
            if comm.rank == 0:
                comm.send("hi", 1, tag=9)
                comm.barrier()
                return None
            comm.barrier()
            seen = comm.probe(source=0, tag=9)
            missing = comm.probe(source=0, tag=10)
            comm.recv(0, 9)
            return seen, missing

        assert run_spmd(2, main)[1] == (True, False)


class TestMeshIOWithAirfoil:
    def test_airfoil_mesh_roundtrip_runs(self, tmp_path):
        """A mesh written to the npz store reloads into a runnable app."""
        from repro.apps.airfoil import AirfoilApp, generate_mesh
        from repro.op2.io import read_mesh, write_mesh

        m = generate_mesh(6, 5)
        write_mesh(
            tmp_path / "mesh.npz",
            {"nodes": m.nodes, "edges": m.edges, "bedges": m.bedges, "cells": m.cells},
            {"edge2node": m.edge2node, "edge2cell": m.edge2cell,
             "bedge2node": m.bedge2node, "bedge2cell": m.bedge2cell,
             "cell2node": m.cell2node},
            {"x": m.x, "q": m.q, "bound": m.bound},
        )
        sets, maps, dats = read_mesh(tmp_path / "mesh.npz")
        assert sets["cells"].size == 30
        np.testing.assert_array_equal(maps["cell2node"].values, m.cell2node.values)
        np.testing.assert_allclose(dats["q"].data, m.q.data)


class TestDatRepr:
    def test_reprs_are_informative(self):
        s = op2.Set(3, "cells")
        d = op2.Dat(s, 4, name="q")
        m = op2.Map(s, s, 1, [[0], [1], [2]], "self_map")
        assert "cells" in repr(s)
        assert "q" in repr(d) and "dim=4" in repr(d)
        assert "self_map" in repr(m)
        g = op2.Global(1, 2.0, name="rms")
        assert "rms" in repr(g)
        blk = ops.Block(2, "grid")
        od = ops.Dat(blk, (2, 2), name="u")
        assert "grid" in repr(blk)
        assert "u" in repr(od)
        assert "S2D_5PT" in repr(ops.S2D_5PT)
        red = ops.Reduction("min", name="dt")
        assert "min" in repr(red)


class TestLoopChainRecordIsolation:
    def test_nested_records_both_capture(self):
        from repro.common.profiling import loop_chain_record

        s = op2.Set(3)
        d = op2.Dat(s, 1)

        def k(a):
            a[0] = 1.0

        K = op2.Kernel(k, "kk")
        with loop_chain_record() as outer:
            op2.par_loop(K, s, d(op2.WRITE))
            with loop_chain_record() as inner:
                op2.par_loop(K, s, d(op2.WRITE))
        assert len(outer) == 2
        assert len(inner) == 1
