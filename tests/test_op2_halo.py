"""Distributed OP2: partitioned meshes, halo exchanges, reductions."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import op2
from repro.common.errors import APIError
from repro.common.profiling import add_loop_observer, remove_loop_observer
from repro.op2.halo import RankMesh, build_partitioned_mesh
from repro.op2.partition import partition_set
from repro.simmpi import World, run_spmd


def k_edge_inc(a, b, xa, xb):
    a[0] += xb[0]
    b[0] += xa[0]


def k_sq(v, g):
    g[0] += v[0] * v[0]


K_EDGE_INC = op2.Kernel(k_edge_inc, "k_edge_inc")
K_SQ = op2.Kernel(k_sq, "k_sq")


def chain_mesh(n):
    nodes = op2.Set(n + 1, "nodes")
    edges = op2.Set(n, "edges")
    m = op2.Map(edges, nodes, 2, [[i, i + 1] for i in range(n)], "e2n")
    x = op2.Dat(nodes, 1, np.linspace(0, 1, n + 1), name="x")
    acc = op2.Dat(nodes, 1, name="acc")
    return nodes, edges, m, x, acc


def serial_reference(n):
    nodes, edges, m, x, acc = chain_mesh(n)
    op2.par_loop(
        K_EDGE_INC, edges, acc(op2.INC, m, 0), acc(op2.INC, m, 1),
        x(op2.READ, m, 0), x(op2.READ, m, 1),
    )
    g = op2.Global(1, 0.0)
    op2.par_loop(K_SQ, nodes, acc(op2.READ), g(op2.INC))
    return acc.data.copy(), g.value


class TestConstruction:
    def test_layout_partition_of_ids(self):
        nodes, edges, m, x, acc = chain_mesh(20)
        assign = partition_set(20, 4, "block").assignment
        pm = build_partitioned_mesh(4, edges, assign, [m], [x, acc])
        all_owned = np.concatenate(
            [pm.local(r).layouts[id(edges)].owned_ids for r in range(4)]
        )
        assert sorted(all_owned.tolist()) == list(range(20))

    def test_halo_contains_cross_partition_nodes(self):
        nodes, edges, m, x, acc = chain_mesh(20)
        assign = partition_set(20, 4, "block").assignment
        pm = build_partitioned_mesh(4, edges, assign, [m], [x, acc])
        # boundary nodes go to the lower rank (min-rank derivation), so
        # rank 1 must hold its left boundary node as halo
        layout = pm.local(1).layouts[id(nodes)]
        assert layout.halo_ids.size > 0

    def test_exchange_lists_symmetric(self):
        nodes, edges, m, x, acc = chain_mesh(20)
        assign = partition_set(20, 4, "block").assignment
        pm = build_partitioned_mesh(4, edges, assign, [m], [x, acc])
        for r in range(4):
            for sid in pm.local(r).layouts:
                layout = pm.local(r).layouts[sid]
                for p, idx in layout.recv.items():
                    peer = pm.local(p).layouts[sid]
                    assert r in peer.send
                    assert peer.send[r].shape == idx.shape

    def test_missing_set_assignment_rejected(self):
        nodes, edges, m, x, acc = chain_mesh(5)
        stray = op2.Dat(op2.Set(3, "stray"), 1)
        with pytest.raises(Exception, match="unreachable|assignment"):
            build_partitioned_mesh(2, edges, np.zeros(5, dtype=int), [m], [x, stray])

    def test_local_dat_values_match_global(self):
        nodes, edges, m, x, acc = chain_mesh(12)
        assign = partition_set(12, 3, "block").assignment
        pm = build_partitioned_mesh(3, edges, assign, [m], [x, acc])
        for r in range(3):
            rm = pm.local(r)
            layout = rm.layouts[id(nodes)]
            owned_vals = rm.local_dat(x).data[: layout.n_owned, 0]
            np.testing.assert_allclose(owned_vals, x.data[layout.owned_ids, 0])


class TestDistributedExecution:
    @pytest.mark.parametrize("nranks", [2, 3, 4])
    def test_matches_serial(self, nranks):
        ref_acc, ref_g = serial_reference(24)
        nodes, edges, m, x, acc = chain_mesh(24)
        g = op2.Global(1, 0.0)
        assign = partition_set(24, nranks, "block").assignment
        pm = build_partitioned_mesh(nranks, edges, assign, [m], [x, acc], [g])

        def main(comm):
            rm = pm.local(comm.rank)
            rm.par_loop(
                comm, K_EDGE_INC, edges,
                acc(op2.INC, m, 0), acc(op2.INC, m, 1),
                x(op2.READ, m, 0), x(op2.READ, m, 1),
            )
            rm.par_loop(comm, K_SQ, nodes, acc(op2.READ), g(op2.INC))
            return rm.gather_dat(comm, acc), rm.local_global(g).value

        out = run_spmd(nranks, main)
        gathered, gval = out[0]
        np.testing.assert_allclose(gathered, ref_acc, atol=1e-13)
        assert gval == pytest.approx(ref_g)

    def test_halo_exchange_counts_messages(self):
        nodes, edges, m, x, acc = chain_mesh(24)
        assign = partition_set(24, 4, "block").assignment
        pm = build_partitioned_mesh(4, edges, assign, [m], [x, acc])
        world = World(4)

        def main(comm):
            rm = pm.local(comm.rank)
            rm.par_loop(
                comm, K_EDGE_INC, edges,
                acc(op2.INC, m, 0), acc(op2.INC, m, 1),
                x(op2.READ, m, 0), x(op2.READ, m, 1),
            )

        run_spmd(4, main, world=world)
        total = world.total_counters()
        assert total.halo_exchanges > 0
        assert total.bytes_sent > 0

    def test_indirect_write_rejected(self):
        def k_bad(a):
            a[0] = 1.0

        K_BAD = op2.Kernel(k_bad, "k_bad")
        nodes, edges, m, x, acc = chain_mesh(8)
        assign = partition_set(8, 2, "block").assignment
        pm = build_partitioned_mesh(2, edges, assign, [m], [x, acc])

        def main(comm):
            pm.local(comm.rank).par_loop(comm, K_BAD, edges, acc(op2.WRITE, m, 0))

        with pytest.raises(RuntimeError, match="unsupported"):
            run_spmd(2, main)

    @given(
        n=st.integers(6, 40),
        nranks=st.integers(2, 4),
        method=st.sampled_from(["block", "greedy"]),
        seed=st.integers(0, 50),
    )
    @settings(max_examples=15, deadline=None)
    def test_property_any_partition_matches_serial(self, n, nranks, method, seed):
        """Distributed results are partition-invariant."""
        ref_acc, _ = serial_reference(n)
        nodes, edges, m, x, acc = chain_mesh(n)
        if method == "greedy":
            assign = partition_set(n, nranks, "greedy", map_=m).assignment
        else:
            assign = partition_set(n, nranks, "block").assignment
        pm = build_partitioned_mesh(nranks, edges, assign, [m], [x, acc])

        def main(comm):
            rm = pm.local(comm.rank)
            rm.par_loop(
                comm, K_EDGE_INC, edges,
                acc(op2.INC, m, 0), acc(op2.INC, m, 1),
                x(op2.READ, m, 0), x(op2.READ, m, 1),
            )
            return rm.gather_dat(comm, acc)

        gathered = run_spmd(nranks, main)[0]
        np.testing.assert_allclose(gathered, ref_acc, atol=1e-12)


# -- rank-local loop handles --------------------------------------------------------


def k_relax(a, v, g, lo):
    v[0] = 0.5 * v[0] + 0.25 * a[0]
    a[0] = 0.0
    g[0] += v[0] * v[0]
    lo[0] = min(lo[0], v[0])


K_RELAX = op2.Kernel(k_relax, "k_relax")


def _relax_chain(nranks, n=24):
    """A two-loop chain with every kind of rank work: an INC scatter with
    its reverse exchange, an indirect read whose halo the second loop
    dirties, and an INC and a MIN global."""
    nodes, edges, m, x, acc = chain_mesh(n)
    g = op2.Global(1, 0.0, name="g")
    lo = op2.Global(1, np.inf, name="lo")
    assign = partition_set(n, nranks, "block").assignment
    pm = build_partitioned_mesh(nranks, edges, assign, [m], [x, acc], [g, lo])
    sites = (
        op2.loop(K_EDGE_INC, edges, acc(op2.INC, m, 0), acc(op2.INC, m, 1),
                 x(op2.READ, m, 0), x(op2.READ, m, 1)),
        op2.loop(K_RELAX, nodes, acc(op2.RW), x(op2.RW), g(op2.INC), lo(op2.MIN)),
    )
    return pm, sites, x, g, lo


def _comm_books(comm) -> tuple:
    c = comm.counters
    return c.halo_exchanges, c.messages_sent, c.bytes_sent


def _airfoil(nranks):
    from repro.apps.airfoil import AirfoilApp
    from repro.apps.airfoil.mesh import generate_mesh

    mesh = generate_mesh(12, 8, jitter=0.1)
    app = AirfoilApp(mesh)
    return mesh, app, app.build_partitioned(nranks, "block")


class TestRankLoops:
    @pytest.mark.parametrize("nranks", [2, 4])
    def test_handles_match_one_shot_par_loop(self, nranks):
        def run(one_shot):
            pm, sites, x, g, lo = _relax_chain(nranks)

            def main(comm):
                rm = pm.local(comm.rank)
                if one_shot:
                    loops = [
                        functools.partial(rm.par_loop, comm, s.kernel, s.iterset, *s.args)
                        for s in sites
                    ]
                else:
                    loops = rm.loops(comm, sites)
                books = []
                for _ in range(4):
                    for site in loops:
                        site()
                    books.append(_comm_books(comm))
                globs = [rm.local_global(h).data.copy() for h in (g, lo)]
                return rm.gather_dat(comm, x), globs, books

            return run_spmd(nranks, main)

        ref, got = run(True), run(False)
        for (x_ref, g_ref, b_ref), (x_got, g_got, b_got) in zip(ref, got):
            np.testing.assert_array_equal(x_got, x_ref)
            np.testing.assert_array_equal(g_got, g_ref)
            assert b_got == b_ref
        assert ref[0][2][-1][0] > 0  # the chain did exchange
        # and both agree with the serial sites (the INC global accumulates
        # across steps, so each step must combine only its own deltas)
        _, sites, x, g, lo = _relax_chain(nranks)
        for _ in range(4):
            for site in sites:
                site()
        np.testing.assert_allclose(got[0][0], x.data, rtol=1e-12)
        np.testing.assert_allclose(got[0][1], [g.data, lo.data], rtol=1e-12)

    def test_replay_never_looks_up_or_certifies(self, monkeypatch):
        from repro.lint import abstract as lint_abstract
        from repro.op2 import execplan as op2_exec

        mesh, app, pm = _airfoil(2)
        calls = []

        def count(module, attr):
            real = getattr(module, attr)
            monkeypatch.setattr(module, attr, lambda *a: calls.append(attr) or real(*a))

        def main(comm):
            app.run_distributed(comm, pm, 1)  # binds the handles, pins the plans
            comm.barrier()
            if comm.rank == 0:
                count(op2_exec, "lookup")
                count(lint_abstract, "certify_callable")
            comm.barrier()
            return app.run_distributed(comm, pm, 2)

        run_spmd(2, main)
        assert calls == []

    def test_second_run_spmd_rebinds_to_its_communicator(self):
        mesh, app, pm = _airfoil(2)

        def main(comm):
            rms = app.run_distributed(comm, pm, 1)
            rm = pm.local(comm.rank)
            return rms, rm.loops(comm, app.iteration_loops()), rm.gather_dat(comm, mesh.q)

        first = run_spmd(2, main)
        second = run_spmd(2, main)
        for (_, before, _), (_, after, _) in zip(first, second):
            assert all(a.comm is not b.comm for a, b in zip(after, before))
        # one iteration per run on the same mesh: two iterations in one run
        mesh2, app2, pm2 = _airfoil(2)
        rms, q = run_spmd(2, lambda comm: (
            app2.run_distributed(comm, pm2, 2), pm2.local(comm.rank).gather_dat(comm, mesh2.q)
        ))[0]
        assert second[0][0] == rms
        np.testing.assert_array_equal(second[0][2], q)

    def test_indirect_write_raises_at_binding(self):
        def k_bad(a):
            a[0] = 1.0

        nodes, edges, m, x, acc = chain_mesh(8)
        assign = partition_set(8, 2, "block").assignment
        pm = build_partitioned_mesh(2, edges, assign, [m], [x, acc])

        def main(comm):
            with pytest.raises(APIError, match="unsupported"):
                pm.local(comm.rank).loop(comm, op2.Kernel(k_bad, "k_bad"), edges,
                                         acc(op2.WRITE, m, 0))
            return True

        assert run_spmd(2, main) == [True, True]

    def test_global_passed_twice_is_combined_once(self):
        def k_twice(v, g, h):
            g[0] += v[0]
            h[0] += v[0]

        kernel = op2.Kernel(k_twice, "k_twice")
        nodes, edges, m, x, acc = chain_mesh(8)
        g = op2.Global(1, 0.0, name="g")
        op2.par_loop(kernel, nodes, x(op2.READ), g(op2.INC), g(op2.INC))
        g2 = op2.Global(1, 0.0, name="g2")
        assign = partition_set(8, 2, "block").assignment
        pm = build_partitioned_mesh(2, edges, assign, [m], [x, acc], [g2])

        def main(comm):
            rm = pm.local(comm.rank)
            rm.par_loop(comm, kernel, nodes, x(op2.READ), g2(op2.INC), g2(op2.INC))
            return rm.local_global(g2).value

        assert run_spmd(2, main) == [pytest.approx(g.value)] * 2

    def test_skipping_observer_keeps_the_exchange_schedule(self, monkeypatch):
        """A recovery fast-forward skips loops, not their exchanges: written
        halos are still marked dirty, so every rank exchanges as it would."""
        log: dict = {}
        for attr in ("halo_exchange", "reverse_halo_exchange"):
            real = getattr(RankMesh, attr)

            def logged(rm, comm, gdat, _real=real, _attr=attr):
                log.setdefault(rm.rank, []).append((_attr, gdat.name))
                return _real(rm, comm, gdat)

            monkeypatch.setattr(RankMesh, attr, logged)

        armed: list = []  # the observer skips from the second iteration on

        def run(observer):
            log.clear()
            armed.clear()
            mesh, app, pm = _airfoil(2)

            def main(comm):
                books = []
                for _ in range(2):
                    app.run_distributed(comm, pm, 1)
                    books.append(_comm_books(comm))
                    comm.barrier()
                    if comm.rank == 0:
                        armed.append(True)
                    comm.barrier()
                return books

            if observer is not None:
                add_loop_observer(observer)
            try:
                books = run_spmd(2, main)
            finally:
                if observer is not None:
                    remove_loop_observer(observer)
            return {r: list(v) for r, v in log.items()}, books

        skipped = []

        def skip_flux(event):
            # skipped after one full iteration, so update never divides by a zero adt
            if armed and event.name in ("res_calc", "adt_calc"):
                skipped.append(event.name)
                event.skip = True

        plain = run(None)
        assert run(skip_flux) == plain
        assert len(skipped) == 2 * 2 * 2  # ranks x RK steps x loops, one iteration
        assert any(name.startswith("adt") for _, name in plain[0][0])
        # nothing writes the coordinates: one exchange, then their halos stay clean
        assert plain[0][0].count(("halo_exchange", "x")) == 1
