"""True multi-process SPMD execution (repro.mp).

The deterministic in-process executor is the verification oracle: the
cross-executor differential battery asserts **bitwise** identity between
``run_spmd`` (threads) and ``run_spmd_mp`` (forked worker processes) on
airfoil, cloverleaf, sod and multiblock at ranks 1, 4 and 8.  Resilience
is tested against *real* deaths: a live worker is SIGKILLed mid-run and
the checkpoint-restart driver must recover to a bitwise-identical final
state; a worker killed mid-halo-exchange must never leave a peer blocked
past the deadlock timeout.  Shared-memory Dat storage gets a hypothesis
round-trip property over the dtype x shape x halo-depth grid, and the
native .so cache is raced by concurrent compiling processes.
"""

from __future__ import annotations

import contextlib
import glob
import json
import os
import select
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ops
from repro.common.config import swap
from repro.common.counters import PerfCounters
from repro.common.errors import (
    APIError,
    RankFailedError,
    ReproError,
    ResilienceError,
    WorkerDiedError,
)
from repro.common.plancache import clear_plan_caches
from repro.common.profiling import counters_scope
from repro.common.report import timing_report
from repro.mp import (
    DatArena,
    FailedFlags,
    MpWorld,
    restore,
    run_resilient_spmd_mp,
    run_spmd_mp,
    snapshot,
)
from repro.native import cache as ncache
from repro.native import plan as nplan
from repro.resilience.jobs import AirfoilJob
from repro.simmpi import run_spmd
from repro.simmpi.comm import ANY, DeadlockError
from repro.verify import diff_backends

requires_cc = pytest.mark.skipif(
    ncache.find_compiler() is None, reason="no C compiler available"
)


def _mp_vs_inproc(run_fn):
    """Diff one SPMD program across executors — bitwise, no tolerance.

    ``run_fn(spmd)`` must execute the program through the given
    ``run_spmd``-shaped callable and return the dict of result arrays.
    """

    def run(mode):
        clear_plan_caches()
        return run_fn(run_spmd_mp if mode == "mp" else run_spmd)

    return diff_backends(run, ["inproc", "mp"], reference="inproc", trace=False)


# ---------------------------------------------------------------------------
# transport semantics: p2p, collectives, failure behaviour
# ---------------------------------------------------------------------------


class TestTransport:
    def test_collectives_parity(self):
        """Every collective, both executors, same bits."""

        def body(comm):
            rng = np.random.default_rng(100 + comm.rank)
            mine = rng.random(5)
            out = {}
            out["bcast"] = comm.bcast(mine if comm.rank == 0 else None, root=0)
            out["gather"] = comm.gather(mine, root=0)
            out["allgather"] = comm.allgather(mine)
            out["scatter"] = comm.scatter(
                [mine + r for r in range(comm.size)] if comm.rank == 0 else None,
                root=0,
            )
            out["reduce"] = comm.reduce(mine, op="sum", root=0)
            out["allreduce"] = comm.allreduce(mine, op="min")
            out["alltoall"] = comm.alltoall([mine * r for r in range(comm.size)])
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            out["sendrecv"] = comm.sendrecv(mine, right, left, tag=4)
            if comm.size > 1:
                out["exchange"] = comm.neighbor_exchange({right: mine, left: -mine})
            comm.barrier()
            return out

        def deep_equal(a, b):
            if isinstance(a, dict):
                return isinstance(b, dict) and set(a) == set(b) and all(
                    deep_equal(a[k], b[k]) for k in a
                )
            if isinstance(a, (list, tuple)):
                return (
                    isinstance(b, (list, tuple))
                    and len(a) == len(b)
                    and all(deep_equal(x, y) for x, y in zip(a, b))
                )
            return bool(np.array_equal(np.asarray(a), np.asarray(b)))

        for nranks in (1, 3, 4):
            got_mp = run_spmd_mp(nranks, body)
            got_th = run_spmd(nranks, body)
            for rank in range(nranks):
                for key, val in got_th[rank].items():
                    assert deep_equal(got_mp[rank][key], val), (
                        f"rank {rank} {key} diverged across executors"
                    )

    def test_any_source_and_tags(self):
        def body(comm):
            if comm.rank == 0:
                first = comm.recv(ANY, tag=9)
                second = comm.recv(ANY, tag=9)
                late = comm.recv(2, tag=3)  # buffered earlier, matched by tag
                return sorted([float(first), float(second)]) + [float(late)]
            if comm.rank == 2:
                comm.send(np.float64(comm.rank), 0, tag=3)
            comm.send(np.float64(comm.rank), 0, tag=9)
            return None

        out = run_spmd_mp(3, body)
        assert out[0] == [1.0, 2.0, 2.0]

    def test_probe(self):
        def body(comm):
            if comm.rank == 1:
                comm.send(b"x", 0, tag=7)
                comm.barrier()
                return None
            assert not comm.probe(1, tag=8)
            comm.barrier()  # rank 1's send happened before its barrier
            deadline = time.monotonic() + 5.0
            while not comm.probe(1, tag=7):
                assert time.monotonic() < deadline
            return comm.recv(1, tag=7)

        assert run_spmd_mp(2, body)[0] == b"x"

    def test_deadlock_timeout(self):
        def body(comm):
            if comm.rank == 0:
                comm.recv(1, tag=5)  # never sent
            else:
                time.sleep(2.0)

        with swap(deadlock_timeout=0.4):
            t0 = time.monotonic()
            with pytest.raises(RuntimeError) as err:
                run_spmd_mp(2, body)
            assert time.monotonic() - t0 < 5.0
        assert isinstance(err.value.__cause__, DeadlockError)

    def test_organic_error_is_root_cause(self):
        def body(comm):
            if comm.rank == 1:
                raise ValueError("organic bug")
            comm.recv(1, tag=2)

        world = MpWorld(3)
        with swap(deadlock_timeout=20.0):
            with pytest.raises(RuntimeError, match="rank 1 failed") as err:
                run_spmd_mp(3, body, world=world)
        assert isinstance(err.value.__cause__, ValueError)
        assert 1 in world.failed_ranks

    def test_send_to_failed_rank_raises(self):
        def body(comm):
            if comm.rank == 1:
                raise ValueError("down")
            time.sleep(0.3)
            with pytest.raises(RankFailedError):
                for _ in range(50):
                    comm.send(np.zeros(4), 1, tag=6)
                    time.sleep(0.05)
            raise ValueError("peer observed the death")  # proves we got here

        with swap(deadlock_timeout=20.0):
            with pytest.raises(RuntimeError, match="rank"):
                run_spmd_mp(2, body)

    def test_rank_args_and_world_reuse(self):
        def body(comm, base, extra):
            return base + extra + comm.rank

        out = run_spmd_mp(2, body, 10, rank_args=[(100,), (200,)])
        assert out == [110, 211]
        world = MpWorld(2)
        run_spmd_mp(2, body, 0, world=world, rank_args=[(0,), (0,)])
        with pytest.raises(ReproError, match="single-use"):
            run_spmd_mp(2, body, 0, world=world, rank_args=[(0,), (0,)])

    def test_unpicklable_result_reports_cleanly(self):
        def body(comm):
            return lambda: None  # locals don't pickle

        with pytest.raises(RuntimeError, match="not picklable"):
            run_spmd_mp(1, body)

    def test_failed_flags_set_protocol(self):
        flags = FailedFlags(4)
        assert not flags and len(flags) == 0 and 2 not in flags
        flags.add(2)
        assert flags and 2 in flags and list(flags) == [2]
        assert sorted(flags) == [2]
        assert "x" not in flags and -1 not in flags and 99 not in flags


# ---------------------------------------------------------------------------
# cross-executor differential battery: ranks 1, 4, 8 on all four apps
# ---------------------------------------------------------------------------

RANKS = [1, 4, 8]


class TestDiffBattery:
    @pytest.mark.parametrize("nranks", RANKS)
    def test_airfoil(self, nranks):
        from repro.apps.airfoil.app import AirfoilApp
        from repro.apps.airfoil.mesh import generate_mesh

        def run(spmd):
            mesh = generate_mesh(12, 8, jitter=0.1)
            app = AirfoilApp(mesh)
            pm = app.build_partitioned(nranks, "block")

            def main(comm):
                rms = app.run_distributed(comm, pm, 2)
                return rms, pm.local(comm.rank).gather_dat(comm, mesh.q)

            rms, q = spmd(nranks, main)[0]
            return {"q": q, "rms": np.asarray([rms])}

        _mp_vs_inproc(run).assert_agree()

    @requires_cc
    def test_airfoil_native_vs_vec_inside_workers(self):
        """`update` stages its global INC in each forked worker; the rms the
        allreduce returns is bitwise the vec tier's."""
        from repro.apps.airfoil.app import AirfoilApp
        from repro.apps.airfoil.mesh import generate_mesh

        def run(mode):
            clear_plan_caches()
            mesh = generate_mesh(12, 8, jitter=0.1)
            app = AirfoilApp(mesh)
            pm = app.build_partitioned(2, "block")

            def main(comm):
                rms = app.run_distributed(comm, pm, 2)
                return rms, pm.local(comm.rank).gather_dat(comm, mesh.q)

            counters = PerfCounters()
            with counters_scope(counters), swap(native=(mode == "native")):
                rms, q = run_spmd_mp(2, main)[0]
            if mode == "native":  # the workers' counters came home
                assert counters.native_calls > 0 and not counters.native_declines
            return {"q": q, "rms": np.asarray([rms])}

        diff_backends(run, ["vec", "native"], reference="vec", trace=False).assert_agree()

    @pytest.mark.parametrize("nranks", RANKS)
    def test_cloverleaf(self, nranks):
        from repro.apps.cloverleaf import clover_bm_state
        from repro.apps.cloverleaf.app import DistributedCloverLeafApp
        from repro.ops.decomp import DecomposedBlock

        def run(spmd):
            gstate = clover_bm_state(16, 12)
            dec = DecomposedBlock(nranks, gstate.block, gstate.all_dats,
                                  global_size=(16, 12))

            def main(comm):
                app = DistributedCloverLeafApp(comm, dec, gstate)
                s = app.run(2)
                return s, app.gather_field("density0")

            s, dens = spmd(nranks, main)[0]
            return {"density": dens, **{k: np.asarray([v]) for k, v in s.items()}}

        _mp_vs_inproc(run).assert_agree()

    @pytest.mark.parametrize("nranks", RANKS)
    @pytest.mark.parametrize("app", ["sod", "multiblock"])
    def test_decomposed_stencil(self, app, nranks):
        """sod/multiblock have no distributed driver; their legs run an
        app-shaped stencil+reduction chain through DecomposedBlock (the
        same shape the native battery uses)."""
        if app == "sod":
            shape, ranges = (64,), [(1, 63)]

            def kern(u, v, t):
                v[0] = 0.25 * (u[-1] + u[1]) + 0.5 * u[0]
                t.min(v[0])

            sten = ops.Stencil(1, [(0,), (-1,), (1,)], "S1D_3PT_T")
        else:
            shape, ranges = (16, 12), [(1, 15), (1, 11)]

            def kern(u, v, t):
                v[0, 0] = 0.25 * (u[1, 0] + u[-1, 0] + u[0, 1] + u[0, -1])
                t.min(v[0, 0])

            sten = ops.S2D_5PT

        def run(spmd):
            from repro.ops.decomp import DecomposedBlock

            blk = ops.Block(len(shape))
            u = ops.Dat(blk, shape, halo_depth=2, name="u")
            v = ops.Dat(blk, shape, halo_depth=2, name="v")
            u.interior[...] = np.random.default_rng(7).random(shape)
            dec = DecomposedBlock(nranks, blk, [u, v])

            def main(comm):
                lb = dec.local(comm.rank)
                t = ops.Reduction("min")
                for _ in range(3):
                    lb.par_loop(comm, kern, ranges, u(ops.READ, sten),
                                v(ops.WRITE), t)
                    lb.par_loop(comm, kern, ranges, v(ops.READ, sten),
                                u(ops.WRITE), t)
                return t.value, lb.gather(comm, u)

            t, gathered = spmd(nranks, main)[0]
            return {"u": gathered, "t": np.asarray([t])}

        _mp_vs_inproc(run).assert_agree()

    def test_lazy_tiling_inside_workers(self):
        """Queued lazy loops flush at rank return inside each worker and the
        result stays bitwise-identical to the eager mp run."""
        from repro.ops.decomp import DecomposedBlock

        def smooth(a, b):
            b[0, 0] = 0.25 * (a[1, 0] + a[-1, 0] + a[0, 1] + a[0, -1])

        def run(lazy_on):
            clear_plan_caches()
            blk = ops.Block(2)
            u = ops.Dat(blk, (16, 12), halo_depth=2, name="u")
            v = ops.Dat(blk, (16, 12), halo_depth=2, name="v")
            u.interior[...] = np.random.default_rng(3).random((16, 12))
            dec = DecomposedBlock(4, blk, [u, v])

            def main(comm):
                lb = dec.local(comm.rank)
                with swap(lazy=lazy_on):
                    for _ in range(2):
                        lb.par_loop(comm, smooth, [(1, 15), (1, 11)],
                                    u(ops.READ, ops.S2D_5PT), v(ops.WRITE))
                        lb.par_loop(comm, smooth, [(1, 15), (1, 11)],
                                    v(ops.READ, ops.S2D_5PT), u(ops.WRITE))
                return lb.gather(comm, u)

            return run_spmd_mp(4, main)[0]

        np.testing.assert_array_equal(run(False), run(True))


# ---------------------------------------------------------------------------
# shared-memory Dat storage
# ---------------------------------------------------------------------------


class TestSharedMemory:
    def test_worker_writes_visible_to_parent(self):
        blk = ops.Block(1)
        d = ops.Dat(blk, 8, halo_depth=1, name="d")

        def writer(comm, dat):
            dat.interior[...] = 7.0
            return float(dat.interior.sum())

        # without sharing: fork isolates the worker's writes
        run_spmd_mp(1, writer, d)
        assert float(d.interior.sum()) == 0.0
        # with sharing: the parent sees them, and keeps them after release
        run_spmd_mp(1, writer, d, shared_dats=[d])
        assert float(d.interior.sum()) == 7.0 * 8

    def test_arena_release_is_idempotent_and_copies_back(self):
        blk = ops.Block(2)
        d = ops.Dat(blk, (4, 3), halo_depth=2, name="d")
        d.interior[...] = 1.5
        arena = DatArena()
        view = arena.share(d)
        assert arena.nbytes >= view.nbytes and len(arena) == 1
        view[...] = 2.5
        arena.release()
        arena.release()
        assert np.all(d.data == 2.5)
        d.interior[...] = 9.0  # storage is private again: plain ndarray ops

    def test_op2_soa_refused(self):
        from repro.op2.dat import Dat as Op2Dat
        from repro.op2.set import Set

        s = Set(6, name="cells")
        d = Op2Dat(s, 2, name="x")
        d.convert_to_soa()
        with pytest.raises(APIError, match="SoA"):
            DatArena().share(d)

    def test_op2_dat_shareable(self):
        from repro.op2.dat import Dat as Op2Dat
        from repro.op2.set import Set

        s = Set(5, name="cells")
        d = Op2Dat(s, 3, name="x")

        def writer(comm, dat):
            dat.data[...] = 4.25
            return None

        run_spmd_mp(1, writer, d, shared_dats=[d])
        assert np.all(d.data == 4.25)

    @settings(max_examples=25, deadline=None)
    @given(
        dtype=st.sampled_from([np.float64, np.float32, np.int64]),
        dims=st.lists(st.integers(1, 6), min_size=1, max_size=3),
        halo=st.integers(0, 2),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_snapshot_restore_roundtrip(self, dtype, dims, halo, seed):
        """Share -> mutate -> snapshot -> clobber -> restore is the identity,
        across the dtype x shape x halo-depth grid, and release preserves
        the last shared values on private storage."""
        blk = ops.Block(len(dims))
        d = ops.Dat(blk, tuple(dims), halo_depth=halo, dtype=dtype, name="h")
        rng = np.random.default_rng(seed)
        first = (rng.random(d.data.shape) * 100).astype(dtype)
        second = (rng.random(d.data.shape) * 100).astype(dtype)
        with DatArena() as arena:
            arena.share(d)
            d.data[...] = first
            snap = snapshot(d)
            assert snap.base is None  # a private copy, not a view
            d.data[...] = second
            restore(d, snap)
            np.testing.assert_array_equal(d.data, first)
            d.data[...] = second
        np.testing.assert_array_equal(d.data, second)  # survived release

    def test_adopt_storage_validates(self):
        blk = ops.Block(1)
        d = ops.Dat(blk, 4, halo_depth=1, name="d")
        with pytest.raises(APIError, match="adopted storage"):
            d.adopt_storage(np.zeros(3))
        with pytest.raises(APIError, match="adopted storage"):
            d.adopt_storage(np.zeros(6, dtype=np.float32))


# ---------------------------------------------------------------------------
# cross-process counters and telemetry
# ---------------------------------------------------------------------------


class TestCountersAcrossProcesses:
    def test_per_rank_counters_come_home(self):
        def body(comm):
            comm.send(np.zeros(8), (comm.rank + 1) % comm.size, tag=1)
            comm.recv((comm.rank - 1) % comm.size, tag=1)
            return None

        world = MpWorld(3)
        run_spmd_mp(3, body, world=world)
        for rank in range(3):
            assert world.counters[rank].messages_sent >= 1
        assert world.total_counters().messages_sent >= 3

    def test_timing_report_covers_worker_loops(self):
        """Loop records from every worker land in one timing_report."""
        from repro.ops.decomp import DecomposedBlock

        def kern(a, b):
            b[0] = a[0] + 1.0

        blk = ops.Block(1)
        u = ops.Dat(blk, 32, halo_depth=1, name="u")
        v = ops.Dat(blk, 32, halo_depth=1, name="v")
        dec = DecomposedBlock(2, blk, [u, v])

        def main(comm):
            lb = dec.local(comm.rank)
            lb.par_loop(comm, kern, [(0, 32)], u(ops.READ), v(ops.WRITE))
            return None

        mine = PerfCounters()
        with counters_scope(mine):
            run_spmd_mp(2, main)  # auto-world folds into the active scope
            report = timing_report(mine)
        assert mine.loops, "worker loop records did not reach the parent"
        assert "kern" in report
        total = sum(rec.invocations for rec in mine.loops.values())
        assert total >= 2  # one loop per rank, merged

    def test_explicit_world_does_not_double_count(self):
        def body(comm):
            comm.send(b"m", (comm.rank + 1) % comm.size, tag=1)
            comm.recv((comm.rank - 1) % comm.size, tag=1)

        world = MpWorld(2)
        mine = PerfCounters()
        with counters_scope(mine):
            run_spmd_mp(2, body, world=world)
        assert mine.messages_sent == 0  # explicit world: caller owns the merge
        assert world.total_counters().messages_sent == 2


class TestTelemetryAcrossProcesses:
    def test_per_worker_trace_export_and_merge(self, tmp_path):
        from repro.telemetry import tracer as _trace
        from repro.telemetry.report import (
            load_traces,
            merged_chrome_trace,
            render_report,
        )

        def body(comm):
            comm.barrier()
            comm.send(np.ones(4), (comm.rank + 1) % comm.size, tag=2)
            comm.recv((comm.rank - 1) % comm.size, tag=2)
            return os.getpid()

        tdir = tmp_path / "traces"
        pids = run_spmd_mp(2, body, trace_dir=str(tdir))
        files = sorted(glob.glob(str(tdir / "trace-rank*.jsonl")))
        assert len(files) == 2
        records = load_traces(files)
        assert {r["rank"] for r in records} == {0, 1}
        assert {r["pid"] for r in records} == set(pids)
        assert all(r["pid"] != os.getpid() for r in records)

        merged = merged_chrome_trace(records)
        from repro.telemetry.export import validate_chrome_trace

        validate_chrome_trace(merged)
        evs = [e for e in merged["traceEvents"] if e["ph"] != "M"]
        assert {e["pid"] for e in evs} == set(pids)  # pid = worker process
        assert {e["tid"] for e in evs} == {0, 1}  # tid = rank
        assert "per-rank timeline" in render_report(records)
        assert _trace.ACTIVE is None  # workers' tracers died with them

    def test_report_cli_glob_and_merge_out(self, tmp_path, capsys):
        from repro.telemetry.__main__ import main as telemetry_main

        def body(comm):
            comm.barrier()
            return None

        tdir = tmp_path / "t"
        run_spmd_mp(2, body, trace_dir=str(tdir))
        out = tmp_path / "merged.json"
        rc = telemetry_main([
            "report", str(tdir / "trace-rank*.jsonl"), "--merge-out", str(out),
        ])
        assert rc == 0
        assert "per-rank timeline" in capsys.readouterr().out
        obj = json.loads(out.read_text())
        assert any(ev.get("ph") == "M" for ev in obj["traceEvents"])

    def test_trace_dir_config_default(self, tmp_path):
        def body(comm):
            comm.barrier()
            return None

        with swap(mp_trace_dir=str(tmp_path / "cfg")):
            run_spmd_mp(2, body)
        assert len(glob.glob(str(tmp_path / "cfg" / "trace-rank*.jsonl"))) == 2


# ---------------------------------------------------------------------------
# real failures: SIGKILL detection, prompt unblocking, recovery
# ---------------------------------------------------------------------------


def _kill_after(pids, rank, delay):
    def go():
        time.sleep(delay)
        try:
            os.kill(pids[rank], signal.SIGKILL)
        except ProcessLookupError:
            pass

    threading.Thread(target=go, daemon=True).start()


class TestRealFailures:
    def test_sigkill_surfaces_as_worker_died(self):
        def body(comm):
            if comm.rank == 1:
                time.sleep(30)
            comm.barrier()

        world = MpWorld(2)
        with swap(deadlock_timeout=20.0):
            with pytest.raises(RuntimeError, match="rank 1") as err:
                run_spmd_mp(2, body, world=world,
                            on_start=lambda pids: _kill_after(pids, 1, 0.2))
        cause = err.value.__cause__
        assert isinstance(cause, WorkerDiedError)
        assert cause.rank == 1
        assert cause.exitcode == -signal.SIGKILL
        # rank 0 may also be flagged: its secondary RankFailedError marks it,
        # exactly as the threaded executor marks every errored rank
        assert 1 in world.failed_ranks

    def test_kill_mid_halo_exchange_releases_peer_promptly(self):
        """The satellite regression: a worker killed mid-exchange must never
        leave a peer blocked out to the deadlock timeout — the failure flags
        surface within a poll interval."""

        def body(comm):
            if comm.rank == 1:
                # enter the exchange: send, then block in recv, then die
                comm.send(np.zeros(4), 0, tag=5)
                time.sleep(30)
            # rank 0 blocks receiving the *second* message, which never comes
            comm.recv(1, tag=5)
            comm.recv(1, tag=5)

        with swap(deadlock_timeout=30.0):
            t0 = time.monotonic()
            with pytest.raises(RuntimeError) as err:
                run_spmd_mp(2, body,
                            on_start=lambda pids: _kill_after(pids, 1, 0.3))
            elapsed = time.monotonic() - t0
        assert isinstance(err.value.__cause__, WorkerDiedError)
        assert elapsed < 10.0, (
            f"peer stayed blocked {elapsed:.1f}s — failure not surfaced promptly"
        )

    def test_blocked_sender_to_dead_rank_is_released(self):
        """A sender blocked on the victim's full pipe must be drained free."""
        big = np.zeros(1 << 16)  # larger than the OS pipe buffer

        def body(comm):
            if comm.rank == 1:
                time.sleep(30)  # never receives
                return None
            sent = 0
            try:
                for _ in range(8):
                    comm.send(big, 1, tag=3)  # blocks once the pipe fills
                    sent += 1
            except RankFailedError:
                return sent
            return sent

        with swap(deadlock_timeout=30.0):
            t0 = time.monotonic()
            with pytest.raises(RuntimeError):
                run_spmd_mp(2, body,
                            on_start=lambda pids: _kill_after(pids, 1, 0.5))
            assert time.monotonic() - t0 < 10.0


class TestKillAndRecover:
    def test_sigkill_recovery_is_bitwise_identical(self, tmp_path):
        """The acceptance criterion: SIGKILL a live worker mid-run; the mp
        resilient driver restarts from the latest common checkpoint round
        and finishes bitwise-identical to a fault-free run."""
        job = AirfoilJob(2, 12, nx=12, ny=8)

        reference = run_resilient_spmd_mp(
            2, job, ckpt_dir=tmp_path / "ref", frequency=10
        )
        assert reference.restarts == 0

        # cross-executor: the threaded resilient driver agrees bitwise
        from repro.resilience.driver import run_resilient_spmd

        threaded = run_resilient_spmd(
            2, job, ckpt_dir=tmp_path / "th", frequency=10, plan=None
        )
        for rank in range(2):
            assert threaded.results[rank][0] == reference.results[rank][0]
            np.testing.assert_array_equal(
                threaded.results[rank][1], reference.results[rank][1]
            )

        ck = tmp_path / "kill"
        killed = threading.Event()

        def on_attempt(attempt, pids):
            if attempt != 1:
                return

            def watch():
                deadline = time.monotonic() + 60
                while time.monotonic() < deadline:
                    if glob.glob(str(ck / "ckpt-r001-n*.npz")):
                        try:
                            os.kill(pids[1], signal.SIGKILL)
                            killed.set()
                        except ProcessLookupError:
                            pass
                        return
                    time.sleep(0.02)

            threading.Thread(target=watch, daemon=True).start()

        result = run_resilient_spmd_mp(
            2, job, ckpt_dir=ck, frequency=10, on_attempt_start=on_attempt
        )
        assert killed.is_set(), "the kill never fired; the test is vacuous"
        assert result.restarts >= 1
        assert result.recovered_rounds and result.recovered_rounds[0] >= 0
        assert result.counters.restarts == result.restarts
        for rank in range(2):
            rms_ref, q_ref = reference.results[rank]
            rms_got, q_got = result.results[rank]
            assert rms_ref == rms_got, "recovered rms diverged"
            np.testing.assert_array_equal(q_ref, q_got)

    def test_max_restarts_exhausted(self, tmp_path):
        """Killing every attempt without checkpoints exhausts the budget."""
        job = AirfoilJob(2, 8, nx=10, ny=8)

        def murder_every_attempt(attempt, pids):
            _kill_after(pids, 1, 0.0)  # before the tiny job can finish

        with swap(deadlock_timeout=20.0):
            with pytest.raises(ResilienceError, match="giving up"):
                run_resilient_spmd_mp(
                    2, job, ckpt_dir=tmp_path / "doom", frequency=None,
                    max_restarts=1, on_attempt_start=murder_every_attempt,
                )


# ---------------------------------------------------------------------------
# native cache under concurrent compilers
# ---------------------------------------------------------------------------

_RACE_SRC = """
#include <math.h>
void kernel_run(double **p, const long long **m, const long long *n,
                double *red, const double *cv) {
    for (long long i = 0; i < n[0]; ++i) p[0][i] = sqrt(p[1][i]) + %d.0;
}
"""


class TestThreadedParentFork:
    @requires_cc
    def test_workers_forked_after_a_threaded_loop(self, monkeypatch):
        """libgomp is not fork-safe: a child whose parent has run a 2-thread
        team hangs in its first 2-thread region.  Workers run teams of 1, so
        forking after threaded native loops finishes, bitwise, unthreaded."""
        from repro.apps.airfoil.app import AirfoilApp
        from repro.apps.airfoil.mesh import generate_mesh

        monkeypatch.setattr(nplan, "THREAD_MIN", 0)
        monkeypatch.setattr(nplan, "TEAM", 2)
        mine = PerfCounters()
        with counters_scope(mine), swap(native=True):
            AirfoilApp(generate_mesh(12, 8, jitter=0.1)).run(1)
        assert mine.native_threaded_calls > 0  # the parent ran 2-thread teams

        def run(spmd, world=None):
            clear_plan_caches()
            mesh = generate_mesh(12, 8, jitter=0.1)
            app = AirfoilApp(mesh)
            pm = app.build_partitioned(2, "block")

            def main(comm):
                rms = app.run_distributed(comm, pm, 2)
                return rms, pm.local(comm.rank).gather_dat(comm, mesh.q)

            with swap(native=True), _deadline(60.0) as on_start:
                kw = {} if world is None else {"world": world, "on_start": on_start}
                rms, q = spmd(2, main, **kw)[0]
            return {"q": q, "rms": np.asarray([rms])}

        world = MpWorld(2)
        forked = run(run_spmd_mp, world)
        inproc = run(run_spmd)
        for name in inproc:
            assert np.array_equal(forked[name], inproc[name]), name
        for rank in range(2):
            assert world.counters[rank].native_calls > 0
            assert world.counters[rank].native_threaded_calls == 0


@contextlib.contextmanager
def _deadline(seconds: float):
    """An ``on_start`` hook that SIGKILLs the workers still alive after
    ``seconds`` — a hang fails the run (WorkerDiedError) instead of stalling
    the suite; leaving the block disarms it."""
    timers = []

    def arm(pids):
        def fire():
            for pid in pids:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass

        timer = threading.Timer(seconds, fire)
        timer.daemon = True
        timers.append(timer)
        timer.start()

    try:
        yield arm
    finally:
        for timer in timers:
            timer.cancel()


#: a parent whose two workers hang; it prints their pids once forked
_HANGING_PARENT = """
import time
from repro.mp import run_spmd_mp

def hang(comm):
    while True:
        time.sleep(0.05)

run_spmd_mp(2, hang, on_start=lambda pids: print(*pids, flush=True))
"""


def _running(pid: int) -> bool:
    """``pid`` exists and is not a zombie (an exited orphan awaiting init)."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (FileNotFoundError, ProcessLookupError):
        return False


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="prctl is Linux-only")
class TestParentDeath:
    def test_workers_die_with_a_killed_parent(self):
        """``daemon=True`` reaps workers only on a clean exit: a SIGKILLed
        parent's hanging workers must still be gone within 10 s."""
        import repro

        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        parent = subprocess.Popen(
            [sys.executable, "-c", _HANGING_PARENT], stdout=subprocess.PIPE, env=env,
        )
        pids: list[int] = []
        try:
            ready, _, _ = select.select([parent.stdout], [], [], 60.0)
            assert ready, "the workers never started"
            pids = [int(p) for p in parent.stdout.readline().split()]
            assert len(pids) == 2 and all(_running(p) for p in pids)
            parent.kill()
            parent.wait(10.0)
            deadline = time.monotonic() + 10.0
            while any(_running(p) for p in pids) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not any(_running(p) for p in pids)
        finally:
            parent.kill()
            parent.wait(10.0)
            parent.stdout.close()
            for pid in pids:  # never leave an orphan behind a failed run
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)


class TestNativeCacheConcurrency:
    @requires_cc
    def test_processes_racing_same_kernel_all_succeed(self, tmp_path):
        """N processes compiling one kernel: every load succeeds via the
        atomic-rename publish and the cache ends with exactly one entry."""
        src = _RACE_SRC % 1

        def body(comm):
            comm.barrier()  # line everyone up at the compile
            kern, was_cached = ncache.load_kernel(src)
            assert os.path.exists(kern.path)
            return was_cached

        with swap(native_cache_dir=str(tmp_path / "race")):
            ncache.clear_memory_cache()
            results = run_spmd_mp(6, body)
            d = ncache.cache_dir()
        assert all(isinstance(r, bool) for r in results)
        sos = [f for f in os.listdir(d) if f.endswith(".so")]
        cs = [f for f in os.listdir(d) if f.endswith(".c")]
        assert len(sos) == 1 and len(cs) == 1, (sos, cs)
        assert not any(f.startswith("tmp") for f in os.listdir(d)), (
            "compile temporaries leaked into the cache dir"
        )

    @requires_cc
    def test_maintenance_ignores_inflight_temporaries(self, tmp_path):
        """cache_info/clear/prune must not count or unlink another process's
        in-flight mkstemp temporaries (the window this PR closes)."""
        with swap(native_cache_dir=str(tmp_path / "maint")):
            ncache.clear_memory_cache()
            ncache.load_kernel(_RACE_SRC % 2)
            d = ncache.cache_dir()
            # simulate a concurrent compiler mid-flight
            fresh_c = os.path.join(d, "tmpabc123.c")
            fresh_so = os.path.join(d, "tmpabc123.so")
            for p in (fresh_c, fresh_so):
                with open(p, "w") as fh:
                    fh.write("x")
            info = ncache.cache_info()
            assert info["objects"] == 1 and info["sources"] == 1
            assert ncache.cache_prune(max_age_days=30.0) == 0
            removed = ncache.cache_clear()
            assert removed == 2  # the published pair only
            assert os.path.exists(fresh_c) and os.path.exists(fresh_so)
            # crashed-compile leftovers old enough are garbage-collected
            old = time.time() - 7200
            os.utime(fresh_c, (old, old))
            os.utime(fresh_so, (old, old))
            assert ncache.cache_clear() == 2
            assert not os.path.exists(fresh_c)
