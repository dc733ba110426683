"""Checkpointing: the Figure-8 analysis, speculation, manager and recovery."""

import gc
import weakref

import numpy as np
import pytest

from repro import op2, ops, verify
from repro.checkpoint import (
    CheckpointManager,
    FileStore,
    MemoryStore,
    RecoveryReplayer,
    best_entry_points,
    decision_table,
    detect_period,
    units_saved_if_entering,
)
from repro.checkpoint.analysis import (
    DatasetFate,
    classify_entry,
    format_table,
)
from repro.common.access import Access
from repro.common.config import swap
from repro.common.profiling import ArgEvent, LoopEvent, loop_chain_record


def fig8_chain(outer_iterations: int = 2) -> list[LoopEvent]:
    """The Airfoil loop chain exactly as paper Figure 8 tabulates it."""
    A = Access

    def loop(name, *acc):
        return LoopEvent(
            name, tuple(ArgEvent(d, a, dim, is_global=g) for (d, dim, a, g) in acc)
        )

    inner = [
        loop("adt_calc", ("x", 2, A.READ, False), ("q", 4, A.READ, False),
             ("adt", 1, A.WRITE, False)),
        loop("res_calc", ("x", 2, A.READ, False), ("q", 4, A.READ, False),
             ("adt", 1, A.READ, False), ("res", 4, A.INC, False)),
        loop("bres_calc", ("x", 2, A.READ, False), ("q", 4, A.READ, False),
             ("adt", 1, A.READ, False), ("res", 4, A.INC, False),
             ("bounds", 1, A.READ, False)),
        loop("update", ("q_old", 4, A.READ, False), ("q", 4, A.WRITE, False),
             ("res", 4, A.RW, False), ("rms", 1, A.INC, True)),
    ]
    period = [loop("save_soln", ("q", 4, A.READ, False), ("q_old", 4, A.WRITE, False))] + inner + inner
    return period * outer_iterations


class TestFigure8Analysis:
    def test_units_column_matches_paper(self):
        """The exact 8/12/13/13/8 pattern of Figure 8's last column."""
        chain = fig8_chain(2)
        units = [units_saved_if_entering(chain, i) for i in range(len(chain))]
        assert units == [8, 12, 13, 13, 8, 12, 13, 13, 8] * 2

    def test_entering_at_adt_calc_classification(self):
        """Paper: 'saving q and dropping adt immediately, and then
        subsequently res would be saved ... and q_old when reaching update'."""
        chain = fig8_chain(2)
        fates = classify_entry(chain, 1)  # right before the first adt_calc
        assert fates["q"] is DatasetFate.SAVED
        assert fates["adt"] is DatasetFate.DROPPED
        assert fates["res"] is DatasetFate.SAVED
        assert fates["q_old"] is DatasetFate.SAVED

    def test_never_modified_never_saved(self):
        """Paper: 'Since bounds and x were never modified, they are not saved'."""
        chain = fig8_chain(2)
        fates = classify_entry(chain, 0)
        assert fates["x"] is DatasetFate.NEVER_SAVED
        assert fates["bounds"] is DatasetFate.NEVER_SAVED

    def test_globals_tracked_separately(self):
        fates = classify_entry(fig8_chain(2), 0)
        assert fates["rms"] is DatasetFate.GLOBAL

    def test_best_entry_points_are_save_soln_and_update(self):
        """Paper: wait 'until either save_soln or update are reached'."""
        chain = fig8_chain(2)
        best = best_entry_points(chain)
        names = {chain[i].name for i in best}
        assert names == {"save_soln", "update"}

    def test_non_periodic_pending(self):
        A = Access
        chain = [
            LoopEvent("a", (ArgEvent("d", A.WRITE, 2),)),
            LoopEvent("b", (ArgEvent("e", A.READ, 3),)),
        ]
        # 'd' is modified but never accessed at/after entry 1 -> pending
        fates = classify_entry(chain, 1, periodic=False)
        assert fates["d"] is DatasetFate.PENDING
        # pending counts conservatively in the units
        assert units_saved_if_entering(chain, 1, periodic=False) == 2

    def test_decision_table_rows(self):
        chain = fig8_chain(1)
        rows = decision_table(chain)
        assert rows[0].loop == "save_soln"
        assert rows[0].accesses["q"] == "R"
        assert rows[0].accesses["q_old"] == "W"
        assert rows[3].accesses["res"] == "I"

    def test_format_table_renders(self):
        text = format_table(fig8_chain(1))
        assert "save_soln" in text and "units" in text


class TestPeriodDetection:
    def test_detects_period(self):
        names = ["a", "b", "c"] * 3
        assert detect_period(names) == 3

    def test_partial_trailing_period_ok(self):
        names = ["a", "b", "c"] * 3 + ["a", "b"]
        assert detect_period(names) == 3

    def test_no_period(self):
        assert detect_period(["a", "b", "c", "d"]) is None

    def test_needs_min_repeats(self):
        assert detect_period(["a", "b", "c"]) is None

    def test_fig8_period_is_nine(self):
        names = [c.name for c in fig8_chain(2)]
        assert detect_period(names) == 9


def _mini_app(q, q_old, rms, ksave, kupd, iters):
    for _ in range(iters):
        op2.par_loop(ksave, q.set, q(op2.READ), q_old(op2.WRITE))
        op2.par_loop(kupd, q.set, q_old(op2.READ), q(op2.WRITE), rms(op2.INC))


def k_save(qv, qo):
    qo[0] = qv[0]


def k_upd(qo, qv, r):
    qv[0] = qo[0] * 0.5
    r[0] += qv[0]


K_SAVE = op2.Kernel(k_save, "save_soln")
K_UPD = op2.Kernel(k_upd, "update")


def fresh_state():
    s = op2.Set(6)
    q = op2.Dat(s, 1, np.arange(6, dtype=float), name="q")
    q_old = op2.Dat(s, 1, name="q_old")
    rms = op2.Global(1, 0.0, name="rms")
    return q, q_old, rms


class TestManager:
    def test_trigger_saves_minimal_set(self):
        q, q_old, rms = fresh_state()
        store = MemoryStore()
        with CheckpointManager(store) as mgr:
            _mini_app(q, q_old, rms, K_SAVE, K_UPD, 1)
            mgr.trigger()
            _mini_app(q, q_old, rms, K_SAVE, K_UPD, 2)
        assert store.entry_index == 2
        assert set(store.datasets) == {"q"}
        assert store.dropped == ["q_old"]

    def test_frequency_auto_trigger(self):
        q, q_old, rms = fresh_state()
        store = MemoryStore()
        with CheckpointManager(store, frequency=3):
            _mini_app(q, q_old, rms, K_SAVE, K_UPD, 4)
        assert store.entry_index == 3

    def test_global_values_recorded_each_write(self):
        q, q_old, rms = fresh_state()
        store = MemoryStore()
        with CheckpointManager(store) as mgr:
            mgr.trigger()
            _mini_app(q, q_old, rms, K_SAVE, K_UPD, 3)
        assert len(store.globals["rms"]) == 3

    def test_saved_units_metric(self):
        q, q_old, rms = fresh_state()
        store = MemoryStore()
        with CheckpointManager(store) as mgr:
            mgr.trigger()
            _mini_app(q, q_old, rms, K_SAVE, K_UPD, 1)
        assert store.saved_units == 1
        assert store.saved_bytes == 6 * 8

    def test_speculative_defers_to_cheap_entry(self):
        """With a periodic chain the speculative manager waits for an entry
        point that drops rather than saves."""

        def k_make(a, b):
            b[0] = a[0] + 1.0

        def k_use(b, a):
            a[0] = b[0] * 0.5

        KM = op2.Kernel(k_make, "make")
        KU = op2.Kernel(k_use, "use")
        s = op2.Set(4)
        a = op2.Dat(s, 1, np.ones(4), name="a")
        b = op2.Dat(s, 1, name="b")

        def one_iter():
            op2.par_loop(KM, s, a(op2.READ), b(op2.WRITE))
            op2.par_loop(KU, s, b(op2.READ), a(op2.WRITE))

        store = MemoryStore()
        with CheckpointManager(store, speculative=True) as mgr:
            for _ in range(3):
                one_iter()
            mgr.trigger()  # armed right before a 'use' loop (saves b)...
            op2.par_loop(KU, s, b(op2.READ), a(op2.WRITE))
            for _ in range(2):
                one_iter()
        # ...but the cheapest entry is before 'make' (a READ, b WRITE:
        # saves a(1) and drops b) or before 'use'; both cost 1 unit here,
        # so just assert the checkpoint completed minimally
        assert store.saved_units == 1


class TestRecovery:
    def test_end_to_end_recovery(self):
        # reference run
        q, q_old, rms = fresh_state()
        _mini_app(q, q_old, rms, K_SAVE, K_UPD, 5)
        ref_q, ref_rms = q.data.copy(), rms.value

        # checkpointed run
        q, q_old, rms = fresh_state()
        store = MemoryStore()
        with CheckpointManager(store) as mgr:
            _mini_app(q, q_old, rms, K_SAVE, K_UPD, 2)
            mgr.trigger()
            _mini_app(q, q_old, rms, K_SAVE, K_UPD, 3)

        # crash: state lost; recovery replays from scratch
        q, q_old, rms = fresh_state()
        with RecoveryReplayer(store, {"q": q, "q_old": q_old}, {"rms": rms}):
            _mini_app(q, q_old, rms, K_SAVE, K_UPD, 5)
        np.testing.assert_allclose(q.data, ref_q)
        assert rms.value == pytest.approx(ref_rms)

    def test_skipped_loops_do_no_computation(self):
        q, q_old, rms = fresh_state()
        store = MemoryStore()
        with CheckpointManager(store) as mgr:
            mgr.trigger()
            _mini_app(q, q_old, rms, K_SAVE, K_UPD, 2)

        q2, q_old2, rms2 = fresh_state()
        sentinel = q2.data.copy()
        rep = RecoveryReplayer(store, {"q": q2, "q_old": q_old2}, {"rms": rms2})
        rep.install()
        try:
            # only the first loop (index 0 == entry? entry==0 -> restores at once)
            pass
        finally:
            rep.remove()
        np.testing.assert_allclose(q2.data, sentinel)

    def test_missing_dataset_errors(self):
        q, q_old, rms = fresh_state()
        store = MemoryStore()
        with CheckpointManager(store) as mgr:
            mgr.trigger()
            _mini_app(q, q_old, rms, K_SAVE, K_UPD, 2)
        q2, q_old2, rms2 = fresh_state()
        with pytest.raises(Exception, match="no live counterpart"):
            with RecoveryReplayer(store, {}, {}):
                _mini_app(q2, q_old2, rms2, K_SAVE, K_UPD, 5)

    def test_store_without_entry_rejected(self):
        with pytest.raises(Exception, match="no checkpoint"):
            RecoveryReplayer(MemoryStore(), {})


class TestFileStore:
    def test_roundtrip(self, tmp_path):
        q, q_old, rms = fresh_state()
        store = FileStore(tmp_path / "ckpt.npz")
        with CheckpointManager(store) as mgr:
            mgr.trigger()
            _mini_app(q, q_old, rms, K_SAVE, K_UPD, 3)
        store.flush()

        loaded = FileStore.load(tmp_path / "ckpt.npz")
        assert loaded.entry_index == store.entry_index
        assert set(loaded.datasets) == set(store.datasets)
        np.testing.assert_allclose(loaded.datasets["q"], store.datasets["q"])
        assert loaded.dropped == store.dropped

    def test_recovery_from_file(self, tmp_path):
        q, q_old, rms = fresh_state()
        _mini_app(q, q_old, rms, K_SAVE, K_UPD, 4)
        ref_q = q.data.copy()

        q, q_old, rms = fresh_state()
        store = FileStore(tmp_path / "c.npz")
        with CheckpointManager(store) as mgr:
            _mini_app(q, q_old, rms, K_SAVE, K_UPD, 2)
            mgr.trigger()
            _mini_app(q, q_old, rms, K_SAVE, K_UPD, 2)
        store.flush()

        q, q_old, rms = fresh_state()
        with RecoveryReplayer(FileStore.load(tmp_path / "c.npz"),
                              {"q": q, "q_old": q_old}, {"rms": rms}):
            _mini_app(q, q_old, rms, K_SAVE, K_UPD, 4)
        np.testing.assert_allclose(q.data, ref_q)

    def test_flush_without_entry_rejected(self, tmp_path):
        with pytest.raises(Exception, match="nothing to flush"):
            FileStore(tmp_path / "x.npz").flush()

    def test_full_roundtrip_fields(self, tmp_path):
        """Datasets, ordered global series, entry index and dropped names."""
        store = FileStore(tmp_path / "full.npz")
        store.save_dataset("q", np.arange(12.0).reshape(3, 4))
        store.save_dataset("adt@1", np.ones(3))
        store.drop_dataset("res")
        store.drop_dataset("q_old")
        # record out of order: load must restore ascending loop order
        store.record_global("rms", 7, np.asarray([0.7]))
        store.record_global("rms", 3, np.asarray([0.3]))
        store.record_global("rms", 5, np.asarray([0.5]))
        store.set_entry(9)
        store.flush()

        loaded = FileStore.load(store.path)
        assert loaded.entry_index == 9
        assert sorted(loaded.dropped) == ["q_old", "res"]
        np.testing.assert_array_equal(loaded.datasets["q"], store.datasets["q"])
        np.testing.assert_array_equal(loaded.datasets["adt@1"], store.datasets["adt@1"])
        assert [idx for idx, _ in loaded.globals["rms"]] == [3, 5, 7]
        assert [float(v[0]) for _, v in loaded.globals["rms"]] == [0.3, 0.5, 0.7]

    def test_file_needs_no_pickle(self, tmp_path):
        """The npz holds only plain arrays — loadable with pickle disabled."""
        store = FileStore(tmp_path / "plain.npz")
        store.save_dataset("q", np.zeros(2))
        store.drop_dataset("res")
        store.set_entry(1)
        store.flush()
        with np.load(store.path, allow_pickle=False) as npz:
            # the old flush passed allow_pickle=True *into the payload*,
            # writing a bogus array under that name
            assert "allow_pickle" not in npz.files
            assert npz["dropped"].dtype.kind == "U"  # fixed-width, not object

    def test_empty_dropped_roundtrip(self, tmp_path):
        store = FileStore(tmp_path / "nodrop.npz")
        store.save_dataset("q", np.zeros(2))
        store.set_entry(0)
        store.flush()
        assert FileStore.load(store.path).dropped == []

    def test_flush_is_atomic(self, tmp_path):
        store = FileStore(tmp_path / "atomic.npz")
        store.save_dataset("q", np.zeros(2))
        store.set_entry(0)
        store.flush()
        store.flush()  # re-flush replaces in place
        leftovers = [p.name for p in tmp_path.iterdir() if p.suffix != ".npz"]
        assert leftovers == []  # no tmp files survive


class TestRecordedChain:
    def test_recorded_airfoil_chain_shape(self):
        from repro.apps.airfoil import AirfoilApp

        app = AirfoilApp(nx=6, ny=4)
        with loop_chain_record() as chain:
            app.iteration()
        names = [c.name for c in chain]
        assert names == [
            "save_soln",
            "adt_calc", "res_calc", "bres_calc", "update",
            "adt_calc", "res_calc", "bres_calc", "update",
        ]
        # the live app's update also reads adt, so its entry costs 9 units
        units = [units_saved_if_entering(chain, i) for i in range(len(chain))]
        assert units == [8, 12, 13, 13, 9, 12, 13, 13, 9]


class TestNeverModifiedRule:
    """Inputs untouched before the checkpoint entry are not saved."""

    def test_unmodified_inputs_not_saved(self):
        def k_use_coords(xv, qv, out):
            out[0] = xv[0] + qv[0]

        KU = op2.Kernel(k_use_coords, "use_coords")
        s = op2.Set(5)
        x = op2.Dat(s, 1, np.ones(5), name="x")  # never written
        q = op2.Dat(s, 1, np.ones(5), name="q")
        out = op2.Dat(s, 1, name="out")

        def k_advance(o, qv):
            qv[0] = o[0] * 0.5

        KA = op2.Kernel(k_advance, "advance")

        store = MemoryStore()
        with CheckpointManager(store) as mgr:
            # one warm-up iteration so the manager observes x is read-only
            op2.par_loop(KU, s, x(op2.READ), q(op2.READ), out(op2.WRITE))
            op2.par_loop(KA, s, out(op2.READ), q(op2.WRITE))
            mgr.trigger()
            op2.par_loop(KU, s, x(op2.READ), q(op2.READ), out(op2.WRITE))
            op2.par_loop(KA, s, out(op2.READ), q(op2.WRITE))
        assert "x" not in store.datasets
        assert "x" in store.dropped
        assert "q" in store.datasets  # modified earlier, read at entry

    def test_airfoil_checkpoint_is_minimal(self):
        """End-to-end: the manager reproduces the figure's 8-unit save set."""
        from repro.apps.airfoil import AirfoilApp

        app = AirfoilApp(nx=8, ny=6)
        store = MemoryStore()
        with CheckpointManager(store) as mgr:
            app.run(1)
            mgr.trigger()
            app.run(1)
        assert set(store.datasets) == {"q", "res"}
        assert store.saved_units == 8
        assert {"x", "bound", "q_old", "adt"} <= set(store.dropped)


class TestAnalysisProperties:
    """Property tests on the Figure-8 analysis invariants."""

    from hypothesis import given, settings, strategies as st

    names = st.sampled_from(["d1", "d2", "d3", "d4"])
    accesses = st.sampled_from([Access.READ, Access.WRITE, Access.RW, Access.INC])

    @given(
        chain_spec=st.lists(
            st.lists(st.tuples(names, accesses), min_size=1, max_size=3, unique_by=lambda t: t[0]),
            min_size=1,
            max_size=8,
        ),
        entry=st.integers(0, 7),
    )
    @settings(max_examples=60, deadline=None)
    def test_units_bounded_and_partition_complete(self, chain_spec, entry):
        from repro.checkpoint.analysis import classify_entry, datasets_in_chain

        chain = [
            LoopEvent(f"loop{i}", tuple(ArgEvent(n, a, 2) for n, a in accs))
            for i, accs in enumerate(chain_spec)
        ]
        entry = entry % len(chain)
        fates = classify_entry(chain, entry)
        datasets = datasets_in_chain(chain)
        # every dataset receives exactly one fate
        assert set(fates) == set(datasets)
        # units never exceed the total dimensionality
        total = sum(d.dim for d in datasets.values())
        assert 0 <= units_saved_if_entering(chain, entry) <= total

    @given(st.integers(1, 4))
    @settings(max_examples=10, deadline=None)
    def test_periodic_chain_units_are_periodic(self, reps):
        chain = fig8_chain(reps)
        period = 9
        units = [units_saved_if_entering(chain, i) for i in range(len(chain))]
        for i in range(len(chain)):
            assert units[i] == units[i % period]


def k_sum(u, s):
    s.inc(u[0, 0])


def k_scale(u):
    u[0, 0] = u[0, 0] * 1.0


def _ones_block():
    blk = ops.Block(2, "rec")
    u = ops.Dat(blk, (8, 8), name="u")
    u.interior[...] = 1.0
    return blk, u


def _sum_loop(blk, u, red):
    ops.par_loop(k_sum, blk, [(0, 8), (0, 8)], u(ops.READ), red)


class TestLoopRecord:
    """Every observed call gets its own immutable event (compiled or not)."""

    @pytest.mark.parametrize("use_execplan", [True, False])
    def test_recording_keeps_each_calls_reduction(self, use_execplan):
        blk, u = _ones_block()
        with swap(use_execplan=use_execplan), loop_chain_record() as events:
            for name in ("first", "second"):
                _sum_loop(blk, u, ops.Reduction("inc", name=name))
        assert [[a.name for a in ev.args] for ev in events] == [
            ["u", "first"], ["u", "second"],
        ]
        assert events[0] is not events[1]

    @pytest.mark.parametrize("use_execplan", [True, False])
    def test_trace_reads_the_loops_own_reduction(self, use_execplan):
        blk, u = _ones_block()
        with swap(use_execplan=use_execplan), verify.trace_scope() as trace:
            for _ in range(2):
                _sum_loop(blk, u, ops.Reduction("inc", name="s"))
        assert [r.written["s"].tolist() for r in trace.records] == [[64.0], [64.0]]

    @pytest.mark.parametrize("use_execplan", [True, False])
    def test_op2_site_records_distinct_events(self, use_execplan):
        q, q_old, _ = fresh_state()
        with swap(use_execplan=use_execplan), loop_chain_record() as events:
            for _ in range(2):
                op2.par_loop(K_SAVE, q.set, q(op2.READ), q_old(op2.WRITE))
        assert len(events) == 2 and events[0] is not events[1]
        assert events[0].args == events[1].args

    def test_history_pins_no_reduction(self):
        """A long checkpointed run must not pin every per-step Reduction.

        The plan keeps the handles of its first and latest call bound in its
        argument slots; the history keeps none."""
        blk, u = _ones_block()
        with CheckpointManager() as mgr:
            refs = []
            for _ in range(3):
                red = ops.Reduction("inc", name="s")
                refs.append(weakref.ref(red))
                _sum_loop(blk, u, red)
                ops.par_loop(k_scale, blk, [(0, 8), (0, 8)], u(ops.RW))
            del red
            gc.collect()
            assert refs[1]() is None
        assert [ev.name for ev in mgr.history] == ["k_sum", "k_scale"] * 3
        assert all(a.data_ref is None for ev in mgr.history for a in ev.args)
