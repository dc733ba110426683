"""Resilience: fault injection, failure detection, checkpoint-restart."""

import threading
import time

import numpy as np
import pytest

from repro.checkpoint.store import FileStore, latest_common_round, round_path
from repro.common import config
from repro.common.counters import PerfCounters
from repro.common.profiling import active_counters, counters_scope
from repro.common.report import timing_report
from repro.mp import run_resilient_spmd_mp
from repro.resilience import (
    FaultPlan,
    MessageLostError,
    RankFailedError,
    RankKilledError,
    ResilienceError,
    RetryPolicy,
    run_resilient_spmd,
)
from repro.resilience.jobs import AirfoilJob
from repro.simmpi import DeadlockError, World, run_spmd


class TestFaultPlan:
    def test_kill_requires_exactly_one_site(self):
        with pytest.raises(ValueError):
            FaultPlan().kill(0)
        with pytest.raises(ValueError):
            FaultPlan().kill(0, at_loop=1, at_send=1)

    def test_kill_fires_at_nth_loop(self):
        plan = FaultPlan().kill(1, at_loop=3)
        for _ in range(3):
            plan.on_loop(0)  # other ranks unaffected
        plan.on_loop(1)
        plan.on_loop(1)
        with pytest.raises(RankKilledError):
            plan.on_loop(1)
        assert plan.fired_log == ["kill rank 1 at loop 3"]

    def test_kill_fires_at_nth_send(self):
        plan = FaultPlan().kill(0, at_send=2)
        assert plan.on_send(0, 1, 0) is None
        with pytest.raises(RankKilledError):
            plan.on_send(0, 1, 0)

    def test_drop_matches_times_and_after(self):
        plan = FaultPlan().drop(0, 1, times=2, after=1)
        hits = [plan.on_send(0, 1, 0) is not None for _ in range(5)]
        # match 1 spared (after=1), matches 2-3 dropped, budget then spent
        assert hits == [False, True, True, False, False]

    def test_drop_matches_tag_and_route(self):
        plan = FaultPlan().drop(0, 1, tag=7)
        assert plan.on_send(0, 1, 3) is None  # wrong tag
        assert plan.on_send(1, 0, 7) is None  # wrong direction
        assert plan.on_send(0, 1, 7) is not None

    def test_budget_survives_begin_attempt_but_not_reset(self):
        plan = FaultPlan().kill(0, at_loop=1)
        with pytest.raises(RankKilledError):
            plan.on_loop(0)
        plan.begin_attempt()
        plan.on_loop(0)  # budget spent: the kill does not re-fire
        plan.reset()
        with pytest.raises(RankKilledError):
            plan.on_loop(0)

    def test_counters_record_fault_kinds(self):
        c = PerfCounters()
        plan = (
            FaultPlan()
            .drop(0, 1)
            .delay(0, 1, seconds=0.0)
            .duplicate(0, 1)
        )
        for _ in range(3):
            plan.on_send(0, 1, 0, c)
        assert c.faults_injected == 3
        assert (c.messages_dropped, c.messages_delayed, c.messages_duplicated) == (1, 1, 1)

    def test_describe_lists_declared_faults(self):
        text = FaultPlan().kill(2, at_loop=9).drop(0, 1).slow(1, seconds=0.1).describe()
        assert "kill rank 2" in text and "drop" in text and "slow rank 1" in text
        assert FaultPlan().describe() == "(no faults)"


class TestRetryPolicy:
    def test_backoff_schedule(self):
        pol = RetryPolicy(max_retries=4, base_delay=0.001, multiplier=2.0, max_delay=0.005)
        assert pol.delays() == [0.001, 0.002, 0.004, 0.005]

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)


class TestDetection:
    def test_peer_detects_killed_rank_promptly(self):
        """A peer blocked on recv from a dead rank fails fast, not at timeout."""
        plan = FaultPlan().kill(0, at_send=1)
        world = World(2, fault_plan=plan)

        def body(comm):
            if comm.rank == 0:
                comm.send("hello", 1)
            else:
                comm.recv(0)

        start = time.monotonic()
        with pytest.raises(RuntimeError) as exc_info:
            run_spmd(2, body, world=world)
        assert time.monotonic() - start < 10.0  # well under the 60 s timeout
        assert isinstance(exc_info.value.__cause__, RankKilledError)
        assert 0 in world.failed_ranks  # peers that die observing it may join

    def test_send_to_failed_rank_raises(self):
        world = World(2)
        world._state.mark_failed(1)
        with pytest.raises(RankFailedError):
            world.comms[0].send(1, dest=1)

    def test_recv_from_failed_rank_raises(self):
        world = World(2)
        world._state.mark_failed(1)
        with pytest.raises(RankFailedError):
            world.comms[0].recv(1)

    def test_deadlock_timeout_configurable(self):
        world = World(2)
        start = time.monotonic()
        with config.swap(deadlock_timeout=0.2):
            with pytest.raises(DeadlockError):
                world.comms[0].recv(1)
        assert 0.1 < time.monotonic() - start < 5.0

    def test_recv_timeout_param_overrides_config(self):
        world = World(2)
        with pytest.raises(DeadlockError):
            world.comms[0].recv(1, timeout=0.1)

    def test_drop_retried_until_delivered(self):
        plan = FaultPlan().drop(0, 1, times=2)
        world = World(2, fault_plan=plan, retry=RetryPolicy(max_retries=5, base_delay=0.0))

        def body(comm):
            if comm.rank == 0:
                comm.send(42, 1)
                return None
            return comm.recv(0)

        assert run_spmd(2, body, world=world) == [None, 42]
        total = world.total_counters()
        assert total.messages_dropped == 2
        assert total.messages_retried == 2

    def test_drop_exhausts_retries(self):
        plan = FaultPlan().drop(0, 1, times=10)
        world = World(2, fault_plan=plan, retry=RetryPolicy(max_retries=2, base_delay=0.0))
        with pytest.raises(MessageLostError):
            world.comms[0].send("x", 1)

    def test_silent_drop_without_policy(self):
        plan = FaultPlan().drop(0, 1)
        world = World(2, fault_plan=plan, retry=None)
        world.comms[0].send("x", 1)
        assert not world.comms[1].probe(0)  # lost in flight
        assert world.counters[0].messages_dropped == 1

    def test_delay_and_duplicate_delivery(self):
        plan = FaultPlan().delay(0, 1, seconds=0.01).duplicate(0, 1)
        world = World(2, fault_plan=plan)
        world.comms[0].send("late", 1)  # delayed
        world.comms[0].send("twin", 1)  # duplicated
        assert world.comms[1].recv(0, timeout=1.0) == "late"
        assert world.comms[1].recv(0, timeout=1.0) == "twin"
        assert world.comms[1].recv(0, timeout=1.0) == "twin"
        total = world.total_counters()
        assert (total.messages_delayed, total.messages_duplicated) == (1, 1)

    def test_slowdown_is_injected(self):
        plan = FaultPlan().slow(0, seconds=0.05, every=1)
        c = PerfCounters()
        start = time.monotonic()
        plan.on_loop(0, c)
        assert time.monotonic() - start >= 0.05
        assert c.faults_injected == 1


class TestThreadLocalScopes:
    def test_counter_scope_does_not_leak_across_threads(self):
        outer = PerfCounters()
        seen: list[PerfCounters] = []

        def worker():
            seen.append(active_counters())

        with counters_scope(outer):
            t = threading.Thread(target=worker)
            t.start()
            t.join()
            assert active_counters() is outer
        assert seen[0] is not outer  # thread saw its own (default) scope

    def test_scopes_nest_independently_per_thread(self):
        a, b = PerfCounters(), PerfCounters()
        results: dict[str, PerfCounters] = {}

        def worker(name, counters):
            with counters_scope(counters):
                time.sleep(0.01)
                results[name] = active_counters()

        threads = [
            threading.Thread(target=worker, args=("a", a)),
            threading.Thread(target=worker, args=("b", b)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results["a"] is a and results["b"] is b


NRANKS, ITERS = 3, 6


@pytest.fixture(scope="module")
def job():
    return AirfoilJob(NRANKS, ITERS, nx=10, ny=6)


@pytest.fixture(scope="module")
def baseline(job):
    """Fault-free distributed run: the ground truth for bitwise comparison."""
    state = job.setup()
    results = run_spmd(NRANKS, lambda comm: job.rank_main(comm, state))
    return results[0]  # (rms, gathered q) — identical on every rank


class TestResilientAirfoil:
    def test_fault_free_run_matches_plain_spmd(self, job, baseline, tmp_path):
        res = run_resilient_spmd(NRANKS, job, ckpt_dir=tmp_path, frequency=15)
        assert res.restarts == 0 and res.attempts == 1
        rms, q = res.results[0]
        assert rms == baseline[0]
        np.testing.assert_array_equal(q, baseline[1])

    def test_kill_recovers_bitwise_from_checkpoint(self, job, baseline, tmp_path):
        plan = FaultPlan().kill(1, at_loop=30)
        res = run_resilient_spmd(
            NRANKS, job, ckpt_dir=tmp_path, frequency=15, plan=plan
        )
        assert res.restarts == 1
        # round 0 entered at loop 15 and flushed; round 1 would enter at
        # loop 30, exactly where the kill lands, so recovery uses round 0
        assert res.recovered_rounds == [0]
        for rms, q in res.results:
            assert rms == baseline[0]
            np.testing.assert_array_equal(q, baseline[1])
        assert res.counters.faults_injected == 1
        assert res.counters.restarts == 1
        assert "resilience:" in timing_report(res.counters)

    def test_kill_without_checkpoints_restarts_from_scratch(self, job, baseline, tmp_path):
        plan = FaultPlan().kill(2, at_loop=20)
        res = run_resilient_spmd(NRANKS, job, ckpt_dir=tmp_path, plan=plan)
        assert res.restarts == 1
        assert res.recovered_rounds == [-1]
        rms, q = res.results[0]
        assert rms == baseline[0]
        np.testing.assert_array_equal(q, baseline[1])

    def test_transient_drops_masked_by_retry(self, job, baseline, tmp_path):
        plan = FaultPlan().drop(0, 1, times=2).drop(2, 0, times=1)
        res = run_resilient_spmd(
            NRANKS, job, ckpt_dir=tmp_path, frequency=15, plan=plan
        )
        assert res.restarts == 0  # masked, never fatal
        assert res.counters.messages_dropped == 3
        assert res.counters.messages_retried == 3
        rms, q = res.results[0]
        assert rms == baseline[0]
        np.testing.assert_array_equal(q, baseline[1])

    def test_deterministic_replay(self, job, tmp_path):
        plan = FaultPlan().kill(1, at_loop=25).drop(0, 2, times=1)
        first = run_resilient_spmd(
            NRANKS, job, ckpt_dir=tmp_path / "a", frequency=15, plan=plan
        )
        log = list(plan.fired_log)
        plan.reset()
        second = run_resilient_spmd(
            NRANKS, job, ckpt_dir=tmp_path / "b", frequency=15, plan=plan
        )
        assert plan.fired_log == log
        assert first.recovered_rounds == second.recovered_rounds
        np.testing.assert_array_equal(first.results[0][1], second.results[0][1])

    def test_gives_up_after_max_restarts(self, job, tmp_path):
        plan = FaultPlan().kill(0, at_loop=10).kill(1, at_loop=12)
        with pytest.raises(ResilienceError, match="giving up"):
            run_resilient_spmd(
                NRANKS, job, ckpt_dir=tmp_path, frequency=15, plan=plan,
                max_restarts=1,
            )

    @pytest.mark.parametrize("executor", ["thread", "mp"])
    def test_organic_errors_are_not_retried(self, executor, tmp_path):
        """Both launchers share one restart loop: an organic error from a
        rank is re-raised at once, with no restart and no second attempt."""
        attempts = []

        class BrokenJob(AirfoilJob):
            def setup(self):
                attempts.append(1)
                return super().setup()

            def rank_main(self, comm, state):
                raise ValueError("organic bug")

        if executor == "thread":
            nranks, run = NRANKS, run_resilient_spmd
        else:
            nranks, run = 2, run_resilient_spmd_mp
        with pytest.raises(RuntimeError) as exc_info:
            run(nranks, BrokenJob(nranks, 1, nx=4, ny=3),
                ckpt_dir=tmp_path, frequency=15)
        assert isinstance(exc_info.value.__cause__, ValueError)
        assert len(attempts) == 1

    def test_zero_max_restarts_fails_on_first_kill(self, job, tmp_path):
        plan = FaultPlan().kill(0, at_loop=10)
        with pytest.raises(ResilienceError, match="giving up"):
            run_resilient_spmd(
                NRANKS, job, ckpt_dir=tmp_path, frequency=15, plan=plan,
                max_restarts=0,
            )


class TestLatestCommonRound:
    """Recovery-round selection when a crash leaves ranks disagreeing.

    A kill can interrupt the coordinated flush: some ranks have round k on
    disk, others don't, or a rank's round k file records a different loop
    entry (it had already raced ahead into round k+1's numbering).  The
    driver must recover from the newest round that *every* rank flushed
    with an *agreeing* entry index.
    """

    @staticmethod
    def _write(ckpt_dir, rank, round_no, entry_index):
        store = FileStore(round_path(ckpt_dir, rank, round_no))
        store.save_dataset("u", np.full(4, float(entry_index)))
        store.set_entry(entry_index)
        store.flush()

    def test_newest_complete_round_wins(self, tmp_path):
        for round_no, entry in ((0, 10), (1, 20)):
            for rank in range(3):
                self._write(tmp_path, rank, round_no, entry)
        assert latest_common_round(tmp_path, 3) == (1, 20)

    def test_round_missing_a_rank_is_skipped(self, tmp_path):
        for rank in range(3):
            self._write(tmp_path, rank, 0, 10)
        # round 1 flushed by ranks 0 and 2 only — the crash hit rank 1
        self._write(tmp_path, 0, 1, 20)
        self._write(tmp_path, 2, 1, 20)
        assert latest_common_round(tmp_path, 3) == (0, 10)

    def test_disagreeing_entry_indices_skipped(self, tmp_path):
        for rank in range(3):
            self._write(tmp_path, rank, 0, 10)
        # round 1 is inconsistent: rank 2 checkpointed a later loop entry
        self._write(tmp_path, 0, 1, 20)
        self._write(tmp_path, 1, 1, 20)
        self._write(tmp_path, 2, 1, 25)
        assert latest_common_round(tmp_path, 3) == (0, 10)

    def test_newest_agreeing_round_wins_over_older_ones(self, tmp_path):
        for round_no, entry in ((0, 10), (1, 20), (2, 30)):
            for rank in range(2):
                self._write(tmp_path, rank, round_no, entry)
        # round 3 torn across ranks
        self._write(tmp_path, 0, 3, 40)
        self._write(tmp_path, 1, 3, 42)
        assert latest_common_round(tmp_path, 2) == (2, 30)

    def test_torn_file_falls_back_to_older_round(self, tmp_path):
        for rank in range(2):
            self._write(tmp_path, rank, 0, 10)
            self._write(tmp_path, rank, 1, 20)
        # rank 1's round-1 file is truncated mid-write
        path = round_path(tmp_path, 1, 1)
        path.write_bytes(path.read_bytes()[:40])
        assert latest_common_round(tmp_path, 2) == (0, 10)

    def test_no_consistent_round_returns_none(self, tmp_path):
        self._write(tmp_path, 0, 0, 10)
        self._write(tmp_path, 1, 0, 15)  # never agreed
        assert latest_common_round(tmp_path, 2) is None

    def test_empty_dir_returns_none(self, tmp_path):
        assert latest_common_round(tmp_path, 2) is None
