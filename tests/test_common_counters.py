"""Performance-counter bookkeeping."""

from repro.common.counters import LoopRecord, PerfCounters


class TestLoopRecord:
    def test_bytes_moved_sums_read_and_write(self):
        rec = LoopRecord("k", bytes_read=100, bytes_written=30)
        assert rec.bytes_moved == 130

    def test_indirect_flag(self):
        assert not LoopRecord("k").is_indirect
        assert LoopRecord("k", indirect_reads=8).is_indirect

    def test_merge_accumulates(self):
        a = LoopRecord("k", invocations=1, iterations=10, flops=5, colours=2)
        b = LoopRecord("k", invocations=2, iterations=20, flops=7, colours=4)
        a.merge(b)
        assert a.invocations == 3
        assert a.iterations == 30
        assert a.flops == 12

    def test_merge_takes_max_colours(self):
        a = LoopRecord("k", colours=2)
        a.merge(LoopRecord("k", colours=5))
        assert a.colours == 5


class TestPerfCounters:
    def test_loop_creates_on_demand(self):
        c = PerfCounters()
        rec = c.loop("res_calc")
        assert rec is c.loop("res_calc")
        assert rec.name == "res_calc"

    def test_record_message(self):
        c = PerfCounters()
        c.record_message(128)
        c.record_message(64)
        assert c.messages_sent == 2
        assert c.bytes_sent == 192

    def test_record_halo_exchange(self):
        c = PerfCounters()
        c.record_halo_exchange(4, 1000)
        assert c.halo_exchanges == 1
        assert c.messages_sent == 4
        assert c.bytes_sent == 1000

    def test_merge_combines_loops_and_comm(self):
        a, b = PerfCounters(), PerfCounters()
        a.loop("k").iterations = 5
        b.loop("k").iterations = 7
        b.loop("other").iterations = 1
        b.record_message(10)
        a.merge(b)
        assert a.loop("k").iterations == 12
        assert "other" in a.loops
        assert a.bytes_sent == 10

    def test_reset_clears_everything(self):
        c = PerfCounters()
        c.loop("k").iterations = 5
        c.record_message(10)
        c.reset()
        assert not c.loops
        assert c.messages_sent == 0

    def test_native_declines_merge_and_reset(self):
        a, b = PerfCounters(), PerfCounters()
        a.record_native_fallback("ops", "advec", "certificate: opaque call")
        b.record_native_fallback("op2", "update", "global INC is pairwise-summed on vec")
        a.merge(b)
        assert a.native_fallbacks == 2
        assert a.native_declines == {
            ("ops", "advec"): "certificate: opaque call",
            ("op2", "update"): "global INC is pairwise-summed on vec",
        }
        a.reset()
        assert a.native_fallbacks == 0 and not a.native_declines
        assert b.native_declines  # merge copied, reset did not reach the source

    def test_summary_rows_in_insertion_order(self):
        c = PerfCounters()
        c.loop("b")
        c.loop("a")
        assert [r[0] for r in c.summary_rows()] == ["b", "a"]


class TestCountersScope:
    def test_scope_redirects_and_restores(self):
        from repro.common.profiling import active_counters, counters_scope

        outer = active_counters()
        mine = PerfCounters()
        with counters_scope(mine):
            assert active_counters() is mine
        assert active_counters() is outer

    def test_nested_scopes(self):
        from repro.common.profiling import active_counters, counters_scope

        c1, c2 = PerfCounters(), PerfCounters()
        with counters_scope(c1):
            with counters_scope(c2):
                assert active_counters() is c2
            assert active_counters() is c1
