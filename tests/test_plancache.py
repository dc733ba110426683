"""The one plan cache (``repro.common.plancache``), driven with fake entries.

op2 plans, ops plans and lazy chain schedules are all :class:`PlanCache`
instances, so lookup order, the guard, LRU eviction, the counter/trace
books, resize and reset are pinned here once; the per-API tests cover only
what differs between owners: their keys and guards.
"""

from __future__ import annotations

import random
import sys
import threading
from collections import OrderedDict

import pytest
from hypothesis import given, settings, strategies as st

from repro import telemetry
from repro.common.config import Config, configure, get_config, swap
from repro.common.counters import PerfCounters
from repro.common.plancache import PlanCache, clear_plan_caches, set_plan_cache_capacity
from repro.common.profiling import counters_scope


class _Entry:
    def __init__(self, name: str):
        self.name, self.valid = name, True

    def still_valid(self) -> bool:
        return self.valid


def _cache(**kw) -> PlanCache:
    return PlanCache("plan", "plan", lambda event, e: {"kernel": e.name}, **kw)


def _instants(trc) -> list[tuple]:
    return [(e.name, e.cat, e.attrs["kernel"]) for e in trc.events()
            if isinstance(e, telemetry.InstantEvent)]


@pytest.fixture(autouse=True)
def _restore_capacity():
    yield
    configure(execplan_cache_size=Config().execplan_cache_size)


def test_miss_hits_invalidation_and_lru_eviction_books():
    cache, c = _cache(), PerfCounters()
    with swap(execplan_cache_size=2), counters_scope(c), telemetry.tracing() as trc:
        a = cache.get("a", _Entry, "a")
        assert cache.get("a", pytest.fail, "rebuilt a hit") is a
        cache.get("b", _Entry, "b")
        a.valid = False  # the guard fails: "a" is dropped and rebuilt as most recent
        a2, c3 = cache.get("a", _Entry, "a2"), cache.get("c", _Entry, "c")  # evicts "b"
    assert cache.entries() == [a2, c3]
    assert cache.stats() == {"size": 2, "hits": 1, "misses": 4, "invalidations": 1, "evictions": 1}
    assert (c.plan_hits, c.plan_misses, c.plan_invalidations, c.plan_evictions) == (1, 4, 1, 1)
    assert _instants(trc) == [
        ("plan_miss", "plan", "a"), ("plan_miss", "plan", "b"),
        ("plan_invalidation", "plan", "a"), ("plan_miss", "plan", "a2"),
        ("plan_miss", "plan", "c"), ("plan_eviction", "plan", "b")]
    with pytest.raises(ValueError):
        cache.get("d", int, "not a number")  # a failed build caches nothing
    assert cache.stats()["size"] == 2 and cache.stats()["misses"] == 4


def test_resize_evicts_every_live_cache_now_and_clear_runs_owner_hooks():
    dropped = []
    caches = [_cache(), _cache(on_clear=lambda: dropped.append(1))]
    for cache in caches:
        for k in "abc":
            cache.get(k, _Entry, k)
    c = PerfCounters()
    with counters_scope(c), telemetry.tracing() as trc:
        set_plan_cache_capacity(1)
    assert get_config().execplan_cache_size == 1
    assert [[e.name for e in cache.entries()] for cache in caches] == [["c"], ["c"]]
    assert c.plan_evictions == 4
    assert sorted(k for _, _, k in _instants(trc)) == ["a", "a", "b", "b"]
    with pytest.raises(ValueError):
        set_plan_cache_capacity(0)
    clear_plan_caches()
    assert caches[1].entries() == [] and dropped == [1]
    assert caches[1].stats()["misses"] == 3  # statistics outlive a reset


def test_chain_books_count_hits_and_misses_and_trace_misses_only():
    cache = PlanCache("chain", "lazy", lambda ev, e: {"kernel": e.name} if ev == "miss" else None)
    c = PerfCounters()
    with swap(execplan_cache_size=1), counters_scope(c), telemetry.tracing() as trc:
        for k in "aab":
            cache.get(k, _Entry, k)
    assert (c.chain_hits, c.chain_misses, c.plan_evictions) == (1, 2, 0)
    assert cache.stats()["evictions"] == 1
    assert _instants(trc) == [("chain_miss", "lazy", "a"), ("chain_miss", "lazy", "b")]


def test_concurrent_gets_lose_no_updates():
    """Rank threads share one cache: every get is booked exactly once."""
    cache, threads, gets = _cache(), 6, 400
    # random draws of four keys into three slots: hits, misses and evictions
    scripts = [random.Random(t).choices(range(4), k=gets) for t in range(threads)]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with swap(execplan_cache_size=3):
            workers = [threading.Thread(target=lambda keys=keys: [
                cache.get(k, _Entry, str(k)) for k in keys]) for keys in scripts]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(w.is_alive() for w in workers)
    stats = cache.stats()
    assert stats["hits"] + stats["misses"] == threads * gets
    assert stats["size"] <= 3


#: (operation, argument): a key for get/invalidate, a capacity for resize
_step = st.tuples(
    st.sampled_from(("get", "get", "get", "invalidate", "resize", "clear")),
    st.integers(1, 4),
)


@settings(max_examples=150, deadline=None)
@given(capacity=st.integers(1, 4), script=st.lists(_step, max_size=40))
def test_matches_ordered_dict_model(capacity, script):
    cache, model = _cache(), OrderedDict()
    books = {"hits": 0, "misses": 0, "invalidations": 0, "evictions": 0}

    def trim(limit):
        while len(model) > limit:
            model.popitem(last=False)
            books["evictions"] += 1

    configure(execplan_cache_size=capacity)
    for op, arg in script:
        entry = model.get(arg)
        if op == "get" and entry is not None and entry.valid:
            model.move_to_end(arg)
            books["hits"] += 1
            assert cache.get(arg, pytest.fail, "rebuilt a hit") is entry
        elif op == "get":
            if entry is not None:
                del model[arg]
                books["invalidations"] += 1
            model[arg] = cache.get(arg, _Entry, str(arg))
            books["misses"] += 1
            trim(get_config().execplan_cache_size)
        elif op == "invalidate" and entry is not None:
            entry.valid = False
        elif op == "resize":
            set_plan_cache_capacity(arg)
            trim(arg)
        elif op == "clear":
            cache.clear()
            model.clear()
        assert cache.entries() == list(model.values())
        assert cache.stats() == {"size": len(model), **books}
