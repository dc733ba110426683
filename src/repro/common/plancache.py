"""One bounded LRU for every compile-once cache in the library.

The paper's libraries build a loop's plan on its first execution and
replay it on every later call (Section II-C); :class:`PlanCache` is that
cache.  Its instances — op2 plans, ops plans, lazy chain schedules —
supply only a key, their entries' ``still_valid()`` guard and their trace
attributes, and share one capacity, ``Config.execplan_cache_size``.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from typing import Callable, Hashable

from repro.common.config import configure, get_config
from repro.common.counters import PerfCounters
from repro.common.profiling import active_counters

__all__ = ["PlanCache", "clear_plan_caches", "set_plan_cache_capacity"]

_live: weakref.WeakSet = weakref.WeakSet()  # every cache, for resize and reset
_EVENT = {"misses": "miss", "invalidations": "invalidation", "evictions": "eviction"}


class PlanCache:
    """A thread-safe LRU of entries that guard their own validity.

    Each event counts in :meth:`stats` and in the ``PerfCounters`` field
    ``<books>_<stat>`` where one exists (``plan_hits``, ``chain_misses``);
    a miss, invalidation or eviction is also traced as instant
    ``<books>_<event>`` (category ``category``) with attributes
    ``describe(event, entry)``, unless that is None.  ``on_clear`` runs
    after :meth:`clear`, for side memos an owner drops with its entries.
    """

    def __init__(self, books: str, category: str, describe: Callable, on_clear=None):
        self._books, self._category = books, category
        self._describe, self._on_clear = describe, on_clear
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self._stats = {"hits": 0, "misses": 0, "invalidations": 0, "evictions": 0}
        self._fields = {s: f"{books}_{s}" for s in self._stats
                        if hasattr(PerfCounters, f"{books}_{s}")}
        self._hit_field = self._fields["hits"]
        _live.add(self)

    def get(self, key: Hashable, build: Callable, *args):
        """The valid entry under ``key``, else ``build(*args)`` cached there.

        ``build`` runs outside the lock (simulated MPI ranks build their
        own keys concurrently) and takes its arguments rather than being a
        closure, which every hit would pay to create.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                if entry.still_valid():
                    self._entries.move_to_end(key)
                    self._stats["hits"] += 1
                    counters, field = active_counters(), self._hit_field
                    setattr(counters, field, getattr(counters, field) + 1)
                    return entry
                del self._entries[key]
                self._note("invalidations", entry)
        entry = build(*args)
        with self._lock:
            self._entries[key] = entry
            self._note("misses", entry)
            self._trim(get_config().execplan_cache_size)
        return entry

    def clear(self) -> None:
        """Drop every entry; the statistics keep counting."""
        with self._lock:
            self._entries.clear()
        if self._on_clear is not None:
            self._on_clear()

    def stats(self) -> dict[str, int]:
        """Current size plus process-lifetime event counts."""
        with self._lock:
            return {"size": len(self._entries), **self._stats}

    def entries(self) -> list:
        """The cached entries, least recently used first."""
        with self._lock:
            return list(self._entries.values())

    def _trim(self, limit: int) -> None:
        while len(self._entries) > limit:  # caller holds the lock
            self._note("evictions", self._entries.popitem(last=False)[1])

    def _note(self, stat: str, entry) -> None:
        from repro.telemetry import tracer as _trace  # telemetry depends on common

        self._stats[stat] += 1
        field = self._fields.get(stat)
        if field is not None:
            counters = active_counters()
            setattr(counters, field, getattr(counters, field) + 1)
        trc = _trace.ACTIVE
        attrs = None if trc is None else self._describe(_EVENT[stat], entry)
        if attrs is not None:
            trc.instant(f"{self._books}_{_EVENT[stat]}", self._category, **attrs)


def set_plan_cache_capacity(limit: int) -> None:
    """Set every plan cache's capacity (persistently) and evict down to it now."""
    if limit < 1:
        raise ValueError("plan cache capacity must be >= 1")
    configure(execplan_cache_size=limit)
    for cache in list(_live):
        with cache._lock:
            cache._trim(limit)


def clear_plan_caches() -> None:
    """Empty every plan cache (tests / reconfiguration)."""
    for cache in list(_live):
        cache.clear()
