"""Checkpoint runtime: trigger, lazy saving, speculation and recovery.

The manager is a loop observer.  After :meth:`CheckpointManager.trigger`
(or automatically every ``frequency`` loops — "the user only needs to
specify the frequency of checkpoints, the rest can be done automatically"),
it enters checkpointing mode at the next loop — or, in speculative mode,
waits for the cheapest entry point of the detected periodic kernel
sequence.  While in checkpointing mode each dataset's fate is decided at
its first access: pure WRITE → dropped, anything that observes the old
value → saved immediately.  Global/reduction values are recorded after
every loop that writes them, so a recovery replay can fast-forward.

Recovery (:class:`RecoveryReplayer`): re-run the application with the
replayer installed; every loop before the checkpoint entry is skipped
(``event.skip``) with recorded global values replayed, then the saved
datasets are restored and normal execution resumes.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.checkpoint.analysis import modified_datasets
from repro.checkpoint.speculative import detect_period, should_defer
from repro.checkpoint.store import MemoryStore
from repro.common.access import Access
from repro.common.errors import CheckpointError
from repro.common.profiling import LoopEvent, add_loop_observer, remove_loop_observer
from repro.telemetry import tracer as _trace


def _set_value(ref: Any, value: np.ndarray) -> None:
    """Restore a recorded value into a Global/Reduction/Dat reference."""
    if hasattr(ref, "data") and isinstance(getattr(ref, "data"), np.ndarray):
        ref.data[...] = np.asarray(value).reshape(ref.data.shape)
    elif hasattr(ref, "value"):
        ref.value = float(np.asarray(value).reshape(-1)[0])
    else:
        raise CheckpointError(f"cannot restore into {ref!r}")


def _get_value(ref: Any) -> np.ndarray:
    if hasattr(ref, "data") and isinstance(getattr(ref, "data"), np.ndarray):
        return np.array(ref.data, copy=True)
    if hasattr(ref, "value"):
        return np.asarray([ref.value], dtype=np.float64)
    raise CheckpointError(f"cannot read value of {ref!r}")


class CheckpointManager:
    """Observes the loop chain and writes one checkpoint when triggered."""

    OBSERVING = "observing"
    ARMED = "armed"
    SAVING = "saving"
    COMPLETE = "complete"

    def __init__(
        self,
        store: MemoryStore | None = None,
        *,
        frequency: int | None = None,
        speculative: bool = False,
        on_complete: Any = None,
    ):
        self.store = store if store is not None else MemoryStore()
        self.frequency = frequency
        self.speculative = speculative
        #: called with the manager when a checkpoint round reaches COMPLETE;
        #: typically flushes the store and calls :meth:`restart`
        self.on_complete = on_complete
        self.state = self.OBSERVING
        self.loop_index = 0
        #: every observed loop, descriptors only (no ``data_ref``: a kept
        #: reference would pin each per-step Reduction of a long run)
        self.history: list[LoopEvent] = []
        #: dataset name -> fate decided while saving
        self.decided: dict[str, str] = {}
        self._installed = False
        self._installed_local = False
        self._last_global_refs: list[tuple[str, Any]] = []
        self._unmodified_at_entry: set[str] = set()

    # -- lifecycle ------------------------------------------------------------

    def install(self, *, local: bool = False) -> "CheckpointManager":
        if not self._installed:
            add_loop_observer(self._on_loop, local=local)
            self._installed = True
            self._installed_local = local
        return self

    def remove(self) -> None:
        if self._installed:
            remove_loop_observer(self._on_loop, local=self._installed_local)
            self._installed = False

    def __enter__(self) -> "CheckpointManager":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.finalize()
        self.remove()

    def trigger(self) -> None:
        """Request a checkpoint at the next (or next-cheapest) loop."""
        # a snapshot decision is a data observation: loops queued by the
        # lazy runtime (possibly before this manager was installed) must
        # land before their state can be saved
        from repro.ops import lazy as _lazy

        _lazy.flush_point("checkpoint_trigger")
        if self.state == self.OBSERVING:
            self.state = self.ARMED

    # -- observation ------------------------------------------------------------

    def _flush_globals(self) -> None:
        """Record post-execution values of the previous loop's globals."""
        for name, ref in self._last_global_refs:
            self.store.record_global(name, self.loop_index - 1, _get_value(ref))
        self._last_global_refs = []

    def _on_loop(self, event: LoopEvent) -> None:
        self._flush_globals()
        self.history.append(event.without_refs())

        due = self.state == self.ARMED or (
            self.state == self.OBSERVING
            and self.frequency is not None
            and self.loop_index > 0
            and self.loop_index % self.frequency == 0
        )
        if due:
            if event.skip:
                # a recovery replay is fast-forwarding this loop: live data is
                # stale, so hold the trigger until execution actually resumes
                self.state = self.ARMED
            else:
                self._maybe_enter()

        if self.state == self.SAVING and not event.skip:
            self._decide(event)

        # queue globals written by this loop for post-execution recording
        # (skipped loops don't execute, so their refs hold replayed values
        # already recorded in the recovery store — nothing new to capture)
        if not event.skip:
            for a in event.args:
                if a.is_global and a.access.writes:
                    self._last_global_refs.append((a.name, a.data_ref))

        self.loop_index += 1

    def _maybe_enter(self) -> None:
        if self.speculative and len(self.history) >= 4:
            names = [c.name for c in self.history[:-1]]
            if detect_period(names) is not None and should_defer(
                self.history[:-1], len(self.history) - 1
            ):
                self.state = self.ARMED  # keep waiting for a cheaper loop
                return
        self.state = self.SAVING
        self.store.set_entry(self.loop_index)
        trc = _trace.ACTIVE
        if trc is not None:
            trc.instant("checkpoint_enter", "checkpoint", loop_index=self.loop_index)
        # datasets never written before the entry point still hold their
        # initial (input-file) values at recovery fast-forward time, so they
        # need no saving regardless of what happens later
        before = self.history[:-1]
        self._unmodified_at_entry = {
            a.name for loop in before for a in loop.args if not a.is_global
        } - modified_datasets(before)

    def _decide(self, event: LoopEvent) -> None:
        for a in event.args:
            if a.is_global or a.name in self.decided:
                continue
            if a.name in self._unmodified_at_entry:
                # never modified before the entry point: still holds its
                # initial (input-file) value, restorable without saving
                # ("bounds and x were never modified, they are not saved")
                self.decided[a.name] = "never_saved"
                self.store.drop_dataset(a.name)
            elif a.access is Access.WRITE:
                self.decided[a.name] = "dropped"
                self.store.drop_dataset(a.name)
            else:
                self.decided[a.name] = "saved"
                self.store.save_dataset(a.name, _get_value(a.data_ref))
        if self._all_decided():
            self.state = self.COMPLETE
            trc = _trace.ACTIVE
            if trc is not None:
                fates = list(self.decided.values())
                trc.instant(
                    "checkpoint_complete", "checkpoint",
                    saved=fates.count("saved"),
                    dropped=len(fates) - fates.count("saved"),
                )
            if self.on_complete is not None:
                self.on_complete(self)

    def _all_decided(self) -> bool:
        # complete once every dataset seen in the history is decided
        seen = {a.name for loop in self.history for a in loop.args if not a.is_global}
        return seen.issubset(self.decided.keys())

    def finalize(self) -> None:
        """Flush trailing global records (call after the run finishes)."""
        from repro.ops import lazy as _lazy

        _lazy.flush_point("checkpoint_finalize")
        self._flush_globals()

    def restart(self, store: MemoryStore | None = None) -> "CheckpointManager":
        """Begin a fresh checkpoint round into ``store`` (rolling checkpoints).

        The loop index and access history stay absolute — a later round's
        entry point means the same loop on every deterministic rank — and the
        recorded global series is carried forward so the new round can replay
        globals across the whole run, not just since the last round.
        """
        new = store if store is not None else MemoryStore()
        for name, series in self.store.globals.items():
            have = {idx for idx, _ in new.globals.get(name, [])}
            for idx, val in series:
                if idx not in have:
                    new.record_global(name, idx, val)
            new.globals[name].sort(key=lambda t: t[0])
        self.store = new
        self.decided = {}
        self._unmodified_at_entry = set()
        self.state = self.OBSERVING
        return self


class RecoveryReplayer:
    """Fast-forwards a re-run to a checkpoint, then restores and resumes."""

    def __init__(
        self,
        store: MemoryStore,
        datasets: dict[str, Any],
        globals_: dict[str, Any] | None = None,
    ):
        if store.entry_index is None:
            raise CheckpointError("store holds no checkpoint entry")
        self.store = store
        self.datasets = datasets
        self.globals_ = globals_ or {}
        self.loop_index = 0
        self.restored = False
        self._installed = False
        self._installed_local = False

    def install(self, *, local: bool = False) -> "RecoveryReplayer":
        if not self._installed:
            add_loop_observer(self._on_loop, local=local)
            self._installed = True
            self._installed_local = local
        return self

    def remove(self) -> None:
        if self._installed:
            remove_loop_observer(self._on_loop, local=self._installed_local)
            self._installed = False

    def __enter__(self) -> "RecoveryReplayer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.remove()

    def _on_loop(self, event: LoopEvent) -> None:
        entry = self.store.entry_index
        if self.loop_index < entry:
            event.skip = True
            # replay recorded global values: "only set the value of
            # op_arg_gbl arguments"
            for a in event.args:
                if a.is_global and a.access.writes:
                    val = self.store.global_at(a.name, self.loop_index)
                    if val is not None:
                        _set_value(a.data_ref, val)
        elif not self.restored:
            self._restore()
        self.loop_index += 1

    def _restore(self) -> None:
        trc = _trace.ACTIVE
        span = None
        if trc is not None:
            span = trc.begin(
                "checkpoint_restore", "checkpoint",
                entry=self.store.entry_index, datasets=len(self.store.datasets),
            )
        try:
            for name, values in self.store.datasets.items():
                ref = self.datasets.get(name)
                if ref is None:
                    raise CheckpointError(f"saved dataset {name!r} has no live counterpart")
                _set_value(ref, values)
            entry = self.store.entry_index
            for name, ref in self.globals_.items():
                val = self.store.global_at(name, entry - 1)
                if val is not None:
                    _set_value(ref, val)
        finally:
            if span is not None:
                trc.end(span)
        self.restored = True
