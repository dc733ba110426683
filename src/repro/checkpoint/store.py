"""Checkpoint stores: where saved datasets and global values live."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from repro.common.errors import CheckpointError
from repro.telemetry import tracer as _trace


class MemoryStore:
    """In-memory checkpoint store (tests, single-process runs)."""

    def __init__(self) -> None:
        self.datasets: dict[str, np.ndarray] = {}
        self.globals: dict[str, list[tuple[int, np.ndarray]]] = {}
        self.entry_index: int | None = None
        self.dropped: list[str] = []

    def save_dataset(self, name: str, values: np.ndarray) -> None:
        self.datasets[name] = np.array(values, copy=True)

    def drop_dataset(self, name: str) -> None:
        if name not in self.dropped:
            self.dropped.append(name)

    def record_global(self, name: str, loop_index: int, value: np.ndarray) -> None:
        self.globals.setdefault(name, []).append((loop_index, np.array(value, copy=True)))

    def set_entry(self, loop_index: int) -> None:
        self.entry_index = loop_index

    @property
    def saved_units(self) -> int:
        """Total components saved (the figure's cost metric)."""
        return sum(int(v.shape[-1]) if v.ndim > 1 else 1 for v in self.datasets.values())

    @property
    def saved_bytes(self) -> int:
        return sum(v.nbytes for v in self.datasets.values())

    def global_at(self, name: str, loop_index: int) -> np.ndarray | None:
        """Latest recorded value of a global at or before ``loop_index``."""
        best = None
        for idx, val in self.globals.get(name, []):
            if idx <= loop_index:
                best = val
        return best


def round_path(ckpt_dir: str | Path, rank: int, round_no: int) -> Path:
    """Canonical path of one rank's checkpoint round (``ckpt-r000-n0000.npz``)."""
    return Path(ckpt_dir) / f"ckpt-r{rank:03d}-n{round_no:04d}.npz"


def round_glob(ckpt_dir: str | Path):
    """All round files in ``ckpt_dir``."""
    return Path(ckpt_dir).glob("ckpt-r*-n*.npz")


def latest_common_round(ckpt_dir: str | Path, nranks: int) -> tuple[int, int] | None:
    """Newest round flushed by every rank, as (round_no, entry_index).

    Rounds whose per-rank entry indices disagree (a crash
    interleaved two rounds) are skipped in favour of an older consistent
    one; torn files likewise fall back.  Returns None when no round is
    complete across all ranks — recovery then starts from scratch.
    """
    rounds: set[int] = set()
    for p in round_glob(ckpt_dir):
        rounds.add(int(p.stem.split("-n")[1]))
    for round_no in sorted(rounds, reverse=True):
        paths = [round_path(ckpt_dir, r, round_no) for r in range(nranks)]
        if not all(p.exists() for p in paths):
            continue
        entries = []
        try:
            for p in paths:
                entries.append(FileStore.load(p).entry_index)
        except Exception:
            continue  # torn file: fall back to an older round
        if len(set(entries)) == 1:
            return round_no, entries[0]
    return None


class FileStore(MemoryStore):
    """Checkpoint store persisted to an npz file (the HDF5 stand-in)."""

    def __init__(self, path: str | Path):
        super().__init__()
        self.path = Path(path)

    def flush(self) -> None:
        """Write the checkpoint to disk (atomically: tmp file + rename)."""
        if self.entry_index is None:
            raise CheckpointError("no checkpoint entry recorded; nothing to flush")
        trc = _trace.ACTIVE
        span = None
        if trc is not None:
            span = trc.begin(
                "checkpoint_save", "checkpoint",
                datasets=len(self.datasets), bytes=self.saved_bytes,
                entry=self.entry_index,
            )
        try:
            payload: dict[str, np.ndarray] = {
                f"dat/{k}": v for k, v in self.datasets.items()
            }
            for name, series in self.globals.items():
                for idx, val in series:
                    payload[f"gbl/{name}/{idx}"] = val
            payload["entry"] = np.asarray([self.entry_index], dtype=np.int64)
            # fixed-width strings, not object dtype: loadable without pickle
            payload["dropped"] = np.asarray(self.dropped, dtype=np.str_)
            tmp = self.path.with_name(self.path.name + ".tmp")
            with open(tmp, "wb") as fh:
                np.savez(fh, **payload)
            os.replace(tmp, self.path)
        finally:
            if span is not None:
                trc.end(span)

    @classmethod
    def load(cls, path: str | Path) -> "FileStore":
        """Read a checkpoint back from disk."""
        store = cls(path)
        with np.load(Path(path)) as npz:
            store.entry_index = int(npz["entry"][0])
            store.dropped = [str(d) for d in npz["dropped"]]
            for key in npz.files:
                if key.startswith("dat/"):
                    store.datasets[key[4:]] = npz[key]
                elif key.startswith("gbl/"):
                    _, name, idx = key.split("/")
                    store.globals.setdefault(name, []).append((int(idx), npz[key]))
        for series in store.globals.values():
            series.sort(key=lambda t: t[0])
        return store
