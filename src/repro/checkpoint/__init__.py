"""Checkpointing driven by the access-execute description (paper Section VI).

Because every loop declares how it accesses every dataset, the library can
"reason about the state of all the datasets at any particular point during
execution": datasets that are immediately overwritten need not be saved.
This package provides

* :mod:`repro.checkpoint.analysis` — the Figure-8 decision table: for every
  potential entry point in a loop chain (a sequence of the
  :class:`~repro.common.profiling.LoopEvent` records loop observers
  receive), which datasets get saved, dropped or deferred, and how many
  units of data the checkpoint costs;
* :mod:`repro.checkpoint.speculative` — periodic-sequence detection: when
  the kernel sequence repeats, wait for the cheapest entry point instead of
  checkpointing immediately;
* :mod:`repro.checkpoint.manager` — the runtime: a loop observer that
  triggers checkpoints, saves datasets lazily as their fate is decided,
  records reduction/global values, and fast-forwards on recovery (loops are
  skipped, only global-argument values are replayed, until the checkpoint
  location is reached and state is restored);
* :mod:`repro.checkpoint.store` — in-memory and npz-file checkpoint stores.
"""

from repro.checkpoint.analysis import (
    DatasetFate,
    decision_table,
    units_saved_if_entering,
)
from repro.checkpoint.speculative import detect_period, best_entry_points
from repro.checkpoint.manager import CheckpointManager, RecoveryReplayer
from repro.checkpoint.store import (
    FileStore,
    MemoryStore,
    latest_common_round,
    round_glob,
    round_path,
)

__all__ = [
    "DatasetFate",
    "decision_table",
    "units_saved_if_entering",
    "detect_period",
    "best_entry_points",
    "CheckpointManager",
    "latest_common_round",
    "round_glob",
    "round_path",
    "RecoveryReplayer",
    "MemoryStore",
    "FileStore",
]
