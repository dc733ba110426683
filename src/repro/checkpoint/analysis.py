"""The Figure-8 decision analysis.

Given a loop chain — a sequence of :class:`~repro.common.profiling.LoopEvent`
records, recorded off a live run with ``loop_chain_record`` or built from
source by the linter — decide for each potential checkpoint entry point:

* which datasets must be **saved** — their first access at or after the
  entry point observes the old value (READ, RW, or INC, since an increment's
  result depends on the prior contents);
* which are **dropped** — first access is a pure WRITE, so the value is
  regenerated before anyone reads it;
* which are **never saved** — never modified during the chain at all
  (inputs like coordinates and bounds, restorable from the original files);
* globals/reductions are excluded from the units count — their values are
  recorded "whenever [the producing loop] has executed".

The chain is treated as periodic (the paper's speculative analysis detects
the period), so datasets whose next access lies in the following iteration
are still classified; with a non-periodic finite chain, unreached datasets
are reported as pending ("unknown yet" in the figure).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

from repro.common.access import Access
from repro.common.profiling import ArgEvent, LoopEvent


class DatasetFate(enum.Enum):
    """Classification of one dataset for one checkpoint entry point."""

    SAVED = "saved"
    DROPPED = "dropped"
    NEVER_SAVED = "never_saved"  # not modified anywhere in the chain
    GLOBAL = "global"  # reduction value, recorded separately
    PENDING = "pending"  # no access observed before the chain ended


def _access_of(loop: LoopEvent, dataset: str) -> ArgEvent | None:
    for a in loop.args:
        if a.name == dataset:
            return a
    return None


def datasets_in_chain(chain: Sequence[LoopEvent]) -> dict[str, ArgEvent]:
    """All distinct datasets (first occurrence), name -> representative access."""
    out: dict[str, ArgEvent] = {}
    for loop in chain:
        for a in loop.args:
            out.setdefault(a.name, a)
    return out


def modified_datasets(chain: Sequence[LoopEvent]) -> set[str]:
    """Non-global datasets some loop of the chain writes."""
    return {
        a.name
        for loop in chain
        for a in loop.args
        if not a.is_global and a.access.writes
    }


def classify_entry(
    chain: Sequence[LoopEvent], entry: int, *, periodic: bool = True
) -> dict[str, DatasetFate]:
    """Classify every dataset for a checkpoint entered right before loop ``entry``."""
    datasets = datasets_in_chain(chain)
    modified = modified_datasets(chain)
    n = len(chain)
    fates: dict[str, DatasetFate] = {}
    for name, rep in datasets.items():
        if rep.is_global:
            fates[name] = DatasetFate.GLOBAL
            continue
        if name not in modified:
            fates[name] = DatasetFate.NEVER_SAVED
            continue
        horizon = n if periodic else n - entry
        fate = DatasetFate.PENDING
        for k in range(horizon):
            loop = chain[(entry + k) % n]
            acc = _access_of(loop, name)
            if acc is None:
                continue
            if acc.access is Access.WRITE:
                fate = DatasetFate.DROPPED
            else:  # READ / RW / INC observe the old value
                fate = DatasetFate.SAVED
            break
        fates[name] = fate
    return fates


def units_saved_if_entering(
    chain: Sequence[LoopEvent], entry: int, *, periodic: bool = True
) -> int:
    """The figure's "units of data saved" column for one entry point.

    A unit is one component of one dataset (the dataset's ``dim``); pending
    datasets are counted conservatively as saved.
    """
    datasets = datasets_in_chain(chain)
    fates = classify_entry(chain, entry, periodic=periodic)
    return sum(
        datasets[name].dim
        for name, fate in fates.items()
        if fate in (DatasetFate.SAVED, DatasetFate.PENDING)
    )


@dataclass
class DecisionRow:
    """One row of the Figure-8 table."""

    index: int
    loop: str
    accesses: dict[str, str]  # dataset -> R/W/I/RW short code
    units: int


def decision_table(chain: Sequence[LoopEvent], *, periodic: bool = True) -> list[DecisionRow]:
    """The full Figure-8 table: per loop, accesses and units-if-entering-here."""
    rows = []
    for i, loop in enumerate(chain):
        accesses = {a.name: a.access.short for a in loop.args}
        rows.append(
            DecisionRow(
                index=i + 1,
                loop=loop.name,
                accesses=accesses,
                units=units_saved_if_entering(chain, i, periodic=periodic),
            )
        )
    return rows


def format_table(chain: Sequence[LoopEvent], *, periodic: bool = True) -> str:
    """Render the decision table as text (the benchmark prints this)."""
    datasets = list(datasets_in_chain(chain))
    rows = decision_table(chain, periodic=periodic)
    header = f"{'#':>3} {'loop':<12}" + "".join(f"{d:>10}" for d in datasets) + f"{'units':>8}"
    lines = [header, "-" * len(header)]
    for r in rows:
        cells = "".join(f"{r.accesses.get(d, ''):>10}" for d in datasets)
        lines.append(f"{r.index:>3} {r.loop:<12}{cells}{r.units:>8}")
    return "\n".join(lines)
