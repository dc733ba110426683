"""Colouring race detector: does the plan actually prevent races?

Two-level colouring (paper Section II-B) is only as good as the plan that
computes it.  This module checks plans from two directions:

* :func:`check_plan` — static replay: walk the plan and assert that no two
  same-coloured blocks, and no two same-elem-coloured elements within one
  block, write a common indirect location.
* :func:`torn_update_check` — dynamic proof: execute the plan twice on
  cloned data — once in plan order with atomic (``np.add.at``) scatters,
  once with every colour's elements randomly permuted and *non-atomic*
  buffered scatters, which lose one of two conflicting updates exactly
  like an unsynchronised commit on real hardware.  A correct colouring
  makes the two runs agree; a corrupted one shows up as a torn update.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.common.access import Access
from repro.common.errors import RaceViolation
from repro.op2.plan import BLOCK_SIZE, Plan, _race_targets, build_plan


def race_targets(args: Sequence, n: int) -> np.ndarray:
    """The (n, k) indirect-write target matrix the colouring must separate."""
    return _race_targets(list(args), n)


def _duplicate_target(owners: np.ndarray, tgts: np.ndarray):
    """First target claimed by two distinct owners (per-owner duplicates ok)."""
    if tgts.size == 0:
        return None
    pairs = np.unique(np.stack([owners, tgts], axis=1), axis=0)
    order = np.argsort(pairs[:, 1], kind="stable")
    t = pairs[order, 1]
    o = pairs[order, 0]
    dup = np.nonzero(t[1:] == t[:-1])[0]
    if dup.size:
        i = int(dup[0])
        return int(t[i]), int(o[i]), int(o[i + 1])
    return None


def check_plan(plan: Plan, args: Sequence, *, loop: str = "?") -> int:
    """Replay ``plan`` and assert its colouring admits no write conflicts.

    Returns the number of (colour, level) groups checked; raises
    :class:`~repro.common.errors.RaceViolation` naming the conflicting
    blocks/elements and the shared target otherwise.
    """
    targets = _race_targets(list(args), plan.n_elements)
    if targets.size == 0:
        return 0
    arity = targets.shape[1]
    checked = 0

    # level 1: same-coloured blocks must not share any written location
    for colour in range(plan.n_block_colours):
        elems = plan.elements_of_colour(colour)
        owners = np.repeat(plan.block_of[elems], arity)
        hit = _duplicate_target(owners, targets[elems].ravel())
        if hit is not None:
            t, b1, b2 = hit
            raise RaceViolation(
                f"loop {loop!r}: blocks {b1} and {b2} share block colour "
                f"{colour} but both write location {t}"
            )
        checked += 1

    # level 2: within a block, same-coloured elements must not share targets
    for b in range(plan.n_blocks):
        elems = plan.elements_of_block(b)
        ecol = plan.elem_colour[elems]
        for c in np.unique(ecol):
            sub = elems[ecol == c]
            owners = np.repeat(sub, arity)
            hit = _duplicate_target(owners, targets[sub].ravel())
            if hit is not None:
                t, e1, e2 = hit
                raise RaceViolation(
                    f"loop {loop!r}: elements {e1} and {e2} in block {b} share "
                    f"element colour {int(c)} but both write location {t}"
                )
            checked += 1
    return checked


def _racy_scatter(arg, buf: np.ndarray, idx: np.ndarray) -> None:
    """Commit one argument non-atomically: conflicting increments are torn."""
    from repro.op2.backends import base

    if arg.is_indirect and arg.access is Access.INC:
        cols = arg.map.values[idx, arg.idx]
        # buffered fancy-index update: with duplicate targets, only one of
        # the conflicting contributions lands — the torn update
        arg.dat.data[cols] += buf
        return
    base._scatter(arg, buf, idx)


def _execute_racy(kernel, args, idx: np.ndarray) -> None:
    from repro.op2.backends import base

    n = idx.size
    if n == 0:
        return
    buffers = [base._gather(arg, idx, n) for arg in args]
    kernel.vec_func(*buffers)
    for arg, buf in zip(args, buffers):
        _racy_scatter(arg, buf, idx)


def torn_update_check(
    kernel,
    iterset,
    args: Sequence,
    *,
    n: int | None = None,
    block_size: int = BLOCK_SIZE,
    plan: Plan | None = None,
    seed: int = 0,
    rtol: float = 1e-12,
) -> None:
    """Prove within-colour order-independence by racy re-execution.

    Executes ``plan`` (built for the loop if not given) twice on cloned
    data: a reference pass in plan order with atomic scatters, and a
    perturbed pass where each colour's element order is shuffled and INC
    commits are non-atomic.  Dats must agree bitwise (a correct colouring
    leaves no two conflicting updates in one colour group, so the torn
    scatter is exact); INC globals are compared to ``rtol`` since summation
    order legitimately moves.  Raises RaceViolation on disagreement.
    """
    from repro.op2.backends.base import execute_subset
    from repro.verify.sanitizer import _clone_universe

    arg_list = list(args)
    n = iterset.size if n is None else n
    if plan is None:
        plan = build_plan(iterset, arg_list, block_size=block_size, n_elements=n)

    dat_snaps = {id(a.dat): a.dat.data.copy() for a in arg_list if a.dat is not None}
    glob_snaps = {id(a.glob): a.glob.data.copy() for a in arg_list if a.is_global}
    ref_args, ref_dats, ref_globs = _clone_universe(arg_list, dat_snaps, glob_snaps)
    racy_args, racy_dats, racy_globs = _clone_universe(arg_list, dat_snaps, glob_snaps)
    rng = np.random.default_rng(seed)

    for colour in range(plan.n_block_colours):
        elems = plan.elements_of_colour(colour)
        if elems.size == 0:
            continue
        ecol = plan.elem_colour[elems]
        for ec in range(plan.n_elem_colours):
            subset = elems[ecol == ec]
            if subset.size == 0:
                continue
            execute_subset(kernel, ref_args, subset, subset.size)
            _execute_racy(kernel, racy_args, rng.permutation(subset))

    for key, ref in ref_dats.items():
        racy = racy_dats[key]
        if not np.array_equal(ref.data, racy.data):
            bad = np.nonzero(np.any(ref.data != racy.data, axis=-1))[0]
            raise RaceViolation(
                f"loop {kernel.name!r}: torn-update run diverges on dat "
                f"{ref.name!r} at rows {tuple(int(b) for b in bad[:5])} — "
                f"the colouring does not serialise conflicting updates"
            )
    for key, ref in ref_globs.items():
        racy = racy_globs[key]
        if not np.allclose(ref.data, racy.data, rtol=rtol, atol=0.0):
            raise RaceViolation(
                f"loop {kernel.name!r}: torn-update run diverges on global "
                f"{ref.name!r} ({ref.data} vs {racy.data})"
            )
