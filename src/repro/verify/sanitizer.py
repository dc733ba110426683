"""Access-descriptor sanitizer: shadow-execution checks for parallel loops.

``op_par_loop`` declares, per argument, exactly which data a kernel may
touch and how (READ/WRITE/RW/INC, direct or through a map slot).  The
sanitizer executes the loop under guards that verify the kernel against
that declaration:

* **READ guard** — dats referenced only with READ access are marked
  read-only for the duration of the loop (a write raises immediately) and
  digest-checked afterwards (a write that bypassed the guard is still
  caught).
* **Footprint diff** — after execution, every written dat's changed rows
  are compared against the union of declared targets (direct iteration
  range plus the referenced map columns); rows changed outside the declared
  footprint raise.
* **Shadow pair** — the loop is re-executed twice on cloned data: dats
  declared pure WRITE have their declared footprint pre-filled with two
  different sentinels (a kernel that reads its old value, or fails to write
  part of the declared footprint, makes the two runs disagree); dats and
  globals declared pure INC have their baseline shifted by a constant ``c``
  in one run (a kernel whose contribution depends on the current value
  breaks ``shadow1 == shadow2 + c``).

All failures raise the structured
:class:`~repro.common.errors.DescriptorViolation` naming the loop, the
argument and the first offending indices.  The OPS-side helpers at the
bottom apply the READ-digest and write-footprint checks to structured
loops; stencil conformance of every accessed offset is enforced by the
(guarded) accessors themselves.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, Sequence

import numpy as np

from repro.common.access import Access
from repro.common.config import swap
from repro.common.errors import DescriptorViolation

#: sentinels for the WRITE-purity shadow pair: finite (no NaN warnings in
#: kernels), far outside any physical range, and distinct
_SENTINELS = (1.6180339887e18, -2.7182818284e18)

#: tolerance of the INC linearity check: the shadow pair differs from the
#: ideal ``s2 + c`` only by re-association of the baseline shift, a few ULP
_INC_RTOL = 1e-9


@contextlib.contextmanager
def sanitized(*, shadow: bool = True) -> Iterator[None]:
    """Run the enclosed loops under the access-descriptor sanitizer.

    >>> with sanitized():
    ...     op2.par_loop(kernel, cells, q(op2.READ), res(op2.INC, c2n, 0))

    Also turns on OPS stencil checking, so structured loops validate every
    accessed offset against the declared stencil.  ``shadow=False`` skips
    the shadow-pair checks (WRITE purity, INC linearity), leaving the
    cheaper guard/digest/footprint checks.
    """
    with swap(verify_descriptors=True, verify_shadow=shadow, check_stencils=True):
        yield


def _head(indices) -> tuple:
    return tuple(int(i) for i in np.asarray(indices).reshape(-1)[:5])


# --------------------------------------------------------------------------
# OP2: unstructured loops
# --------------------------------------------------------------------------


def _group_by_dat(args) -> dict[int, list[tuple[int, object]]]:
    groups: dict[int, list[tuple[int, object]]] = {}
    for i, arg in enumerate(args):
        if arg.dat is not None:
            groups.setdefault(id(arg.dat), []).append((i, arg))
    return groups


def _declared_rows(dat, slots: list[tuple[int, object]], n: int) -> np.ndarray:
    """Bool mask over the dat's rows: where the loop declares writes."""
    mask = np.zeros(dat.set.total_size, dtype=bool)
    for _, arg in slots:
        if not arg.access.writes:
            continue
        if arg.is_direct:
            mask[:n] = True
        else:
            mask[arg.map.column(arg.idx)[:n]] = True
    return mask


def _clone_universe(args, dat_snaps: dict[int, np.ndarray], glob_snaps: dict[int, np.ndarray]):
    """Rebuild the loop's arguments over cloned dats/globals (pre-loop state)."""
    from repro.op2.args import Arg
    from repro.op2.dat import Dat, Global

    dats: dict[int, object] = {}
    globs: dict[int, object] = {}
    clones = []
    for arg in args:
        if arg.is_global:
            g = globs.get(id(arg.glob))
            if g is None:
                g = Global(arg.glob.dim, glob_snaps[id(arg.glob)].copy(),
                           dtype=arg.glob.dtype, name=arg.glob.name)
                globs[id(arg.glob)] = g
            clones.append(Arg(access=arg.access, glob=g))
        else:
            d = dats.get(id(arg.dat))
            if d is None:
                d = Dat(arg.dat.set, arg.dat.dim, dat_snaps[id(arg.dat)].copy(),
                        dtype=arg.dat.dtype, name=arg.dat.name)
                dats[id(arg.dat)] = d
            clones.append(Arg(access=arg.access, dat=d, map=arg.map, idx=arg.idx))
    return clones, dats, globs


def sanitized_execute(backend: str, kernel, args: list, n: int) -> int:
    """Run the loop on ``backend`` under the sanitizer; returns the shadow runs."""
    from repro.common.config import get_config
    from repro.op2.backends import execute_seq
    from repro.op2.parloop import interpret

    loop = kernel.name
    groups = _group_by_dat(args)
    dat_snaps = {key: slots[0][1].dat.data.copy() for key, slots in groups.items()}
    glob_snaps = {id(a.glob): a.glob.data.copy() for a in args if a.is_global}

    read_only = {
        key: slots for key, slots in groups.items()
        if all(not arg.access.writes for _, arg in slots)
    }

    # 1) guard: READ-only dats cannot be written while the loop runs
    guarded = []
    for key, slots in read_only.items():
        dat = slots[0][1].dat
        guarded.append((dat, dat.data.flags.writeable))
        dat.data.flags.writeable = False
    try:
        interpret(backend, kernel, args, n)
    except ValueError as exc:
        if "read-only" not in str(exc):
            raise
        slots = [s for slots in read_only.values() for s in slots]
        names = ", ".join(f"arg {i} ({arg.dat.name})" for i, arg in slots)
        arg_index = slots[0][0] if len(slots) == 1 else None
        raise DescriptorViolation(
            f"loop {loop!r}: kernel wrote a READ argument ({names})",
            loop=loop, arg_index=arg_index, kind="read-arg-written",
        ) from exc
    finally:
        for dat, was_writeable in guarded:
            dat.data.flags.writeable = was_writeable

    # 2) post-hoc digest: READ-only dats must be bitwise unchanged
    for key, slots in read_only.items():
        dat = slots[0][1].dat
        if not np.array_equal(dat.data, dat_snaps[key]):
            changed = np.nonzero(np.any(dat.data != dat_snaps[key], axis=-1))[0]
            i = slots[0][0]
            raise DescriptorViolation(
                f"loop {loop!r}, arg {i} ({dat.name}, READ): data changed at "
                f"rows {_head(changed)}",
                loop=loop, arg_index=i, kind="read-arg-written", indices=_head(changed),
            )

    # 3) footprint diff: changed rows must lie in the declared write targets
    for key, slots in groups.items():
        if key in read_only:
            continue
        dat = slots[0][1].dat
        declared = _declared_rows(dat, slots, n)
        changed = np.any(dat.data != dat_snaps[key], axis=-1)
        outside = np.nonzero(changed & ~declared)[0]
        if outside.size:
            i = next(i for i, arg in slots if arg.access.writes)
            raise DescriptorViolation(
                f"loop {loop!r}, arg {i} ({dat.name}, "
                f"{slots[0][1].access.short}): wrote rows {_head(outside)} "
                f"outside the declared footprint",
                loop=loop, arg_index=i, kind="write-outside-footprint",
                indices=_head(outside),
            )

    # 4) shadow pair: WRITE purity and INC linearity
    shadow_runs = 0
    if get_config().verify_shadow:
        pure = {}
        for key, slots in groups.items():
            accesses = {arg.access for _, arg in slots}
            if accesses == {Access.WRITE}:
                pure[key] = "write"
            elif accesses == {Access.INC}:
                pure[key] = "inc"
        inc_globs = {
            id(a.glob) for a in args if a.is_global and a.access is Access.INC
        }
        if pure or inc_globs:
            shadow_runs = 2
            # the shadow pair always runs seq: it hands the kernel direct
            # views of the accumulated values — vec gathers INC args into
            # zeroed buffers and scatters with add.at, which would mask an
            # overwriting "increment" (f[0] = x behaves like f[0] += x on a
            # zero buffer)
            shifts: dict[int, float] = {}
            universes = []
            for run, sentinel in enumerate(_SENTINELS):
                clones, dats, globs = _clone_universe(args, dat_snaps, glob_snaps)
                for key, mode in pure.items():
                    clone = dats[key]
                    if mode == "write":
                        rows = _declared_rows(clone, groups[key], n)
                        clone.data[rows] = sentinel
                    else:  # inc: shift the baseline in the first run only
                        c = shifts.setdefault(
                            key, 1.0 + float(np.max(np.abs(dat_snaps[key]), initial=0.0))
                        )
                        if run == 0:
                            clone.data += c
                for gkey in inc_globs:
                    c = shifts.setdefault(gkey, 1.0 + float(np.max(np.abs(glob_snaps[gkey]))))
                    if run == 0:
                        globs[gkey].data += c
                execute_seq(kernel, clones, n)
                universes.append((dats, globs))
            (d1, g1), (d2, g2) = universes
            for key, mode in pure.items():
                a, b = d1[key].data, d2[key].data
                name = d1[key].name
                i = groups[key][0][0]
                if mode == "write":
                    bad = np.nonzero(np.any(a != b, axis=-1))[0]
                    if bad.size:
                        raise DescriptorViolation(
                            f"loop {loop!r}, arg {i} ({name}, W): kernel reads its "
                            f"old value or leaves part of the declared footprint "
                            f"unwritten (rows {_head(bad)})",
                            loop=loop, arg_index=i, kind="write-reads-old-value",
                            indices=_head(bad),
                        )
                else:
                    c = shifts[key]
                    tol = _INC_RTOL * max(1.0, abs(c))
                    if not np.allclose(a, b + c, rtol=_INC_RTOL, atol=tol):
                        bad = np.nonzero(np.any(np.abs(a - (b + c)) > tol, axis=-1))[0]
                        raise DescriptorViolation(
                            f"loop {loop!r}, arg {i} ({name}, I): contribution "
                            f"depends on the current value — not a pure increment "
                            f"(rows {_head(bad)})",
                            loop=loop, arg_index=i, kind="inc-not-increment",
                            indices=_head(bad),
                        )
            for gkey in inc_globs:
                c = shifts[gkey]
                tol = _INC_RTOL * max(1.0, abs(c))
                if not np.allclose(g1[gkey].data, g2[gkey].data + c,
                                   rtol=_INC_RTOL, atol=tol):
                    i = next(j for j, a in enumerate(args)
                             if a.is_global and id(a.glob) == gkey)
                    raise DescriptorViolation(
                        f"loop {loop!r}, arg {i} ({args[i].glob.name}, I): global "
                        f"contribution depends on the current value",
                        loop=loop, arg_index=i, kind="inc-not-increment",
                    )
    return shadow_runs


# --------------------------------------------------------------------------
# OPS: structured loops
# --------------------------------------------------------------------------


def ops_snapshot(args) -> dict[int, np.ndarray]:
    """Pre-loop copies of every dat's storage (reductions carry no state)."""
    snaps: dict[int, np.ndarray] = {}
    for arg in args:
        dat = getattr(arg, "dat", None)
        if dat is not None and id(dat) not in snaps:
            snaps[id(dat)] = dat.data.copy()
    return snaps


def ops_post_check(
    loop: str,
    ranges: Sequence[tuple[int, int]],
    args,
    snaps: dict[int, np.ndarray],
) -> None:
    """READ-digest and write-footprint checks for one structured loop."""
    seen: set[int] = set()
    for i, arg in enumerate(args):
        dat = getattr(arg, "dat", None)
        if dat is None or id(dat) in seen:
            continue
        seen.add(id(dat))
        writes = any(
            a.access.writes for a in args if getattr(a, "dat", None) is dat
        )
        changed = dat.data != snaps[id(dat)]
        if not writes:
            if changed.any():
                where = tuple(zip(*np.nonzero(changed)))[:5]
                raise DescriptorViolation(
                    f"loop {loop!r}, arg {i} ({dat.name}, READ): data changed "
                    f"at storage points {where}",
                    loop=loop, arg_index=i, kind="read-arg-written", indices=where,
                )
            continue
        # writes are centre-point only, so the declared footprint is exactly
        # the iteration range (in storage coordinates)
        allowed = np.zeros_like(changed)
        idx = tuple(
            slice(lo + dat.halo_depth, hi + dat.halo_depth) for lo, hi in ranges
        )
        allowed[idx] = True
        outside = changed & ~allowed
        if outside.any():
            where = tuple(zip(*np.nonzero(outside)))[:5]
            raise DescriptorViolation(
                f"loop {loop!r}, arg {i} ({dat.name}, {arg.access.short}): wrote "
                f"storage points {where} outside the iteration range {list(ranges)}",
                loop=loop, arg_index=i, kind="write-outside-footprint", indices=where,
            )
