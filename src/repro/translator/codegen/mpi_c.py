"""MPI host-code generation (text target).

The distinctive part of OP2's MPI target is not the loop body but the
*communication schedule derived from the access descriptors* (paper
Section II-B: "exchanging halo messages on-demand based on the type of
access and the stencils").  This generator emits, per loop, the host stub
showing exactly that derivation:

* indirect READ/RW dats → a forward halo exchange guarded by the dirty flag,
* indirect INC dats → halo zeroing before, reverse exchange (owner sum)
  after,
* global reductions → the matching ``MPI_Allreduce`` op,
* written dats → dirty-flag updates.

The executable counterpart is the rank-local loop handle
:class:`repro.op2.halo.RankLoop`, which takes these decisions once at
binding; the tests assert both make the same decisions.
"""

from __future__ import annotations

from repro.translator.frontend import ArgSite, LoopSite

_MPI_OPS = {"INC": "MPI_SUM", "MIN": "MPI_MIN", "MAX": "MPI_MAX"}


def communication_plan(
    site: LoopSite, globals_hint: set[str] | None = None
) -> dict[str, list[str]]:
    """The loop's derived communication schedule (dats by action).

    ``globals_hint`` names argument expressions that are global (reduction)
    variables — syntactically indistinguishable from direct dat args at the
    call site.  Direct MIN/MAX args are always reductions (dats cannot be
    MIN/MAX).
    """
    hint = globals_hint or set()
    forward: list[str] = []
    reverse: list[str] = []
    reductions: list[str] = []
    dirtied: list[str] = []
    seen_fwd: set[str] = set()
    seen_rev: set[str] = set()
    for arg in site.args:
        is_global = arg.dat in hint or (arg.map is None and arg.access in ("MIN", "MAX"))
        if is_global:
            if arg.access in _MPI_OPS:
                reductions.append(f"{arg.dat}:{_MPI_OPS[arg.access]}")
            continue
        if arg.map is None:
            # direct args iterate owned elements only: no exchange, but a
            # write makes remote halo copies stale
            if arg.access in ("WRITE", "RW", "INC") and arg.dat not in dirtied:
                dirtied.append(arg.dat)
            continue
        if arg.access in ("READ", "RW") and arg.dat not in seen_fwd:
            forward.append(arg.dat)
            seen_fwd.add(arg.dat)
        if arg.access == "INC" and arg.dat not in seen_rev:
            reverse.append(arg.dat)
            seen_rev.add(arg.dat)
        if arg.access in ("WRITE", "RW", "INC") and arg.dat not in dirtied:
            dirtied.append(arg.dat)
    return {
        "forward": forward,
        "reverse": reverse,
        "reductions": reductions,
        "dirtied": dirtied,
    }


def generate_mpi_host(site: LoopSite, globals_hint: set[str] | None = None) -> str:
    """Emit the MPI host stub for one loop."""
    plan = communication_plan(site, globals_hint)
    lines = [
        f"// Auto-generated by the repro translator — loop `{site.kernel}`",
        "// target: MPI (communication schedule derived from access descriptors)",
        f"void {site.kernel}_mpi(op_set set, ...) {{",
    ]
    for dat in plan["forward"]:
        lines.append(f"  if (op_dat_is_dirty({_c(dat)})) op_halo_exchange({_c(dat)});")
    for dat in plan["reverse"]:
        lines.append(f"  op_zero_halo({_c(dat)});  // stale copies must not accumulate")
    lines.append("  // execute owned elements")
    lines.append(f"  {site.kernel}_local(set->core_size + set->exec_size, ...);")
    for dat in plan["reverse"]:
        lines.append(f"  op_reverse_halo_exchange({_c(dat)});  // owner sums increments")
    for red in plan["reductions"]:
        name, op = red.split(":")
        lines.append(f"  MPI_Allreduce(MPI_IN_PLACE, {_c(name)}, 1, MPI_DOUBLE, {op}, OP_MPI_WORLD);")
    for dat in plan["dirtied"]:
        lines.append(f"  op_dat_set_dirty({_c(dat)});")
    lines += ["}", ""]
    return "\n".join(lines)


def _c(expr: str) -> str:
    """Source expression -> C-ish identifier fragment."""
    return expr.replace(".", "_")
