"""Level 2: dataflow over loop chains.

Loop sites lifted from one module are grouped by their enclosing function
into *chains* (program order = source order, matching how the bundled
apps sequence their par_loops).  Over each chain we build per-dat access
event lists and report:

* OPL101 — dead writes: a loop's written value is overwritten by a pure
  WRITE before any loop reads it (linearly, or across chain iterations
  when the chain is periodic);
* OPL102 — carried state: dats whose first access in the chain reads,
  i.e. exactly the checkpoint save set (note-level, informational);
* OPL103 — redundant halo-freshening: two consecutive halo-freshening
  indirect/stencil reads of a dat with no interleaving write (note-level).

For the ``--checkpoint`` report the chain becomes the same
:class:`~repro.common.profiling.LoopEvent` records a live run's loop
observers receive, and ``repro.checkpoint.analysis`` renders its Figure-8
decision table — one first-access rule for static and runtime chains.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.checkpoint.analysis import format_table
from repro.common.access import Access
from repro.common.profiling import ArgEvent, LoopEvent
from repro.lint.dataflow import AccessRecord, build_dependence_graph
from repro.lint.diagnostics import Diagnostic
from repro.lint.kernel_checks import declared_args
from repro.lint.resolve import ModuleIndex, Program
from repro.translator.frontend import LoopSite


@dataclass
class DatEvent:
    """One loop's merged access to one dat."""

    site: LoopSite
    reads: bool
    writes: bool
    inc_only: bool
    halo_read: bool  # an indirect/stencil read that freshens halos
    is_global: bool

    @property
    def pure_write(self) -> bool:
        return self.writes and not self.reads


def _merged_access(ev: DatEvent) -> Access:
    """The event as one Access mode, for the checkpoint table."""
    if ev.inc_only:
        return Access.INC
    if ev.reads and ev.writes:
        return Access.RW
    if ev.writes:
        return Access.WRITE
    return Access.READ


def _is_halo_read(
    program: Program, idx: ModuleIndex, site: LoopSite, arg
) -> bool:
    """Whether this read would freshen halos (trigger an exchange)."""
    if not Access[arg.access].reads:
        return False
    if site.api == "op2":
        return arg.map is not None
    points = program.resolve_stencil(idx, arg.stencil)
    if points is None:
        return False  # unknown stencil: don't claim redundancy
    return any(any(c != 0 for c in p) for p in points)


def site_events(
    program: Program, idx: ModuleIndex, site: LoopSite
) -> dict[str, DatEvent]:
    """Per-dat merged access events for one loop site."""
    out: dict[str, DatEvent] = {}
    for d in declared_args(idx, site):
        if d.access is None or d.access not in Access.__members__:
            continue
        acc = Access[d.access]
        ev = out.get(d.dat)
        if ev is None:
            ev = DatEvent(
                site=site, reads=False, writes=False, inc_only=True,
                halo_read=False, is_global=d.is_global,
            )
            out[d.dat] = ev
        ev.reads |= acc.reads
        ev.writes |= acc.writes
        ev.inc_only &= acc is Access.INC
        ev.is_global |= d.is_global
        if d.raw.arg is not None and acc.reads:
            ev.halo_read |= _is_halo_read(program, idx, site, d.raw.arg)
    for ev in out.values():
        if not ev.writes:
            ev.inc_only = False
    return out


@dataclass
class Chain:
    """An ordered loop chain within one enclosing function."""

    name: str
    enclosing: str
    sites: list[LoopSite]
    events: list[dict[str, DatEvent]]  # parallel to sites

    def dat_events(self) -> dict[str, list[DatEvent]]:
        out: dict[str, list[DatEvent]] = {}
        for per_site in self.events:
            for dat, ev in per_site.items():
                out.setdefault(dat, []).append(ev)
        return out

    def access_records(self) -> list[tuple[AccessRecord, ...]]:
        """The chain as :mod:`repro.lint.dataflow` access records.

        The same representation the lazy runtime builds from live loop
        queues — so the static dead-write pass and the runtime tile
        scheduler consume one dependence analysis.
        """
        return [
            tuple(
                AccessRecord(ref=dat, reads=ev.reads, writes=ev.writes)
                for dat, ev in per_site.items()
            )
            for per_site in self.events
        ]


def build_chains(
    program: Program, idx: ModuleIndex, sites: list[LoopSite]
) -> list[Chain]:
    """Group a module's loop sites into chains (>= 2 loops each)."""
    by_fn: dict[str, list[LoopSite]] = {}
    for s in sites:
        by_fn.setdefault(s.enclosing, []).append(s)
    chains = []
    stem = idx.path.stem
    for enclosing, group in by_fn.items():
        if len(group) < 2:
            continue
        group = sorted(group, key=lambda s: s.lineno)
        chains.append(Chain(
            name=f"{stem}.{enclosing}",
            enclosing=enclosing,
            sites=group,
            events=[site_events(program, idx, s) for s in group],
        ))
    return chains


def check_chain(idx: ModuleIndex, chain: Chain) -> list[Diagnostic]:
    """All level-2 findings for one chain."""
    diags: list[Diagnostic] = []
    fname = idx.filename

    # one dependence graph over the chain doubled back on itself: the
    # second copy's edges model the periodic wrap-around (the same
    # build_dependence_graph the lazy runtime schedules tiles from)
    records = chain.access_records()
    n = len(records)
    graph = build_dependence_graph(records + records)

    for dat, events in chain.dat_events().items():
        if any(ev.is_global for ev in events):
            continue

        # OPL101: dead writes — a WAW edge out of a write that has no RAW
        # edge (nobody reads the value before the next writer lands),
        # linearly within the chain and then across the periodic wrap
        dat_edges = graph.edges_for(dat)
        raw_src = {e.src for e in dat_edges if e.kind == "raw"}
        for e in dat_edges:
            if e.kind != "waw" or e.src >= n or e.src in raw_src:
                continue
            ev = chain.events[e.src][dat]
            if e.dst < n:
                nxt = chain.events[e.dst][dat]
                if nxt.pure_write:
                    diags.append(Diagnostic(
                        "OPL101",
                        f"value of {dat!r} written by "
                        f"{ev.site.display_name!r} is overwritten by "
                        f"{nxt.site.display_name!r} before any loop reads it",
                        fname, ev.site.lineno,
                        loop=ev.site.display_name, arg=dat,
                    ))
            elif len(events) >= 2 and events[0].pure_write:
                # last write of the chain, clobbered by the first loop of
                # the next iteration; a dat touched by a single loop is
                # exempt (it may be the chain's output)
                diags.append(Diagnostic(
                    "OPL101",
                    f"value of {dat!r} written by {ev.site.display_name!r} "
                    f"is overwritten by {events[0].site.display_name!r} in "
                    "the next chain iteration before any loop reads it",
                    fname, ev.site.lineno,
                    loop=ev.site.display_name, arg=dat,
                ))

        # OPL102: carried state = the checkpoint save set
        if events[0].reads and any(ev.writes for ev in events):
            diags.append(Diagnostic(
                "OPL102",
                f"{dat!r} is read by {events[0].site.display_name!r} before "
                f"any write in chain {chain.name!r}: state carried across "
                "iterations (checkpoint save set)",
                fname, events[0].site.lineno,
                loop=events[0].site.display_name, arg=dat,
            ))

        # OPL103: consecutive halo-freshening reads, no write between
        prev_halo: DatEvent | None = None
        for ev in events:
            if ev.halo_read and prev_halo is not None:
                diags.append(Diagnostic(
                    "OPL103",
                    f"halo-freshening read of {dat!r} in "
                    f"{ev.site.display_name!r}: halos are already fresh "
                    f"from {prev_halo.site.display_name!r}",
                    fname, ev.site.lineno,
                    loop=ev.site.display_name, arg=dat,
                ))
            if ev.writes:
                prev_halo = None  # the write re-dirties halos
            elif ev.halo_read:
                prev_halo = ev
    return diags


def chain_table(chain: Chain) -> str:
    """The chain's Figure-8 decision table (checkpoint report).

    Each dat counts one unit: source carries no dataset dims.
    """
    loops = [
        LoopEvent(
            site.display_name,
            tuple(
                ArgEvent(dat, _merged_access(ev), 1, is_global=ev.is_global)
                for dat, ev in per_site.items()
            ),
            site.api,
        )
        for site, per_site in zip(chain.sites, chain.events)
    ]
    return format_table(loops, periodic=True)
