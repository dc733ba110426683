"""Structured diagnostics for the static analyser.

Every finding carries a stable code (OPLxxx), a severity, a location and a
fix hint.  The registry below is the single source of truth for the code
catalogue; the emitters, the SARIF rule table and the DESIGN documentation
all derive from it.

Codes 0xx are kernel/descriptor (level 1) findings, 1xx are loop-chain
dataflow (level 2) findings, and 9xx are lifting failures.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Severity(enum.IntEnum):
    """Finding severity; ERROR findings gate strict translation."""

    NOTE = 0
    WARNING = 1
    ERROR = 2

    @property
    def label(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class Rule:
    """One diagnostic code of the catalogue."""

    code: str
    severity: Severity
    summary: str
    hint: str
    #: which paper mechanism a violation would corrupt (halo derivation,
    #: colouring, checkpoint drop list, ...) — documentation + SARIF text
    protects: str


RULES: dict[str, Rule] = {
    r.code: r
    for r in [
        Rule(
            "OPL001", Severity.ERROR,
            "argument declared READ but the kernel assigns to it",
            "change the declared access to WRITE/RW/INC, or remove the "
            "assignment from the kernel body",
            "halo exchange: READ args never mark halos dirty, so a hidden "
            "write silently desynchronises neighbour ranks; colouring: "
            "hidden indirect writes race between same-colour elements",
        ),
        Rule(
            "OPL002", Severity.ERROR,
            "argument declared as a reduction but used non-additively",
            "make the kernel contribution a pure increment (+=/-=) or the "
            "matching reduction fold, or declare the argument RW",
            "colouring and reduction handling: INC contributions are "
            "reordered and privatised per thread/colour; a contribution "
            "that observes the current value is order-dependent",
        ),
        Rule(
            "OPL003", Severity.ERROR,
            "argument declared WRITE but read before the first write",
            "declare the argument RW (the old value is observed), or "
            "initialise it before reading",
            "checkpoint drop list: WRITE-first datasets are dropped from "
            "checkpoints (paper Fig 8); a stale read makes the restarted "
            "run observe uninitialised data",
        ),
        Rule(
            "OPL004", Severity.ERROR,
            "kernel accesses an offset outside the declared stencil",
            "add the offset to the declared stencil (extending halo depth) "
            "or fix the kernel index",
            "halo derivation: OPS sizes halo regions from declared stencil "
            "extents; an undeclared offset reads unexchanged halo cells",
        ),
        Rule(
            "OPL005", Severity.WARNING,
            "declared argument is never accessed by the kernel",
            "drop the argument from the par_loop call (it forces halo "
            "exchanges and checkpoint traffic for data the loop ignores)",
            "halo exchange and checkpoint save set: unused descriptors "
            "inflate both",
        ),
        Rule(
            "OPL006", Severity.ERROR,
            "descriptor count does not match the kernel parameter list",
            "align the par_loop descriptor list with the kernel signature",
            "the access-execute contract: every kernel parameter must have "
            "a descriptor for the planner to reason about it",
        ),
        Rule(
            "OPL007", Severity.ERROR,
            "MIN/MAX access declared for a non-global argument",
            "MIN/MAX are reduction modes; use a Global/Reduction handle, "
            "or READ/WRITE/RW/INC for dats",
            "reduction handling: MIN/MAX results are combined across "
            "threads and ranks; per-element dats have no combine step",
        ),
        Rule(
            "OPL101", Severity.WARNING,
            "dead write: the value is overwritten before any read",
            "drop the write (and weaken the declared access), or move the "
            "consuming loop before the overwrite",
            "checkpoint units and tiling: dead writes inflate the Fig 8 "
            "save set and create false RAW edges that block loop fusion",
        ),
        Rule(
            "OPL102", Severity.NOTE,
            "dataset is read before any write in the chain (carried state)",
            "expected for state carried across iterations; such datasets "
            "are exactly the checkpoint save set",
            "checkpoint save list: first-access-reads datasets must be "
            "saved (paper Fig 8)",
        ),
        Rule(
            "OPL103", Severity.NOTE,
            "redundant halo-freshening: halos are already fresh",
            "the runtime's lazy exchange skips this; a generated MPI "
            "schedule should hoist the exchange out of the loop chain",
            "halo exchange schedule: two exchanges with no interleaving "
            "write move the same bytes twice",
        ),
        Rule(
            "OPL201", Severity.ERROR,
            "abstract interpretation proves an access outside the declared "
            "stencil / halo depth",
            "the offending index is computed (loop variable or arithmetic), "
            "so the syntactic check cannot see it; widen the declared "
            "stencil or fix the index computation",
            "halo derivation: a proven out-of-stencil access reads halo "
            "cells the declared extents never exchange — a silent "
            "wrong-answer on rank boundaries",
        ),
        Rule(
            "OPL202", Severity.WARNING,
            "kernel reads a neighbour offset of a dataset it also writes",
            "split the loop (write to a second dataset), or declare the "
            "read through a separate READ argument so the planner orders "
            "the sweep explicitly",
            "tiling and colouring: a same-loop neighbour read of a written "
            "field observes stale or already-updated values depending on "
            "traversal order — the result is schedule-dependent",
        ),
        Rule(
            "OPL203", Severity.NOTE,
            "declared stencil point is provably never accessed",
            "shrink the declared stencil to the proven extent; "
            "over-declaration widens halo exchanges and tile skew for "
            "accesses that never happen",
            "halo exchange volume and tile-skew extents both derive from "
            "declared stencils; unused points cost bandwidth and fusion",
        ),
        Rule(
            "OPL301", Severity.WARNING,
            "store silently narrows the value's dtype",
            "cast explicitly, or widen the destination Dat's dtype; silent "
            "float64->float32 (or float->int) truncation accumulates over "
            "timesteps",
            "bitwise reproducibility across backends: implicit narrowing "
            "is where vectorised and scalar paths first disagree",
        ),
        Rule(
            "OPL302", Severity.WARNING,
            "true division of integer operands feeds an integer store",
            "use // for integer division, or declare the destination Dat "
            "as a float dtype; Python's / always produces a float, which "
            "the store then truncates",
            "dtype discipline: C codegen would compute an integer "
            "division here while Python computes a float — the two "
            "backends silently diverge",
        ),
        Rule(
            "OPL303", Severity.WARNING,
            "subscript dimensionality disagrees with the declared stencil",
            "index the dat with one component per declared stencil "
            "dimension (e.g. q[0, 0] for a 2-D stencil)",
            "halo derivation and tiling reason per dimension; a "
            "rank-mismatched index defeats both",
        ),
        Rule(
            "OPL900", Severity.WARNING,
            "unliftable parallel-loop call site",
            "rewrite the call with explicit descriptors (no *args/**kwargs "
            "and no computed kernel), or baseline it with a justification",
            "every analysis above: a loop the frontend cannot lift is "
            "invisible to halo, colouring and checkpoint reasoning",
        ),
    ]
}


@dataclass
class Diagnostic:
    """One finding, located and attributable."""

    code: str
    message: str
    file: str
    line: int
    severity: Severity | None = None  # defaults to the rule severity
    loop: str | None = None  # kernel text or loop name
    arg: str | None = None  # dat/parameter name
    hint: str | None = None  # defaults to the rule hint
    suppressed: bool = False
    suppression_reason: str | None = None

    def __post_init__(self) -> None:
        rule = RULES.get(self.code)
        if rule is not None:
            if self.severity is None:
                self.severity = rule.severity
            if self.hint is None:
                self.hint = rule.hint
        elif self.severity is None:
            self.severity = Severity.WARNING

    @property
    def location(self) -> str:
        return f"{self.file}:{self.line}"

    def format(self, *, with_hint: bool = True) -> str:
        ctx = ""
        if self.loop or self.arg:
            parts = [p for p in (self.loop, self.arg) if p]
            ctx = f" [{' / '.join(parts)}]"
        text = (
            f"{self.location}: {self.code} {self.severity.label}{ctx}: "
            f"{self.message}"
        )
        if self.suppressed:
            text += f"  (baselined: {self.suppression_reason or 'no reason given'})"
        elif with_hint and self.hint:
            text += f"\n    hint: {self.hint}"
        return text


@dataclass
class LintResult:
    """Everything one lint run produced."""

    diagnostics: list[Diagnostic] = field(default_factory=list)
    files: list[str] = field(default_factory=list)
    n_sites: int = 0
    n_chains: int = 0
    n_kernels: int = 0
    checkpoint_tables: dict[str, str] = field(default_factory=dict)
    #: kernel name -> KernelCertificate proven for it (one per analysed body)
    certificates: dict[str, object] = field(default_factory=dict)

    def active(self, at_least: Severity = Severity.NOTE) -> list[Diagnostic]:
        """Non-suppressed findings at or above a severity."""
        return [
            d for d in self.diagnostics
            if not d.suppressed and d.severity >= at_least
        ]

    def counts(self) -> dict[str, int]:
        out = {"error": 0, "warning": 0, "note": 0, "suppressed": 0}
        for d in self.diagnostics:
            if d.suppressed:
                out["suppressed"] += 1
            else:
                out[d.severity.label] += 1
        return out

    def extend(self, other: "LintResult") -> None:
        self.diagnostics.extend(other.diagnostics)
        self.files.extend(other.files)
        self.n_sites += other.n_sites
        self.n_chains += other.n_chains
        self.n_kernels += other.n_kernels
        self.checkpoint_tables.update(other.checkpoint_tables)
        self.certificates.update(other.certificates)
