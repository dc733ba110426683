"""Static analysis for the access-execute contract (``repro.lint``).

Two levels, both AST-only (no application code is executed):

* **kernel/descriptor** — per-argument kernel-body footprints diffed
  against the declared ``Access``/stencil descriptors (OPL0xx);
* **loop-chain dataflow** — RAW/WAR/WAW reasoning over the ordered loop
  sites of each enclosing function: dead writes, carried state and halo
  redundancy (OPL1xx).

See :mod:`repro.lint.diagnostics` for the full code catalogue and
``python -m repro.lint --help`` for the CLI.
"""

from repro.lint.baseline import apply_baseline, load_baseline
from repro.lint.cli import lint_app, lint_many, lint_path, main
from repro.lint.dataflow import (
    AccessRecord,
    DependenceEdge,
    DependenceGraph,
    build_dependence_graph,
)
from repro.lint.diagnostics import RULES, Diagnostic, LintResult, Rule, Severity

__all__ = [
    "RULES",
    "AccessRecord",
    "DependenceEdge",
    "DependenceGraph",
    "Diagnostic",
    "LintResult",
    "Rule",
    "Severity",
    "apply_baseline",
    "build_dependence_graph",
    "lint_app",
    "lint_many",
    "lint_path",
    "load_baseline",
    "main",
]
