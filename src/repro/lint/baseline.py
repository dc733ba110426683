"""Baseline suppression for known, justified findings.

A baseline file is JSON::

    {
      "version": 1,
      "suppressions": [
        {"code": "OPL101", "module": "cloverleaf/app.py",
         "loop": "revert", "reason": "dead write kept for parity with the
         original CloverLeaf step"}
      ]
    }

Entries match on diagnostic code, module (a path suffix, so baselines are
checkout-location independent), and optionally the loop and dat names —
never on line numbers, which churn with every edit.  ``"*"`` (or an
omitted key) matches anything; ``reason`` is required and is carried into
the emitted report so a suppression is never silent.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.common.errors import ReproError
from repro.lint.diagnostics import Diagnostic, LintResult


class BaselineError(ReproError):
    """The baseline file is missing, unparseable, or malformed."""


def load_baseline(path: str | Path) -> list[dict]:
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise BaselineError(f"cannot read baseline {path}: {exc}") from exc
    if not isinstance(data, dict) or not isinstance(data.get("suppressions"), list):
        raise BaselineError(
            f"baseline {path} must be an object with a 'suppressions' list"
        )
    entries = data["suppressions"]
    for i, e in enumerate(entries):
        if not isinstance(e, dict) or not e.get("reason"):
            raise BaselineError(
                f"baseline {path}: suppression #{i} has no 'reason' — every "
                "baselined finding needs a justification"
            )
    return entries


def _field_matches(pattern: str | None, value: str | None) -> bool:
    if pattern is None or pattern == "*":
        return True
    return value is not None and pattern in value


def _module_matches(pattern: str | None, file: str) -> bool:
    if pattern is None or pattern == "*":
        return True
    norm = file.replace("\\", "/")
    return norm.endswith(pattern) or Path(norm).name == pattern


def matches(entry: dict, d: Diagnostic) -> bool:
    return (
        entry.get("code") in (None, "*", d.code)
        and _module_matches(entry.get("module"), d.file)
        and _field_matches(entry.get("loop"), d.loop)
        and _field_matches(entry.get("dat"), d.arg)
    )


def apply_baseline(result: LintResult, entries: list[dict]) -> int:
    """Mark matching diagnostics suppressed; returns how many matched."""
    n = 0
    for d in result.diagnostics:
        for e in entries:
            if matches(e, d):
                d.suppressed = True
                d.suppression_reason = e["reason"]
                n += 1
                break
    return n


def unused_entries(result: LintResult, entries: list[dict]) -> list[dict]:
    """Baseline entries that matched nothing (stale suppressions)."""
    return [
        e for e in entries
        if not any(matches(e, d) for d in result.diagnostics)
    ]


def rewrite_baseline(path: str | Path, result: LintResult) -> tuple[int, int]:
    """Rewrite a baseline file, pruning entries that match nothing.

    A fixed finding leaves its suppression behind; left in place, the
    stale entry would silently swallow the next genuine finding that
    happens to match its pattern.  Returns ``(kept, pruned)`` counts.
    Top-level keys other than ``suppressions`` are preserved verbatim.
    """
    p = Path(path)
    entries = load_baseline(p)
    data = json.loads(p.read_text())
    stale = unused_entries(result, entries)
    kept = [e for e in entries if e not in stale]
    data["suppressions"] = kept
    p.write_text(json.dumps(data, indent=2) + "\n")
    return len(kept), len(stale)
