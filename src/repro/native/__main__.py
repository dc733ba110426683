"""Cache maintenance command line: ``python -m repro.native`` / ``repro-native``.

Subcommands::

    repro-native info             # directory, entry counts, bytes, compiler,
                                  # OpenMP, team size
    repro-native clear            # remove every cached object + source
    repro-native prune [--days N] # remove entries older than N days (30)

Exit codes: 0 — success; 2 — usage error.
"""

from __future__ import annotations

import argparse
import sys

from repro.native import cache as _cache
from repro.native.plan import TEAM, team_size

_OPENMP = {True: "yes", False: "no (compiled loops run on one thread)", None: "(no compiler)"}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-native",
        description="Inspect and maintain the native compiled-kernel cache.",
    )
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("info", help="show cache directory, entry counts and compiler")
    sub.add_parser("clear", help="remove every cached object and source")
    prune = sub.add_parser("prune", help="remove entries older than --days")
    prune.add_argument(
        "--days", type=float, default=30.0, help="age threshold in days (default 30)"
    )
    args = parser.parse_args(argv)

    if args.command == "info" or args.command is None:
        info = _cache.cache_info()
        print(f"cache dir : {info['dir']}")
        print(f"objects   : {info['objects']} (.so)")
        print(f"sources   : {info['sources']} (.c)")
        print(f"bytes     : {info['bytes']}")
        print(f"compiler  : {info['compiler'] or '(none found)'}")
        openmp = _cache.probe_openmp()
        print(f"openmp    : {_OPENMP[openmp]}")
        print(f"team size : {team_size()} (of {TEAM} CPUs this process may use)")
        print(f"loaded    : {info['loaded']} in-process")
        return 0
    if args.command == "clear":
        removed = _cache.cache_clear()
        print(f"removed {removed} cache entries")
        return 0
    if args.command == "prune":
        removed = _cache.cache_prune(max_age_days=args.days)
        print(f"pruned {removed} entries older than {args.days:g} days")
        return 0
    parser.print_usage(sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
