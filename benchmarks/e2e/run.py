"""End-to-end + per-layer benchmark: the one command behind ``BENCHMARK.json``.

    python benchmarks/e2e/run.py                  e2e pass over the seven workloads
    python benchmarks/e2e/run.py --trace          ... plus the traced per-layer pass
    python benchmarks/e2e/run.py --aa             e2e pass twice, A/A inside the bounds?
    python benchmarks/e2e/run.py --quick          small meshes, few steps (smoke)
    python benchmarks/e2e/run.py --workload W --seed S --seconds T --trace 0|1
                                                  one run; last line is the result object

A closed loop with one client: every workload runs in its own fresh child
interpreter, one at a time (``airfoil_mp2`` forks its two workers itself).
Per run: the untimed correctness gate (``verify.py``, which also fills the
bench-private native cache), then the measuring child (``child.py``).
Everything is written under ``.bench_build/e2e`` of the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORK = ROOT / ".bench_build" / "e2e"
RESULTS = HERE / "results"
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CHILD_TIMEOUT = 170  # the contract allows a run 180 s

sys.path.insert(0, str(HERE))
import layers  # noqa: E402
from workloads import BY_NAME, REFERENCE_SECONDS, WORKLOADS  # noqa: E402


# -- host ---------------------------------------------------------------------

def _cache_mb() -> dict:
    """L2 and last-level cache of cpu0 in MB; None where sysfs is unreadable."""
    sizes = {}
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            if (index / "type").read_text().strip() == "Instruction":
                continue
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
            sizes[level] = int(size[:-1]) * {"K": 1, "M": 1024}[size[-1]] / 1024.0
        except (OSError, ValueError, KeyError):
            continue
    return {"l2_mb": sizes.get(2), "llc_mb": sizes[max(sizes)] if sizes else None}


def _first_line(cmd: list[str], default: str) -> str:
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return default
    return out.stdout.splitlines()[0].strip() if out.returncode == 0 and out.stdout else default


def fingerprint(seed: int) -> dict:
    from importlib.metadata import version

    return {
        "cores": os.cpu_count() or 1, **_cache_mb(),
        "cc": _first_line(["cc", "--version"], "none"),
        "python": platform.python_version(), "numpy": version("numpy"),
        "commit": _first_line(["git", "rev-parse", "HEAD"], "unknown"),
        "seed": seed, "threads": THREAD_ENV,
    }


# -- one run ------------------------------------------------------------------

def pretouch(mb: int) -> None:
    """Touch and free ``mb`` MB so the next child starts from known memory.

    On a virtual machine the host takes back memory the guest has freed and
    backs it again on first touch, at seconds per GB: without this the set-up
    time of a large workload depends on what ran before it and how long ago
    (airfoil_large: 7.5 s after itself, 11-14 s after the small workloads).
    Done in a throw-away process: a child inherits its parent's peak RSS as
    the floor of its own ``ru_maxrss``.
    """
    if mb:
        subprocess.run([sys.executable, "-c", f"import numpy; numpy.ones({mb} * 2**17)"],
                       check=True, timeout=CHILD_TIMEOUT)


def _child(script: str, *args: str) -> tuple[dict, float]:
    """Run a benchmark script in a fresh interpreter: (its JSON, wall seconds)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(THREAD_ENV, PYTHONPATH=str(ROOT / "src"),
               REPRO_NATIVE_CACHE_DIR=str(WORK / "native-cache"))
    t0 = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(HERE / script), *args], env=env,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        return {"error": f"{script} {' '.join(args)} exceeded {CHILD_TIMEOUT} s"}, CHILD_TIMEOUT
    wall = time.perf_counter() - t0
    if proc.returncode != 0 or not proc.stdout.strip():
        return {"error": f"{script} exited {proc.returncode}: {proc.stderr.strip()[-800:]}"}, wall
    return json.loads(proc.stdout.splitlines()[-1]), wall


def measure(wl, seed: int, seconds: float, traced: bool, quick: bool, host: dict) -> dict:
    """Gate + measuring child (+ extra set-ups) for one workload."""
    common = ["--workload", wl.name, "--seed", str(seed)]
    run_args = [*common, "--seconds", str(seconds), *(["--quick"] if quick else [])]
    touch_mb = 0 if quick else wl.pretouch_mb
    gate, _ = _child("verify.py", *common)
    pretouch(touch_mb)
    r, wall = _child("child.py", *run_args, *(["--trace"] if traced else []))
    failures = [e for e in (gate.get("error"), r.get("error")) if e]
    failures += gate.get("failures", []) + r.get("failures", [])
    steps = r.get("steps", 0)
    r.update(workload=wl.name, app=wl.app, lazy=wl.lazy, ranks=wl.ranks, seed=seed,
             verify=gate, host=host, failures=failures,
             ops_attempted=max(1, steps + gate.get("attempted", 0) + r.get("checks", 0)))
    if "error" in r:
        return r
    if not traced:
        setups = [wall - r["step_sum_s"]]
        for _ in range(wl.setup_runs - 1):
            pretouch(touch_mb)
            extra, extra_wall = _child("child.py", *run_args, "--setup-only")
            if "error" in extra:
                failures.append(extra["error"])
            setups.append(extra_wall)
        r["metrics"] = {
            "step_s": r["step_s"],
            "mupdates_per_s": r["elements"] * steps / r["step_sum_s"] / 1e6,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": r["rss_mb"],
        }
        r["skipped_wallclock"] = bool(wl.ranks) and host["cores"] < wl.ranks
    else:
        r["layers"] = layers.layer_metrics(r)
    return r


def settle(r: dict, previous_digest: str | None = None) -> None:
    """Failure accounting: any failure fails every step of the run."""
    if previous_digest is not None and r.get("digest") != previous_digest:
        r["failures"].append("final-state digest differs from the previous run")
    failed = r.get("steps", 0) + len(r["failures"]) if r["failures"] else 0
    r["ops_failed"] = min(r["ops_attempted"], failed)  # a crash is not in attempted
    r["failed_share"] = r["ops_failed"] / r["ops_attempted"]


# -- reporting ----------------------------------------------------------------

def _fmt(value, width: int = 12) -> str:
    if value is None:
        return "n/a".rjust(width)
    if isinstance(value, int) or float(value).is_integer():
        return f"{int(value):d}".rjust(width)
    return f"{value:.4g}".rjust(width)


def e2e_table(results: dict, spec: dict) -> list[str]:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    head = f"{'workload':<24}{'N':>7}" + "".join(f"{n + ' [' + u + ']':>24}" for n, u in units.items())
    lines = [head + f"{'step_tail_s':>20}{'failed_share':>14}"]
    for name, r in results.items():
        if "metrics" not in r:
            lines.append(f"{name:<24} FAILED: {'; '.join(r['failures'])[:200]}")
            continue
        skip = r["skipped_wallclock"]
        cells = "".join(
            "skipped".rjust(24) if skip and n != "peak_rss_mb" else _fmt(r["metrics"][n], 24)
            for n in units
        )
        tail = "none" if r["step_tail_s"] is None else f"{r['step_tail_s']:.4g} (p{r['step_tail_pct']:.0f})"
        lines.append(f"{name:<24}{r['steps']:>7}{cells}{tail:>20}{r['failed_share']:>14.4g}")
        for failure in r["failures"]:
            lines.append(f"{'':<24} ! {failure}")
        if skip:
            lines.append(f"{'':<24} ! fewer cores than workers: wall-clock metrics not comparable")
    return lines


def layer_table(traced: dict) -> list[str]:
    lines = [f"{'metric':<36}{'unit':>7}" + "".join(f"{n[:15]:>16}" for n in traced)]
    for metric, unit in layers.PER_LAYER:
        mark = "*" if metric in layers.SETUP else " "
        cells = "".join(_fmt(r["layers"][metric], 16) if "layers" in r else "failed".rjust(16)
                        for r in traced.values())
        lines.append(f"{metric + mark:<36}{unit:>7}{cells}")
    lines.append("(* set-up metric: whole-run total; n/a: does not apply to the workload)")
    return lines


def ranking(traced: dict, host: dict) -> list[str]:
    """layers.txt: per workload, span names by share of the step's self time."""
    lines = ["host: " + json.dumps(host), ""]
    ok = {n: r for n, r in traced.items() if "layers" in r}
    for name, r in ok.items():
        lines.append(f"{name}  (traced step_s {r['step_s']:.4g}, N={r['steps']})")
        for span, share in layers.shares(r["step"]):
            rec = r["step"][span]
            lines.append(f"  {share:7.2%}  {rec[0] / r['steps']:11.4g} s/step"
                         f"  {rec[1] / r['steps']:9.1f} calls/step  {span}")
        lines.append("")
    lines.append("design claims (thresholds are the issue's; a recorded miss is explained in README.md)")
    lines += [f"  [{'ok' if holds else 'MISSED'}] {text}" for text, holds in layers.separation_checks(ok)]
    return lines


def driver_line(r: dict, spec: dict, traced: bool) -> str:
    """The contract's result object; a metric that does not apply reads 0."""
    values = r.get("layers" if traced else "metrics") or {}
    metrics = {
        m["name"]: {"value": values.get(m["name"]) or 0, "unit": m["unit"]}
        for m in spec["per_layer" if traced else "end_to_end"]
    }
    return json.dumps({"correct": not r["failures"], "attempted": r["ops_attempted"],
                       "failed": r["ops_failed"], "metrics": metrics})


def _slim(r: dict) -> dict:
    drop = ("chrome", "agg", "total", "delta", "build_self", "host")
    return {k: v for k, v in r.items() if k not in drop}


def write_outputs(out: Path, host: dict, passes: list[dict], traced: dict, report: str) -> None:
    out.mkdir(parents=True, exist_ok=True)
    (out / "e2e.json").write_text(json.dumps(
        {"host": host, "passes": [{n: _slim(r) for n, r in p.items()} for p in passes]},
        indent=1) + "\n")
    if traced:
        (out / "layers.json").write_text(json.dumps(
            {"host": host, "workloads": {n: _slim(r) for n, r in traced.items()}}, indent=1) + "\n")
        (out / "layers.txt").write_text(report)
        for name, r in traced.items():
            (out / f"trace_{name}.json").write_text(
                json.dumps({"traceEvents": r.get("chrome", [])}) + "\n")


def append_trajectory(host: dict, results: dict, report: str) -> None:
    path = RESULTS / "BENCH_e2e.json"
    points = json.loads(path.read_text())["points"] if path.exists() else []
    points.append({
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()), "host": host,
        "workloads": {n: {"steps": r["steps"], **r["metrics"], "failed_share": r["failed_share"],
                          "digest": r["digest"]} for n, r in results.items() if "metrics" in r},
    })
    RESULTS.mkdir(exist_ok=True)
    path.write_text(json.dumps({"points": points}, indent=1) + "\n")
    if report:
        (RESULTS / "layers.txt").write_text(report)


def aa_table(first: dict, second: dict, spec: dict) -> tuple[list[str], bool]:
    lines, ok = [f"{'workload':<24}{'metric':<18}{'A':>12}{'A2':>12}{'rel diff':>10}{'bound':>8}"], True
    for name, a in first.items():
        b = second[name]
        if "metrics" not in a or "metrics" not in b:
            lines.append(f"{name:<24} FAILED")
            ok = False
            continue
        for m in spec["end_to_end"]:
            va, vb = a["metrics"][m["name"]], b["metrics"][m["name"]]
            rel = abs(vb - va) / va
            inside = rel <= m["bound"]
            ok &= inside
            lines.append(f"{name:<24}{m['name']:<18}{va:>12.4g}{vb:>12.4g}{rel:>10.2%}"
                         f"{m['bound']:>8.0%}{'' if inside else '  BREACH'}")
    return lines, ok


# -- entry point --------------------------------------------------------------

def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=sorted(BY_NAME), help="one workload (driver mode)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=REFERENCE_SECONDS,
                    help="run length; scales the step counts (default %(default)s)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    ap.add_argument("--quick", action="store_true", help="meshes / 8 per side, steps / 50")
    ap.add_argument("--repeats", type=int, default=1, help="e2e passes; digests must repeat")
    ap.add_argument("--aa", action="store_true", help="two passes, second reversed, inside bounds?")
    ap.add_argument("--out", type=Path, default=WORK / "out")
    ap.add_argument("--append-trajectory", action="store_true")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    host = fingerprint(args.seed)
    print("host: " + json.dumps(host))
    chosen = [BY_NAME[args.workload]] if args.workload else list(WORKLOADS)
    driver = args.workload is not None

    passes: list[dict] = []
    if not (driver and args.trace):
        for i in range(2 if args.aa else args.repeats):
            order = chosen[::-1] if i % 2 else chosen
            results = {}
            for wl in order:
                r = measure(wl, args.seed, args.seconds, False, args.quick, host)
                settle(r, passes[-1][wl.name].get("digest") if passes else None)
                results[wl.name] = r
            passes.append({wl.name: results[wl.name] for wl in chosen})
            print(f"\n== end-to-end, pass {i + 1} (tracing off) ==")
            print("\n".join(e2e_table(passes[-1], spec)))

    traced: dict = {}
    report = ""  # layers.txt
    if args.trace:
        for wl in chosen:
            traced[wl.name] = measure(wl, args.seed, args.seconds, True, args.quick, host)
            settle(traced[wl.name])
        print("\n== per layer (traced pass) ==")
        print("\n".join(layer_table(traced)))
        report = "\n".join(ranking(traced, host)) + "\n"
        print(report, end="")

    ok = all(not r["failures"] for p in [*passes, traced] for r in p.values())
    if args.aa:
        lines, inside = aa_table(passes[0], passes[1], spec)
        print("\n== A/A: same code twice ==\n" + "\n".join(lines))
        ok &= inside
    write_outputs(args.out, host, passes, traced, report)
    if args.append_trajectory and passes:
        append_trajectory(host, passes[-1], report)
    print(f"\nresults in {args.out}; {'OK' if ok else 'FAILED'}")
    if driver:
        # the result object carries the verdict; no object when nothing was measured
        r = (traced or passes[-1])[args.workload]
        if "error" in r:
            return 1
        print(driver_line(r, spec, bool(args.trace)))
        return 0
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
