"""Smoke test of the e2e harness: ``--quick --trace`` end to end.

Not collected by tier-1 (its ``testpaths`` is ``tests``); run with
``PYTHONPATH=src python -m pytest -q benchmarks/e2e``.
"""

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e")
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--trace", "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return {
        "elapsed": elapsed, "stdout": proc.stdout,
        "e2e": json.loads((out / "e2e.json").read_text()),
        "layers": json.loads((out / "layers.json").read_text()),
        "out": out,
    }


def test_quick_is_quick(quick):
    assert quick["elapsed"] < 60


def test_names_are_exactly_the_contract(quick):
    workloads = [w["name"] for w in SPEC["workloads"]]
    e2e = [m["name"] for m in SPEC["end_to_end"]]
    per_layer = [m["name"] for m in SPEC["per_layer"]]
    assert len(workloads) <= 8 and len(e2e) <= 16 and len(per_layer) <= 128
    assert "setup_s" in e2e
    for entry in [*SPEC["workloads"], *SPEC["end_to_end"], *SPEC["per_layer"]]:
        assert NAME.fullmatch(entry["name"]), entry
    for m in [*SPEC["end_to_end"], *SPEC["per_layer"]]:
        assert m["unit"] and m["better"] in ("higher", "lower"), m

    (results,) = quick["e2e"]["passes"]
    assert list(results) == workloads
    for name, r in results.items():
        assert list(r["metrics"]) == e2e, name
        assert r["failed_share"] == 0 and not r["failures"], (name, r["failures"])
    assert list(quick["layers"]["workloads"]) == workloads
    for name, r in quick["layers"]["workloads"].items():
        assert list(r["layers"]) == per_layer, name
    # printed, too: every metric is a row of one of the two tables
    for metric in e2e + per_layer:
        assert metric in quick["stdout"], metric


def test_self_times_add_up_to_the_traced_steps(quick):
    """No span is counted twice and none is lost: layers sum to the step."""
    for name, r in quick["layers"]["workloads"].items():
        layered = sum(rec[0] for rec in r["step"].values())
        assert layered == pytest.approx(r["step_sum_s"], rel=0.01), name
        assert r["step"]["apps:step"][1] == r["steps"], name


def test_lazy_is_unreachable_on_eager_workloads(quick):
    for name, r in quick["layers"]["workloads"].items():
        if not r["lazy"]:
            assert not [k for k in r["step"] if k.startswith("ops.lazy:")], name
            assert r["layers"]["ops.lazy.flushes"] == 0 and r["layers"]["ops.lazy.tiles"] == 0


def test_outputs(quick):
    host = quick["e2e"]["host"]
    assert {"cores", "l2_mb", "llc_mb", "cc", "python", "numpy", "commit", "seed", "threads"} <= set(host)
    assert (quick["out"] / "layers.txt").read_text().startswith("host: {")
    for w in SPEC["workloads"]:
        sample = json.loads((quick["out"] / f"trace_{w['name']}.json").read_text())
        assert sample["traceEvents"], w["name"]
        for pid in {e["pid"] for e in sample["traceEvents"]}:  # one pid per rank
            roots = [e for e in sample["traceEvents"] if e["name"] == "apps:step" and e["pid"] == pid]
            assert 1 <= len(roots) <= 3, (w["name"], pid)
