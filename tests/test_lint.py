"""repro.lint: corpus, emitters, baseline, CLI, and the strict translator gate."""

import json
from pathlib import Path

import pytest

from repro.common.access import Access, validate_argument_access
from repro.common.errors import AccessDeclarationError, TranslatorError
from repro.lint import RULES, Severity, lint_many, lint_path
from repro.lint.baseline import (
    BaselineError,
    apply_baseline,
    load_baseline,
    unused_entries,
)
from repro.lint.cli import main as lint_main
from repro.lint.emit import emit_json, emit_sarif, emit_text

CORPUS = Path(__file__).parent / "lint_corpus"
REPO_BASELINE = Path(__file__).parents[1] / "lint_baseline.json"

APPS = [
    "repro.apps.airfoil.app",
    "repro.apps.cloverleaf.app",
    "repro.apps.sod.app",
    "repro.apps.hydra.app",
]


def marker_line(path: Path, code: str) -> int:
    """The 1-based line carrying the ``# <- OPLxxx`` marker."""
    for i, line in enumerate(path.read_text().splitlines(), start=1):
        if f"# <- {code}" in line:
            return i
    raise AssertionError(f"{path} has no marker for {code}")


class TestCorpus:
    """Every seeded bug is caught with the exact code, line and severity."""

    @pytest.mark.parametrize(
        "stem, code, severity",
        [
            ("opl001_read_assigned", "OPL001", Severity.ERROR),
            ("opl002_inc_nonadditive", "OPL002", Severity.ERROR),
            ("opl003_write_read_first", "OPL003", Severity.ERROR),
            ("opl004_outside_stencil", "OPL004", Severity.ERROR),
            ("opl005_unused_arg", "OPL005", Severity.WARNING),
            ("opl006_arity_mismatch", "OPL006", Severity.ERROR),
            ("opl007_min_on_dat", "OPL007", Severity.ERROR),
            ("opl201_computed_offset", "OPL201", Severity.ERROR),
            ("opl202_neighbour_rw", "OPL202", Severity.WARNING),
            ("opl203_overdeclared_stencil", "OPL203", Severity.NOTE),
            ("opl301_narrowing_store", "OPL301", Severity.WARNING),
            ("opl302_int_division", "OPL302", Severity.WARNING),
            ("opl303_rank_mismatch", "OPL303", Severity.WARNING),
            ("opl101_dead_write", "OPL101", Severity.WARNING),
            ("opl102_carried_state", "OPL102", Severity.NOTE),
            ("opl103_redundant_halo", "OPL103", Severity.NOTE),
            ("opl900_unliftable", "OPL900", Severity.WARNING),
        ],
    )
    def test_seeded_bug_caught(self, stem, code, severity):
        path = CORPUS / f"{stem}.py"
        result = lint_path(path)
        expected_line = marker_line(path, code)
        hits = [d for d in result.diagnostics if d.code == code]
        assert hits, f"{code} not reported for {path.name}"
        assert any(d.line == expected_line for d in hits), (
            f"{code} reported at {[d.line for d in hits]}, "
            f"marker is on line {expected_line}"
        )
        for d in hits:
            assert d.severity is severity

    def test_seeded_files_report_no_other_codes(self):
        # each corpus file must stay a minimal reproducer of its one code
        # (OPL101 may legitimately also fire on the cyclic wrap-around)
        for path in sorted(CORPUS.glob("opl*.py")):
            code = f"OPL{path.stem[3:6]}"
            others = {
                d.code for d in lint_path(path).diagnostics if d.code != code
            }
            assert not others, f"{path.name} also reports {others}"

    def test_known_good_file_is_fully_clean(self):
        result = lint_path(CORPUS / "good_saxpy.py")
        assert result.diagnostics == []
        assert result.n_sites == 1
        assert result.n_kernels == 1


class TestBundledAppsClean:
    """Acceptance: the four apps lint clean against the repo baseline."""

    def test_zero_nonbaselined_findings(self):
        result = lint_many(APPS)
        apply_baseline(result, load_baseline(REPO_BASELINE))
        active = result.active(Severity.WARNING)
        assert active == [], "\n".join(d.format() for d in active)
        # the analyser actually saw the apps (not a silent no-op); each
        # app declares its loop chain once, serial and distributed alike
        assert result.n_sites >= 50
        assert result.n_kernels >= 50
        assert result.n_chains >= 8

    def test_no_stale_baseline_entries(self):
        result = lint_many(APPS)
        entries = load_baseline(REPO_BASELINE)
        assert unused_entries(result, entries) == []

    def test_checkpoint_tables_cover_iteration_chains(self):
        result = lint_many(APPS)
        names = set(result.checkpoint_tables)
        assert any("iteration" in n for n in names)
        table = next(t for n, t in result.checkpoint_tables.items()
                     if "app.AirfoilApp.iteration" in n)
        assert "units" in table and "K_SAVE_SOLN" in table


class TestEmitters:
    def _result(self):
        return lint_path(CORPUS / "opl001_read_assigned.py")

    def test_text_contains_location_code_and_hint(self):
        text = emit_text(self._result())
        assert "OPL001 error" in text
        assert "opl001_read_assigned.py:8" in text
        assert "hint:" in text

    def test_json_roundtrip(self):
        doc = json.loads(emit_json(self._result()))
        assert doc["summary"]["error"] == 1
        (d,) = doc["diagnostics"]
        assert (d["code"], d["line"], d["severity"]) == ("OPL001", 8, "error")

    def test_sarif_structure(self):
        """SARIF 2.1.0 structural smoke test (no external schema dep)."""
        doc = json.loads(emit_sarif(self._result()))
        assert doc["version"] == "2.1.0"
        assert "sarif-2.1.0" in doc["$schema"]
        (run,) = doc["runs"]
        driver = run["tool"]["driver"]
        assert driver["name"] == "repro.lint"
        rule_ids = [r["id"] for r in driver["rules"]]
        assert rule_ids == list(RULES)
        for rule in driver["rules"]:
            assert rule["shortDescription"]["text"]
            assert rule["defaultConfiguration"]["level"] in (
                "note", "warning", "error",
            )
        (res,) = run["results"]
        assert res["ruleId"] == "OPL001"
        assert res["level"] == "error"
        loc = res["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"].endswith("opl001_read_assigned.py")
        assert loc["region"]["startLine"] == 8
        assert rule_ids[res["ruleIndex"]] == "OPL001"

    def test_sarif_marks_suppressions(self):
        result = self._result()
        apply_baseline(result, [
            {"code": "OPL001", "module": "*", "reason": "corpus"},
        ])
        (res,) = json.loads(emit_sarif(result))["runs"][0]["results"]
        assert res["suppressions"][0]["justification"] == "corpus"


class TestBaseline:
    def test_matching_entry_suppresses(self):
        result = lint_path(CORPUS / "opl001_read_assigned.py")
        n = apply_baseline(result, [{
            "code": "OPL001", "module": "opl001_read_assigned.py",
            "loop": "scale", "dat": "q", "reason": "seeded",
        }])
        assert n == 1
        assert result.active(Severity.ERROR) == []
        assert result.counts()["suppressed"] == 1

    def test_non_matching_entry_is_reported_stale(self):
        result = lint_path(CORPUS / "opl001_read_assigned.py")
        entries = [{"code": "OPL004", "module": "nope.py", "reason": "x"}]
        assert apply_baseline(result, entries) == 0
        assert unused_entries(result, entries) == entries

    def test_reason_is_mandatory(self, tmp_path):
        p = tmp_path / "b.json"
        p.write_text(json.dumps(
            {"version": 1, "suppressions": [{"code": "OPL001"}]}
        ))
        with pytest.raises(BaselineError, match="reason"):
            load_baseline(p)


class TestCLI:
    def test_clean_run_exits_zero(self, capsys):
        rc = lint_main([str(CORPUS / "good_saxpy.py")])
        assert rc == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_error_findings_exit_one(self, capsys):
        rc = lint_main([str(CORPUS / "opl001_read_assigned.py")])
        assert rc == 1
        assert "OPL001" in capsys.readouterr().out

    def test_baseline_restores_exit_zero(self, tmp_path, capsys):
        b = tmp_path / "b.json"
        b.write_text(json.dumps({"version": 1, "suppressions": [
            {"code": "OPL001", "module": "opl001_read_assigned.py",
             "reason": "seeded corpus bug"},
        ]}))
        rc = lint_main([str(CORPUS / "opl001_read_assigned.py"),
                        "--baseline", str(b)])
        assert rc == 0
        assert "baselined: seeded corpus bug" in capsys.readouterr().out

    def test_fail_on_warning_gates_notes_out(self):
        assert lint_main([str(CORPUS / "opl102_carried_state.py"),
                          "--fail-on", "warning"]) == 0
        assert lint_main([str(CORPUS / "opl005_unused_arg.py"),
                          "--fail-on", "warning"]) == 1
        assert lint_main([str(CORPUS / "opl005_unused_arg.py"),
                          "--fail-on", "never"]) == 0

    def test_sarif_output_file(self, tmp_path):
        out = tmp_path / "report.sarif"
        rc = lint_main([str(CORPUS / "opl001_read_assigned.py"),
                        "-f", "sarif", "-o", str(out)])
        assert rc == 1
        doc = json.loads(out.read_text())
        assert doc["runs"][0]["results"]

    def test_unknown_module_exits_two(self, capsys):
        assert lint_main(["no.such.module"]) == 2
        assert "cannot locate" in capsys.readouterr().err


STRICT_BAD_APP = '''\
import repro.op2 as op2


def bad_kernel(a, b):
    b[0] = a[0]
    a[0] = 0.0


def run(cells, q, out):
    op2.par_loop(bad_kernel, cells, q(op2.READ), out(op2.WRITE))
'''


class TestTranslatorStrictMode:
    """Acceptance: strict mode refuses codegen for a READ-written kernel."""

    def test_strict_refuses_read_written_kernel(self, tmp_path):
        from repro.translator.driver import translate_app

        app = tmp_path / "bad_app.py"
        app.write_text(STRICT_BAD_APP)
        with pytest.raises(TranslatorError, match="OPL001"):
            translate_app(app, tmp_path / "gen", strict=True)
        assert not (tmp_path / "gen" / "translation_manifest.json").exists()

    def test_non_strict_still_translates(self, tmp_path):
        from repro.translator.driver import translate_app

        app = tmp_path / "bad_app.py"
        app.write_text(STRICT_BAD_APP)
        result = translate_app(app, tmp_path / "gen")
        assert (tmp_path / "gen" / "translation_manifest.json").exists()
        assert len(result.sites) == 1

    def test_strict_honours_baseline(self, tmp_path):
        from repro.translator.driver import translate_app

        app = tmp_path / "bad_app.py"
        app.write_text(STRICT_BAD_APP)
        b = tmp_path / "b.json"
        b.write_text(json.dumps({"version": 1, "suppressions": [
            {"code": "OPL001", "module": "bad_app.py",
             "reason": "known, tracked elsewhere"},
        ]}))
        translate_app(app, tmp_path / "gen", strict=True, baseline=b)
        assert (tmp_path / "gen" / "translation_manifest.json").exists()

    def test_strict_cli_flag(self, tmp_path, capsys):
        from repro.translator.__main__ import main as translator_main

        app = tmp_path / "bad_app.py"
        app.write_text(STRICT_BAD_APP)
        rc = translator_main([str(app), str(tmp_path / "gen"), "--lint"])
        assert rc == 1
        assert "OPL001" in capsys.readouterr().err

    def test_strict_rejects_unliftable_sites(self, tmp_path):
        from repro.translator.driver import translate_app

        app = tmp_path / "starred.py"
        app.write_text(
            "import repro.op2 as op2\n\n\n"
            "def run(cells, k, descs):\n"
            "    op2.par_loop(k, cells, *descs)\n"
        )
        with pytest.raises(TranslatorError, match="OPL900"):
            translate_app(app, tmp_path / "gen", strict=True)


class TestAccessDeclarationValidation:
    """Satellite: MIN/MAX rejected on non-global args at declaration time."""

    def test_helper_rejects_min_on_dat(self):
        with pytest.raises(AccessDeclarationError) as exc:
            validate_argument_access(
                Access.MIN, is_global=False, dat="q", loop="res_calc",
                arg_index=2,
            )
        err = exc.value
        assert (err.dat, err.access, err.loop, err.arg_index) == (
            "q", "MIN", "res_calc", 2,
        )
        assert "res_calc" in str(err) and "'q'" in str(err)

    def test_helper_allows_reductions_on_globals(self):
        for mode in (Access.MIN, Access.MAX, Access.INC, Access.READ):
            validate_argument_access(mode, is_global=True, dat="g")

    def test_op2_direct_dat_min_rejected_at_declaration(self):
        from repro import op2

        s = op2.Set(4, "cells")
        d = op2.Dat(s, 1, name="q")
        with pytest.raises(AccessDeclarationError):
            d(op2.MIN)

    def test_op2_indirect_dat_max_rejected_at_declaration(self):
        # previously only *direct* MIN/MAX was caught; indirect slipped
        # through to fail late (or never)
        from repro import op2

        cells = op2.Set(4, "cells")
        edges = op2.Set(3, "edges")
        e2c = op2.Map(edges, cells, 1, [[0], [1], [2]], "e2c")
        d = op2.Dat(cells, 1, name="q")
        with pytest.raises(AccessDeclarationError):
            d(op2.MAX, e2c, 0)

    def test_op2_global_min_still_allowed(self):
        import numpy as np

        from repro import op2

        s = op2.Set(3, "cells")
        d = op2.Dat(s, 1, [[1.0], [2.0], [3.0]], name="q")
        g = op2.Global(1, [10.0], name="lo")

        def kmin(q, lo):
            lo[0] = min(lo[0], q[0])

        op2.par_loop(op2.Kernel(kmin, "kmin"), s, d(op2.READ), g(op2.MIN))
        assert np.allclose(g.data, [1.0])

    def test_op2_loop_time_recheck_names_loop(self):
        from repro import op2
        from repro.op2.args import Arg

        s = op2.Set(2, "cells")
        d = op2.Dat(s, 1, name="q")
        rogue = Arg(access=Access.MIN, dat=d)  # bypasses Dat.__call__

        def k(q):
            pass

        with pytest.raises(AccessDeclarationError) as exc:
            op2.par_loop(op2.Kernel(k, "rogue_loop"), s, rogue)
        assert exc.value.loop == "rogue_loop"
        assert exc.value.arg_index == 0

    def test_ops_dat_min_rejected_at_declaration(self):
        from repro import ops

        blk = ops.Block(1, "b")
        d = ops.Dat(blk, 8, name="t")
        with pytest.raises(AccessDeclarationError):
            d(ops.MIN)
