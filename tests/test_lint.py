"""Tests for the repro-lint framework (tools/lint).

Each checker is exercised against a good/bad fixture pair under
``tests/lint_fixtures/``; the integration test asserts the real tree
stays clean, which is the same gate CI enforces.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools.lint import (  # noqa: E402 - path bootstrap above
    CHECKER_CODES,
    META_CODE,
    collect_files,
    run_paths,
)
from tools.lint.findings import (  # noqa: E402
    Finding,
    apply_suppressions,
    scan_suppressions,
)
from tools.lint.reporters import render_json, render_text  # noqa: E402

FIXTURES = REPO_ROOT / "tests" / "lint_fixtures"


def lint(target: Path, select=None):
    return run_paths([str(target)], select=select)


def fired_codes(target: Path, select=None) -> set[str]:
    return {finding.code for finding in lint(target, select=select).findings}


# ---------------------------------------------------------------- checkers

PAIRS = [
    ("RPR001", FIXTURES / "rpr001_good.py", FIXTURES / "rpr001_bad.py", 1),
    ("RPR002", FIXTURES / "rpr002_good.py", FIXTURES / "rpr002_bad.py", 2),
    ("RPR003", FIXTURES / "indexes/good.py", FIXTURES / "indexes/bad.py", 2),
    ("RPR004", FIXTURES / "rpr004_good.py", FIXTURES / "rpr004_bad.py", 4),
    ("RPR005", FIXTURES / "rpr005_good.py", FIXTURES / "rpr005_bad.py", 4),
    ("RPR006", FIXTURES / "rpr006_good.py", FIXTURES / "rpr006_bad.py", 4),
]


@pytest.mark.parametrize(
    "code,good,bad,bad_count", PAIRS, ids=[p[0] for p in PAIRS]
)
def test_checker_fires_on_bad_and_stays_silent_on_good(
    code, good, bad, bad_count
):
    assert fired_codes(good, select=[code]) == set()
    result = lint(bad, select=[code])
    assert {f.code for f in result.findings} == {code}
    assert len(result.findings) == bad_count


def test_cost_accounting_holds_batch_mutators_to_the_rule():
    """Loop, count locally, charge once: clean.  Leave early: reported."""
    fixtures = FIXTURES / "indexes"
    assert fired_codes(fixtures / "batch_good.py", select=["RPR003"]) == set()
    findings = lint(fixtures / "batch_bad.py", select=["RPR003"]).findings
    assert [f.message.split()[0] for f in findings] == [
        "Pages.insert_many",
        "Pages.delete_many",
        "Pages.drop_many",
    ]
    early, early_delete, uncharged_del = (f.message for f in findings)
    assert "returns after mutating 'keys'" in early
    assert "returns after mutating 'keys'" in early_delete
    assert "never charges" in uncharged_del


def test_registry_sync_good_package_is_clean():
    assert fired_codes(FIXTURES / "registry_good", select=["RPR004"]) == set()


def test_registry_sync_bad_package_flags_both_directions():
    result = lint(FIXTURES / "registry_bad", select=["RPR004"])
    messages = "\n".join(f.message for f in result.findings)
    assert len(result.findings) == 2
    assert "DeltaIndex" in messages  # defined but unregistered
    assert "GhostIndex" in messages  # registered but undefined


def test_lock_discipline_allows_private_helpers():
    findings = lint(FIXTURES / "rpr001_good.py", select=["RPR001"]).findings
    assert findings == []


def test_lock_ordering_accepts_sorted_idiom():
    findings = lint(FIXTURES / "rpr002_good.py", select=["RPR002"]).findings
    assert findings == []


# ------------------------------------------------------------ suppressions


def test_suppression_round_trip_silences_with_justification():
    assert fired_codes(FIXTURES / "suppressed_ok.py") == set()


def test_malformed_suppressions_report_meta_code():
    result = lint(FIXTURES / "suppressed_bad.py")
    by_code = {}
    for finding in result.findings:
        by_code.setdefault(finding.code, []).append(finding)
    # Three hygiene findings: unknown code, missing justification, RPR000.
    assert len(by_code[META_CODE]) == 3
    # The RPR999 suppression does not cover RPR005, so it still fires.
    assert len(by_code["RPR005"]) == 1


def test_scan_suppressions_parses_codes_and_justification():
    source = "x = 1  # repro-lint: ignore[RPR001, RPR003] -- fixture reason\n"
    (suppression,) = scan_suppressions(source)
    assert suppression.codes == ("RPR001", "RPR003")
    assert suppression.justification == "fixture reason"
    assert not suppression.standalone
    assert suppression.covered_lines() == (1,)


def test_standalone_suppression_covers_next_line():
    source = "# repro-lint: ignore[RPR002] -- fixture reason\nx = 1\n"
    (suppression,) = scan_suppressions(source)
    assert suppression.standalone
    assert suppression.covered_lines() == (1, 2)


def test_apply_suppressions_never_drops_meta_findings():
    findings = [
        Finding(META_CODE, "f.py", 1, "hygiene"),
        Finding("RPR001", "f.py", 1, "real"),
    ]
    suppressions = scan_suppressions(
        "# repro-lint: ignore[RPR001] -- fixture reason\n"
    )
    kept = apply_suppressions(findings, suppressions)
    assert [finding.code for finding in kept] == [META_CODE]


# ------------------------------------------------------------- integration


def test_whole_tree_is_clean():
    result = run_paths([str(REPO_ROOT / "src"), str(REPO_ROOT / "tools")])
    assert result.findings == [], render_text(result)
    assert result.files_checked > 50


def test_collect_files_skips_pycache(tmp_path):
    (tmp_path / "__pycache__").mkdir()
    (tmp_path / "__pycache__" / "junk.py").write_text("x = 1\n")
    (tmp_path / "real.py").write_text("x = 1\n")
    files = collect_files([str(tmp_path)])
    assert [f.name for f in files] == ["real.py"]


def test_syntax_error_reports_meta_finding(tmp_path):
    broken = tmp_path / "broken.py"
    broken.write_text("def oops(:\n")
    result = run_paths([str(broken)])
    assert [f.code for f in result.findings] == [META_CODE]
    assert "could not parse" in result.findings[0].message


def test_json_reporter_shape():
    result = lint(FIXTURES / "rpr001_bad.py", select=["RPR001"])
    payload = json.loads(render_json(result))
    assert payload["version"] == 1
    assert payload["finding_count"] == 1
    (finding,) = payload["findings"]
    assert set(finding) == {"code", "path", "line", "message"}
    assert finding["code"] == "RPR001"


# --------------------------------------------------------------------- CLI


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "tools.lint", *args],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )


def test_cli_exit_codes_and_json_output(tmp_path):
    report = tmp_path / "lint-report.json"
    bad = (FIXTURES / "rpr001_bad.py").relative_to(REPO_ROOT)
    proc = run_cli(str(bad), "--select", "RPR001", "--json",
                   "--output", str(report))
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    assert payload["finding_count"] == 1
    assert json.loads(report.read_text()) == payload


def test_cli_clean_run_exits_zero():
    proc = run_cli("src", "tools")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "clean" in proc.stdout


def test_cli_rejects_unknown_select_code():
    proc = run_cli("src", "--select", "RPR999")
    assert proc.returncode == 2
    assert "unknown code" in proc.stderr


def test_cli_list_codes_covers_registry():
    proc = run_cli("--list-codes")
    assert proc.returncode == 0
    for code in CHECKER_CODES:
        assert code in proc.stdout
