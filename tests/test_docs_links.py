"""The documentation suite exists and every local reference resolves.

Runs the same checker CI uses (``tools/check_doc_links.py``) inside the
tier-1 suite, so a README/docs path that rots fails close to the change
that broke it.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_doc_links", REPO_ROOT / "tools" / "check_doc_links.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("check_doc_links", module)
    spec.loader.exec_module(module)
    return module


def test_documentation_suite_exists():
    assert (REPO_ROOT / "README.md").is_file()
    assert (REPO_ROOT / "docs" / "ARCHITECTURE.md").is_file()
    assert (REPO_ROOT / "docs" / "BENCHMARKS.md").is_file()


def test_all_documentation_references_resolve():
    checker = _load_checker()
    problems = [
        problem
        for doc in checker._documents()
        for problem in checker.check_document(doc)
    ]
    assert not problems, "\n".join(problems)


def test_checker_flags_broken_references(tmp_path):
    """The checker itself detects a dangling link (it is not a no-op)."""
    checker = _load_checker()
    rotten = tmp_path / "rotten.md"
    rotten.write_text(
        "A [dead link](missing/file.md) and a span `src/absent/module.py`.\n"
    )
    problems = checker.check_document(rotten)
    assert len(problems) == 2
    assert any("missing/file.md" in problem for problem in problems)
    assert any("src/absent/module.py" in problem for problem in problems)


def test_module_docstrings_cross_link_the_architecture_doc():
    """The satellite contract: docs are linked from the code, both ways."""
    linked = [
        "src/repro/engine.py",
        "src/repro/storage/stats.py",
        "src/repro/indexes/base.py",
        "src/repro/service/service.py",
        "src/repro/shard/service.py",
        "src/repro/xmltree/document.py",
    ]
    for path in linked:
        text = (REPO_ROOT / path).read_text(encoding="utf-8")
        assert "ARCHITECTURE.md" in text, f"{path} lost its docs cross-link"


def test_analysis_doc_exists_and_is_cross_linked():
    assert (REPO_ROOT / "docs" / "ANALYSIS.md").is_file()
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    architecture = (REPO_ROOT / "docs" / "ARCHITECTURE.md").read_text(
        encoding="utf-8"
    )
    assert "docs/ANALYSIS.md" in readme
    assert "ANALYSIS.md" in architecture


def test_suppression_codes_resolve_against_the_lint_registry():
    checker = _load_checker()
    problems = checker.check_suppression_codes()
    assert problems == [], "\n".join(problems)
    # The exemption matters: this fixture deliberately names RPR999.
    fixture = REPO_ROOT / "tests" / "lint_fixtures" / "suppressed_bad.py"
    assert "RPR999" in fixture.read_text(encoding="utf-8")


def test_docstring_cross_references_resolve(tmp_path):
    """Every ``repro.…`` role target in ``src/`` imports; a planted one dangles."""
    checker = _load_checker()
    assert checker.check_cross_references() == []
    planted = tmp_path / "planted.py"
    planted.write_text(
        '"""See :class:`~repro.shard.replica.Shard`, :meth:`Shard.revive`,\n'
        ":func:`repro.storage.stats.diff_snapshots` and\n"
        ":meth:`a method no shard has\n    <repro.shard.replica.Shard.rewind>`.\n"
        '"""\n'
    )
    problems = checker.check_cross_references([planted])
    assert len(problems) == 1
    assert "planted.py:3" in problems[0]
    assert "repro.shard.replica.Shard.rewind" in problems[0]
