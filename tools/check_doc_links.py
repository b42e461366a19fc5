#!/usr/bin/env python3
"""Docs link checker: every local reference in the Markdown docs resolves.

Scans ``README.md`` and ``docs/*.md`` for

* Markdown links ``[text](target)`` whose target is a local path
  (external ``http(s)``/``mailto`` targets and pure ``#anchors`` are
  skipped), and
* inline-code path mentions like ``src/repro/storage/stats.py`` or
  ``benchmarks/conftest.py`` (backticked tokens containing a ``/`` and
  a known source/doc suffix),

and fails with a non-zero exit status listing every target that does
not exist relative to the referencing file (links) or the repository
root (code mentions).  Run directly or through
``tests/test_docs_links.py``; CI runs it as the docs link-check step.

It also keeps the lint suppressions honest: every ``RPRxxx`` code named
in a ``repro-lint: ignore[...]`` comment anywhere under ``src/``,
``tools/``, ``tests/`` or ``benchmarks/`` must exist in the checker
registry (``tools/lint``), so a renamed or removed checker cannot leave
stale suppressions behind.  ``tests/lint_fixtures/`` is exempt — its
files are deliberately malformed inputs for the lint tests.

And it keeps the docstrings' cross-references honest: every
``:class:`` / ``:meth:`` / ``:func:`` / ``:data:`` / ``:attr:`` /
``:mod:`` / ``:exc:`` role under ``src/`` whose target is a dotted
``repro.…`` name must resolve by import plus ``getattr``, so a renamed
or deleted class, method or module cannot leave a dangling reference.
"""

from __future__ import annotations

import importlib
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: ``[text](target)`` — non-greedy, one line, no nested brackets needed.
MARKDOWN_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

#: Backticked repo paths: at least one '/', a known file suffix.
CODE_PATH = re.compile(r"`([A-Za-z0-9_./-]+/[A-Za-z0-9_.-]+\.(?:py|md|yml|toml))`")

#: Suffixes stripped from link targets before existence checks.
_ANCHOR = re.compile(r"#.*$")


def _documents() -> list[Path]:
    docs = [REPO_ROOT / "README.md"]
    docs.extend(sorted((REPO_ROOT / "docs").glob("*.md")))
    return [doc for doc in docs if doc.exists()]


def _is_external(target: str) -> bool:
    return target.startswith(("http://", "https://", "mailto:")) or target.startswith(
        "#"
    )


def check_document(doc: Path) -> list[str]:
    """Broken references in one Markdown file, as report lines."""
    problems: list[str] = []
    try:
        label = doc.relative_to(REPO_ROOT)
    except ValueError:  # a file outside the repo (tests use tmp dirs)
        label = doc
    text = doc.read_text(encoding="utf-8")
    for line_number, line in enumerate(text.splitlines(), start=1):
        for match in MARKDOWN_LINK.finditer(line):
            target = _ANCHOR.sub("", match.group(1))
            if not target or _is_external(match.group(1)):
                continue
            resolved = (doc.parent / target).resolve()
            if not resolved.exists():
                problems.append(
                    f"{label}:{line_number}: "
                    f"broken link target {target!r}"
                )
        for match in CODE_PATH.finditer(line):
            target = match.group(1)
            # Trailing globs / wildcard mentions are prose, not paths.
            if "*" in target:
                continue
            if not (REPO_ROOT / target).exists():
                problems.append(
                    f"{label}:{line_number}: "
                    f"missing file mentioned in code span {target!r}"
                )
    return problems


#: Python trees whose suppression comments are validated.
SUPPRESSION_TREES = ("src", "tools", "tests", "benchmarks")

#: Directories holding deliberately malformed linter inputs.
SUPPRESSION_EXEMPT = "lint_fixtures"


def check_suppression_codes() -> list[str]:
    """Suppression comments naming codes the lint registry doesn't know."""
    if str(REPO_ROOT) not in sys.path:
        sys.path.insert(0, str(REPO_ROOT))
    from tools.lint import CHECKER_CODES
    from tools.lint.findings import scan_suppressions

    problems: list[str] = []
    for tree in SUPPRESSION_TREES:
        root = REPO_ROOT / tree
        if not root.is_dir():
            continue
        for path in sorted(root.rglob("*.py")):
            if SUPPRESSION_EXEMPT in path.parts:
                continue
            source = path.read_text(encoding="utf-8")
            if "repro-lint:" not in source:
                continue
            label = path.relative_to(REPO_ROOT)
            for suppression in scan_suppressions(source):
                for code in suppression.codes:
                    if code not in CHECKER_CODES:
                        problems.append(
                            f"{label}:{suppression.line}: suppression names "
                            f"unknown lint code {code!r} (known: "
                            f"{', '.join(sorted(CHECKER_CODES))})"
                        )
    return problems


#: A Sphinx cross-reference role; the target may wrap across lines.
CROSS_REFERENCE = re.compile(r":(?:class|meth|func|data|attr|mod|exc):`([^`]+)`")

#: ``title <target>``: an explicit target after the display text.
_EXPLICIT_TARGET = re.compile(r"<([^<>]+)>\s*$")


def _resolves(target: str) -> bool:
    """Whether a dotted ``repro.…`` name imports (module) or getattrs."""
    parts = target.split(".")
    for split in range(len(parts), 0, -1):
        try:
            found = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for name in parts[split:]:
            if not hasattr(found, name):
                return False
            found = getattr(found, name)
        return True
    return False


def check_cross_references(paths=None) -> list[str]:
    """Docstring cross-references to ``repro.…`` names that do not resolve.

    ``paths`` defaults to every Python file under ``src/``.  Relative
    targets (``Shard.revive``) are left to the reader; only the dotted
    ``repro.`` ones are checked.
    """
    source_root = str(REPO_ROOT / "src")
    if source_root not in sys.path:
        sys.path.insert(0, source_root)
    if paths is None:
        paths = sorted((REPO_ROOT / "src").rglob("*.py"))
    problems: list[str] = []
    for path in paths:
        try:
            label = path.relative_to(REPO_ROOT)
        except ValueError:  # a file outside the repo (tests use tmp dirs)
            label = path
        text = path.read_text(encoding="utf-8")
        for match in CROSS_REFERENCE.finditer(text):
            reference = " ".join(match.group(1).split())
            explicit = _EXPLICIT_TARGET.search(reference)
            target = (explicit.group(1) if explicit else reference).lstrip("~!")
            if target.startswith("repro.") and not _resolves(target):
                line = text.count("\n", 0, match.start()) + 1
                problems.append(
                    f"{label}:{line}: dangling cross-reference {target!r}"
                )
    return problems


def main() -> int:
    documents = _documents()
    if not documents:
        print("no documentation files found", file=sys.stderr)
        return 1
    problems = [problem for doc in documents for problem in check_document(doc)]
    problems.extend(check_suppression_codes())
    problems.extend(check_cross_references())
    if problems:
        print("\n".join(problems), file=sys.stderr)
        print(f"\n{len(problems)} broken documentation reference(s)", file=sys.stderr)
        return 1
    print(f"checked {len(documents)} documentation file(s): all references resolve")
    return 0


if __name__ == "__main__":
    sys.exit(main())
