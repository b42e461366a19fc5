"""Aggregate per-bench ``BENCH_*.json`` artifacts into one trajectory.

Every benchmark run writes a machine-readable artifact via
:func:`repro.bench.write_bench_report` (``benchmarks/artifacts/
BENCH_<name>.json``).  Each artifact carries its own provenance
(``generated_at``, ``git_revision``) and a bench-specific summary dict
whose *headline* number — the ratio the bench asserts on — lives at a
bench-specific path.  This tool collects all of them into a single
``BENCH_summary.json`` so the performance trajectory of the serving
stack is readable in one place (and diffable across PRs) instead of
spread over a dozen files.

Stdlib-only on purpose: CI runs it right after the bench smoke steps,
with or without ``PYTHONPATH=src``.

Usage::

    python -m tools.bench_summary [--dir benchmarks/artifacts]
                                  [--output benchmarks/artifacts/BENCH_summary.json]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

#: Where each bench's headline number lives inside its ``summary`` dict
#: (a ``/``-separated path).  Benches not listed here fall back to a
#: deterministic scan for ratio/speedup-named numeric leaves.
HEADLINES = {
    "failover": "throughput_ratio",
    "frontdoor": "coalesce_qps_ratio",
    "incremental_update": "cost_ratio",
    "observability": "overhead_us_per_query",
    "rebalance": "skew_recovery/cost_ratio",
    "remove_replace": "cost_ratio",
    "service_throughput": "speedup",
    "shard_scaling": "sharded/4/cost_ratio",
}

#: Substrings that mark a numeric leaf as headline-shaped.
_RATIO_MARKERS = ("ratio", "speedup")


def _dig(summary: dict, path: str) -> Optional[float]:
    """The numeric leaf at a ``/``-separated path, or ``None``."""
    node = summary
    for part in path.split("/"):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        return None
    return float(node)


def _ratio_leaves(node, prefix: str = "") -> list[tuple[str, float]]:
    """Every ratio/speedup-named numeric leaf, with its path."""
    leaves: list[tuple[str, float]] = []
    if isinstance(node, dict):
        for key in sorted(node):
            leaves.extend(_ratio_leaves(node[key], f"{prefix}/{key}"))
    elif not isinstance(node, bool) and isinstance(node, (int, float)):
        path = prefix.lstrip("/")
        if any(marker in path.lower() for marker in _RATIO_MARKERS):
            leaves.append((path, float(node)))
    return leaves


def headline_for(bench: str, summary: dict) -> tuple[Optional[str], Optional[float]]:
    """The bench's headline ``(metric_path, value)``.

    Prefers the per-bench override in :data:`HEADLINES`; otherwise the
    shallowest (then alphabetically first) ratio/speedup-named numeric
    leaf, so unknown benches still contribute a deterministic headline.
    """
    override = HEADLINES.get(bench)
    if override is not None:
        value = _dig(summary, override)
        if value is not None:
            return override, value
    leaves = _ratio_leaves(summary)
    if not leaves:
        return None, None
    leaves.sort(key=lambda leaf: (leaf[0].count("/"), leaf[0]))
    return leaves[0]


def _git_revision() -> Optional[str]:
    """The current commit hash, or ``None`` outside a git checkout."""
    try:
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5.0,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    revision = result.stdout.strip()
    if result.returncode != 0 or not revision:
        return None
    return revision


def summarize(directory: Path) -> dict:
    """One trajectory row per ``BENCH_*.json`` artifact in ``directory``."""
    rows = []
    for path in sorted(directory.glob("BENCH_*.json")):
        if path.name == "BENCH_summary.json":
            continue
        try:
            report = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as error:
            rows.append({"bench": path.stem, "error": str(error)})
            continue
        bench = report.get("bench", path.stem.replace("BENCH_", "", 1))
        summary = report.get("summary", {})
        metric, value = headline_for(bench, summary if isinstance(summary, dict) else {})
        rows.append(
            {
                "bench": bench,
                "headline_metric": metric,
                "headline": value,
                "generated_at": report.get("generated_at"),
                "git_revision": report.get("git_revision"),
            }
        )
    return {
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "git_revision": _git_revision(),
        "artifacts": len(rows),
        "benches": rows,
    }


def _format_table(rows: list[dict]) -> str:
    headers = ("bench", "headline", "metric", "generated_at")
    cells = [
        (
            str(row.get("bench")),
            f"{row['headline']:.3f}" if row.get("headline") is not None else "-",
            str(row.get("headline_metric") or row.get("error", "-")),
            str(row.get("generated_at") or "-"),
        )
        for row in rows
    ]
    widths = [
        max(len(header), *(len(row[i]) for row in cells)) if cells else len(header)
        for i, header in enumerate(headers)
    ]
    lines = [
        "  ".join(header.ljust(widths[i]) for i, header in enumerate(headers)),
        "  ".join("-" * width for width in widths),
    ]
    lines.extend(
        "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
        for row in cells
    )
    return "\n".join(lines)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--dir",
        default="benchmarks/artifacts",
        type=Path,
        help="directory holding the BENCH_*.json artifacts",
    )
    parser.add_argument(
        "--output",
        default=None,
        type=Path,
        help="where to write BENCH_summary.json (default: <dir>/BENCH_summary.json)",
    )
    arguments = parser.parse_args(argv)
    directory: Path = arguments.dir
    if not directory.is_dir():
        print(f"no artifact directory at {directory}; nothing to summarize")
        return 0
    summary = summarize(directory)
    output = arguments.output or directory / "BENCH_summary.json"
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(_format_table(summary["benches"]))
    print(f"\n{summary['artifacts']} artifact(s) -> {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
