"""Formatting helpers that print paper-style tables from measurements.

Besides the human-readable tables, :func:`write_bench_report` writes a
machine-readable ``BENCH_<name>.json`` artifact per benchmark run
(throughput, weighted costs, configuration — whatever summary the
bench assembles), so the performance trajectory of the serving tier is
trackable across PRs instead of living only in CI logs.  Artifacts
land in ``benchmarks/artifacts/`` by default; set ``REPRO_BENCH_DIR``
to redirect them.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
from datetime import datetime, timezone
from pathlib import Path
from typing import Mapping, Optional, Sequence, Union

from .harness import Measurement

#: Default directory (relative to the working directory, i.e. the repo
#: root when running ``pytest benchmarks/...``) for bench artifacts.
DEFAULT_REPORT_DIR = "benchmarks/artifacts"


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]], title: str = ""
) -> str:
    """A plain-text table (the shape the paper's figures report)."""
    widths = [len(str(h)) for h in headers]
    text_rows = [[str(cell) for cell in row] for row in rows]
    for row in text_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(str(h).ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
    for row in text_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def measurement_table(
    measurements: Mapping[str, Mapping[str, Measurement]],
    metric: str = "total_cost",
    title: str = "",
) -> str:
    """Rows = queries, columns = strategies, cells = the chosen metric.

    ``measurements`` maps query id -> strategy -> Measurement.
    """
    strategies: list[str] = []
    for per_query in measurements.values():
        for strategy in per_query:
            if strategy not in strategies:
                strategies.append(strategy)
    headers = ["query"] + [
        measurements[next(iter(measurements))][s].label if measurements else s
        for s in strategies
    ]
    rows = []
    for qid, per_query in measurements.items():
        row: list[object] = [qid]
        for strategy in strategies:
            measurement = per_query.get(strategy)
            if measurement is None:
                row.append("-")
            elif metric == "elapsed_ms":
                row.append(f"{measurement.elapsed_seconds * 1000:.1f}")
            else:
                row.append(getattr(measurement, metric))
        rows.append(row)
    return format_table(headers, rows, title=title)


def size_table(sizes_by_dataset: Mapping[str, Mapping[str, float]], title: str = "") -> str:
    """The Figure 9 layout: rows = datasets, columns = index structures."""
    columns: list[str] = []
    for sizes in sizes_by_dataset.values():
        for name in sizes:
            if name not in columns:
                columns.append(name)
    headers = ["dataset"] + columns
    rows = []
    for dataset, sizes in sizes_by_dataset.items():
        rows.append([dataset] + [f"{sizes.get(c, 0.0):.2f}" for c in columns])
    return format_table(headers, rows, title=title)


def _git_revision() -> Optional[str]:
    """The current git commit hash, or ``None`` outside a checkout.

    Benchmark artifacts are compared across PRs; stamping the revision
    ties each number to the code that produced it.  Failure is not an
    option to propagate — a missing ``git`` binary or a tarball
    checkout still deserves an artifact.
    """
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


def write_bench_report(
    name: str,
    summary: Mapping[str, object],
    directory: Union[str, Path, None] = None,
) -> Path:
    """Write one benchmark's machine-readable ``BENCH_<name>.json``.

    ``summary`` is the bench's own measurement dict (throughputs,
    weighted costs, asserted ratios, configuration); it must be
    JSON-serializable.  The artifact stamps the run's provenance next
    to the numbers — UTC timestamp, git revision (``None`` outside a
    checkout) and interpreter — because wall-clock figures are only
    comparable across runs of the same environment and code, logical
    costs across any.  Returns the written path.  ``directory`` (or
    the ``REPRO_BENCH_DIR`` environment variable) overrides
    :data:`DEFAULT_REPORT_DIR`.
    """
    target_dir = Path(
        directory
        if directory is not None
        else os.environ.get("REPRO_BENCH_DIR", DEFAULT_REPORT_DIR)
    )
    target_dir.mkdir(parents=True, exist_ok=True)
    report = {
        "bench": name,
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "git_revision": _git_revision(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "summary": dict(summary),
    }
    path = target_dir / f"BENCH_{name}.json"
    path.write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path


def speedup(reference: Measurement, other: Measurement, metric: str = "total_cost") -> float:
    """How many times cheaper ``reference`` is than ``other``."""
    reference_value = getattr(reference, metric)
    other_value = getattr(other, metric)
    if reference_value <= 0:
        return float("inf") if other_value > 0 else 1.0
    return other_value / reference_value
