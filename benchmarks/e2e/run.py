"""One command for the socket-level benchmark.

    python3 benchmarks/e2e/run.py --seed 20050405

runs all three workloads end to end (tracing off), then the traced
per-layer pass of each, prints every metric of ``BENCHMARK.json`` by
name and unit, checks the answers, and writes a stamped result under
``benchmarks/e2e/results/``.

    ... --workload hot_hits --seed 7 --seconds 26 --trace 0

is the form the benchmark driver calls: one workload, and as the last
line of stdout one JSON object with the end-to-end metrics (``--trace
0``) or the per-layer metrics (``--trace 1``).

    ... --repeat 5 [--seed-step 1]      calibrate: spreads against the bounds
    ... --compare A.json B.json         gate: B's medians against A's
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"{ROOT / 'src' / 'repro'} is missing: the benchmark measures that tree")
sys.path.insert(0, str(ROOT / "src"))

from repro.bench import format_table, write_bench_report  # noqa: E402
from repro.obs.clock import now  # noqa: E402

import check  # noqa: E402
import layers  # noqa: E402
import loadgen  # noqa: E402
import measure  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {metric["name"]: metric for metric in SPEC["end_to_end"]}
PER_LAYER = {metric["name"]: metric for metric in SPEC["per_layer"]}
SPECS = {**END_TO_END, **PER_LAYER}
RESULTS = HERE / "results"

#: Servers set up per timed run; ``setup_s`` is the median.
SETUPS = 3
#: Share of ``--seconds`` a traced run spends on the socket (it needs
#: the server's counters); the layer passes take the rest.
TRACED_SOCKET_SHARE = 0.4


class BenchmarkFailure(Exception):
    """The run produced a wrong answer, a failed operation or server stderr."""


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
async def _socket_run(workload, seed: int, seconds: float, setups: int) -> dict:
    """Set up ``setups`` servers (the last one serves), drive, verify."""
    setup_seconds = []
    server = None
    try:
        for _ in range(setups):
            if server is not None:
                await _stop_clean(server)
            started = now()
            documents = workloads.corpus_documents(seed)
            server = await loadgen.ServerProcess.start(workloads.as_named_xml(documents))
            setup_seconds.append(now() - started)
        mix = workloads.ReadMix(seed, workload, documents)
        recording = await loadgen.drive(workload, server, seed, mix, seconds)
    finally:
        if server is not None:
            await _stop_clean(server)
    check.verify(recording, mix.xpaths, documents, seed)
    metrics = loadgen.summarize(recording)
    metrics["setup_s"] = statistics.median(setup_seconds)
    return {"metrics": metrics, "counters": recording.counters}


def _check_traffic(workload, counters: dict) -> None:
    """The workload did to the caches what its ``why`` says, or the run fails.

    Asked of the timed runs only: a traced run's socket phase is so
    short that priming is a tenth of its reads.
    """
    hit_rate = layers.counter_metrics(counters)["service.result_hit_rate"]
    if workload.reads == "pool" and hit_rate >= 0.15:
        raise BenchmarkFailure(f"{workload.name}: result hit rate {hit_rate:.3f}, want < 0.15")
    if workload.reads == "catalog" and not workload.write_rate and hit_rate < 0.95:
        raise BenchmarkFailure(f"{workload.name}: result hit rate {hit_rate:.3f}, want >= 0.95")


async def _stop_clean(server: loadgen.ServerProcess) -> None:
    stderr = await server.stop()
    if stderr.strip():
        raise BenchmarkFailure(f"server wrote to stderr:\n{stderr}")


def run_once(name: str, seed: int, seconds: float, trace: int) -> dict:
    """One driver-shaped run: the named metrics plus correctness."""
    workload = workloads.WORKLOADS[name]
    if trace:
        socket = loadgen.run(
            _socket_run(workload, seed, seconds * TRACED_SOCKET_SHARE, setups=1)
        )
        measured = {**socket["metrics"], **layers.counter_metrics(socket["counters"])}
        measured.update(layers.measure_layers(workload, seed))
        wanted = PER_LAYER
    else:
        socket = loadgen.run(_socket_run(workload, seed, seconds, setups=SETUPS))
        _check_traffic(workload, socket["counters"])
        measured = socket["metrics"]
        wanted = END_TO_END
    missing = [metric for metric in wanted if measured.get(metric) is None]
    if missing:
        raise BenchmarkFailure(f"{name}: no value for {missing}")
    failed = socket["metrics"]["failed"]
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": failed == 0,
        "attempted": socket["metrics"]["attempted"],
        "failed": failed,
        "metrics": {
            metric: {"value": measured[metric], "unit": spec["unit"]}
            for metric, spec in wanted.items()
        },
    }


# ----------------------------------------------------------------------
# Printing, repeating, comparing
# ----------------------------------------------------------------------
def print_runs(runs: list[dict]) -> None:
    """Every metric by name and unit, one column per workload."""
    names = [w["name"] for w in SPEC["workloads"] if any(r["workload"] == w["name"] for r in runs)]
    for trace, title in ((0, "end to end (tracing off)"), (1, "per layer (traced pass)")):
        by_workload = {r["workload"]: r["metrics"] for r in runs if r["trace"] == trace}
        if not by_workload:
            continue
        rows = []
        for metric, spec in (PER_LAYER if trace else END_TO_END).items():
            cells = [
                f"{by_workload[name][metric]['value']:.4g}" if name in by_workload else "-"
                for name in names
            ]
            rows.append([metric, spec["unit"], spec["better"]] + cells)
        print(format_table(["metric", "unit", "better"] + names, rows, title=title))
        print()


def _grouped(runs: list[dict]) -> dict[tuple[str, str], list[float]]:
    grouped: dict[tuple[str, str], list[float]] = {}
    for run in runs:
        for metric, cell in run["metrics"].items():
            grouped.setdefault((run["workload"], metric), []).append(cell["value"])
    return grouped


def print_spreads(runs: list[dict]) -> int:
    """Median, quartiles and spreads per metric x workload; returns the flag count.

    ``!`` marks an end-to-end spread past its bound, ``~`` one past a
    third of it (the steadiness the benchmark contract asks for).
    """
    rows, flags = [], 0
    for (workload, metric), values in sorted(_grouped(runs).items()):
        stats = measure.spread(values)
        bound = SPECS[metric].get("bound")
        flag = ""
        if bound is not None and metric != "setup_s":
            if stats["iqr_share"] > bound:
                flag, flags = "!", flags + 1
            elif stats["iqr_share"] > bound / 3:
                flag = "~"
        rows.append([
            workload, metric, len(values), f"{stats['median']:.4g}", f"{stats['q1']:.4g}",
            f"{stats['q3']:.4g}", f"{stats['iqr_share']:.3f}", f"{stats['range_share']:.3f}",
            "-" if bound is None else f"{bound:.2f}", flag,
        ])
    print(format_table(
        ["workload", "metric", "n", "median", "q1", "q3", "iqr/med", "range/med", "bound", ""],
        rows, title="spread over repeated runs",
    ))
    return flags


def compare(path_a: str, path_b: str) -> int:
    """B's medians against A's, per end-to-end metric x workload; returns regressions."""
    def load(path):
        return _grouped(json.loads(Path(path).read_text(encoding="utf-8"))["summary"]["runs"])

    a, b = load(path_a), load(path_b)
    rows, regressions = [], 0
    for key in sorted(set(a) & set(b)):
        workload, metric = key
        spec = SPECS[metric]
        median_a, median_b = statistics.median(a[key]), statistics.median(b[key])
        worse = (median_b - median_a) / (abs(median_a) or 1.0)
        if spec["better"] == "higher":
            worse = -worse
        bound = spec.get("bound")
        flag = ""
        if bound is not None and worse > bound:
            flag, regressions = "REGRESSION", regressions + 1
        rows.append([
            workload, metric, f"{median_a:.4g}", f"{median_b:.4g}", f"{worse:+.3f}",
            "-" if bound is None else f"{bound:.2f}", flag,
        ])
    print(format_table(
        ["workload", "metric", "A median", "B median", "worse by", "bound", ""],
        rows, title=f"{path_b} against {path_a}",
    ))
    return regressions


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=20050405)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--seed-step", type=int, default=0,
                        help="added to the seed on every repeat (0 repeats one seed)")
    parser.add_argument("--label", default="", help="suffix of the result file's name")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return 1 if compare(*args.compare) else 0

    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    traces = [args.trace] if args.trace is not None else [0, 1]
    runs = []
    for repeat in range(args.repeat):
        seed = args.seed + repeat * args.seed_step
        for trace in traces:
            for name in names:
                runs.append(run_once(name, seed, args.seconds, trace))
    print_runs(runs[-len(names) * len(traces):])
    flags = print_spreads(runs) if args.repeat > 1 else 0
    report = write_bench_report(
        "_".join(filter(None, [
            "e2e", args.workload or "all", f"seed{args.seed}",
            None if args.trace is None else f"trace{args.trace}", args.label,
        ])),
        {"nproc": os.cpu_count(), "seed": args.seed, "seconds": args.seconds, "runs": runs},
        directory=RESULTS,
    )
    print(f"wrote {report}")
    failed = [run for run in runs if not run["correct"]]
    if args.workload and args.trace is not None:
        last = runs[-1]
        print(json.dumps({key: last[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 1 if failed or flags else 0


if __name__ == "__main__":
    sys.exit(main())
