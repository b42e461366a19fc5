"""Self-test of the socket-level benchmark harness (seconds, no real tier).

Pins what the benchmark's numbers rest on: that open-loop latency is
timed from the due time (so a stall is charged to every read it
delays), the quiet-slice and span self-time arithmetic, that a seed
fixes the inputs, and that the names the harness reports are exactly
the names ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import asyncio
import json
from types import SimpleNamespace

import layers
import loadgen
import measure
import run
import workloads
from loadgen import Read, Recording, Write


# ----------------------------------------------------------------------
# Latency from the due time shows a stall; from the send time it hides
# ----------------------------------------------------------------------
async def _stalling_server(stall_on: int, stall_seconds: float):
    """A stub HTTP server that answers at once, except for one request."""
    seen = 0

    async def handle(reader, writer):
        nonlocal seen
        while await reader.readline():
            length = 0
            while (line := await reader.readline()) not in (b"\r\n", b""):
                if line.lower().startswith(b"content-length:"):
                    length = int(line.split(b":")[1])
            await reader.readexactly(length)
            seen += 1
            if seen == stall_on:
                await asyncio.sleep(stall_seconds)
            body = b'{"ids": []}'
            writer.write(
                b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body)
            )
            await writer.drain()
        writer.close()

    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    return server, server.sockets[0].getsockname()[1]


def test_latency_from_due_time_shows_a_stall_that_send_time_hides():
    async def scenario() -> list[Read]:
        server, port = await _stalling_server(stall_on=50, stall_seconds=0.2)
        connection = await loadgen.HttpConnection.open(port)
        reads: list[Read] = []
        offsets = [i / 200.0 for i in range(200)]  # 200 reads/s for one second
        try:
            await loadgen.open_loop(
                [connection], [loadgen.encode_query("/a")], [0] * len(offsets),
                loadgen.now() + 0.05, offsets, "open", reads,
            )
        finally:
            connection._writer.close()
            server.close()
            await server.wait_closed()
        return reads

    reads = asyncio.run(scenario())
    assert len(reads) == 200 and all(read.status == 200 for read in reads)
    from_due = measure.percentile([read.latency_ms / 1e3 for read in reads], 0.95)
    from_send = measure.percentile([read.done - read.sent for read in reads], 0.95)
    # The 200 ms stall delays the ~40 reads due behind it: a fifth of the
    # window, so the p95 from the due time sits inside the stall ...
    assert from_due > 0.10
    # ... while from the send time only the stalled read itself is slow.
    assert from_send < 0.05


# ----------------------------------------------------------------------
# Arithmetic on hand-built inputs
# ----------------------------------------------------------------------
def test_percentile_interpolates_between_ranks():
    assert measure.percentile([1, 2, 3, 4, 5], 0.5) == 3
    assert measure.percentile([10, 20], 0.25) == 12.5
    assert measure.percentile([7], 0.99) == 7


def test_quiet_median_is_read_off_the_undisturbed_slices():
    # Two 2 s windows of 200 reads/s, so sixteen 0.25 s slices of 50:
    # 1 ms everywhere, but 5 ms through the whole first window and the
    # first half of the second.
    windows = [(0.0, 2.0), (10.0, 2.0)]
    samples = [(start + i / 200, 5.0 if start == 0.0 or i < 200 else 1.0)
               for start, _seconds in windows for i in range(400)]
    assert [len(bucket) for bucket, _ in measure.window_slices(samples, windows)] == [50] * 16
    assert measure.quiet_median(samples, windows) == 1.0
    assert measure.percentile([ms for _, ms in samples], 0.5) == 5.0  # the whole run
    # One lucky slice does not set the figure; the low decile of 16 sits on the second.
    lucky = [(at, 0.2 if 11.0 <= at < 11.25 else ms) for at, ms in samples]
    assert measure.quiet_median(lucky, windows) == 1.0
    assert measure.quiet_median([], windows) is None
    assert measure.quiet_median([(99.0, 1.0)], windows) is None  # outside every window
    # A thin stream is cut by count, not by time: 100 samples make two slices.
    thin = [(i / 50, 1.0) for i in range(100)]
    assert [len(bucket) for bucket, _ in measure.window_slices(thin, [(0.0, 2.0)])] == [50, 50]


def test_peak_rate_is_the_fastest_slice_from_first_event_to_last():
    # A 0.4 s window, four 0.1 s slices of 50, 150, 100 and 100 completions.
    times = (
        [i / 500 for i in range(50)] + [0.1 + i / 1500 for i in range(150)]
        + [0.2 + i / 1000 for i in range(200)]
    )
    assert [len(bucket) for bucket, _ in
            measure.window_slices([(at, at) for at in times], [(0.0, 0.4)], 0.1)] == [50, 150, 100, 100]
    assert round(measure.peak_rate(times, [(0.0, 0.4)]), 6) == 1500.0
    # Two completions a millisecond apart after a pause are no rate of 1000/s.
    assert measure.peak_rate([0.050, 0.051], [(0.0, 0.4)]) is None


def _span(name, started, ended, *children):
    return SimpleNamespace(name=name, started=started, ended=ended, children=list(children))


def test_self_time_subtracts_the_union_of_child_intervals():
    # Two parallel legs overlap on [3, 5]; together they cover [1, 7] of scatter.
    scatter = _span("scatter", 0.0, 8.0, _span("shard", 1.0, 5.0), _span("shard", 3.0, 7.0))
    root = _span("query", 0.0, 10.0, scatter, _span("gather", 8.0, 9.5))
    folded = measure.self_times(root)
    assert sorted(folded) == sorted(
        [("query", 0.5), ("scatter", 2.0), ("shard", 4.0), ("shard", 4.0), ("gather", 1.5)]
    )
    assert measure.covered([(0, 2), (1, 3), (5, 6)], 0, 10) == 4
    assert measure.covered([(-5, 20)], 0, 10) == 10  # clipped to the parent


def test_span_fold_reports_every_named_span_per_request():
    def trace(scale):
        leg = _span("shard", 1.0 * scale, 2.0 * scale)
        return SimpleNamespace(root=_span("frontdoor", 0.0, 4.0 * scale, leg))

    folded = layers.span_self_times([trace(1e-6), trace(3e-6), trace(2e-6)])
    assert set(folded) == {f"obs.span.{name}.self_us" for name in layers.SPAN_NAMES}
    assert round(folded["obs.span.frontdoor.self_us"], 6) == 6.0  # median of 3, 9, 6
    assert round(folded["obs.span.shard.self_us"], 6) == 2.0
    assert folded["obs.span.execute.self_us"] == 0.0  # a span no request opened


def test_spread_reports_quartiles_like_the_contract():
    stats = measure.spread([10.0, 11.0, 12.0, 13.0, 14.0])
    assert stats["median"] == 12.0
    assert (stats["q1"], stats["q3"]) == (10.5, 13.5)
    assert stats["iqr_share"] == 0.25
    assert round(stats["range_share"], 6) == round(4 / 12, 6)


# ----------------------------------------------------------------------
# A seed fixes the inputs
# ----------------------------------------------------------------------
def test_inputs_are_a_function_of_the_seed():
    def inputs(seed):
        documents = workloads.corpus_documents(seed)
        mix = workloads.ReadMix(seed, workloads.WORKLOADS["hot_hits"], documents)
        ops = workloads.write_ops(seed)
        return (
            workloads.as_named_xml(documents)[0],
            mix.take(50),
            workloads.poisson_offsets(seed, "hot_hits/open", 300.0, 0.5),
            [next(ops) for _ in range(3)],
        )

    assert inputs(11) == inputs(11)
    first, second = inputs(11), inputs(12)
    assert all(a != b for a, b in zip(first, second))
    offsets = first[2]
    assert offsets == sorted(offsets) and 0 < offsets[0] and offsets[-1] < 0.5


def test_cold_pool_is_distinct_and_never_repeats_within_a_run():
    documents = workloads.corpus_documents(5)
    mix = workloads.ReadMix(5, workloads.WORKLOADS["cold_twigs"], documents)
    assert len(set(mix.xpaths)) == workloads.COLD_POOL_SIZE
    drawn = mix.take(3000)
    assert len(set(drawn)) == 3000
    assert set(mix.check_sample()) <= set(drawn)  # the check re-reads issued xpaths


# ----------------------------------------------------------------------
# Reported names are the declared names
# ----------------------------------------------------------------------
def _tiny_recording() -> Recording:
    workload = workloads.WORKLOADS["mixed_rw"]
    recording = Recording(workload, loadgen.phase_seconds(workload, 10.0))
    recording.open_windows, recording.closed_windows = [(1.0, 1.0)], [(7.0, 1.0)]
    recording.reads = [Read("open", 0, 1.0 + i / 100, 1.0 + i / 100, 1.001 + i / 100, 200, ())
                       for i in range(100)]
    recording.reads += [Read("closed", 0, 7.0 + i / 100, 7.0 + i / 100, 7.001 + i / 100, 200, ())
                        for i in range(100)]
    recording.writes = [Write("add", "d", "<a/>", 2.0, 2.0, 2.1, True),
                        Write("replace", "d", "<a/>", 3.0, 3.0, 3.2, True),
                        Write("remove", "d", None, 4.0, 4.0, 4.3, True)]
    recording.counters = {"peak_rss_kb": 2048}
    return recording


def test_reported_names_equal_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in workloads.WORKLOADS.values()]
    assert spec["paths"] == ["benchmarks/e2e"] and spec["command"][-1] == "benchmarks/e2e/run.py"

    summary = loadgen.summarize(_tiny_recording())
    assert round(summary["write_p50_ms"], 6) == 200.0 and summary["read_slo_ok_share"] == 1.0
    assert round(summary["read_p50_ms"], 6) == 1.0
    assert round(summary["read_capacity_qps"], 6) == 100.0
    assert round(summary["loadgen.write_docs_per_s"], 6) == 5.0
    end_to_end = {metric["name"] for metric in spec["end_to_end"]}
    assert end_to_end - {"setup_s"} == {name for name in summary if "." not in name} - {
        "attempted", "failed"
    }

    counters = layers.counter_metrics({
        "served": 10, "rejected": 0, "coalesced": 1, "queue_peak": 0, "invalidations": 2,
        "reads_retried": 0, "replica_reads": 40,
        "caches": {"result_cache": {"hits": 9, "misses": 1}, "plan_cache": {"hits": 0, "misses": 0}},
    })
    assert counters["service.result_hit_rate"] == 0.9
    reported = (
        set(layers.TIMED_METRICS)
        | set(counters)
        | {f"obs.span.{name}.self_us" for name in layers.SPAN_NAMES}
        | {name for name in summary if name.startswith("loadgen.")}
    )
    assert {metric["name"] for metric in spec["per_layer"]} == reported
