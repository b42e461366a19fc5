"""The bench-summary aggregator: headline extraction and the artifact."""

from __future__ import annotations

import json

import pytest

from tools.bench_summary import HEADLINES, headline_for, main, summarize


def _write_artifact(directory, name: str, summary, **extra) -> None:
    payload = {"bench": name, "summary": summary, **extra}
    (directory / f"BENCH_{name}.json").write_text(
        json.dumps(payload), encoding="utf-8"
    )


class TestHeadlineFor:
    def test_override_paths_win(self):
        metric, value = headline_for("service_throughput", {"speedup": 2.5})
        assert (metric, value) == ("speedup", 2.5)

    def test_nested_override_path(self):
        summary = {"skew_recovery": {"cost_ratio": 0.6, "other": 1}}
        metric, value = headline_for("rebalance", summary)
        assert (metric, value) == ("skew_recovery/cost_ratio", 0.6)

    def test_override_miss_falls_back_to_scan(self):
        # A rebalance artifact without the expected section still yields
        # a deterministic headline from the ratio-named leaves.
        metric, value = headline_for("rebalance", {"read_speedup": 1.5})
        assert (metric, value) == ("read_speedup", 1.5)

    def test_fallback_prefers_shallowest_then_alphabetical(self):
        summary = {
            "deep": {"qps_ratio": 9.0},
            "z_ratio": 3.0,
            "a_speedup": 2.0,
            "unrelated": 7.0,
        }
        metric, value = headline_for("mystery", summary)
        assert (metric, value) == ("a_speedup", 2.0)

    def test_no_ratio_leaves_means_no_headline(self):
        assert headline_for("mystery", {"notes": "hi", "count": 3}) == (None, None)

    def test_booleans_are_not_headlines(self):
        assert headline_for("mystery", {"good_ratio": True}) == (None, None)

    def test_every_known_bench_has_an_override(self):
        # The map mirrors the benches under benchmarks/; keep it honest.
        assert set(HEADLINES) >= {"frontdoor", "shard_scaling", "failover"}


class TestSummarize:
    @pytest.fixture()
    def artifact_dir(self, tmp_path):
        _write_artifact(
            tmp_path,
            "service_throughput",
            {"speedup": 19.4},
            generated_at="2026-08-08T00:00:00+00:00",
            git_revision="abc123",
        )
        _write_artifact(tmp_path, "mystery", {"deep": {"qps_ratio": 1.5}})
        _write_artifact(tmp_path, "plain", {"notes": "no numbers"})
        (tmp_path / "BENCH_broken.json").write_text("{not json", encoding="utf-8")
        # A stale summary must never feed back into itself.
        (tmp_path / "BENCH_summary.json").write_text("{}", encoding="utf-8")
        return tmp_path

    def test_one_row_per_artifact_summary_excluded(self, artifact_dir):
        summary = summarize(artifact_dir)
        assert summary["artifacts"] == 4
        assert [row["bench"] for row in summary["benches"]] == [
            "BENCH_broken",
            "mystery",
            "plain",
            "service_throughput",
        ]

    def test_rows_carry_headline_and_provenance(self, artifact_dir):
        rows = {row["bench"]: row for row in summarize(artifact_dir)["benches"]}
        throughput = rows["service_throughput"]
        assert throughput["headline"] == 19.4
        assert throughput["headline_metric"] == "speedup"
        assert throughput["generated_at"] == "2026-08-08T00:00:00+00:00"
        assert throughput["git_revision"] == "abc123"
        assert rows["mystery"]["headline_metric"] == "deep/qps_ratio"
        assert rows["plain"]["headline"] is None

    def test_unreadable_artifact_becomes_an_error_row(self, artifact_dir):
        rows = {row["bench"]: row for row in summarize(artifact_dir)["benches"]}
        assert "error" in rows["BENCH_broken"]

    def test_summary_has_its_own_provenance(self, artifact_dir):
        summary = summarize(artifact_dir)
        assert summary["generated_at"]
        assert "git_revision" in summary


class TestMain:
    def test_writes_summary_and_prints_table(self, tmp_path, capsys):
        _write_artifact(tmp_path, "frontdoor", {"coalesce_qps_ratio": 5.4})
        assert main(["--dir", str(tmp_path)]) == 0
        payload = json.loads(
            (tmp_path / "BENCH_summary.json").read_text(encoding="utf-8")
        )
        assert payload["artifacts"] == 1
        assert payload["benches"][0]["headline"] == 5.4
        out = capsys.readouterr().out
        assert "frontdoor" in out
        assert "coalesce_qps_ratio" in out

    def test_explicit_output_path(self, tmp_path):
        _write_artifact(tmp_path, "frontdoor", {"coalesce_qps_ratio": 5.4})
        output = tmp_path / "elsewhere" / "trajectory.json"
        assert main(["--dir", str(tmp_path), "--output", str(output)]) == 0
        assert json.loads(output.read_text(encoding="utf-8"))["artifacts"] == 1

    def test_missing_directory_is_a_clean_noop(self, tmp_path, capsys):
        assert main(["--dir", str(tmp_path / "nope")]) == 0
        assert "nothing to summarize" in capsys.readouterr().out
