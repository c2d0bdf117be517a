"""Record -> replay integration: the flight recorder's determinism contract."""

import pytest

from repro.core import MQAConfig
from repro.core.coordinator import Coordinator
from repro.data import DatasetSpec
from repro.data.objects import RawQuery
from repro.observability.replay import (
    ReplayError,
    ReplayReport,
    replay_recording,
    span_paths,
)


def recording_config(tmp_path, **overrides):
    # No prebuilt knowledge base: the recording's config must be able to
    # rebuild the identical corpus from the dataset seed alone.
    kwargs = dict(
        dataset=DatasetSpec(domain="scenes", size=60, seed=11),
        weight_learning={"steps": 8, "batch_size": 8, "n_negatives": 4},
        index_params={"m": 6, "ef_construction": 32},
        recorder_path=str(tmp_path / "flight.jsonl"),
    )
    kwargs.update(overrides)
    return MQAConfig(**kwargs)


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("replay")
    config = recording_config(tmp_path)
    coordinator = Coordinator(config).setup()
    texts = ["foggy clouds", "sunny shoreline", "stormy mountain pass"]
    for text in texts:
        coordinator.handle_query(RawQuery.from_text(text))
    return config.recorder_path, texts


class TestSpanPaths:
    def test_depth_first_paths(self):
        tree = {
            "name": "query",
            "children": [
                {"name": "retrieval", "children": [{"name": "encode", "children": []}]},
                {"name": "generation", "children": []},
            ],
        }
        assert span_paths(tree) == [
            "query",
            "query;retrieval",
            "query;retrieval;encode",
            "query;generation",
        ]

    def test_none_tree(self):
        assert span_paths(None) == []


class TestReplayDeterminism:
    def test_replay_reproduces_ids_and_span_shape(self, recorded):
        path, texts = recorded
        reports = replay_recording(path)
        assert len(reports) == len(texts)
        for report in reports:
            assert report.skipped is None
            assert report.ids_match, report.render()
            assert report.spans_match, report.render()
            assert report.clean
            assert report.recorded_ids  # non-trivial: something was retrieved
            assert "query" in report.recorded_paths[0]

    def test_single_trace_id_selection(self, recorded):
        path, _ = recorded
        reports = replay_recording(path, trace_id=1)
        assert len(reports) == 1
        assert reports[0].trace_id == 1
        assert reports[0].clean

    def test_unknown_trace_id_raises(self, recorded):
        path, _ = recorded
        with pytest.raises(ReplayError, match="trace id 99"):
            replay_recording(path, trace_id=99)

    def test_drift_is_reported_not_hidden(self, recorded, tmp_path):
        # Tamper with a recorded entry; the replay must flag the drift.
        import json

        path, _ = recorded
        lines = [json.loads(line) for line in open(path, encoding="utf-8")]
        for record in lines:
            if record["kind"] == "query":
                record["result_ids"] = [424242]
        tampered = tmp_path / "tampered.jsonl"
        tampered.write_text(
            "\n".join(json.dumps(record) for record in lines) + "\n"
        )
        reports = replay_recording(tampered)
        assert all(not report.ids_match for report in reports)
        assert all(not report.clean for report in reports)
        assert "DRIFT" in reports[0].render()


class TestReplayEdgeCases:
    def test_filtered_entries_are_skipped(self, tmp_path):
        config = recording_config(tmp_path)
        coordinator = Coordinator(config).setup()
        coordinator.handle_query(
            RawQuery.from_text("foggy clouds"),
            where=lambda obj: True,
        )
        reports = replay_recording(config.recorder_path, coordinator=coordinator)
        assert reports[0].skipped is not None
        assert not reports[0].clean
        assert "SKIPPED" in reports[0].render()

    def test_image_queries_replay(self, tmp_path):
        config = recording_config(tmp_path)
        coordinator = Coordinator(config).setup()
        image = coordinator.kb.get(3).get("image")
        coordinator.handle_query(
            RawQuery.from_text_and_image("something like this", image)
        )
        # Re-use the live coordinator: replay must rebuild the image query
        # from the recorded array payload.  Drop the warm query cache first —
        # a cache hit would (legitimately) shorten the replayed span tree.
        coordinator.execution.cache.invalidate()
        reports = replay_recording(config.recorder_path, coordinator=coordinator)
        assert reports[0].ids_match
        assert reports[0].spans_match

    def test_empty_recording_raises(self, tmp_path):
        from repro.observability import FlightRecorder

        path = tmp_path / "empty.jsonl"
        FlightRecorder(path, config={"dataset": {}})
        with pytest.raises(ReplayError, match="no query entries"):
            replay_recording(path)

    def test_headerless_recording_needs_coordinator(self, tmp_path):
        path = tmp_path / "headerless.jsonl"
        path.write_text('{"kind": "query", "trace_id": 0, "request": {"text": "x"}}\n')
        with pytest.raises(ReplayError, match="header"):
            replay_recording(path)


class TestReplayReportRendering:
    def test_clean_render(self):
        report = ReplayReport(
            trace_id=0,
            recorded_ids=[1, 2],
            replayed_ids=[1, 2],
            recorded_paths=["query"],
            replayed_paths=["query"],
        )
        assert "clean" in report.render()

    def test_span_drift_lists_missing_and_extra(self):
        report = ReplayReport(
            trace_id=0,
            recorded_ids=[1],
            replayed_ids=[1],
            recorded_paths=["query", "query;rewrite"],
            replayed_paths=["query", "query;generation"],
        )
        rendered = report.render()
        assert "missing" in rendered and "query;rewrite" in rendered
        assert "extra" in rendered and "query;generation" in rendered


class TestTopologyValidation:
    def test_mismatched_topology_rejected_with_field_diff(self, recorded):
        # Recording was made unsharded; a live sharded coordinator must be
        # rejected up front with a field-by-field diff, not reported as
        # span-tree drift entry by entry.
        path, _ = recorded
        config = MQAConfig(
            dataset=DatasetSpec(domain="scenes", size=60, seed=11),
            weight_learning={"steps": 8, "batch_size": 8, "n_negatives": 4},
            shards=4,
        )
        live = Coordinator(config).setup()
        with pytest.raises(ReplayError, match="topology mismatch") as excinfo:
            replay_recording(path, coordinator=live)
        message = str(excinfo.value)
        assert "shards: recorded None != live 4" in message

    def test_matching_topology_passes(self, recorded, tmp_path):
        path, texts = recorded
        config = recording_config(tmp_path)
        coordinator = Coordinator(config).setup()
        reports = replay_recording(path, coordinator=coordinator)
        assert len(reports) == len(texts)
        assert all(report.ids_match for report in reports)

    def test_headerless_recording_skips_validation(self, tmp_path):
        from repro.observability.replay import validate_topology

        class _Live:
            class config:
                shards = 4

        # No header at all, and a header without config: both pass.
        validate_topology(None, _Live())
        validate_topology({"config": {}}, _Live())


def _first_tree(change):
    """Corrupt the first recorded span tree (or one of its children)."""
    def corrupt(records):
        change(next(r for r in records if r["kind"] == "query")["span_tree"])
        return records
    return corrupt


def _header_config(value):
    def corrupt(records):
        header = records[0]
        header["config"] = value(header["config"])
        return records
    return corrupt


#: A recording that is not one, by where it breaks.  Every case escaped
#: ``repro profile`` / ``repro replay`` as a traceback before it was refused.
CORRUPT_FILES = {
    "a-number-line": lambda records: records + [5],
    "a-list-line": lambda records: records + [[1, 2]],
    "a-span-without-name": _first_tree(lambda tree: tree["children"][0].pop("name")),
    "children-not-a-list": _first_tree(lambda tree: tree.update(children=5)),
    "duration-not-a-number": _first_tree(lambda tree: tree.update(duration_ms="x")),
}
#: ``repro profile`` reads no header; only ``repro replay`` rebuilds from it.
CORRUPT_HEADERS = {
    "config-a-number": _header_config(lambda config: 5),
    "config-a-list": _header_config(lambda config: [1]),
    "config-an-unknown-key": _header_config(lambda config: {**config, "bogus": 1}),
    "config-out-of-range": _header_config(lambda config: {**config, "workers": 0}),
}


class TestCorruptRecordings:
    """A corrupt recording is a typed error, printed as ``error: …`` with
    exit status 1 — never a traceback."""

    @pytest.mark.parametrize("command, case", [
        *[(command, case) for command in ("profile", "replay") for case in CORRUPT_FILES],
        *[("replay", case) for case in CORRUPT_HEADERS],
    ])
    def test_refused_with_a_message(self, recorded, tmp_path, capsys, command, case):
        import json

        from repro.cli import main

        path, _ = recorded
        records = [json.loads(line) for line in open(path, encoding="utf-8")]
        records = {**CORRUPT_FILES, **CORRUPT_HEADERS}[case](records)
        corrupt = tmp_path / "corrupt.jsonl"
        corrupt.write_text("".join(json.dumps(record) + "\n" for record in records))
        assert main([command, str(corrupt)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
