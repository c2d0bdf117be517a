"""Tests for the flight recorder's JSONL sink and rotation."""

import json

import numpy as np
import pytest

from repro.observability import FlightRecorder, read_recording

SPAN = {"name": "query", "duration_ms": 1.0, "attributes": {}, "children": []}


class TestFlightRecorder:
    def test_header_then_entries(self, tmp_path):
        path = tmp_path / "flight.jsonl"
        recorder = FlightRecorder(path, config={"index": "hnsw"})
        recorder.record({"text": "hello"}, [1, 2], SPAN, answer={"text": "hi"})
        header, entries = read_recording(path)
        assert header["kind"] == "header"
        assert header["version"] == 1
        assert header["config"] == {"index": "hnsw"}
        assert len(entries) == 1
        assert entries[0]["trace_id"] == 0
        assert entries[0]["result_ids"] == [1, 2]
        assert entries[0]["span_tree"]["name"] == "query"

    def test_trace_ids_increment(self, tmp_path):
        recorder = FlightRecorder(tmp_path / "f.jsonl")
        ids = [recorder.record({"text": str(i)}, [], None) for i in range(3)]
        assert ids == [0, 1, 2]
        assert recorder.records_written == 3

    def test_numpy_payloads_serialise(self, tmp_path):
        path = tmp_path / "f.jsonl"
        recorder = FlightRecorder(path)
        image = np.arange(6, dtype=np.float64).reshape(2, 3)
        recorder.record({"image": image, "k": np.int64(5)}, [np.int64(7)], None)
        _, entries = read_recording(path)
        assert entries[0]["request"]["image"] == [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]]
        assert entries[0]["result_ids"] == [7]

    def test_rotation_caps_active_file(self, tmp_path):
        path = tmp_path / "f.jsonl"
        recorder = FlightRecorder(path, config={"pad": "x" * 100}, max_bytes=1024, max_files=2)
        for i in range(40):
            recorder.record({"text": f"query {i}", "pad": "y" * 64}, [i], None)
        assert recorder.rotations >= 1
        assert (tmp_path / "f.jsonl.1").exists()
        # Every generation is independently replayable: header present.
        for candidate in (path, tmp_path / "f.jsonl.1"):
            header, _ = read_recording(candidate)
            assert header is not None
        # No generation beyond max_files survives.
        assert not (tmp_path / "f.jsonl.3").exists()

    def test_appends_to_existing_file_without_second_header(self, tmp_path):
        path = tmp_path / "f.jsonl"
        FlightRecorder(path).record({"text": "a"}, [], None)
        FlightRecorder(path).record({"text": "b"}, [], None)
        headers = [
            json.loads(line)
            for line in path.read_text().splitlines()
            if json.loads(line)["kind"] == "header"
        ]
        assert len(headers) == 1

    def test_validates_limits(self, tmp_path):
        with pytest.raises(ValueError):
            FlightRecorder(tmp_path / "f.jsonl", max_bytes=10)
        with pytest.raises(ValueError):
            FlightRecorder(tmp_path / "f.jsonl", max_files=0)

    def test_snapshot(self, tmp_path):
        recorder = FlightRecorder(tmp_path / "f.jsonl")
        recorder.record({"text": "a"}, [], None)
        snapshot = recorder.snapshot()
        assert snapshot["records_written"] == 1
        assert snapshot["active_bytes"] > 0


class TestReadRecording:
    def test_skips_blank_lines(self, tmp_path):
        path = tmp_path / "f.jsonl"
        path.write_text('{"kind": "header", "config": {}}\n\n{"kind": "query", "trace_id": 0}\n')
        header, entries = read_recording(path)
        assert header is not None
        assert len(entries) == 1

    def test_rejects_corrupt_lines(self, tmp_path):
        path = tmp_path / "f.jsonl"
        path.write_text('{"kind": "header"}\nnot json\n')
        with pytest.raises(ValueError, match="2"):
            read_recording(path)

    def test_headerless_file(self, tmp_path):
        path = tmp_path / "f.jsonl"
        path.write_text('{"kind": "query", "trace_id": 4}\n')
        header, entries = read_recording(path)
        assert header is None
        assert entries[0]["trace_id"] == 4


class _BrokenHandle:
    """A file handle whose every operation fails like a full disk."""

    def write(self, data):
        raise OSError("disk full")

    def flush(self):
        raise OSError("disk full")

    def close(self):
        raise OSError("disk full")


class TestRecorderIOFailures:
    """Recording is a side-channel: I/O failures are counted, not raised."""

    def _broken_recorder(self, tmp_path):
        from repro.observability import MetricsRegistry

        metrics = MetricsRegistry()
        recorder = FlightRecorder(tmp_path / "f.jsonl", metrics=metrics)
        recorder._handle = _BrokenHandle()
        return recorder, metrics

    def test_failed_write_is_counted_not_raised(self, tmp_path):
        recorder, metrics = self._broken_recorder(tmp_path)
        trace_id = recorder.record({"text": "doomed"}, [1], None)
        assert trace_id == 0  # the query still got its trace id
        assert recorder.errors == 1
        assert recorder.records_written == 0
        assert metrics.snapshot()["counters"]["recorder.errors"] == 1

    def test_recovery_after_failure(self, tmp_path):
        recorder, metrics = self._broken_recorder(tmp_path)
        recorder.record({"text": "doomed"}, [], None)
        recorder._handle = None  # the next append re-opens the file
        recorder.record({"text": "fine"}, [2], None)
        assert recorder.errors == 1
        assert recorder.records_written == 1
        _, entries = read_recording(recorder.path)
        assert entries[-1]["result_ids"] == [2]

    def test_failed_close_is_counted_not_raised(self, tmp_path):
        recorder, metrics = self._broken_recorder(tmp_path)
        recorder.close()
        assert recorder.errors == 1
        assert recorder._handle is None
        recorder.close()  # idempotent: the broken handle is gone
        assert recorder.errors == 1

    def test_errors_appear_in_snapshot(self, tmp_path):
        recorder, _ = self._broken_recorder(tmp_path)
        recorder.record({"text": "doomed"}, [], None)
        assert recorder.snapshot()["errors"] == 1

    def test_no_metrics_registry_still_counts(self, tmp_path):
        recorder = FlightRecorder(tmp_path / "f.jsonl")
        recorder._handle = _BrokenHandle()
        recorder.record({"text": "doomed"}, [], None)
        assert recorder.errors == 1


class TestRoundIsRecordedWithItsOwnTrace:
    def test_two_rounds_closing_before_either_records(
        self, tmp_path, scenes_kb, monkeypatch
    ):
        """With two workers a second round can finish between a round's
        trace closing and its flight being written; each entry must still
        carry its own round's span tree, not the tracer's latest."""
        import threading

        from repro.core import MQAConfig
        from repro.core.coordinator import Coordinator
        from repro.data import DatasetSpec, RawQuery

        path = tmp_path / "flight.jsonl"
        coordinator = Coordinator(
            MQAConfig(
                dataset=DatasetSpec(domain="scenes", size=120, seed=7),
                weight_learning={"steps": 12, "batch_size": 8, "n_negatives": 4},
                index_params={"m": 6, "ef_construction": 32},
                recorder_path=str(path),
            ),
            knowledge_base=scenes_kb,
        ).setup()
        barrier = threading.Barrier(2)
        observe = Coordinator._observe

        def observe_once_both_traces_closed(self, context):
            barrier.wait(timeout=30)
            observe(self, context)

        monkeypatch.setattr(Coordinator, "_observe", observe_once_both_traces_closed)
        failures = []

        def ask(text, round_index):
            try:
                coordinator.handle_query(
                    RawQuery.from_text(text), round_index=round_index
                )
            except Exception as exc:  # surfaced by the assertion below
                failures.append(exc)

        threads = [
            threading.Thread(target=ask, args=("foggy clouds", 1)),
            threading.Thread(target=ask, args=("sunny shoreline", 2)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not failures and not any(thread.is_alive() for thread in threads)
        _, entries = read_recording(path)
        assert sorted(e["request"]["round_index"] for e in entries) == [1, 2]
        for entry in entries:
            root = entry["span_tree"]
            assert root["attributes"]["round"] == entry["request"]["round_index"]
