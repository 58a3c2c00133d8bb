"""The streaming ingest pipeline: batching, reporting, CLI surface."""

from __future__ import annotations

from itertools import islice

import pytest

from repro.cli import MLDSShell, build_parser
from repro.core.mlds import MLDS
from repro.ingest import IngestPipeline, bulk_load, stream_university_records
from repro.obs import Observability
from repro.wal.log import WalManager


class TestGenerator:
    def test_deterministic(self):
        a = [tuple(r.pairs()) for r in stream_university_records(500)]
        b = [tuple(r.pairs()) for r in stream_university_records(500)]
        assert a == b

    def test_seed_changes_the_stream(self):
        a = [tuple(r.pairs()) for r in stream_university_records(100)]
        b = [tuple(r.pairs()) for r in stream_university_records(100, seed=7)]
        assert a != b

    def test_streaming_not_materialized(self):
        """Pulling 10 records off a billion-record stream is instant."""
        stream = stream_university_records(1_000_000_000)
        head = list(islice(stream, 10))
        assert len(head) == 10

    def test_ids_unique_and_sequential(self):
        ids = [r.get("ID") for r in stream_university_records(200)]
        assert ids == list(range(200))

    def test_university_file_mix(self):
        files = {r.file_name for r in stream_university_records(100)}
        assert files == {"student", "faculty", "support_staff", "course", "department"}
        students = sum(
            1 for r in stream_university_records(100) if r.file_name == "student"
        )
        assert students == 50  # the dominant file, as in the population

    def test_every_record_pinned_to_a_file(self):
        assert all(r.file_name for r in stream_university_records(100))


class TestPipeline:
    def test_batches_cover_the_stream(self):
        mlds = MLDS(backend_count=3)
        try:
            report = bulk_load(
                mlds.kds, stream_university_records(2_500), batch_size=1_000
            )
            assert report.records == 2_500
            assert report.batches == 3  # 1000 + 1000 + 500
            assert mlds.kds.record_count() == 2_500
        finally:
            mlds.kds.shutdown()

    def test_report_counts_wal_work(self, tmp_path):
        obs = Observability()
        wal = WalManager(tmp_path / "wal", 3, sync=True, group_window_ms=0.0)
        mlds = MLDS(backend_count=3, wal=wal, obs=obs)
        try:
            report = bulk_load(
                mlds.kds, stream_university_records(2_000), batch_size=500
            )
            assert report.commits == 4  # one auto-commit per batch
            assert report.group_commits == 4
            assert report.fsyncs > 0
            assert report.fsyncs_per_commit == report.fsyncs / report.commits
            assert report.records_per_second > 0
            payload = report.as_dict()
            assert payload["records"] == 2_000
            assert payload["batches"] == 4
        finally:
            mlds.kds.shutdown()

    def test_rejects_bad_batch_size(self):
        mlds = MLDS(backend_count=1)
        try:
            with pytest.raises(ValueError):
                IngestPipeline(mlds.kds, batch_size=0)
        finally:
            mlds.kds.shutdown()

    def test_session_scoped_ingest(self, tmp_path):
        """A pipeline bound to a session runs under concurrency control."""
        wal = WalManager(tmp_path / "wal", 2)
        mlds = MLDS(backend_count=2, wal=wal)
        try:
            session = mlds.kds.create_session("loader")
            report = bulk_load(
                mlds.kds,
                stream_university_records(600),
                batch_size=200,
                session=session,
            )
            assert report.records == 600
            assert session.requests_executed == 3
            assert mlds.kds.record_count() == 600
        finally:
            mlds.kds.shutdown()

    def test_stage_metrics_recorded(self):
        obs = Observability()
        mlds = MLDS(backend_count=2, obs=obs)
        try:
            bulk_load(mlds.kds, stream_university_records(400), batch_size=100)
            registry = obs.metrics.as_dict()
            assert registry["ingest.records"]["value"] == 400.0
            assert registry["ingest.batches"]["value"] == 4.0
            assert registry["ingest.batch_wall_ms"]["count"] == 4
        finally:
            mlds.kds.shutdown()


    def test_generator_exception_propagates(self):
        def exploding():
            yield from stream_university_records(600)
            raise RuntimeError("stream went bad")

        mlds = MLDS(backend_count=2)
        try:
            with pytest.raises(RuntimeError, match="stream went bad"):
                bulk_load(mlds.kds, exploding(), batch_size=100)
            # Every full batch pulled before the failure was still ingested.
            assert mlds.kds.record_count() == 600
        finally:
            mlds.kds.shutdown()


class TestCliSurface:
    def test_ingest_dot_command(self):
        shell = MLDSShell(MLDS(backend_count=2))
        try:
            output = shell.handle_line(".ingest 300 100")
            assert "ingested 300 records in 3 batch(es)" in output
            assert shell.mlds.kds.record_count() == 300
        finally:
            shell.mlds.kds.shutdown()

    def test_ingest_usage_errors(self):
        shell = MLDSShell(MLDS(backend_count=1))
        try:
            assert "usage" in shell.handle_line(".ingest")
            assert "usage" in shell.handle_line(".ingest nope")
            assert "usage" in shell.handle_line(".ingest 0")
            assert "usage" in shell.handle_line(".ingest 10 0")
            assert shell.mlds.kds.record_count() == 0
        finally:
            shell.mlds.kds.shutdown()

    def test_parser_accepts_bulk_load_flags(self):
        parser = build_parser()
        args = parser.parse_args(
            ["--bulk-load", "100000", "--bulk-batch", "5000", "--group-window-ms", "2"]
        )
        assert args.bulk_load == 100_000
        assert args.bulk_batch == 5_000
        assert args.group_window_ms == 2.0
