"""Bulk ingest: the million-record load path.

Streaming record generation (:mod:`repro.ingest.generator`) plus a
staged pipeline (:mod:`repro.ingest.pipeline`) that drives the kernel's
BULK-INSERT path — batched journaling, one fsync per commit, deferred index
builds — at a measured records/second rate.
"""

from repro.ingest.generator import stream_university_records
from repro.ingest.pipeline import IngestPipeline, IngestReport, bulk_load

__all__ = [
    "IngestPipeline",
    "IngestReport",
    "bulk_load",
    "stream_university_records",
]
