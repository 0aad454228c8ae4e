"""Simulation-as-a-service: HTTP API, job queue, content-hash result cache.

The CLI answers one question per process; this package turns the
simulator into a long-running **service** that answers many concurrent
questions and never answers the same question twice:

* :mod:`repro.service.hashing` — resolves an incoming JSON run spec
  (arch config + workload + options) against the :class:`ArchConfig`
  machinery and derives its **content hash**: a stable sha256 over the
  fully-resolved semantic spec.  Identical questions get identical
  hashes.
* :mod:`repro.service.store` — an on-disk result store keyed by that
  hash, with atomic writes and verbatim byte serving, so a cached
  answer is returned bit-identically.
* :mod:`repro.service.queue` — a bounded worker pool that executes
  each job, in a process of its own, through the existing
  serial/sharded backends (:func:`repro.arch.build_backend`),
  de-duplicates concurrent identical submissions, stops a job at its
  timeout, and drains in-flight jobs on shutdown.
* :mod:`repro.service.api` — the stdlib-only
  (:class:`http.server.ThreadingHTTPServer`) JSON API over the above,
  started with ``python -m repro serve``.

Because the simulator is deterministic — pinned by the golden numbers,
canonical trace digests and the differential fuzzer (docs/testing.md) —
a cache hit is *exact*, not approximate: re-simulating an identical
spec would reproduce the stored result bit for bit.  That determinism
is what makes caching by content hash sound.  See docs/service.md for
the endpoint reference and the cache-identity semantics.
"""

from .api import SimulationService, serve_in_background
from .hashing import (
    SPEC_SCHEMA,
    ResolvedSpec,
    SpecError,
    canonical_json,
    canonical_spec,
    resolve_spec,
    spec_hash,
)
from .queue import Job, JobQueue, QueueFullError
from .store import ResultStore

__all__ = [
    "Job",
    "JobQueue",
    "QueueFullError",
    "ResolvedSpec",
    "ResultStore",
    "SPEC_SCHEMA",
    "SimulationService",
    "SpecError",
    "canonical_json",
    "canonical_spec",
    "resolve_spec",
    "serve_in_background",
    "spec_hash",
]
