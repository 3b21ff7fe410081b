"""Content-addressed run store: fingerprints, blobs, manifest, memo.

Every simulator run is deterministic given ``(scenario, seed)``, so its
KPI dictionary can be stored once and served forever.  This package
turns that into infrastructure:

* :mod:`repro.store.fingerprint` — canonical scenario hashing.
* :mod:`repro.store.blobstore` — sharded, atomic, gzip'd object store.
* :mod:`repro.store.index` — JSONL manifest with hit accounting,
  followed incrementally from its journal's tail.
* :mod:`repro.store.runcache` — memoized ``replicate`` /
  ``compare_scenarios`` / ``run_sweep`` with resumable sweeps.

Quick use::

    from repro.store import RunCache

    cache = RunCache(".repro-cache")
    result = cache.compare_scenarios(treatment, control, seeds=range(20))
    cache.stats()   # fingerprints, runs, hits, bytes on disk
"""

from repro.store.blobstore import BlobStats, BlobStore
from repro.store.fingerprint import (
    canonical_json,
    config_fingerprint,
    scenario_fingerprint,
    scenario_fingerprints,
    scenario_payload,
    scenario_summary,
)
from repro.store.index import IndexEntry, IndexStats, RunIndex
from repro.store.runcache import DEFAULT_CACHE_DIR, CacheStats, RunCache

__all__ = [
    "BlobStats",
    "BlobStore",
    "CacheStats",
    "DEFAULT_CACHE_DIR",
    "IndexEntry",
    "IndexStats",
    "RunCache",
    "RunIndex",
    "canonical_json",
    "config_fingerprint",
    "scenario_fingerprint",
    "scenario_fingerprints",
    "scenario_payload",
    "scenario_summary",
]
