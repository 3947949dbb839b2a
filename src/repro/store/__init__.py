"""Content-addressed artifact store: blobs, refs and run manifests.

This package is the persistence tier of the reproduction.  It knows nothing
about sweep points or circuits — it stores bytes under their own SHA-256
(``blobs/``), maps content keys to blobs (``refs/``) and records
schema-validated run manifests (``manifests/``).  The runner's
:class:`~repro.runner.ParallelExecutor` (behind every evaluation function
and CLI verb that takes ``store=`` or ``--cache-dir``) and the sweep service
(:mod:`repro.service`) are its two clients.

Layout, atomicity and audit semantics are documented on
:class:`ArtifactStore`; the manifest schema lives in
:mod:`repro.store.manifest`.
"""

from repro.store.artifacts import (
    STORE_FORMAT_VERSION,
    ArtifactStore,
    GCReport,
    StoreStats,
    VerifyReport,
    wait_for,
)
from repro.store.manifest import (
    MANIFEST_SCHEMA,
    MANIFEST_SCHEMA_VERSION,
    build_manifest,
    new_manifest_id,
    plan_fingerprint,
    validate_manifest,
)
from repro.store.schema import SchemaError, validate

__all__ = [
    "ArtifactStore",
    "GCReport",
    "MANIFEST_SCHEMA",
    "MANIFEST_SCHEMA_VERSION",
    "STORE_FORMAT_VERSION",
    "SchemaError",
    "StoreStats",
    "VerifyReport",
    "build_manifest",
    "new_manifest_id",
    "plan_fingerprint",
    "validate",
    "validate_manifest",
    "wait_for",
]
