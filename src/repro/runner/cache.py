"""Content keying for plan points stored in the artifact store.

:func:`point_key` digests a plan point's canonical JSON payload together
with a fingerprint of the whole ``repro`` package source and a schema
version.  The executor, the sweep service and the replay backend all key
the content-addressed :class:`~repro.store.ArtifactStore` with it, so
invalidation is automatic and total: any change to the point — strategy
kwargs, device recipe (topology kind, T1 knobs, duration or fidelity
overrides), seed — changes the digest; any source edit retires every
entry; and the schema version covers result-format changes independent of
code content.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from pathlib import Path

import repro
from repro.runner.points import ensure_execution_point

#: Bump to invalidate every existing cache entry (result-format changes).
CACHE_SCHEMA_VERSION = 1

#: Environment variable overriding the default cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


@functools.lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """Digest of every ``repro`` source file, folded into each cache key.

    Compiled results depend on the compiler, strategies, device models and
    workload builders — any source edit may change the numbers, so a stale
    cache must never survive a code change in a reproduction repo.  Hashing
    the whole package is a few milliseconds once per process.
    """
    package_root = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(package_root.rglob("*.py")):
        digest.update(str(path.relative_to(package_root)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()


def point_key(point) -> str:
    """Stable content key for one plan point.

    This is the digest the store's ``refs/`` index, the run manifests and
    the sweep service's in-flight dedupe all share.  The point must satisfy
    the :class:`~repro.runner.points.ExecutionPoint` protocol; anything
    else raises the protocol's ``TypeError`` rather than keying garbage.
    """
    ensure_execution_point(point)
    payload = {
        "schema": CACHE_SCHEMA_VERSION,
        "code": code_fingerprint(),
        "point": point.payload(),
    }
    canonical = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def default_cache_dir() -> Path:
    """Default store root: ``$REPRO_CACHE_DIR`` if set, else ``.repro_cache/``."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override)
    return Path(".repro_cache")

