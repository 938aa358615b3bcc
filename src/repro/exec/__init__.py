"""Execution layer: pluggable backends and the artefact store.

See :mod:`repro.exec.backends` for the serial / thread / process execution
backends behind every bulk workload (the process backend forks one
standard-library executor per map), :mod:`repro.exec.artifacts` for the
two-level store that lets staged pipeline runs reuse profile curves and
baked models across devices, selectors and repeated ``prepare()`` calls,
and :mod:`repro.exec.persist` for the on-disk tier that extends that reuse
across invocations (``$REPRO_ARTIFACT_DIR``).
"""

from repro.exec.artifacts import ArtifactStats, ArtifactStore, create_artifact_store
from repro.exec.backends import (
    BACKEND_ENV_VAR,
    BACKENDS,
    Backend,
    DEFAULT_BACKEND_NAME,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    fork_available,
    in_worker_process,
    known_backend_names,
    resolve_backend,
)
from repro.exec.persist import (
    ARTIFACT_DIR_ENV_VAR,
    DiskArtifactStore,
    DiskStoreStats,
    artifact_dir_from_env,
    default_artifact_dir,
)

__all__ = [
    "ARTIFACT_DIR_ENV_VAR",
    "ArtifactStats",
    "ArtifactStore",
    "BACKEND_ENV_VAR",
    "BACKENDS",
    "Backend",
    "DEFAULT_BACKEND_NAME",
    "DiskArtifactStore",
    "DiskStoreStats",
    "ProcessBackend",
    "SerialBackend",
    "ThreadBackend",
    "artifact_dir_from_env",
    "create_artifact_store",
    "default_artifact_dir",
    "fork_available",
    "in_worker_process",
    "known_backend_names",
    "resolve_backend",
]
