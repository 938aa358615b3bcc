"""Execution layer: pluggable backends, the worker wire and the artefact store.

See :mod:`repro.exec.backends` for the serial / thread / process execution
backends behind every bulk workload, :mod:`repro.exec.worker` for the
persistent worker-daemon lifecycle behind the process backend,
:mod:`repro.exec.transport` for the fork+socketpair launcher and the
length-prefixed frame codec (pickle protocol 5, ndarray buffers as inline
segments), :mod:`repro.exec.artifacts` for the two-level store that lets
staged pipeline runs reuse profile curves and baked models across devices,
selectors and repeated ``prepare()`` calls, and :mod:`repro.exec.persist`
for the on-disk tier that extends that reuse across invocations
(``$REPRO_ARTIFACT_DIR``).
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
from repro.exec.transport import FrameProtocolError, MAX_FRAME_BYTES
from repro.exec.worker import (
    HostRunReport,
    WorkerHost,
    WorkerTaskError,
    shutdown_worker_hosts,
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
    "FrameProtocolError",
    "HostRunReport",
    "MAX_FRAME_BYTES",
    "ProcessBackend",
    "SerialBackend",
    "ThreadBackend",
    "WorkerHost",
    "WorkerTaskError",
    "artifact_dir_from_env",
    "create_artifact_store",
    "default_artifact_dir",
    "fork_available",
    "in_worker_process",
    "known_backend_names",
    "resolve_backend",
    "shutdown_worker_hosts",
]
