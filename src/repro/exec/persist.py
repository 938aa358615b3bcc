"""Persistent, content-addressed on-disk tier of the artifact store.

The paper's headline economics are that NeRFlex's expensive preparation —
the profiling sweeps and the per-object bakes — is a one-shot cost that
amortises across deployments.  The in-memory
:class:`~repro.exec.artifacts.ArtifactStore` realises that within one
process; this module extends it across *invocations*: fitted profile curves
and baked sub-models are serialised to a cache directory
(``$REPRO_ARTIFACT_DIR``, or ``~/.cache/repro`` by default), so a second
benchmark run, CI job or example invocation on the same scenes skips the
profile and bake stages entirely.

Design constraints, in decreasing order of importance:

* **Bit-identity.**  A reloaded artefact must be indistinguishable from the
  freshly computed one everywhere the library can observe it: profile
  predictions, selector decisions, baked sizes and rendered images must all
  match exactly.  Serialisation is therefore explicit and lossless — float64
  arrays for every numeric field, never a textual round-trip.  The one
  deliberate representation change is that a :class:`~repro.baking.texture.
  LazyTexture` (whose radiance closure cannot leave the process) is
  materialised into its texel array on save; lazy lookup quantises to texel
  centres, so sampling the stored atlas is bit-identical by construction.
* **Key stability across processes.**  Disk filenames are SHA-256 digests
  of a canonical, ``hash()``-free encoding of the content-addressed key
  tuples the pipeline already builds, so two processes (or two CI runs)
  derive the same filename for the same inputs.
* **Robustness.**  Files carry a magic + format-version header and a
  payload checksum; a version mismatch, truncation or corruption is treated
  as a miss (and the file is discarded), never an error.  Writes go through
  a same-directory temp file and :func:`os.replace`, so a crashed or
  concurrent writer can leave at worst a stale temp file, never a torn
  artefact.
* **Bounded size.**  The store evicts least-recently-used files (by access
  time, refreshed on every hit) once the directory exceeds ``max_bytes``.

``FORMAT_VERSION`` doubles as the *algorithm epoch*: the content-addressed
keys capture every input to an artefact but not the code that computes it,
so any change to baking/profiling semantics must bump the version to
invalidate stale caches (CI couples its cache key to the same constant).
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import os
import struct
import tempfile
from dataclasses import dataclass, field

import numpy as np

from repro.config import env as repro_env

#: Environment variable naming the on-disk artifact directory.  When unset,
#: callers that *opt in* to persistence (e.g. ``create_artifact_store``
#: with ``directory="auto"``) fall back to :func:`default_artifact_dir`.
ARTIFACT_DIR_ENV_VAR = repro_env.REPRO_ARTIFACT_DIR.name

#: Environment variable bounding the on-disk store size, in megabytes.
ARTIFACT_MAX_MB_ENV_VAR = repro_env.REPRO_ARTIFACT_MAX_MB.name

#: Default on-disk bound: generous for a benchmark suite (a full figure
#: session stores well under 1 GB of profiles and baked models).  Declared
#: (with the MiB parser) in :mod:`repro.config.env`.
DEFAULT_MAX_BYTES = repro_env.REPRO_ARTIFACT_MAX_MB.default

#: File magic: identifies repro artefact containers.
MAGIC = b"REPROART"

#: Container/algorithm version.  Bump on any change to the serialised
#: layout *or* to the semantics of profiling/baking (see module docstring).
FORMAT_VERSION = 1

_HEADER = struct.Struct("<8sIQ32s")  # magic, version, payload length, sha256


# ---------------------------------------------------------------------------
# Canonical keys
# ---------------------------------------------------------------------------


def canonical_key(key) -> str:
    """A deterministic, process-independent string encoding of a store key.

    Keys are the content-addressed tuples assembled by the pipeline: nests
    of strings, booleans, ints, floats, ``None`` and frozen dataclasses
    (:class:`~repro.baking.baked_model.SizeConstants`).  Every leaf is
    tagged with its type so ``1``, ``1.0``, ``True`` and ``"1"`` cannot
    collide, and floats use ``repr`` (shortest round-trip, stable across
    platforms and processes).  Raises ``TypeError`` for values outside this
    vocabulary — such keys are memory-only.
    """
    out: list = []
    _canonicalize(key, out)
    return "".join(out)


def _canonicalize(value, out: list) -> None:
    if value is None:
        out.append("N;")
    elif value is True:
        out.append("T;")
    elif value is False:
        out.append("F;")
    elif isinstance(value, str):
        out.append(f"s{len(value.encode('utf-8'))}:{value};")
    elif isinstance(value, (int, np.integer)):
        out.append(f"i{int(value)};")
    elif isinstance(value, (float, np.floating)):
        out.append(f"f{float(value)!r};")
    elif isinstance(value, (tuple, list)):
        out.append("(")
        for item in value:
            _canonicalize(item, out)
        out.append(");")
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        out.append(f"d{type(value).__name__}(")
        for f in dataclasses.fields(value):
            _canonicalize(f.name, out)
            _canonicalize(getattr(value, f.name), out)
        out.append(");")
    else:
        raise TypeError(
            f"cannot canonicalise {type(value).__name__!r} for a persistent "
            "artifact key"
        )


def key_digest(key) -> str:
    """SHA-256 hex digest of the canonical key encoding."""
    return hashlib.sha256(canonical_key(key).encode("utf-8")).hexdigest()


def key_filename(key) -> str:
    """Disk filename for a store key: ``<kind>-<digest>.art``.

    The leading kind tag is kept human-readable so a cache directory can be
    inspected (and selectively cleared) by eye.
    """
    kind = key[0] if isinstance(key, tuple) and key and isinstance(key[0], str) else "artifact"
    safe_kind = "".join(c if c.isalnum() else "-" for c in kind)[:24]
    return f"{safe_kind}-{key_digest(key)}.art"


# ---------------------------------------------------------------------------
# Artefact codecs
# ---------------------------------------------------------------------------
#
# Artefacts are encoded as (meta, arrays): a JSON-able metadata dict plus a
# name -> ndarray mapping.  No pickle anywhere — the payload is a plain
# ``np.savez`` archive (loaded with ``allow_pickle=False``) with the JSON
# metadata stored under the reserved ``__meta__`` entry, so a corrupt or
# malicious cache file can at worst fail to parse.


def _encode_profile(profile) -> tuple:
    measurements = list(profile.measurements.items())
    meta = {
        "artifact": "profile",
        "name": profile.name,
        "detail_weight": float(profile.detail_weight),
        "granularities": [int(g) for g in profile.config_space.granularities],
        "patch_sizes": [int(p) for p in profile.config_space.patch_sizes],
        "quality_model": {
            "qmax": float(profile.quality_model.qmax),
            "k": float(profile.quality_model.k),
            "a": float(profile.quality_model.a),
            "b": float(profile.quality_model.b),
        },
        "size_model": {
            "s0": float(profile.size_model.s0),
            "s1": float(profile.size_model.s1),
            "s2": float(profile.size_model.s2),
            "s3": float(profile.size_model.s3),
        },
    }
    arrays = {
        "measured_g": np.array(
            [config.granularity for config, _ in measurements], dtype=np.int64
        ),
        "measured_p": np.array(
            [config.patch_size for config, _ in measurements], dtype=np.int64
        ),
        "measured_quality": np.array(
            [quality for _, (quality, _) in measurements], dtype=np.float64
        ),
        "measured_size_mb": np.array(
            [size for _, (_, size) in measurements], dtype=np.float64
        ),
    }
    return meta, arrays


def _decode_profile(meta: dict, arrays: dict):
    from repro.core.config_space import Configuration, ConfigurationSpace
    from repro.core.profiler import ObjectProfile, QualityModel, SizeModel

    measurements = {
        Configuration(int(g), int(p)): (float(quality), float(size))
        for g, p, quality, size in zip(
            arrays["measured_g"],
            arrays["measured_p"],
            arrays["measured_quality"],
            arrays["measured_size_mb"],
        )
    }
    return ObjectProfile(
        name=meta["name"],
        config_space=ConfigurationSpace(
            granularities=tuple(meta["granularities"]),
            patch_sizes=tuple(meta["patch_sizes"]),
        ),
        quality_model=QualityModel(**meta["quality_model"]),
        size_model=SizeModel(**meta["size_model"]),
        measurements=measurements,
        detail_weight=float(meta["detail_weight"]),
    )


def _texture_texels(model) -> np.ndarray:
    """The full texel array of a baked sub-model's texture.

    A materialised :class:`~repro.baking.texture.TextureAtlas` already holds
    it; a :class:`~repro.baking.texture.LazyTexture` is materialised by
    evaluating every texel centre — the exact coordinates lazy lookup
    quantises to, so sampling the stored atlas is bit-identical to sampling
    the original lazy texture.
    """
    from repro.baking.texture import bake_texture_atlas

    texture = model.texture
    texels = getattr(texture, "texels", None)
    if texels is not None:
        return np.asarray(texels, dtype=np.float64)
    return bake_texture_atlas(
        texture.radiance_fn, model.faces, int(model.patch_size)
    ).texels


def _encode_baked(model) -> tuple:
    grid = model.grid
    constants = model.size_constants
    meta = {
        "artifact": "baked",
        "name": model.name,
        "patch_size": int(model.patch_size),
        "resolution": int(grid.resolution),
        "voxel_size": float(grid.voxel_size),
        "size_constants": {
            f.name: float(getattr(constants, f.name))
            for f in dataclasses.fields(constants)
        },
    }
    arrays = {
        "origin": np.asarray(grid.origin, dtype=np.float64),
        # Occupancy packs 8 cells per byte; the exact shape is recovered
        # from ``resolution``.
        "occupancy_bits": np.packbits(grid.occupancy.reshape(-1)),
        "face_voxel_indices": np.asarray(model.faces.voxel_indices, dtype=np.int64),
        "face_axes": np.asarray(model.faces.axes, dtype=np.int8),
        "face_signs": np.asarray(model.faces.signs, dtype=np.int8),
        "texels": _texture_texels(model),
    }
    return meta, arrays


def _decode_baked(meta: dict, arrays: dict):
    from repro.baking.baked_model import BakedSubModel, SizeConstants
    from repro.baking.meshing import QuadFaceSet
    from repro.baking.texture import TextureAtlas
    from repro.baking.voxelize import VoxelGrid

    resolution = int(meta["resolution"])
    cells = resolution**3
    occupancy = (
        np.unpackbits(arrays["occupancy_bits"], count=cells)
        .astype(bool)
        .reshape(resolution, resolution, resolution)
    )
    grid = VoxelGrid(
        origin=arrays["origin"],
        voxel_size=float(meta["voxel_size"]),
        resolution=resolution,
        occupancy=occupancy,
    )
    faces = QuadFaceSet(
        voxel_indices=arrays["face_voxel_indices"],
        axes=arrays["face_axes"],
        signs=arrays["face_signs"],
        grid=grid,
    )
    patch_size = int(meta["patch_size"])
    return BakedSubModel(
        name=meta["name"],
        grid=grid,
        faces=faces,
        texture=TextureAtlas(
            patch_size=patch_size, texels=np.asarray(arrays["texels"], dtype=np.float64)
        ),
        patch_size=patch_size,
        size_constants=SizeConstants(**meta["size_constants"]),
    )


def encode_artifact(value) -> "tuple | None":
    """Encode a supported artefact to ``(meta, arrays)``; ``None`` otherwise.

    Dispatch is structural (profile-shaped versus baked-model-shaped) so
    the codec never imports the heavy modules for unsupported values.
    """
    if hasattr(value, "quality_model") and hasattr(value, "size_model"):
        return _encode_profile(value)
    if hasattr(value, "grid") and hasattr(value, "texture"):
        return _encode_baked(value)
    return None


_DECODERS = {"profile": _decode_profile, "baked": _decode_baked}


def decode_artifact(meta: dict, arrays: dict):
    """Rebuild an artefact from its ``(meta, arrays)`` encoding."""
    decoder = _DECODERS.get(meta.get("artifact"))
    if decoder is None:
        raise ValueError(f"unknown artifact payload {meta.get('artifact')!r}")
    return decoder(meta, arrays)


# ---------------------------------------------------------------------------
# Container format
# ---------------------------------------------------------------------------


def _pack(meta: dict, arrays: dict) -> bytes:
    buffer = io.BytesIO()
    payload_arrays = dict(arrays)
    payload_arrays["__meta__"] = np.frombuffer(
        json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8
    )
    np.savez(buffer, **payload_arrays)
    payload = buffer.getvalue()
    header = _HEADER.pack(
        MAGIC, FORMAT_VERSION, len(payload), hashlib.sha256(payload).digest()
    )
    return header + payload


class _InvalidArtifact(Exception):
    """Raised internally for any unreadable artefact file."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


def _unpack(blob: bytes) -> tuple:
    if len(blob) < _HEADER.size:
        raise _InvalidArtifact("truncated")
    magic, version, length, digest = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise _InvalidArtifact("corrupt")
    if version != FORMAT_VERSION:
        raise _InvalidArtifact("version")
    payload = blob[_HEADER.size :]
    if len(payload) != length or hashlib.sha256(payload).digest() != digest:
        raise _InvalidArtifact("corrupt")
    try:
        with np.load(io.BytesIO(payload), allow_pickle=False) as archive:
            arrays = {name: archive[name] for name in archive.files}
    except Exception as exc:  # zip/npz damage past the checksum
        raise _InvalidArtifact("corrupt") from exc
    meta_bytes = arrays.pop("__meta__", None)
    if meta_bytes is None:
        raise _InvalidArtifact("corrupt")
    try:
        meta = json.loads(bytes(meta_bytes.tobytes()).decode("utf-8"))
    except ValueError as exc:
        raise _InvalidArtifact("corrupt") from exc
    return meta, arrays


# ---------------------------------------------------------------------------
# The disk store
# ---------------------------------------------------------------------------


@dataclass
class DiskStoreStats:
    """Operation counters of one :class:`DiskArtifactStore`."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0
    corrupt: int = 0
    version_mismatches: int = 0
    encode_skips: int = 0
    write_errors: int = 0

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def default_artifact_dir() -> str:
    """The default persistent cache directory (``~/.cache/repro``)."""
    base = repro_env.XDG_CACHE_HOME.get() or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return os.path.join(base, "repro")


def artifact_dir_from_env() -> "str | None":
    """The directory named by ``$REPRO_ARTIFACT_DIR``, if any."""
    return repro_env.REPRO_ARTIFACT_DIR.get()


def max_bytes_from_env() -> int:
    """On-disk size bound from ``$REPRO_ARTIFACT_MAX_MB`` (default 4 GiB)."""
    return repro_env.REPRO_ARTIFACT_MAX_MB.get()


class DiskArtifactStore:
    """Content-addressed artefact files under one cache directory.

    Args:
        root: cache directory (created on first use).
        max_bytes: total-size bound; least-recently-used files (by access
            time, refreshed on every hit) are evicted beyond it.  ``None``
            consults ``$REPRO_ARTIFACT_MAX_MB`` and defaults to 4 GiB.

    The store is safe against concurrent writers on one machine (atomic
    same-directory renames; last write wins on a key collision, which is
    harmless because keys are content-addressed and builds deterministic).
    It deliberately has no in-memory index: every lookup goes to the
    filesystem, and the memory tier above it absorbs the hot path.
    """

    def __init__(self, root: str, max_bytes: "int | None" = None) -> None:
        self.root = os.path.abspath(os.path.expanduser(root))
        self.max_bytes = max_bytes_from_env() if max_bytes is None else int(max_bytes)
        if self.max_bytes < 1:
            raise ValueError("max_bytes must be positive")
        self.stats = DiskStoreStats()

    # -- paths --------------------------------------------------------------

    def path_for(self, key) -> str:
        return os.path.join(self.root, key_filename(key))

    def _entries(self) -> list:
        """Current ``(path, size, access_time)`` artefact entries."""
        try:
            names = os.listdir(self.root)
        except OSError:
            return []
        entries = []
        for name in names:
            if not name.endswith(".art"):
                continue
            path = os.path.join(self.root, name)
            try:
                stat = os.stat(path)
            except OSError:
                # Includes FileNotFoundError: a concurrent evictor removed
                # the entry between listdir and stat — already gone.
                continue
            entries.append((path, stat.st_size, stat.st_atime))
        return entries

    def size_bytes(self) -> int:
        """Total bytes currently stored."""
        return sum(size for _, size, _ in self._entries())

    def __len__(self) -> int:
        return len(self._entries())

    # -- read / write -------------------------------------------------------

    def get(self, key):
        """Load and decode the artefact for ``key`` (``None`` on any miss).

        Unreadable files — wrong magic, other format version, truncation,
        checksum or archive damage — are counted, removed and reported as
        misses, so a stale or torn cache can never break a run.
        """
        try:
            path = self.path_for(key)
            with open(path, "rb") as handle:
                blob = handle.read()
        except TypeError:
            # Key outside the canonical vocabulary: such a key can never
            # have been stored, so this is a plain miss (matching the
            # memory-only store's behaviour), not an error.
            self.stats.misses += 1
            return None
        except OSError:
            self.stats.misses += 1
            return None
        try:
            meta, arrays = _unpack(blob)
            value = decode_artifact(meta, arrays)
        except _InvalidArtifact as invalid:
            if invalid.reason == "version":
                self.stats.version_mismatches += 1
            else:
                self.stats.corrupt += 1
            self.stats.misses += 1
            self._discard(path)
            return None
        except Exception:
            # Decoder-level damage (e.g. arrays missing): same contract.
            self.stats.corrupt += 1
            self.stats.misses += 1
            self._discard(path)
            return None
        self.stats.hits += 1
        self._touch(path)
        return value

    def put(self, key, value) -> bool:
        """Persist an artefact; returns whether anything was written.

        Values without a codec (and keys outside the canonical vocabulary)
        are skipped silently — the memory tier still holds them.  So are
        values a codec cannot faithfully encode (e.g. a profile carrying
        the reference-only paper model classes): persistence must never
        turn a working in-memory store into an error.
        """
        try:
            encoded = encode_artifact(value)
            path = self.path_for(key)
        except (TypeError, AttributeError):
            self.stats.encode_skips += 1
            return False
        if encoded is None:
            self.stats.encode_skips += 1
            return False
        blob = _pack(*encoded)
        # An unwritable or full cache directory degrades to memory-only
        # operation (counted as a write error), honouring the same
        # never-an-error contract as the read path.
        temp_path = None
        try:
            os.makedirs(self.root, exist_ok=True)
            fd, temp_path = tempfile.mkstemp(dir=self.root, suffix=".tmp")
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
            os.replace(temp_path, path)
        except OSError:
            if temp_path is not None:
                self._discard(temp_path)
            self.stats.write_errors += 1
            return False
        except BaseException:
            if temp_path is not None:
                self._discard(temp_path)
            raise
        self.stats.puts += 1
        self._evict_to_bound()
        return True

    def __contains__(self, key) -> bool:
        try:
            return os.path.exists(self.path_for(key))
        except TypeError:
            return False

    def clear(self) -> int:
        """Remove every stored artefact; returns how many were removed."""
        removed = 0
        for path, _, _ in self._entries():
            if self._discard(path):
                removed += 1
        return removed

    def remove_kind(self, kind: str) -> int:
        """Remove every artefact whose key led with the given kind tag."""
        prefix = "".join(c if c.isalnum() else "-" for c in kind)[:24] + "-"
        removed = 0
        for path, _, _ in self._entries():
            if os.path.basename(path).startswith(prefix):
                if self._discard(path):
                    removed += 1
        return removed

    # -- eviction -----------------------------------------------------------

    def _evict_to_bound(self) -> None:
        """Evict least-recently-used artefacts until the byte bound holds.

        Several processes may share one cache directory (two stores, or two
        pipelines in separate processes), so every file operation here races concurrent
        evictors: an entry listed a moment ago may already be gone by the
        time it is statted or unlinked.  Already-gone entries are treated
        exactly like entries this store evicted itself — they stop counting
        toward the bound — but only files *this* store actually removed are
        counted as its evictions.
        """
        entries = self._entries()
        total = sum(size for _, size, _ in entries)
        if total <= self.max_bytes:
            return
        # Oldest access first; the file just written is naturally newest.
        for path, size, _ in sorted(entries, key=lambda entry: entry[2]):
            if total <= self.max_bytes:
                break
            if self._discard(path):
                self.stats.evictions += 1
                total -= size
            elif not os.path.exists(path):
                # A concurrent evictor removed it first: the entry no longer
                # occupies the directory, but it is not our eviction.
                total -= size
            # else: unremovable (e.g. permissions) — it still occupies the
            # directory, so it must not be counted as freed space.

    @staticmethod
    def _touch(path: str) -> None:
        """Refresh a file's access time (the LRU ordering used by eviction).

        Filesystems mounted ``noatime`` would otherwise never update it.
        """
        try:
            os.utime(path)
        except OSError:
            pass

    @staticmethod
    def _discard(path: str) -> bool:
        """Remove ``path``; ``False`` when it was already gone or unremovable.

        A missing file is the expected outcome of losing a race with a
        concurrent evictor (another process sharing the directory) and must
        never surface as :class:`FileNotFoundError` to a caller.
        """
        try:
            os.remove(path)
        except FileNotFoundError:
            return False  # a concurrent evictor got there first
        except OSError:
            return False
        return True
