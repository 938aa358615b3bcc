"""Content-addressed store for expensive pipeline artefacts.

The staged NeRFlex pipeline produces two artefact kinds that are pure
functions of their inputs and far more expensive than a render: fitted
profile curves (:class:`repro.core.profiler.ObjectProfile`, one bake+score
sweep per sub-scene) and baked sub-models.  Neither depends on the *device*,
only on the scene content and the preparation knobs — so benchmarks that
sweep devices and selectors, and repeated ``prepare()`` calls on the same
dataset, can reuse them instead of recomputing.

Keys are content-addressed tuples assembled by the caller: a kind tag first
(``"profile"``, ``"baked"``), then every input that determines the artefact
— content fingerprints from :func:`repro.render.engine._content_identity`,
configuration knobs, seeds, size constants.  The store itself is agnostic:
it maps hashable keys to values under an optional LRU bound, thread-safely
(the thread backend may fan artefact-producing stages out concurrently).

The store is two-level.  The memory tier (a
:class:`repro.utils.lru.LockedLRU`) serves repeated lookups within one
process; an optional disk tier (:class:`repro.exec.persist.
DiskArtifactStore`, enabled by ``$REPRO_ARTIFACT_DIR`` or an explicit
directory) backs it across *invocations*: a memory miss falls through to
disk, a disk hit is promoted into memory, and every put writes through.
This is what amortises the paper's one-shot preparation cost across
benchmark runs and CI jobs — the second invocation on the same scenes
serves every profile and bake from disk and recomputes nothing.

The render cache (:mod:`repro.render.cache`) stays separate: it memoises
*images* under ``(scene, camera, quality)`` keys, while this store memoises
the *models* those images are rendered from.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exec.persist import DiskArtifactStore, artifact_dir_from_env
from repro.utils.lru import MISS, LockedLRU


@dataclass
class ArtifactStats:
    """Hit/miss accounting of one :class:`ArtifactStore`.

    ``hits`` counts every request served from the store (memory or disk);
    ``disk_hits`` is the subset that came off the disk tier.  ``misses``
    counts requests neither tier could serve — i.e. artefacts the caller
    then had to *recompute*.
    """

    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0
    disk_hits: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def reuse_count(self) -> int:
        """Number of artefacts served from the store instead of recomputed."""
        return self.hits

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "evictions": self.evictions,
            "disk_hits": self.disk_hits,
        }


@dataclass
class ArtifactStore:
    """A thread-safe, optionally bounded, optionally disk-backed artefact map.

    The memory tier is a :class:`repro.utils.lru.LockedLRU` (shared with the
    render cache); this class layers artefact-level accounting on top —
    overall hit/miss/put statistics plus hit *and miss* counts grouped by
    each key's leading kind tag (``"profile"`` / ``"baked"``), which is what
    the benchmark suite's reuse and warm-store assertions read.

    Args:
        max_entries: optional LRU bound on the number of memory-resident
            artefacts; ``None`` means unbounded (a benchmark session stores
            a few dozen profiles and baked models).  The disk tier has its
            own byte bound and is unaffected.
        disk: optional :class:`~repro.exec.persist.DiskArtifactStore`
            backing tier (see :func:`create_artifact_store`).
    """

    max_entries: "int | None" = None
    stats: ArtifactStats = field(default_factory=ArtifactStats)
    disk: "DiskArtifactStore | None" = None

    def __post_init__(self) -> None:
        self._lru = LockedLRU(max_entries=self.max_entries)
        self._kind_hits: dict = {}
        self._kind_misses: dict = {}

    def __len__(self) -> int:
        return len(self._lru)

    def __contains__(self, key) -> bool:
        if key in self._lru:
            return True
        return self.disk is not None and key in self.disk

    @staticmethod
    def _kind(key) -> "str | None":
        if isinstance(key, tuple) and key and isinstance(key[0], str):
            return key[0]
        return None

    def get(self, key):
        """Stored artefact for ``key`` (``None`` on miss); updates statistics.

        Memory first; on a memory miss the disk tier (when configured) is
        consulted, and a disk hit is promoted into the memory tier.  Only a
        miss in *both* tiers counts as a miss — equivalently, as a
        recompute the caller now has to perform.
        """
        kind = self._kind(key)
        with self._lru.lock:
            value = self._lru.get(key)
            if value is not MISS:
                self.stats.hits += 1
                if kind is not None:
                    self._kind_hits[kind] = self._kind_hits.get(kind, 0) + 1
                return value
        # Disk I/O and decoding happen outside the lock — a multi-MB texel
        # atlas must not stall every other thread's store access.  Two
        # threads racing the same key may both load it; the second promote
        # wins, which is harmless (content-addressed, deterministic).
        loaded = self.disk.get(key) if self.disk is not None else None
        with self._lru.lock:
            if loaded is not None:
                if self._lru.put(key, loaded):
                    self.stats.evictions += 1
                self.stats.hits += 1
                self.stats.disk_hits += 1
                if kind is not None:
                    self._kind_hits[kind] = self._kind_hits.get(kind, 0) + 1
                return loaded
            self.stats.misses += 1
            if kind is not None:
                self._kind_misses[kind] = self._kind_misses.get(kind, 0) + 1
            return None

    def put(self, key, value) -> None:
        """Store an artefact in the memory tier and write through to disk."""
        with self._lru.lock:
            self.stats.puts += 1
            if self._lru.put(key, value):
                self.stats.evictions += 1
        if self.disk is not None:
            self.disk.put(key, value)

    def get_or_create(self, key, build_fn):
        """Return the artefact for ``key``, building and storing it on a miss.

        ``build_fn`` runs outside the lock (it may be minutes of baking);
        should two threads race on the same key, both build and the last
        write wins — wasteful but consistent, since keys are
        content-addressed and builds are deterministic.
        """
        value = self.get(key)
        if value is None:
            value = build_fn()
            self.put(key, value)
        return value

    def reuse_by_kind(self) -> dict:
        """Hit counts grouped by the key's leading kind tag."""
        with self._lru.lock:
            return dict(self._kind_hits)

    def recompute_by_kind(self) -> dict:
        """Miss (= recompute) counts grouped by the key's leading kind tag.

        This is what the warm-store assertions read: a second invocation
        against a populated disk store must show zero ``"profile"`` and
        ``"baked"`` recomputes.
        """
        with self._lru.lock:
            return dict(self._kind_misses)

    def stats_summary(self) -> dict:
        """One JSON-able dict of every statistic both tiers keep."""
        summary = self.stats.as_dict()
        summary["reuse_by_kind"] = self.reuse_by_kind()
        summary["recompute_by_kind"] = self.recompute_by_kind()
        summary["memory_entries"] = len(self._lru)
        if self.disk is not None:
            summary["disk"] = self.disk.stats.as_dict()
            summary["disk"]["root"] = self.disk.root
        return summary

    def invalidate(self, kind=None) -> int:
        """Drop every artefact (or only those whose kind tag matches).

        Both tiers are cleared; the returned count is the number of memory
        entries dropped (the disk tier may hold more, e.g. from earlier
        invocations).
        """
        if kind is None:
            if self.disk is not None:
                self.disk.clear()
            return self._lru.clear()
        if self.disk is not None:
            self.disk.remove_kind(kind)
        return self._lru.remove_where(
            lambda key: isinstance(key, tuple) and bool(key) and key[0] == kind
        )


def create_artifact_store(
    max_entries: "int | None" = None,
    directory: "str | None" = None,
    max_bytes: "int | None" = None,
) -> ArtifactStore:
    """Build an artifact store, disk-backed when persistence is configured.

    Args:
        max_entries: memory-tier LRU bound (``None`` = unbounded).
        directory: on-disk cache directory.  ``None`` consults
            ``$REPRO_ARTIFACT_DIR`` and stays memory-only when it is unset —
            persistence is strictly opt-in, so default test and benchmark
            runs remain hermetic.
        max_bytes: disk-tier size bound (``None`` consults
            ``$REPRO_ARTIFACT_MAX_MB``, defaulting to 4 GiB).
    """
    directory = directory or artifact_dir_from_env()
    disk = DiskArtifactStore(directory, max_bytes=max_bytes) if directory else None
    return ArtifactStore(max_entries=max_entries, disk=disk)
