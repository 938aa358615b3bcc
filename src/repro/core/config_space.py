"""The per-object configuration space: mesh granularity ``g`` and texture
patch size ``p``.

The paper's knobs are the voxel-grid resolution per axis (``g``) and the
one-dimensional texture patch size per quad face (``p``).  The shading
network is excluded as a knob because it is only a few kilobytes and
quantising it breaks commercial rendering engines (§III-B).

Note on ranges: the paper evaluates ``g`` in roughly [20, 128] and ``p`` in
[5, 41] against an 800-pixel-class renderer.  This reproduction renders and
scores at 100–200 pixels, so the texel-per-screen-pixel trade-off saturates
at proportionally smaller patch sizes; the default patch range is scaled
accordingly (see EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class Configuration:
    """One configuration pair ``theta = (g, p)``."""

    granularity: int
    patch_size: int

    def __post_init__(self) -> None:
        if self.granularity < 2:
            raise ValueError("granularity must be at least 2")
        if self.patch_size < 1:
            raise ValueError("patch_size must be at least 1")

    @property
    def g(self) -> int:
        """Alias matching the paper's notation."""
        return self.granularity

    @property
    def p(self) -> int:
        """Alias matching the paper's notation."""
        return self.patch_size

    def as_tuple(self) -> tuple:
        return (self.granularity, self.patch_size)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"(g={self.granularity}, p={self.patch_size})"


#: Default knob values used across the evaluation.
DEFAULT_GRANULARITIES = (16, 24, 32, 48, 64, 96, 128)
DEFAULT_PATCH_SIZES = (1, 2, 3, 4, 6, 8)


@dataclass(frozen=True)
class ConfigurationSpace:
    """The discrete set of configurations available to one object's NeRF."""

    granularities: tuple = DEFAULT_GRANULARITIES
    patch_sizes: tuple = DEFAULT_PATCH_SIZES

    def __post_init__(self) -> None:
        if not self.granularities or not self.patch_sizes:
            raise ValueError("configuration space must not be empty")
        object.__setattr__(self, "granularities", tuple(sorted(set(int(g) for g in self.granularities))))
        object.__setattr__(self, "patch_sizes", tuple(sorted(set(int(p) for p in self.patch_sizes))))

    def __iter__(self):
        for granularity in self.granularities:
            for patch_size in self.patch_sizes:
                yield Configuration(granularity, patch_size)

    def __len__(self) -> int:
        return len(self.granularities) * len(self.patch_sizes)

    def __contains__(self, config: Configuration) -> bool:
        return (
            config.granularity in self.granularities
            and config.patch_size in self.patch_sizes
        )

    @property
    def min_config(self) -> Configuration:
        """The cheapest configuration ``(min g, min p)`` (paper line 1)."""
        return Configuration(self.granularities[0], self.patch_sizes[0])

    @property
    def max_config(self) -> Configuration:
        return Configuration(self.granularities[-1], self.patch_sizes[-1])

    def configs(self) -> list:
        """All configurations as a list (iteration order: g-major)."""
        return list(self)

    def profiling_granularities(self, growth_factor: float = 3.0) -> tuple:
        """Granularity sample points for profiling.

        Implements the paper's variable-step-size rule: starting from the
        smallest granularity, each next sample point adds a step of
        ``2 * previous`` (i.e. the sampled value triples), clamped to the
        largest available granularity.
        """
        samples = []
        value = self.granularities[0]
        while value < self.granularities[-1]:
            nearest = min(self.granularities, key=lambda g: abs(g - value))
            if nearest not in samples:
                samples.append(nearest)
            value = value * growth_factor
        if self.granularities[-1] not in samples:
            samples.append(self.granularities[-1])
        return tuple(samples)

    def profiling_patch_sizes(self) -> tuple:
        """Patch-size sample points: minimum, midpoint and maximum (§III-B)."""
        patches = self.patch_sizes
        mid = patches[len(patches) // 2]
        unique = sorted({patches[0], mid, patches[-1]})
        return tuple(unique)

    def profiling_configs(self) -> list:
        """The sample configurations used to fit the profiling models."""
        return [
            Configuration(granularity, patch_size)
            for granularity in self.profiling_granularities()
            for patch_size in self.profiling_patch_sizes()
        ]
