"""Baselines the paper compares NeRFlex against.

* :class:`SingleNeRFBaseline` — the whole scene represented by one
  mesh-baked NeRF (MobileNeRF at its recommended configuration);
* :class:`BlockNeRFBaseline` — one mesh-baked NeRF per object, all at the
  recommended configuration, with no resource awareness (Block-NeRF style);
* :class:`NGPEmulator` / :class:`MipNeRF360Emulator` — full-scale
  workstation NeRF variants (quality references in Table I / Fig. 4);
  they are not deployable to the mobile renderer, so only their fields
  are rendered and scored.
"""

from repro.baselines.single_nerf import SingleNeRFBaseline, RECOMMENDED_SINGLE_CONFIG
from repro.baselines.block_nerf import BlockNeRFBaseline
from repro.baselines.field_baselines import MipNeRF360Emulator, NGPEmulator

__all__ = [
    "SingleNeRFBaseline",
    "RECOMMENDED_SINGLE_CONFIG",
    "BlockNeRFBaseline",
    "NGPEmulator",
    "MipNeRF360Emulator",
]
