"""Folded torus topology.

The paper (§III-C) assumes a *folded* torus: the physical folding equalizes
link lengths but doubles the per-channel delay relative to the mesh, which is
why the torus shows slightly higher zero-load latency than the mesh despite
its lower hop count.  ``channel_delay_multiplier`` defaults to 2 to match.
"""

from __future__ import annotations

from .mesh import KAryNCube

__all__ = ["Torus"]


class Torus(KAryNCube):
    """k-ary n-cube torus with wraparound links (folded layout by default)."""

    name = "torus"

    def __init__(
        self,
        k: int = 8,
        n: int = 2,
        *,
        base_channel_delay: int = 1,
        channel_delay_multiplier: int = 2,
    ):
        super().__init__(
            k,
            n,
            wrap=True,
            channel_delay=base_channel_delay * channel_delay_multiplier,
        )

