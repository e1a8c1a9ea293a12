"""Topology registry: build a topology from a :class:`NetworkConfig`."""

from __future__ import annotations

from ..config import NetworkConfig
from .base import Topology
from .mesh import Mesh
from .ring import Ring
from .torus import Torus

__all__ = ["build_topology"]


def build_topology(config: NetworkConfig) -> Topology:
    """Construct the topology named by ``config.topology``.

    ``mesh``/``torus`` use (k, n); ``ring`` interprets ``k**n`` as the node
    count so that ``config.num_nodes`` is consistent across topologies (the
    paper compares a 64-node mesh, torus and ring).
    """
    if config.topology == "mesh":
        return Mesh(config.k, config.n, channel_delay=config.link_delay)
    if config.topology == "torus":
        return Torus(config.k, config.n, base_channel_delay=config.link_delay)
    if config.topology == "ring":
        return Ring(config.k**config.n, base_channel_delay=config.link_delay)
    raise ValueError(f"unknown topology {config.topology!r}")
