"""Network topologies: mesh, folded torus and ring."""

from .base import Channel, Topology
from .mesh import KAryNCube, Mesh
from .registry import build_topology
from .ring import Ring
from .torus import Torus

__all__ = [
    "Channel",
    "Topology",
    "KAryNCube",
    "Mesh",
    "Torus",
    "Ring",
    "build_topology",
]
