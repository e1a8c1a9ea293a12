"""Routing algorithms: DOR, Valiant, minimal adaptive, ROMM."""

from .base import RouteCandidate, RoutingAlgorithm, vc_range
from .dor import DOR, dor_port
from .minimal_adaptive import MinimalAdaptive
from .registry import build_routing
from .romm import ROMM
from .valiant import Valiant

__all__ = [
    "RouteCandidate",
    "RoutingAlgorithm",
    "vc_range",
    "DOR",
    "dor_port",
    "Valiant",
    "ROMM",
    "MinimalAdaptive",
    "build_routing",
]
