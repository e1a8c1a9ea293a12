"""Execution-driven CMP substrate (the Simics/GEMS+Garnet stand-in)."""

from ..network.packet import OS, USER
from .address import AddressSpace, MixtureStream
from .benchmarks import (
    BENCHMARKS,
    BenchmarkSpec,
    PhaseSpec,
    barnes,
    blackscholes,
    canneal,
    fft,
    lu,
)
from .cache import CacheStats, SetAssocCache
from .characterize import Characterization, characterize, derive_batch_params
from .cmp import REPLY_FLITS, REQUEST_FLITS, CmpResult, CmpSystem
from .core import InOrderCore
from .kernel import (
    SCALE,
    TIMER_INTERVAL_3GHZ,
    TIMER_INTERVAL_75MHZ,
    timer_interval_cycles,
)
from .memsys import HomeTile
from .mshr import MSHRFile

__all__ = [
    "AddressSpace",
    "MixtureStream",
    "BenchmarkSpec",
    "PhaseSpec",
    "BENCHMARKS",
    "USER",
    "OS",
    "blackscholes",
    "lu",
    "canneal",
    "fft",
    "barnes",
    "SetAssocCache",
    "CacheStats",
    "MSHRFile",
    "InOrderCore",
    "HomeTile",
    "CmpSystem",
    "CmpResult",
    "REQUEST_FLITS",
    "REPLY_FLITS",
    "Characterization",
    "characterize",
    "derive_batch_params",
    "TIMER_INTERVAL_3GHZ",
    "TIMER_INTERVAL_75MHZ",
    "timer_interval_cycles",
    "SCALE",
]
