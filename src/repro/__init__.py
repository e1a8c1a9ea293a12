"""repro — On-Chip Network Evaluation Framework (SC 2010 reproduction).

A production-quality reimplementation of Kim, Heo, Lee, Huh & Kim,
"On-Chip Network Evaluation Framework" (SC 2010): a cycle-level NoC
simulator, open-loop and closed-loop (batch) measurement harnesses, the
paper's enhanced injection / reply / OS-traffic models, an execution-driven
CMP substrate, and the correlation methodology tying them together.

Quick taste::

    from repro import NetworkConfig, OpenLoopSimulator, BatchSimulator

    cfg = NetworkConfig(k=8, n=2)          # 8x8 mesh, Table I baseline
    ol = OpenLoopSimulator(cfg)
    print(ol.run(injection_rate=0.1).avg_latency)

    cl = BatchSimulator(cfg, batch_size=100, max_outstanding=4)
    print(cl.run().runtime)
"""

from .classes import TrafficClass, parse_classes
from .config import CmpConfig, NetworkConfig
from .core.closedloop import BatchResult, BatchSimulator
from .core.engine import Phase, SimulationEngine
from .core.openloop import OpenLoopResult, OpenLoopSimulator
from .core.probes import ProbeSet, build_probes
from .core.resilience import (
    FaultPlan,
    SimulationStalled,
    UnreachableDestination,
    Watchdog,
)
from .network import IdealNetwork, Network, NetworkLike, Packet

__all__ = [
    "NetworkConfig",
    "CmpConfig",
    "TrafficClass",
    "parse_classes",
    "Network",
    "IdealNetwork",
    "NetworkLike",
    "Packet",
    "OpenLoopSimulator",
    "OpenLoopResult",
    "BatchSimulator",
    "BatchResult",
    "SimulationEngine",
    "Phase",
    "ProbeSet",
    "build_probes",
    "FaultPlan",
    "Watchdog",
    "SimulationStalled",
    "UnreachableDestination",
    "__version__",
]


def _detect_version() -> str:
    """Single-source the version from packaging metadata.

    Run from a checkout (``PYTHONPATH=src`` or ``pip install -e``): the
    adjacent ``pyproject.toml`` answers when it names project ``repro`` —
    one small file read.  Installed as a wheel there is no such file and
    ``importlib.metadata`` has the version; asking it first would cost a
    scan of every ``sys.path`` entry on each start from a checkout.
    """
    import pathlib
    import re

    try:
        text = (pathlib.Path(__file__).resolve().parents[2] / "pyproject.toml").read_text(
            encoding="utf-8"
        )
    except OSError:
        text = ""
    # A targeted regex instead of a TOML parser: tomllib is 3.11+ and this
    # package supports 3.10.
    match = re.search(r'^version\s*=\s*"([^"]+)"', text, re.M)
    if match and re.search(r'^name\s*=\s*"repro"', text, re.M):
        return match.group(1)
    try:
        from importlib.metadata import version

        return version("repro")
    except Exception:  # PackageNotFoundError, or a metadata backend quirk
        return "0.0.0+unknown"


def __getattr__(name: str):
    # ``__version__`` is resolved on first use (PEP 562) and then stored, so
    # ``import repro`` itself reads no file and imports no metadata backend.
    if name == "__version__":
        value = globals()["__version__"] = _detect_version()
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
