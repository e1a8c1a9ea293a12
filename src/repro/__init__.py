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

Every public name is imported on first use (:mod:`repro._lazy`), so
``import repro`` loads neither numpy nor the simulator.
"""

from . import _lazy

#: public name -> the submodule that defines it
_EXPORTS = {
    "NetworkConfig": ".config",
    "CmpConfig": ".config",
    "Network": ".network",
    "IdealNetwork": ".network",
    "NetworkLike": ".network",
    "Packet": ".network",
    "OpenLoopSimulator": ".core.openloop",
    "OpenLoopResult": ".core.openloop",
    "BatchSimulator": ".core.closedloop",
    "BatchResult": ".core.closedloop",
    "SimulationEngine": ".core.engine",
    "Watchdog": ".core.resilience",
    "SimulationStalled": ".core.resilience",
    "__version__": "._version",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy.lazy_exports(__name__, _EXPORTS)
