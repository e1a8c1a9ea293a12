"""The ``sweep_overhead`` workload's runner.

Module-level and importable by dotted name, because the service leg
resolves it through ``worker.execute_lease`` exactly as a remote worker
would.  It answers in constant time from the configuration alone, so all
the host time of a sweep over it is executor, cache, journal and service.
"""

from __future__ import annotations


def constant_runner(cfg, *, rate):
    zero_load = 6.0 * cfg.router_delay + 8.0
    return {
        "latency": zero_load / (1.0 - rate),
        "throughput": rate * cfg.num_vcs / (cfg.num_vcs + 1.0),
        "buffer_flits": cfg.num_vcs * cfg.vc_buffer_size,
    }
