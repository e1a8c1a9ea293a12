"""Distributed sweep service: controller, workers, and the remote client.

The paper's premise is bulk evaluation of design points; this package turns
the process-pool sweep engine (:mod:`repro.core.parallel`) into a fleet
service.  A :class:`Controller` shards sweep points across worker nodes
over a line-delimited-JSON TCP protocol (:mod:`repro.service.protocol`),
leasing each point with a deadline and re-queuing it if the worker dies,
hangs, or disconnects.  :class:`Worker` daemons pull leases, execute them
through the exact same runner machinery as a local sweep (per-point derived
seeds ⇒ records bit-identical to serial), and stream results back.  The
content-addressed result cache (:mod:`repro.core.cache`) acts as the shared
store: the controller answers hits without dispatching, and every worker's
result becomes every client's hit.  :func:`run_remote_sweep` is the client
side — same journal/resume/progress contract as
:func:`repro.core.parallel.run_sweep`, pointed at a ``HOST:PORT``.

See DESIGN.md §5h for the failure model (lease lifecycle, heartbeat and
quarantine state machines, local-pool fallback).
"""

from .client import ServiceClient, run_remote_sweep
from .controller import Controller, ControllerServer, ServiceOptions
from .protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    VersionMismatch,
    parse_address,
)
from .worker import Worker

__all__ = [
    "Controller",
    "ControllerServer",
    "MAX_LINE_BYTES",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "ServiceClient",
    "ServiceOptions",
    "VersionMismatch",
    "Worker",
    "parse_address",
    "run_remote_sweep",
]
