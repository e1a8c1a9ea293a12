"""Wire protocol of the sweep service: line-delimited JSON over TCP.

One message per line, UTF-8 JSON objects with a ``"type"`` field, newline
terminated.  The protocol is strictly request/reply and worker-initiated
(workers *pull* work; the controller never opens connections), which keeps
NAT'd and firewalled workers trivial and makes every peer's read loop a
plain ``readline()``.

Message types (``→`` request, ``←`` reply):

========== =============================================================
worker     ``hello`` → ``welcome`` · ``request`` → ``lease``/``idle`` ·
           ``heartbeat`` → ``ok`` · ``result`` → ``ok``/``stale``
client     ``hello`` → ``welcome`` · ``submit`` → ``submitted`` ·
           ``poll`` → ``status`` · ``info`` → ``service``
any        malformed input → ``error`` (connection stays up)
========== =============================================================

A ``lease`` names the point (``index``, ``attempt``, ``overrides``,
``kwargs``, ``seed``) and the job's *spec*: ``"spec"`` is a content id —
:func:`repro.core.cache.fingerprint` of the job's base config and runner
spec — and the body it names (``"config"`` + ``"runner"``) rides along only
when that id is not the last one the controller sent on this connection.
So the first lease of a connection, and the first after the connection
was handed another job's point (a retried point of an earlier job
included), carries the body; every other lease is slim, and the worker
executes it from the spec it resolved when the body arrived.  A worker
that does not hold the named id answers with a failed record naming it,
never with another job's spec.  A lease with a body and no id (protocol 1's
shape) still executes.

Versioning: both ``hello`` messages state ``"protocol"``
(:data:`PROTOCOL_VERSION`) and so does ``welcome``.  The controller answers
a hello stating a *different* version with an ``error`` naming both; a
hello stating none is taken as current (hand-driven sessions, and peers
from before the field existed).  Worker and client refuse a ``welcome`` of
another version (:func:`check_welcome`) and do not retry it — controller
and workers upgrade together.

Robustness rules every peer follows:

* a line over :data:`MAX_LINE_BYTES` is a protocol violation — the
  connection is dropped rather than buffering unbounded garbage;
* garbage JSON or a non-object line yields an ``error`` reply and the
  connection survives (one bad frame must not kill a worker's leases);
* EOF mid-stream is a disconnect, never an error to retry on the same
  socket.
"""

from __future__ import annotations

import json
import socket
import threading
from typing import Any, Mapping, Optional

from ..analysis.io import json_default

__all__ = [
    "MAX_LINE_BYTES",
    "PROTOCOL_VERSION",
    "MessageStream",
    "ProtocolError",
    "VersionMismatch",
    "check_welcome",
    "decode",
    "encode",
    "parse_address",
]

#: Bumped on incompatible wire changes; ``hello`` and ``welcome`` carry it.
#: 2: leases name their job spec by content id and carry its body only when
#: the connection has not just been sent it.
#: 3: a job's ``config`` body has no ``faults`` key (the field is gone, and
#: a version-2 peer would send ``"faults": null``, which this one refuses).
#: 4: a job's ``config`` body has no ``classes`` key (the class registry is
#: gone; a version-3 peer would send one, which this one refuses).
PROTOCOL_VERSION = 4

#: Hard cap on one frame.  A lease for a large config is a few KiB; 8 MiB
#: leaves room for bulky poll replies while bounding a hostile or corrupt
#: peer's memory impact.
MAX_LINE_BYTES = 8 * 1024 * 1024


class ProtocolError(RuntimeError):
    """A frame that violates the wire protocol (size, syntax, or shape)."""


class VersionMismatch(ProtocolError):
    """The peer speaks another :data:`PROTOCOL_VERSION`; retrying cannot help."""


#: Built once: ``json.dumps(default=)`` constructs an encoder per call.
#: numpy values stay numeric on the wire (bit-exact floats).
_encode_json = json.JSONEncoder(default=json_default, separators=(",", ":")).encode


def encode(msg: Mapping[str, Any]) -> bytes:
    """One message as a newline-terminated UTF-8 JSON line."""
    data = _encode_json(dict(msg)).encode("utf-8") + b"\n"
    if len(data) > MAX_LINE_BYTES:
        raise ProtocolError(f"message of {len(data)} bytes exceeds {MAX_LINE_BYTES}")
    return data


def decode(line: bytes | str) -> dict[str, Any]:
    """Parse one frame; raises :class:`ProtocolError` on any violation."""
    if isinstance(line, bytes):
        if len(line) > MAX_LINE_BYTES:
            raise ProtocolError(f"frame of {len(line)} bytes exceeds {MAX_LINE_BYTES}")
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"frame is not UTF-8: {exc}") from None
    try:
        msg = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"frame is not JSON: {exc}") from None
    if not isinstance(msg, dict):
        raise ProtocolError(f"frame is a JSON {type(msg).__name__}, not an object")
    if not isinstance(msg.get("type"), str):
        raise ProtocolError("frame has no string 'type' field")
    return msg


def check_welcome(reply: Mapping[str, Any]) -> None:
    """Accept the reply to a ``hello`` only if it is this version's ``welcome``.

    Raises :class:`VersionMismatch` when the reply states another protocol
    version (a ``welcome`` must state one; the controller's version refusal
    states its own), and plain :class:`ProtocolError` for any other refusal.
    """
    welcomed = reply.get("type") == "welcome"
    if (welcomed or "protocol" in reply) and reply.get("protocol") != PROTOCOL_VERSION:
        raise VersionMismatch(
            f"controller speaks protocol {reply.get('protocol')!r}, this peer speaks "
            f"{PROTOCOL_VERSION}: upgrade controller and workers together"
        )
    if not welcomed:
        raise ProtocolError(f"controller refused hello: {reply}")


def parse_address(address: str) -> tuple[str, int]:
    """``"host:port"`` → ``(host, port)``; bare port implies localhost.

    IPv6 hosts use the standard bracket form (``"[::1]:9000"``); the
    brackets are the address *syntax*, not part of the host, so they are
    stripped from the returned host (``socket.connect`` rejects them).
    """
    host, sep, port = address.rpartition(":")
    if not sep:
        host, port = "127.0.0.1", address
    if host.startswith("[") and host.endswith("]"):
        host = host[1:-1]
    try:
        port_num = int(port)
    except ValueError:
        raise ValueError(
            f"invalid service address {address!r}: port must be an integer"
        ) from None
    if not (0 < port_num < 65536):
        raise ValueError(f"invalid service address {address!r}: port out of range")
    return host or "127.0.0.1", port_num


class MessageStream:
    """Framed messages over one socket, with a locked request/reply helper.

    ``rpc`` holds a lock across the send/recv pair so a worker's heartbeat
    thread and its main loop can share one connection without interleaving
    replies — the protocol is strictly one reply per request, in order.
    """

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._rfile = sock.makefile("rb")
        self._lock = threading.Lock()

    def send(self, msg: Mapping[str, Any]) -> None:
        self._sock.sendall(encode(msg))

    def recv(self) -> Optional[dict[str, Any]]:
        """The next message, or ``None`` on a clean EOF."""
        line = self._rfile.readline(MAX_LINE_BYTES + 1)
        if not line:
            return None
        if len(line) > MAX_LINE_BYTES:
            raise ProtocolError(f"peer sent a frame over {MAX_LINE_BYTES} bytes")
        return decode(line)

    def rpc(self, msg: Mapping[str, Any]) -> dict[str, Any]:
        """Send one request and return its reply; EOF is a ConnectionError."""
        with self._lock:
            self.send(msg)
            reply = self.recv()
        if reply is None:
            raise ConnectionError("connection closed while awaiting reply")
        return reply

    def close(self) -> None:
        try:
            self._rfile.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass
        try:
            self._sock.close()
        except OSError:  # pragma: no cover
            pass

    def __enter__(self) -> "MessageStream":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
