"""Deterministic random-number discipline for the whole framework.

Every stochastic component of the framework (traffic patterns, injection
processes, adaptive tie-breaking, synthetic benchmark streams) receives its
own :class:`numpy.random.Generator` derived from a single user-supplied seed.
No module touches global RNG state, so a simulation with a given seed is
bit-reproducible regardless of what else ran in the process.

Streams are split with :func:`spawn`, which hashes a parent seed together
with a string label.  Labels make the derivation self-documenting: the
injection stream of node 12 is always ``spawn(seed, "inject", 12)`` and never
collides with, say, the VC tie-break stream of router 12.

A :class:`Stream` serves one scalar draw at a time with the values the
matching ``Generator`` call would return, read from blocks of raw PCG64
output: a hot loop that draws once per event pays a list read, not a numpy
call.
"""

from __future__ import annotations

import zlib
from typing import TYPE_CHECKING, Any, Mapping

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

__all__ = ["spawn", "make_generator", "make_stream", "Stream", "sweep_seed"]

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1
_TWO_POW_M53 = 2.0**-53


def _label_hash(*parts: object) -> int:
    """Stable 64-bit hash of a sequence of labels (ints / strings)."""
    data = "\x1f".join(map(str, parts)).encode("utf-8")
    # crc32 twice with different salts to get 64 stable bits; zlib.crc32 is
    # stable across Python versions, unlike hash().
    lo = zlib.crc32(data)
    hi = zlib.crc32(data + b"\x00salt")
    return ((hi << 32) | lo) & _MASK64


def spawn(seed: int, *labels: object) -> int:
    """Derive a child seed from ``seed`` and a label path.

    The derivation is deterministic and collision-resistant for practical
    purposes (64-bit space, structured labels).

    >>> spawn(1, "inject", 3) == spawn(1, "inject", 3)
    True
    >>> spawn(1, "inject", 3) != spawn(1, "inject", 4)
    True
    """
    return (int(seed) * 0x9E3779B97F4A7C15 + _label_hash(*labels)) & _MASK64


def make_generator(seed: int, *labels: object) -> np.random.Generator:
    """A :class:`numpy.random.Generator` for the stream named by ``labels``.

    numpy is imported here, not at module top: :func:`spawn` and
    :func:`sweep_seed` serve the sweep ledger and the service, which never
    draw a number.
    """
    import numpy as np

    return np.random.default_rng(spawn(seed, *labels))


class Stream:
    """Scalar ``random()`` and ``integers(low, high)`` from raw PCG64 blocks.

    Each call returns exactly what ``numpy.random.Generator.random()`` or
    ``Generator.integers(low, high)`` would return at the same position of
    the same bit generator, as a Python ``float`` / ``int``:

    * ``random()`` is ``(u64 >> 11) * 2**-53``, numpy's double;
    * ``integers`` for ``high - low <= 2**32`` is numpy's 32-bit Lemire draw
      on 32-bit halves of the raw output, low half first, the high half kept
      for the next 32-bit draw (PCG64's ``has_uint32``/``uinteger`` buffer,
      taken over from ``bit_generator.state`` when the stream is built);
      a span of exactly ``2**32`` is the raw half itself.

    The stream reads ``block`` raw outputs ahead, so it must be the only
    consumer of its bit generator: :func:`make_stream` builds one and keeps
    it.  Vector draws stay on ``Generator``s.
    """

    __slots__ = ("_bitgen", "_block", "_it", "_half")

    def __init__(self, bit_generator: Any, block: int = 64):
        if not 1 <= block <= 64:
            raise ValueError("block must be in [1, 64]")
        state = bit_generator.state
        self._bitgen = bit_generator
        self._block = block
        self._it = iter(())
        self._half = state["uinteger"] if state["has_uint32"] else None

    def _next64(self) -> int:
        try:
            return next(self._it)
        except StopIteration:
            self._it = iter(self._bitgen.random_raw(self._block).tolist())
            return next(self._it)

    def random(self) -> float:
        """A double in [0, 1), as ``Generator.random()``."""
        try:
            return (next(self._it) >> 11) * _TWO_POW_M53
        except StopIteration:
            return (self._next64() >> 11) * _TWO_POW_M53

    def _next32(self) -> int:
        """PCG64's ``next_uint32``: the low half of a raw output, then its
        high half."""
        half = self._half
        if half is not None:
            self._half = None
            return half
        raw = self._next64()
        self._half = raw >> 32
        return raw & _MASK32

    def integers(self, low: int, high: int) -> int:
        """An int in [low, high), as ``Generator.integers(low, high)``."""
        span = high - low
        if span <= 1:
            if span == 1:
                return low
            raise ValueError("low >= high")
        if span > 1 << 32:
            raise ValueError("Stream.integers draws spans up to 2**32")
        if span == 1 << 32:
            return low + self._next32()
        # Lemire: scale a 32-bit draw by the span; reject a low word below
        # 2**32 % span (bounded above by span, so that test comes first).
        m = self._next32() * span
        if m & _MASK32 < span:
            threshold = (1 << 32) % span
            while m & _MASK32 < threshold:
                m = self._next32() * span
        return low + (m >> 32)


def make_stream(seed: int, *labels: object) -> Stream:
    """The :class:`Stream` of the PCG64 that ``make_generator(seed, *labels)``
    wraps: the same labels give the same scalar draws."""
    import numpy as np

    return Stream(np.random.PCG64(spawn(seed, *labels)))


def sweep_seed(seed: int, point: Mapping[str, object]) -> int:
    """Child seed for one design-space sweep point.

    The derivation depends only on the point's coordinates (axis name to
    value), never on enumeration order, worker assignment, or which other
    points run in the same process — so a point's stochastic streams are
    identical whether it runs serially, in a process pool, or after a
    checkpoint/resume.  Axis names are sorted before hashing, making two
    mappings with the same items but different insertion order equivalent.

    >>> sweep_seed(1, {"tr": 2, "m": 4}) == sweep_seed(1, {"m": 4, "tr": 2})
    True
    >>> sweep_seed(1, {"tr": 2}) != sweep_seed(1, {"tr": 4})
    True
    """
    labels: list[object] = []
    for name in sorted(point):
        labels.append(name)
        labels.append(repr(point[name]))
    return spawn(seed, "sweep-point", *labels)
