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
"""

from __future__ import annotations

import zlib
from typing import TYPE_CHECKING, Mapping

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

__all__ = ["spawn", "make_generator", "python_randbits", "sweep_seed"]

_MASK64 = (1 << 64) - 1


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


def python_randbits(gen: np.random.Generator, bits: int = 30) -> int:
    """Draw an integer with ``bits`` random bits from a numpy generator.

    Handy when a plain Python integer is needed in a hot loop.
    """
    return int(gen.integers(0, 1 << bits))
