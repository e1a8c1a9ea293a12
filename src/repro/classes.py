"""First-class traffic classes: the registry behind ``NetworkConfig.classes``.

A :class:`TrafficClass` names one priority/weight level of traffic.  The
tuple of classes configured on a :class:`~repro.config.NetworkConfig` is the
*class registry* of a run: traffic generators tag every packet with its
class index, the priority/weighted switch arbiters read per-class priority
and weight from it, and metrics/probes break results down by it.

The default registry is a single class whose behaviour is bit-identical to
the pre-class code: class index 0, priority 0, weight 1, the config's own
traffic pattern, and the full injection rate.  Multi-class behaviour only
engages when more than one class is configured (per-class injection
sub-streams) or a class-aware arbitration is selected.

Spec grammar (CLI ``--classes`` and string configs)::

    classes ::= entry (("+" | ",") entry)*
    entry   ::= name (":" key "=" value)*     keys: priority, weight,
                                              share, pattern
    classes ::= <integer N>                   N classes c0..c{N-1}, c0
                                              highest priority

``"+"`` and ``","`` both separate entries; sweep axes use ``"+"`` because
``","`` already separates axis values (``--axis "classes=hi+lo,hi:share=0.5+lo"``).

This module sits below :mod:`repro.config` in the import graph and must not
import anything from the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite
from typing import Iterable, Optional, Union

__all__ = [
    "TrafficClass",
    "DEFAULT_CLASSES",
    "USER_OS_CLASSES",
    "USER_CLASS",
    "OS_CLASS",
    "parse_classes",
    "format_classes",
    "class_shares",
    "inject_order",
]

#: Index of user (application) traffic in every registry; request/reply
#: models and the closed-loop batch machine treat class 0 as user work.
USER_CLASS = 0
#: Index of OS (kernel) traffic in registries that model it (paper §V).
OS_CLASS = 1

_SEPARATORS = ",+:= \t"


@dataclass(frozen=True)
class TrafficClass:
    """One traffic class of the registry.

    ``priority`` orders classes under strict-priority arbitration (higher
    wins); ``weight`` is the integer service weight under weighted-fair
    arbitration; ``share`` is this class's relative slice of the offered
    injection rate (normalized over the registry); ``pattern`` optionally
    overrides the config's spatial traffic pattern for this class only.
    """

    name: str = "default"
    priority: int = 0
    weight: int = 1
    share: float = 1.0
    pattern: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ValueError(f"class name must be a non-empty string, got {self.name!r}")
        if any(ch in self.name for ch in _SEPARATORS):
            raise ValueError(
                f"class name {self.name!r} may not contain any of {_SEPARATORS!r}"
            )
        if not isinstance(self.priority, int) or isinstance(self.priority, bool):
            raise ValueError(f"class {self.name!r}: priority must be an int")
        if self.priority < 0:
            raise ValueError(f"class {self.name!r}: priority must be >= 0")
        if not isinstance(self.weight, int) or isinstance(self.weight, bool):
            raise ValueError(f"class {self.name!r}: weight must be an int")
        if self.weight < 1:
            raise ValueError(f"class {self.name!r}: weight must be >= 1")
        share = float(self.share)
        if not isfinite(share) or share <= 0.0:
            raise ValueError(f"class {self.name!r}: share must be finite and > 0")
        object.__setattr__(self, "share", share)


#: The single-class default registry: bit-identical to the pre-class code.
DEFAULT_CLASSES: tuple[TrafficClass, ...] = (TrafficClass(),)

#: The paper's §V kernel-model registry: user traffic (class 0) plus OS
#: traffic (class 1) at higher priority, so strict-priority arbitration and
#: the batch model's OS-preempts-user injection order both fall out of the
#: registry instead of hard-coded constants.
USER_OS_CLASSES: tuple[TrafficClass, ...] = (
    TrafficClass("user"),
    TrafficClass("os", priority=1),
)

ClassesSpec = Union[
    None, int, str, TrafficClass, Iterable[Union[TrafficClass, dict, str]]
]

_ENTRY_KEYS = ("priority", "weight", "share", "pattern")


def _parse_entry(entry: str) -> TrafficClass:
    parts = entry.split(":")
    kwargs: dict = {"name": parts[0].strip()}
    for part in parts[1:]:
        key, sep, value = part.partition("=")
        key = key.strip()
        if not sep or key not in _ENTRY_KEYS:
            raise ValueError(
                f"bad class spec {entry!r}: expected name[:key=value]* with "
                f"keys from {_ENTRY_KEYS}"
            )
        value = value.strip()
        if key in ("priority", "weight"):
            kwargs[key] = int(value)
        elif key == "share":
            kwargs[key] = float(value)
        else:
            kwargs[key] = value
    return TrafficClass(**kwargs)


def _numbered(count: int) -> tuple[TrafficClass, ...]:
    if count < 1:
        raise ValueError("class count must be >= 1")
    # c0 gets the highest priority so ``--classes 2`` demonstrates
    # latency separation out of the box.
    return tuple(
        TrafficClass(f"c{i}", priority=count - 1 - i) for i in range(count)
    )


def parse_classes(spec: ClassesSpec) -> tuple[TrafficClass, ...]:
    """Normalize any accepted ``classes=`` spec into a registry tuple.

    Accepts ``None`` (the default single class), an integer count, a spec
    string (grammar above), a single :class:`TrafficClass`, or an iterable
    mixing :class:`TrafficClass` instances, dicts of constructor kwargs, and
    single-entry spec strings.  Raises :class:`ValueError` on anything
    malformed — eagerly, so a bad sweep point fails before simulation.
    """
    if spec is None:
        return DEFAULT_CLASSES
    if isinstance(spec, TrafficClass):
        return (spec,)
    if isinstance(spec, bool):
        raise ValueError(f"bad classes spec {spec!r}")
    if isinstance(spec, int):
        return _numbered(spec)
    if isinstance(spec, str):
        text = spec.strip()
        if not text:
            return DEFAULT_CLASSES
        try:
            return _numbered(int(text))
        except ValueError:
            pass
        entries = [e for e in text.replace("+", ",").split(",") if e.strip()]
        classes = tuple(_parse_entry(e) for e in entries)
    else:
        items = list(spec)
        classes = tuple(
            item
            if isinstance(item, TrafficClass)
            else TrafficClass(**item)
            if isinstance(item, dict)
            else _parse_entry(str(item))
            for item in items
        )
    if not classes:
        raise ValueError("classes must name at least one traffic class")
    names = [c.name for c in classes]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate class names in {names}")
    return classes


def format_classes(classes: Iterable[TrafficClass]) -> str:
    """Round-trippable spec string for a registry (inverse of parsing)."""
    entries = []
    for c in classes:
        entry = c.name
        if c.priority:
            entry += f":priority={c.priority}"
        if c.weight != 1:
            entry += f":weight={c.weight}"
        if c.share != 1.0:
            entry += f":share={c.share}"
        if c.pattern is not None:
            entry += f":pattern={c.pattern}"
        entries.append(entry)
    return ",".join(entries)


def class_shares(classes: Iterable[TrafficClass]) -> tuple[float, ...]:
    """Per-class fraction of the offered rate (shares normalized to 1)."""
    raw = [c.share for c in classes]
    total = sum(raw)
    return tuple(s / total for s in raw)


def inject_order(classes: Iterable[TrafficClass]) -> tuple[int, ...]:
    """Class indices in injection-preference order: priority desc, index asc.

    The closed-loop batch machine serves a node's pending work in this
    order; for :data:`USER_OS_CLASSES` it reproduces the paper's
    OS-preempts-user rule.
    """
    cls = list(classes)
    return tuple(sorted(range(len(cls)), key=lambda i: (-cls[i].priority, i)))


def source_queue_order(classes: Iterable[TrafficClass], arbitration: str) -> tuple[int, ...]:
    """A node's network source queues, in the order the node drains them.

    Under class-aware arbitration (``priority``, ``weighted``) each class
    has its own queue, served in :func:`inject_order`, so a high-priority
    packet bypasses a lower-priority backlog at a packet boundary.  Under
    ``round_robin`` and ``age`` a node has one FIFO, ``(0,)``: its packets
    leave in offer order whatever their class, as in the execution-driven
    CMP.
    """
    if arbitration in ("priority", "weighted"):
        return inject_order(classes)
    return (0,)
