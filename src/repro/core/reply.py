"""Enhanced reply models (paper §IV-C2, Fig. 17).

In the baseline batch model a reply is injected the moment the request's
tail flit arrives.  In a real CMP the reply waits for an L2 access, or an
L2 access plus a DRAM access on an L2 miss.  Two models capture this:

* :class:`FixedReply` — constant service latency for every request
  (Fig. 17a/b: 20 and 50 cycles),
* :class:`ProbabilisticReply` — L2 latency on a hit, L2 + memory latency on
  a miss (Fig. 17c: 20 + 0.1·300), which has the same *mean* as a 50-cycle
  fixed model but a long tail, reproducing the paper's observation that
  identical average memory latency can still shift the batch model's
  operating point.

Models are per-traffic-class capable so the OS extension (§V) can give
kernel requests their own L2 miss rate (Table IV).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

__all__ = [
    "ReplyModel",
    "ImmediateReply",
    "FixedReply",
    "ProbabilisticReply",
    "PerClassReply",
]


class ReplyModel(ABC):
    """Maps a delivered request to the service delay before its reply."""

    name: str = "abstract"

    @abstractmethod
    def delay(self, rng: np.random.Generator, traffic_class: int = 0) -> int:
        """Service latency in cycles for one request."""

    @property
    @abstractmethod
    def mean(self) -> float:
        """Expected service latency (class 0)."""

    def __repr__(self) -> str:
        # The model's parameters, not its address: a reply model bound into
        # a sweep runner or swept as an axis is part of the point's cache
        # key, which must be the same in every process.
        params = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{type(self).__name__}({params})"


class ImmediateReply(ReplyModel):
    """Baseline batch model: the reply is injected immediately."""

    name = "immediate"

    def delay(self, rng: np.random.Generator, traffic_class: int = 0) -> int:
        return 0

    @property
    def mean(self) -> float:
        return 0.0


class FixedReply(ReplyModel):
    """Every remote access costs a fixed ``latency`` cycles."""

    name = "fixed"

    def __init__(self, latency: int):
        if latency < 0:
            raise ValueError("latency must be >= 0")
        self.latency = latency

    def delay(self, rng: np.random.Generator, traffic_class: int = 0) -> int:
        return self.latency

    @property
    def mean(self) -> float:
        return float(self.latency)


class ProbabilisticReply(ReplyModel):
    """L2 access, plus a memory access with probability ``l2_miss_rate``.

    Paper defaults: 20-cycle L2, 300-cycle memory, 10% miss rate.
    """

    name = "probabilistic"

    def __init__(
        self,
        l2_latency: int = 20,
        memory_latency: int = 300,
        l2_miss_rate: float = 0.1,
    ):
        if l2_latency < 0 or memory_latency < 0:
            raise ValueError("latencies must be >= 0")
        if not 0.0 <= l2_miss_rate <= 1.0:
            raise ValueError("l2_miss_rate must be in [0, 1]")
        self.l2_latency = l2_latency
        self.memory_latency = memory_latency
        self.l2_miss_rate = l2_miss_rate

    def delay(self, rng: np.random.Generator, traffic_class: int = 0) -> int:
        if rng.random() < self.l2_miss_rate:
            return self.l2_latency + self.memory_latency
        return self.l2_latency

    @property
    def mean(self) -> float:
        return self.l2_latency + self.l2_miss_rate * self.memory_latency


class PerClassReply(ReplyModel):
    """Dispatch to a different model per traffic class.

    Keys are traffic classes (:data:`repro.network.packet.USER` and
    :data:`~repro.network.packet.OS`).
    """

    name = "per_class"

    def __init__(self, models: dict[int, ReplyModel], default: ReplyModel):
        self.models = dict(models)
        self.default = default

    def delay(self, rng: np.random.Generator, traffic_class: int = 0) -> int:
        return self.models.get(traffic_class, self.default).delay(rng, traffic_class)

    @property
    def mean(self) -> float:
        return self.models.get(0, self.default).mean
