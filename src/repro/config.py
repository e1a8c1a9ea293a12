"""Simulation parameter space (paper Tables I and II).

:class:`NetworkConfig` captures every network-level knob evaluated in the
paper's Table I; :class:`CmpConfig` captures the execution-driven
Simics/GEMS+Garnet configuration of Table II.  Defaults are the paper's
baseline (bold values in Table I).

Validation happens eagerly in ``__post_init__`` so that a bad sweep point
fails before a multi-minute simulation starts.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, fields, replace
from typing import Any

__all__ = [
    "NetworkConfig",
    "CmpConfig",
    "FIELD_CHOICES",
    "INT_FIELDS",
    "TABLE_I_PARAMETER_SPACE",
    "TABLE_II_PARAMETERS",
]

#: Legal values per categorical :class:`NetworkConfig` field, the one list
#: of them: ``__post_init__`` checks every field here, the CLI takes its
#: flag choices from it, and the design-space explorer
#: (:mod:`repro.core.explore`) validates gene values against it up front,
#: so a typo'd space fails before any simulation.  Numeric fields (``k``,
#: ``num_vcs``, ...) are absent: their ranges are open and checked by
#: construction.
FIELD_CHOICES: dict[str, tuple[str, ...]] = {
    "topology": ("mesh", "torus", "ring"),
    "routing": ("dor", "val", "ma", "romm"),
    "arbitration": ("round_robin", "age", "priority"),
    "traffic": ("uniform_random", "bit_reversal", "bit_complement", "transpose"),
    "packet_size": ("single", "bimodal"),
    "backend": ("object", "vectorized"),
    "dateline": ("balanced", "strict"),
}


@dataclass(frozen=True)
class NetworkConfig:
    """Network configuration; defaults are the paper's baseline (Table I).

    Parameters
    ----------
    topology:
        ``"mesh"`` (k-ary 2-cube mesh), ``"torus"`` (folded) or ``"ring"``.
        The contention-free NAR reference is not a topology: it is
        :class:`repro.network.ideal.IdealNetwork`, built directly.
    k:
        Radix per dimension; the paper uses 8 (64 nodes) and 16 (256 nodes)
        for network studies and 4 (16 nodes) for the CMP comparison.
    n:
        Number of dimensions (2 for mesh/torus; ignored by ring).
    num_vcs:
        Virtual channels per physical channel (paper: 2 or 4).
    vc_buffer_size:
        Flit buffer depth per VC, the paper's ``q`` (1..32).
    router_delay:
        Per-hop router pipeline delay in cycles, the paper's ``tr`` (1..8).
    routing:
        ``"dor"``, ``"val"``, ``"ma"`` or ``"romm"``.
    arbitration:
        ``"round_robin"`` or ``"age"`` (the paper's Table I), or
        ``"priority"``: the OS model's kernel traffic outranks user traffic
        at the source queue and the switch, age/pid/ivc tie-break
        (:mod:`repro.network.packet`).
    link_delay:
        Channel delay in cycles (1 in Table I; the folded torus doubles it
        internally as §III-C notes).
    packet_size:
        ``"single"`` (1 flit) or ``"bimodal"`` (1-flit and 4-flit mix).
    bimodal_long_fraction:
        Fraction of packets that are long under the bimodal distribution.
    traffic:
        Spatial traffic pattern name.
    credit_delay:
        Cycles for a credit to travel upstream.
    seed:
        Root RNG seed for all stochastic streams of the simulation.  Sweep
        drivers derive per-point child seeds from it via
        :func:`repro.rng.sweep_seed`; it is normalized to a plain ``int``
        (numpy integers included) so the derivation and journal round-trips
        are well-defined.
    """

    topology: str = "mesh"
    k: int = 8
    n: int = 2
    num_vcs: int = 2
    vc_buffer_size: int = 4
    router_delay: int = 1
    routing: str = "dor"
    arbitration: str = "round_robin"
    link_delay: int = 1
    packet_size: str = "single"
    bimodal_long_fraction: float = 0.5
    bimodal_long_size: int = 4
    traffic: str = "uniform_random"
    credit_delay: int = 1
    #: network implementation: "object" (per-flit Python objects, the
    #: reference cycle-level model) or "vectorized" (struct-of-arrays numpy
    #: backend, bit-identical on every supported configuration — see
    #: DESIGN.md "Vectorized backend").  The backend is part of the result
    #: cache fingerprint, so cached records never cross backends.
    backend: str = "object"
    #: VC-class discipline for DOR on wrapped topologies: "balanced"
    #: (default; both classes carry traffic) or "strict" (textbook
    #: dateline; kept for the ablation study).
    dateline: str = "balanced"
    seed: int = 1

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "seed", int(self.seed))
        except (TypeError, ValueError):
            raise ValueError(f"seed must be an integer, got {self.seed!r}") from None
        for name, choices in FIELD_CHOICES.items():
            if getattr(self, name) not in choices:
                raise ValueError(
                    f"unknown {name} {getattr(self, name)!r}; pick from {choices}"
                )
        for name in INT_FIELDS:
            try:
                operator.index(getattr(self, name))
            except TypeError:
                raise ValueError(
                    f"{name} must be an integer, got {getattr(self, name)!r}"
                ) from None
        if self.k < 2:
            raise ValueError("k must be >= 2")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.num_vcs < 1:
            raise ValueError("num_vcs must be >= 1")
        if self.num_vcs < 2 and self.topology in ("torus", "ring"):
            raise ValueError("torus/ring DOR needs >= 2 VCs for the dateline scheme")
        if self.num_vcs < 2 and self.routing in ("val", "ma", "romm"):
            raise ValueError(f"routing {self.routing!r} needs >= 2 VCs")
        if self.routing in ("val", "ma", "romm") and self.topology != "mesh":
            raise ValueError(
                f"routing {self.routing!r} is implemented for the mesh only "
                "(as evaluated in the paper)"
            )
        if self.vc_buffer_size < 1:
            raise ValueError("vc_buffer_size must be >= 1")
        if self.router_delay < 1:
            raise ValueError("router_delay must be >= 1")
        if self.link_delay < 1:
            raise ValueError("link_delay must be >= 1")
        if self.credit_delay < 0:
            raise ValueError("credit_delay must be >= 0")
        if not 0.0 <= self.bimodal_long_fraction <= 1.0:
            raise ValueError("bimodal_long_fraction must be in [0, 1]")
        if self.bimodal_long_size < 2:
            raise ValueError("bimodal_long_size must be >= 2")

    @property
    def num_nodes(self) -> int:
        """Total node count: k**n for every topology.

        The ring is built on k**n nodes (a 64-node ring is ``k=8, n=2``) so
        that node counts line up across the paper's topology comparison.
        """
        return self.k**self.n

    def with_(self, **changes: Any) -> "NetworkConfig":
        """Return a copy with ``changes`` applied (frozen-dataclass update)."""
        return replace(self, **changes)

    def with_seed(self, seed: Any) -> "NetworkConfig":
        """``with_(seed=seed)`` without re-validating the other fields.

        Every other field of ``self`` already passed ``__post_init__``, and
        the seed's only rule is ``int()`` — so the copy is a field-for-field
        clone with the normalized seed laid over it, equal (and hashing
        equal) to what ``with_(seed=seed)`` returns, with the same error for
        a seed that is not an integer.  Sweep execution resolves a
        combination's config once and derives each point's from it this way.
        """
        try:
            seed = int(seed)
        except (TypeError, ValueError):
            raise ValueError(f"seed must be an integer, got {seed!r}") from None
        clone = object.__new__(type(self))
        clone.__dict__.update(self.__dict__, seed=seed)
        return clone


#: The integer-valued :class:`NetworkConfig` fields, read off the dataclass
#: (an ``int`` default).  Each must be integral (``operator.index``: numpy
#: integers pass, ``2.5`` does not), so a fractional buffer depth fails at
#: construction instead of simulating as some other depth.  ``seed`` is
#: normalised by its own rule.
INT_FIELDS: tuple[str, ...] = tuple(
    f.name for f in fields(NetworkConfig) if type(f.default) is int and f.name != "seed"
)


@dataclass(frozen=True)
class CmpConfig:
    """Execution-driven CMP configuration (paper Table II defaults).

    The paper models 16 in-order SPARC cores on a 4×4 mesh with split 32 KB
    L1s (2-cycle), a 512 KB-per-tile shared L2 (10-cycle), and 300-cycle
    DRAM.  Cache sizes here are expressed in *lines* since the substrate is
    line-granular.
    """

    num_cores: int = 16
    l1_lines: int = 512  # 32 KB / 64 B
    l1_assoc: int = 4
    l1_latency: int = 2
    l2_lines_per_tile: int = 8192  # 512 KB / 64 B
    l2_assoc: int = 8
    l2_latency: int = 10
    memory_latency: int = 300
    line_bytes: int = 64
    mshrs: int = 8
    #: fraction of L1 misses that are blocking loads (in-order pipeline
    #: waits for the reply); the rest are store/prefetch-like.
    blocking_fraction: float = 0.7
    network: NetworkConfig = field(
        default_factory=lambda: NetworkConfig(k=4, n=2, num_vcs=8, vc_buffer_size=4)
    )

    def __post_init__(self) -> None:
        if self.num_cores < 1:
            raise ValueError("num_cores must be >= 1")
        if self.network.num_nodes != self.num_cores:
            raise ValueError(
                f"network has {self.network.num_nodes} nodes but num_cores={self.num_cores}"
            )
        for name in ("l1_lines", "l1_assoc", "l2_lines_per_tile", "l2_assoc", "mshrs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not 0.0 <= self.blocking_fraction <= 1.0:
            raise ValueError("blocking_fraction must be in [0, 1]")
        if self.l1_lines % self.l1_assoc:
            raise ValueError("l1_lines must be a multiple of l1_assoc")
        if self.l2_lines_per_tile % self.l2_assoc:
            raise ValueError("l2_lines_per_tile must be a multiple of l2_assoc")

    def with_(self, **changes: Any) -> "CmpConfig":
        """Return a copy with ``changes`` applied."""
        return replace(self, **changes)


#: Paper Table I — the full open/closed-loop parameter space evaluated.
TABLE_I_PARAMETER_SPACE: dict[str, tuple] = {
    "topology": ("8x8 2D mesh", "16x16 2D mesh"),
    "virtual_channels": (2, 4),
    "vc_buffer_size": (1, 2, 4, 8, 16),
    "router_delay": (1, 2, 4, 8),
    "routing": ("DOR", "VAL", "MA", "ROMM"),
    "arbitration": ("round_robin", "age"),
    "link_delay": (1,),
    "link_bandwidth_flits_per_cycle": (1,),
    "packet_sizes": ("1 flit", "bimodal 1/4 flit"),
    "traffic": ("uniform_random", "bit_reversal", "bit_complement", "transpose"),
}

#: Paper Table II — Simics/GEMS+Garnet configuration.
TABLE_II_PARAMETERS: dict[str, str] = {
    "processor": "16 in-order SPARC cores",
    "l1": "split I&D, 32 KB 4-way, 2-cycle, 64 B lines",
    "l2": "shared, 512 KB/tile (8 MB total), 10-cycle, 64 B lines",
    "memory": "300-cycle DRAM",
    "network": "4-ary 2-cube mesh, 16 B links, tr in {1,2,4,8}, 8 VCs x 4 bufs, DOR",
}
