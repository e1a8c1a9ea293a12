"""Backend selection: config -> concrete network instance.

``NetworkConfig.backend`` picks the implementation behind the shared
:class:`~repro.network.base.NetworkLike` protocol:

* ``"object"`` — :class:`~repro.network.network.Network`, the per-flit
  Python-object reference model (supports every feature, incl. faults).
* ``"vectorized"`` — :class:`~repro.network.vectorized.VectorizedNetwork`,
  the struct-of-arrays numpy model, bit-identical on every configuration it
  accepts (see DESIGN.md "Vectorized backend").

Every driver builds its network through :func:`build_network` so the flag
works uniformly across open-loop, closed-loop, barrier, trace-driven and
execution-driven simulations.
"""

from __future__ import annotations

from ..config import NetworkConfig
from .network import Network

__all__ = [
    "build_network",
    "NETWORK_BACKENDS",
    "vectorized_supports",
]

NETWORK_BACKENDS = ("object", "vectorized")


def vectorized_supports(config: NetworkConfig) -> bool:
    """True when ``config`` is inside the vectorized backend's exact
    envelope (mirrors :class:`VectorizedNetwork`'s constructor checks)."""
    return (
        config.topology in ("mesh", "torus", "ring")
        and config.faults is None
        and config.credit_delay >= 1
    )


def build_network(config: NetworkConfig, **kwargs):
    """Instantiate the network backend selected by ``config.backend``.

    ``kwargs`` (``topology=``, ``routing=``, ``faults=`` overrides) are
    accepted by the object backend only.  Callers that want the
    contention-free fabric construct :class:`IdealNetwork` explicitly.
    """
    backend = getattr(config, "backend", "object")
    if backend == "object":
        return Network(config, **kwargs)
    if backend == "vectorized":
        if kwargs:
            raise TypeError(
                "the vectorized backend takes no construction overrides; "
                f"got {sorted(kwargs)}"
            )
        from .vectorized import VectorizedNetwork

        return VectorizedNetwork(config)
    raise ValueError(
        f"unknown network backend {backend!r}; pick from {NETWORK_BACKENDS}"
    )
