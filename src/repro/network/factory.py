"""Backend selection: config -> concrete network instance.

``NetworkConfig.backend`` picks the implementation behind the shared
:class:`~repro.network.base.NetworkLike` protocol:

* ``"object"`` — :class:`~repro.network.network.Network`, the per-flit
  Python-object reference model (supports every feature, incl. faults).
* ``"vectorized"`` — :class:`~repro.network.vectorized.VectorizedNetwork`,
  the struct-of-arrays numpy model, bit-identical on every configuration it
  accepts (see DESIGN.md "Vectorized backend").
* ``"analytical"`` — no network at all: the zero-cycle queueing estimator
  of :mod:`repro.analytical`.  :func:`build_network` rejects it with
  :class:`~repro.network.base.BackendUnsupported` naming the estimator
  API, since cycle drivers cannot simulate a closed-form model.

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
    accepted by the object backend only; the ideal topology is rejected
    here exactly as :class:`Network` rejects it — callers that want the
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
    if backend == "analytical":
        # The zero-cycle estimator has no network to build: it answers in
        # closed form.  Cycle drivers that reach this point were asked to
        # simulate a model — point the user at the estimator API instead.
        from .base import BackendUnsupported

        raise BackendUnsupported(
            "analytical",
            "cycle-level simulation",
            "the analytical backend is a zero-cycle estimator with no "
            "network to step; query it with repro.analytical.estimate() "
            "(CLI: 'repro estimate') or steer a sweep with it "
            "('repro sweep --steer')",
        )
    raise ValueError(
        f"unknown network backend {backend!r}; pick from {NETWORK_BACKENDS}"
    )
