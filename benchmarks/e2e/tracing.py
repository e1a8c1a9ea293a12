"""In-memory span recorder and the timing proxies the traced run hands in.

Nothing under ``src/`` knows about tracing: every span is recorded from
here, around a call into a layer, through an injection point the layer
already offers (``network_factory=``, ``pattern=`` / ``sizes=`` /
``process=``, the public ``CmpSystem.network`` attribute).  The proxies
forward every call unchanged and draw no random numbers, so a traced pass
produces the same simulated statistics as an untraced one — the runner
checks that it does.

A span is ``(name, parent, start, end)``; its id is its position.  Spans are
kept as four parallel lists of strings, ints and floats — objects the
garbage collector does not track — because a few hundred thousand tuples
would make every collection, and so the code being timed, slower.  They
stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter

ROOT = -1


class Tracer:
    """Records nested spans; ``current`` is the innermost open span's id."""

    def __init__(self, pass_id: str):
        self.pass_id = pass_id
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.current = ROOT

    @contextmanager
    def span(self, name: str):
        """An interior span: calls made inside it become its children."""
        parent = self.current
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(parent)
        self.ends.append(0.0)
        self.starts.append(perf_counter())
        self.current = sid
        try:
            yield sid
        finally:
            self.ends[sid] = perf_counter()
            self.current = parent

    def timed(self, name: str, fn):
        """``fn`` wrapped so every call that returns records one leaf span."""
        add_name, add_parent = self.names.append, self.parents.append
        add_start, add_end = self.starts.append, self.ends.append

        def call(*args, **kwargs):
            start = perf_counter()
            result = fn(*args, **kwargs)
            end = perf_counter()
            add_name(name)
            add_parent(self.current)
            add_start(start)
            add_end(end)
            return result

        return call

    # -- analysis ---------------------------------------------------------------
    def spans(self):
        """``(name, parent, start, end)`` per span, in id order."""
        return zip(self.names, self.parents, self.starts, self.ends)

    def duration(self, sid: int) -> float:
        return self.ends[sid] - self.starts[sid]

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        out = [end - start for start, end in zip(self.starts, self.ends)]
        for _name, parent, start, end in self.spans():
            if parent != ROOT:
                out[parent] -= end - start
        return out

    def by_name(self) -> defaultdict[str, dict[str, float]]:
        """``{name: {"calls", "total_s", "self_s"}}`` over all spans (zeros for
        a name no span carries)."""
        agg: defaultdict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for (name, _parent, start, end), self_s in zip(self.spans(), self.self_times()):
            entry = agg[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += self_s
        return agg

    def write(self, path) -> None:
        """One JSON line per span: name, id, parent, start, end, pass."""
        line = '{"name": %s, "id": %d, "parent": %s, "start": %r, "end": %r, "pass": %s}\n'
        quoted = {name: json.dumps(name) for name in set(self.names)}
        pass_id = json.dumps(self.pass_id)
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(
                line % (quoted[name], sid, "null" if parent == ROOT else parent, start, end, pass_id)
                for sid, (name, parent, start, end) in enumerate(self.spans())
            )


def maybe_span(tracer: "Tracer | None", name: str):
    """``tracer.span(name)``, or a no-op context when not tracing."""
    return nullcontext() if tracer is None else tracer.span(name)


class _Proxy:
    """Forwards everything to ``target``; ``timed`` methods record leaf spans."""

    def __init__(self, target, tracer: Tracer, timed: dict[str, str]):
        object.__setattr__(self, "_target", target)
        for method, span_name in timed.items():
            object.__setattr__(
                self, method, tracer.timed(span_name, getattr(target, method))
            )

    def __getattr__(self, name):
        return getattr(self._target, name)

    def __setattr__(self, name, value):
        setattr(self._target, name, value)


#: network method -> span name (``network.poll`` is what the engine's
#: fast-forward check costs: is_idle + next_internal_event_cycle + advance_to)
_NETWORK_SPANS = {
    "step": "network.step",
    "offer": "network.offer",
    "make_packet": "network.make_packet",
    "is_idle": "network.poll",
    "next_internal_event_cycle": "network.poll",
    "advance_to": "network.poll",
}


def network_proxy(net, tracer: Tracer):
    return _Proxy(net, tracer, _NETWORK_SPANS)


def pattern_proxy(pattern, tracer: Tracer):
    return _Proxy(pattern, tracer, {"dest": "traffic.draw"})


def sizes_proxy(sizes, tracer: Tracer):
    return _Proxy(sizes, tracer, {"draw": "traffic.draw"})


def process_factory_proxy(factory, tracer: Tracer):
    """``(num_nodes, rate) -> InjectionProcess`` returning proxied processes."""

    def build(num_nodes, rate):
        return _Proxy(
            factory(num_nodes, rate),
            tracer,
            {"arrivals": "traffic.draw", "first_arrival_block": "traffic.draw"},
        )

    return build
