"""NSGA-II design-space exploration over the network parameter space.

The paper's framework exists to *compare* design points; this module turns
that comparison into a search.  :func:`explore` runs a seeded, deterministic
NSGA-II (Deb et al. 2002) over a validated :class:`DesignSpace` — topology
× k/n × VC count × buffer depth × routing × arbitration — and returns the
Pareto front over three minimized objectives:

``latency``
    Average packet latency (cycles) at the low evaluation rate; ``inf``
    when the design saturates even there.
``throughput``
    Negated accepted throughput (flits/cycle/node) at the high evaluation
    rate, so more throughput sorts as "smaller".  Nothing else is read
    from that point, and throughput is final when the measurement window
    closes, so it runs without a drain phase (:func:`explore_runner`).
``cost``
    A silicon area proxy computed from the topology alone (no simulation),
    documented at :func:`design_cost`: wire length (sum of channel delays,
    so folded torus/ring wraps pay double), buffer bits (one input buffer
    per channel terminal plus injection queue, times VCs × depth), and a
    crossbar term (ports² per router) at 5% weight — crossbars are small
    next to buffers at these radices but grow quadratically with degree.

Candidate evaluation routes through :func:`repro.core.parallel.run_ledger`
(local, or the sweep service with ``remote=``): each generation's
un-archived genomes become one sweep over the extra axes ``genome`` ×
``rate``, inheriting the content-addressed result cache (duplicate
genomes across runs are free), self-healing retries, and distributed
execution.  Genomes are canonical tuples of ``(field, value)``
pairs sorted by field name, so per-point seeds from
:func:`repro.rng.sweep_seed` and cache keys are stable regardless of how a
genome was produced.

Infeasible genomes — config validation errors and
:class:`~repro.network.base.BackendUnsupported` — become *penalty points*
(latency ``inf``, throughput 0, cost ``inf``): dominated by every feasible
design, so selection steers away from them without crashing the run.

Determinism and resume
----------------------
All randomness flows from one :func:`repro.rng.make_generator` stream
(numpy ``Generator``, stable across platforms), and consumes the same
draws regardless of cache state — two runs with the same seed produce
bit-identical fronts whether the cache was cold, warm, or off.  That is
also how a killed run resumes: run it again against the same ``cache``.
The same seed walks the same generations; every point that completed
before the kill is a content-addressed hit (keyed on config, seed, runner
bindings and code salt), and every other point is simulated with the
same derived seed.  Duplicate genomes within one run are answered from
the in-run archive and never re-submitted (``dedup_hits``).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from ..analysis.pareto import dominates, pareto_front
from ..config import FIELD_CHOICES, INT_FIELDS, NetworkConfig
from ..rng import make_generator
from ..topology import build_topology
from .openloop import OpenLoopSimulator
from .parallel import (
    SweepHealth,
    SweepLedger,
    enumerate_points,
    run_ledger,
)

__all__ = [
    "DesignSpace",
    "ExploreSpec",
    "ExploreResult",
    "QUICK_SPACE",
    "QUICK_SPEC",
    "DEFAULT_SPACE",
    "QUICK_HV_REFERENCE",
    "OBJECTIVES",
    "design_cost",
    "explore",
    "explore_runner",
    "genome_key",
    "non_dominated_sort",
    "crowding_distances",
    "nsga2_select",
    "make_offspring",
    "init_population",
]

#: The full objective menu, in canonical order.  ``ExploreSpec.objectives``
#: is an ordered subset of these names.
OBJECTIVES = ("latency", "throughput", "cost")

#: Penalty metrics for infeasible genomes: dominated by every feasible
#: design on every objective subset.
PENALTY_METRICS = {"latency": math.inf, "throughput": 0.0, "cost": math.inf}

#: Hypervolume reference point for the ``--quick`` profile front
#: (latency cycles, negated throughput, cost units) — weakly worse than
#: any feasible quick-space design, fixed so the hypervolume tier-1 pins
#: is comparing like with like.
QUICK_HV_REFERENCE = (200.0, 0.0, 5000.0)

# Fields the explorer refuses to treat as genes: seeds belong to the
# driver (per-point seeds are derived), and traffic classes are structured
# objects (not JSON-scalar genes).
_RESERVED_FIELDS = frozenset({"seed", "classes"})


# --------------------------------------------------------------------------
# Design space and genomes
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class DesignSpace:
    """A validated, canonically-ordered design space.

    ``genes`` maps :class:`NetworkConfig` field names to the candidate
    values the search may assign, sorted by field name — the sorted order
    fixes genome tuple layout, archive serialization, and per-point seed
    derivation all at once.  Validation is eager: unknown fields, reserved
    fields (``seed``, ``classes``), empty or duplicate value
    lists, values outside :data:`repro.config.FIELD_CHOICES` and
    non-integers for a :data:`repro.config.INT_FIELDS` field fail at
    construction, before any simulation starts.
    """

    genes: tuple[tuple[str, tuple[Any, ...]], ...]

    def __post_init__(self) -> None:
        if not self.genes:
            raise ValueError("design space needs at least one gene")
        names = [name for name, _ in self.genes]
        if names != sorted(names):
            raise ValueError(f"genes must be sorted by field name, got {names}")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate gene names: {names}")
        config_fields = {f.name for f in dataclasses.fields(NetworkConfig)}
        for name, values in self.genes:
            if name in _RESERVED_FIELDS:
                raise ValueError(f"{name!r} cannot be a gene (reserved by the explorer)")
            if name not in config_fields:
                raise ValueError(f"unknown config field {name!r} in design space")
            if not values:
                raise ValueError(f"gene {name!r} has no candidate values")
            if len(set(values)) != len(values):
                raise ValueError(f"gene {name!r} repeats values: {values}")
            choices = FIELD_CHOICES.get(name)
            for v in values:
                if not isinstance(v, (str, int, float, bool)):
                    raise ValueError(
                        f"gene {name!r} value {v!r} is not a JSON-scalar"
                    )
                if choices is not None and v not in choices:
                    raise ValueError(
                        f"gene {name!r} value {v!r} not in {choices}"
                    )
                if name in INT_FIELDS and not isinstance(v, int):
                    raise ValueError(f"gene {name!r} value {v!r} is not an integer")

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Sequence[Any]]) -> "DesignSpace":
        """Build (and validate) a space from ``{field: values}``."""
        genes = tuple(
            (name, tuple(mapping[name])) for name in sorted(mapping)
        )
        return cls(genes=genes)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.genes)

    @property
    def size(self) -> int:
        """Number of distinct genomes in the space."""
        out = 1
        for _, values in self.genes:
            out *= len(values)
        return out

    def as_mapping(self) -> dict[str, list[Any]]:
        return {name: list(values) for name, values in self.genes}


# A genome is a tuple of values aligned with ``space.genes`` order; its
# serialized form is the tuple of (field, value) pairs.
Genome = tuple


def genome_pairs(space: DesignSpace, genome: Genome) -> tuple[tuple[str, Any], ...]:
    """Canonical ``((field, value), ...)`` pairs for a genome."""
    return tuple(zip(space.names, genome))


def genome_key(space: DesignSpace, genome: Genome) -> str:
    """Stable string identity of a genome (archive key)."""
    return "|".join(f"{n}={v!r}" for n, v in genome_pairs(space, genome))


def genome_config(
    base: NetworkConfig, pairs: Sequence[Sequence[Any]]
) -> NetworkConfig:
    """Apply genome pairs to ``base`` (raises ``ValueError`` if infeasible)."""
    return base.with_(**{str(n): v for n, v in pairs})


# --------------------------------------------------------------------------
# Cost proxy
# --------------------------------------------------------------------------


def design_cost(cfg: NetworkConfig) -> float:
    """Silicon area proxy of a design point, in flit-buffer-equivalents.

    ``wire + buffers + 0.05 * crossbar`` where

    * ``wire``     = Σ channel delay over the topology's channels — delay is
      proportional to physical length under the folded layouts, so torus
      and ring wraps pay their doubled wire honestly;
    * ``buffers``  = (channels + nodes) × num_vcs × vc_buffer_size — one
      input buffer bank per channel terminal plus one injection queue per
      node, each ``num_vcs`` VCs deep at ``vc_buffer_size`` flits;
    * ``crossbar`` = nodes × ports², weighted 0.05: small next to buffers
      at these radices, but the quadratic growth is what makes
      high-degree routers expensive.

    Pure function of the config — no simulation, no RNG.
    """
    topo = build_topology(cfg)
    channels = list(topo.channels())
    wire = float(sum(ch.delay for ch in channels))
    buffers = float(
        (len(channels) + topo.num_nodes) * cfg.num_vcs * cfg.vc_buffer_size
    )
    crossbar = float(topo.num_nodes * topo.ports_per_router**2)
    return wire + buffers + 0.05 * crossbar


# --------------------------------------------------------------------------
# Evaluation runner (module-level: picklable, remote-importable)
# --------------------------------------------------------------------------


def explore_runner(
    cfg, *, genome, rate, warmup, measure, drain_limit, throughput_rate=None
):
    """Sweep runner for one (genome, rate) point.

    ``genome`` arrives as the canonical pairs tuple (an extra-axis value,
    so it is part of the point's cache key and derived seed); applying it
    to an infeasible combination raises ``ValueError`` /
    ``BackendUnsupported``, which the sweep layer records as a failed
    point — the explorer turns those into penalty objectives.

    ``throughput_rate`` is a bound keyword, not a coordinate: the point at
    that rate is the genome's *throughput point*, of which only accepted
    throughput is ever read.  Throughput is final when the measurement
    window closes, so the point runs with ``drain_limit=0`` and its record
    carries ``throughput`` alone — there is no latency in it to misread.
    Being a runner keyword it is part of the cache key, so a throughput
    point never answers for a full measurement at the same rate.
    """
    cfg = genome_config(cfg, genome)
    throughput_only = rate == throughput_rate
    sim = OpenLoopSimulator(
        cfg,
        warmup=warmup,
        measure=measure,
        drain_limit=0 if throughput_only else drain_limit,
    )
    res = sim.run(rate)
    if throughput_only:
        return {"throughput": res.throughput}
    return {
        "latency": res.avg_latency,
        "throughput": res.throughput,
        "saturated": res.saturated,
    }


# --------------------------------------------------------------------------
# NSGA-II pure functions
# --------------------------------------------------------------------------


def non_dominated_sort(objectives: Sequence[Sequence[float]]) -> list[list[int]]:
    """Fast non-dominated sort: indices grouped into fronts, best first.

    Front 0 is the Pareto front of the input; each later front is the
    Pareto front of what remains.  Every index appears in exactly one
    front.  O(n²) dominance comparisons — fine at population scale.
    """
    n = len(objectives)
    dominated_by: list[list[int]] = [[] for _ in range(n)]
    domination_count = [0] * n
    fronts: list[list[int]] = [[]]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if dominates(objectives[i], objectives[j]):
                dominated_by[i].append(j)
            elif dominates(objectives[j], objectives[i]):
                domination_count[i] += 1
        if domination_count[i] == 0:
            fronts[0].append(i)
    current = 0
    while fronts[current]:
        nxt: list[int] = []
        for i in fronts[current]:
            for j in dominated_by[i]:
                domination_count[j] -= 1
                if domination_count[j] == 0:
                    nxt.append(j)
        current += 1
        fronts.append(nxt)
    fronts.pop()  # the loop always leaves one empty trailing front
    return fronts


def crowding_distances(
    objectives: Sequence[Sequence[float]], front: Sequence[int]
) -> list[float]:
    """Crowding distance per front member (aligned with ``front`` order).

    Boundary points on any objective get ``inf`` (always kept); interior
    points sum normalized gaps to their sorted neighbours.  Objectives
    with zero or non-finite span contribute nothing to interior points —
    penalty genomes at ``inf`` cannot crowd out real designs.
    """
    m = len(front)
    if m == 0:
        return []
    dist = [0.0] * m
    n_obj = len(objectives[front[0]])
    for k in range(n_obj):
        order = sorted(range(m), key=lambda i: objectives[front[i]][k])
        dist[order[0]] = math.inf
        dist[order[-1]] = math.inf
        lo = objectives[front[order[0]]][k]
        hi = objectives[front[order[-1]]][k]
        span = hi - lo
        if not math.isfinite(span) or span <= 0.0:
            continue
        for pos in range(1, m - 1):
            prev_v = objectives[front[order[pos - 1]]][k]
            next_v = objectives[front[order[pos + 1]]][k]
            if math.isfinite(prev_v) and math.isfinite(next_v):
                dist[order[pos]] += (next_v - prev_v) / span
    return dist


def nsga2_select(objectives: Sequence[Sequence[float]], k: int) -> list[int]:
    """Environmental selection: ``k`` indices by (front rank, crowding).

    Whole fronts are taken best-first; the front that overflows ``k`` is
    truncated by descending crowding distance with index order as the
    deterministic tie-break.
    """
    if k <= 0:
        return []
    chosen: list[int] = []
    for front in non_dominated_sort(objectives):
        if len(chosen) + len(front) <= k:
            chosen.extend(front)
            if len(chosen) == k:
                break
            continue
        crowd = crowding_distances(objectives, front)
        ranked = sorted(range(len(front)), key=lambda i: (-crowd[i], front[i]))
        chosen.extend(front[i] for i in ranked[: k - len(chosen)])
        break
    return chosen


def rank_and_crowding(
    objectives: Sequence[Sequence[float]],
) -> tuple[list[int], list[float]]:
    """Per-individual front rank and crowding distance (tournament inputs)."""
    n = len(objectives)
    rank = [0] * n
    crowd = [0.0] * n
    for r, front in enumerate(non_dominated_sort(objectives)):
        dists = crowding_distances(objectives, front)
        for i, d in zip(front, dists):
            rank[i] = r
            crowd[i] = d
    return rank, crowd


def _tournament(
    gen: np.random.Generator, rank: Sequence[int], crowd: Sequence[float]
) -> int:
    """Binary tournament: lower rank wins, then higher crowding, then index."""
    i, j = (int(x) for x in gen.integers(0, len(rank), size=2))
    if (rank[i], -crowd[i], i) <= (rank[j], -crowd[j], j):
        return i
    return j


def init_population(
    gen: np.random.Generator, space: DesignSpace, size: int
) -> list[Genome]:
    """Uniform random initial population (duplicates allowed — they're free)."""
    population = []
    for _ in range(size):
        genome = tuple(
            values[int(gen.integers(0, len(values)))] for _, values in space.genes
        )
        population.append(genome)
    return population


def make_offspring(
    gen: np.random.Generator,
    population: Sequence[Genome],
    objectives: Sequence[Sequence[float]],
    space: DesignSpace,
    count: int,
    *,
    crossover_rate: float = 0.9,
    mutation_rate: float = 0.2,
) -> list[Genome]:
    """``count`` children via tournament selection + uniform crossover + mutation.

    Per child: two binary tournaments pick parents; with probability
    ``crossover_rate`` each gene comes from either parent uniformly
    (otherwise the child clones the first parent); then each gene mutates
    with probability ``mutation_rate`` by resampling uniformly among the
    gene's *other* values.  The draw sequence is fixed-shape per child
    given the space, so identical seeds give identical offspring streams.
    """
    rank, crowd = rank_and_crowding(objectives)
    children: list[Genome] = []
    n_genes = len(space.genes)
    while len(children) < count:
        p1 = population[_tournament(gen, rank, crowd)]
        p2 = population[_tournament(gen, rank, crowd)]
        if gen.random() < crossover_rate:
            mask = gen.integers(0, 2, size=n_genes)
            child = [p1[g] if mask[g] else p2[g] for g in range(n_genes)]
        else:
            child = list(p1)
        mutate = gen.random(n_genes) < mutation_rate
        for g, (_, values) in enumerate(space.genes):
            if mutate[g] and len(values) > 1:
                others = [v for v in values if v != child[g]]
                child[g] = others[int(gen.integers(0, len(others)))]
        children.append(tuple(child))
    return children


# --------------------------------------------------------------------------
# Spec, result
# --------------------------------------------------------------------------

QUICK_SPACE = DesignSpace.from_mapping(
    {
        "topology": ("mesh", "torus", "ring"),
        "num_vcs": (2, 4),
        "vc_buffer_size": (2, 4),
        "routing": ("dor", "val"),  # val off-mesh is infeasible: penalty path
        "arbitration": ("round_robin", "age"),
    }
)

DEFAULT_SPACE = DesignSpace.from_mapping(
    {
        "topology": ("mesh", "torus", "ring"),
        "k": (4, 8),
        "num_vcs": (2, 4, 8),
        "vc_buffer_size": (1, 2, 4, 8),
        "routing": ("dor", "val", "ma", "romm"),
        "arbitration": ("round_robin", "age"),
    }
)


@dataclass(frozen=True)
class ExploreSpec:
    """Everything that identifies one exploration run.

    The defaults are the ``repro explore`` profile; :data:`QUICK_SPEC` is
    the ``--quick`` one.
    """

    space: DesignSpace = DEFAULT_SPACE
    population: int = 12
    generations: int = 6
    seed: int = 1
    #: (low, high) injection rates: latency is read at low, throughput at high.
    rates: tuple[float, float] = (0.05, 0.45)
    warmup: int = 300
    measure: int = 600
    drain_limit: int = 6000
    objectives: tuple[str, ...] = OBJECTIVES
    crossover_rate: float = 0.9
    mutation_rate: float = 0.2

    def __post_init__(self) -> None:
        if self.population < 2:
            raise ValueError("population must be >= 2")
        if self.generations < 0:
            raise ValueError("generations must be >= 0")
        if len(self.rates) != 2 or not (0.0 < self.rates[0] <= self.rates[1]):
            raise ValueError(f"rates must be (low, high) with 0 < low <= high: {self.rates}")
        bad = [o for o in self.objectives if o not in OBJECTIVES]
        if bad or len(self.objectives) < 2 or len(set(self.objectives)) != len(self.objectives):
            raise ValueError(
                f"objectives must be >= 2 distinct names from {OBJECTIVES}: {self.objectives}"
            )

    def objective_vector(self, metrics: Mapping[str, float]) -> tuple[float, ...]:
        """Minimized objective vector in spec order (throughput negated)."""
        out = []
        for name in self.objectives:
            v = float(metrics[name])
            out.append(-v if name == "throughput" else v)
        return tuple(out)


#: The pinned ``repro explore --quick`` profile (run on a 4x4 network):
#: small space, short windows, so its front is comparable across hosts and
#: its hypervolume can be pinned exactly (tests/test_explore.py).
QUICK_SPEC = ExploreSpec(
    space=QUICK_SPACE, population=8, generations=3,
    rates=(0.1, 0.55), warmup=150, measure=300, drain_limit=3000,
)


@dataclass
class ExploreResult:
    """One exploration run: front, archive, populations, health, counters."""

    #: Non-dominated feasible designs (canonical order).
    front: list[dict[str, Any]]
    #: Every evaluated genome, in evaluation order.
    archive: list[dict[str, Any]]
    #: Genome keys per generation (index 0 = initial population).
    populations: list[list[str]]
    #: Aggregated sweep-layer health of the submitted evaluations; its
    #: cache hits are the points replayed instead of simulated.
    health: SweepHealth
    #: Feasible genomes evaluated this run, whether simulated or replayed
    #: from the result cache.
    evaluated: int = 0
    #: Duplicate genome requests answered from the in-run archive.
    dedup_hits: int = 0
    #: Genomes that proved infeasible (penalty points).
    infeasible: int = 0
    #: Genomes that failed for *unexpected* reasons (crashes, stalls) —
    #: unlike infeasibility these are real errors and fail the CLI.
    errors: int = 0

    def summary(self) -> str:
        parts = [
            f"{len(self.front)} on front",
            f"{self.evaluated} evaluated",
        ]
        if self.infeasible:
            parts.append(f"{self.infeasible} infeasible")
        if self.errors:
            parts.append(f"{self.errors} errors")
        if self.dedup_hits:
            parts.append(f"{self.dedup_hits} dedup hits")
        parts.append(self.health.summary())
        return ", ".join(parts)


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------


def _classify_failure(error: str) -> str:
    """``"infeasible"`` for validation/backend rejections, else ``"error"``."""
    # BackendUnsupported subclasses ValueError but keeps its own name in
    # the record's "TypeName: message" string.
    return (
        "infeasible"
        if error.startswith(("ValueError:", "BackendUnsupported:"))
        else "error"
    )


def explore(
    base: NetworkConfig,
    spec: ExploreSpec,
    *,
    n_workers: int = 1,
    cache: Any = None,
    remote: str | None = None,
    max_retries: int = 2,
    point_timeout: float | None = None,
    log: Callable[[str], None] | None = None,
) -> ExploreResult:
    """Run the NSGA-II exploration; return the front, archive, and health.

    ``base`` supplies every config field the space does not vary (network
    size, traffic pattern, ...).  ``remote`` is a ``host:port``
    sweep-service address; otherwise evaluation runs locally with
    ``n_workers`` / ``cache`` / ``point_timeout`` passed through to
    :func:`run_ledger`.  A killed run resumes by running again against the
    same ``cache`` (module docstring); under ``remote`` the cache is the
    controller's, so a re-run resumes only when the controller was started
    with one.  ``log`` receives one progress line per generation.
    """
    say = log or (lambda msg: None)
    space = spec.space
    archive: dict[str, dict[str, Any]] = {}
    order: list[str] = []
    result = ExploreResult(front=[], archive=[], populations=[], health=SweepHealth())

    def finish_entry(
        key: str,
        pairs: tuple[tuple[str, Any], ...],
        generation: int,
        feasible: bool,
        metrics: Mapping[str, float],
        error: str | None = None,
    ) -> None:
        entry = {
            "key": key,
            "genome": [list(p) for p in pairs],
            "generation": generation,
            "source": "simulated" if feasible else "penalty",
            "feasible": feasible,
            "metrics": dict(metrics),
            "objectives": list(spec.objective_vector(metrics)),
        }
        if error is not None:
            entry["error"] = error
        archive[key] = entry
        order.append(key)

    def evaluate_generation(genomes: Sequence[Genome], generation: int) -> None:
        """Ensure every genome has an archive entry.

        Duplicate genomes are answered from the archive and never
        re-submitted to the sweep layer, so the sweep health counts each
        genome's points once.
        """
        todo: list[Genome] = []
        seen_batch: set[str] = set()
        for genome in genomes:
            key = genome_key(space, genome)
            if key in archive or key in seen_batch:
                if key in archive:
                    result.dedup_hits += 1
                continue
            seen_batch.add(key)
            todo.append(genome)
        if not todo:
            return

        genome_axis = tuple(genome_pairs(space, g) for g in todo)
        points = enumerate_points(
            base, {}, {"genome": genome_axis, "rate": tuple(spec.rates)}
        )
        records = run_ledger(
            SweepLedger(points),
            base,
            _bound_runner(spec),
            n_workers=n_workers,
            cache=cache,
            point_timeout=point_timeout,
            max_retries=max_retries,
            remote=remote,
            label=f"explore-gen{generation}",
        )
        result.health.merge(records.health)
        # Canonical enumeration order: genome-major, rate-minor.
        for i, genome in enumerate(todo):
            pairs = genome_pairs(space, genome)
            key = genome_key(space, genome)
            rec_lo, rec_hi = records[2 * i], records[2 * i + 1]
            failed = [r for r in (rec_lo, rec_hi) if r.get("failed")]
            if failed:
                error = str(failed[0].get("error", "unknown"))
                kind = _classify_failure(error)
                if kind == "infeasible":
                    result.infeasible += 1
                else:
                    result.errors += 1
                finish_entry(key, pairs, generation, False, PENALTY_METRICS, error=error)
                continue
            result.evaluated += 1
            latency = (
                math.inf if rec_lo.get("saturated") else float(rec_lo["latency"])
            )
            metrics = {
                "latency": latency,
                "throughput": float(rec_hi["throughput"]),
                "cost": design_cost(genome_config(base, pairs)),
            }
            finish_entry(key, pairs, generation, True, metrics)

    # ---- the generational loop -------------------------------------------
    gen = make_generator(spec.seed, "explore")
    population = init_population(gen, space, spec.population)
    evaluate_generation(population, 0)
    result.populations.append([genome_key(space, g) for g in population])
    say(f"generation 0/{spec.generations}: population evaluated")
    for g in range(1, spec.generations + 1):
        objs = [
            tuple(archive[genome_key(space, p)]["objectives"]) for p in population
        ]
        offspring = make_offspring(
            gen, population, objs, space, spec.population,
            crossover_rate=spec.crossover_rate,
            mutation_rate=spec.mutation_rate,
        )
        evaluate_generation(offspring, g)
        combined = list(population) + offspring
        combined_objs = [
            tuple(archive[genome_key(space, p)]["objectives"]) for p in combined
        ]
        keep = nsga2_select(combined_objs, spec.population)
        population = [combined[i] for i in keep]
        result.populations.append([genome_key(space, p) for p in population])
        say(f"generation {g}/{spec.generations}: {result.summary()}")

    # ---- the front: feasible, simulated, non-dominated, deduplicated -----
    result.archive = [archive[key] for key in order]
    candidates = [e for e in result.archive if e["feasible"]]
    vectors = [tuple(e["objectives"]) for e in candidates]
    front_entries = [candidates[i] for i in pareto_front(vectors)]
    front_entries.sort(key=lambda e: (tuple(e["objectives"]), e["key"]))
    for e in front_entries:
        rec: dict[str, Any] = {str(n): v for n, v in e["genome"]}
        rec.update(e["metrics"])
        rec["objectives"] = list(e["objectives"])
        rec["key"] = e["key"]
        rec["generation"] = e["generation"]
        result.front.append(rec)
    return result


def _bound_runner(spec: ExploreSpec):
    """The runner with measurement windows bound as keywords.

    ``functools.partial`` over the module-level :func:`explore_runner`
    keeps the runner picklable for the process pool *and* importable by
    name for the remote service (the client re-binds keyword arguments on
    the worker side).  The high rate is named as the throughput point
    unless both rates coincide: a point's role cannot be told from its
    rate then, and it keeps the full drain its latency reading needs.
    """
    import functools

    lo, hi = spec.rates
    return functools.partial(
        explore_runner,
        warmup=spec.warmup,
        measure=spec.measure,
        drain_limit=spec.drain_limit,
        throughput_rate=hi if hi != lo else None,
    )
