"""Problem instances: bipartite graphs with per-edge weights and existence
probabilities, JSON I/O, seeded random generators, and lazily memoized
edge-realization sampling.

An edge's realization coin is flipped at most once per experiment, at its
first examination.  Edges that are never examined keep fresh, independent
coins, which is exactly what a second rounding pass over leftover edges
relies on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


class InstanceError(ValueError):
    """Malformed instance data (bad probability, duplicate edge, ...)."""


@dataclass(frozen=True)
class Edge:
    id: int
    a: int
    b: int
    w: float
    p: float
    is_dummy: bool = False


@dataclass(frozen=True)
class StochasticGraph:
    """Bipartite graph over A-vertices ``0..a_count-1`` and B-vertices
    ``0..b_count-1``.  Edge ids are positions in ``edges`` and are the
    canonical index for every per-edge vector downstream.
    """

    a_count: int
    b_count: int
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        seen: set[tuple[int, int]] = set()
        for i, e in enumerate(self.edges):
            loc = f"edge {i}"
            if e.id != i:
                raise InstanceError(f"{loc}: id {e.id} does not match position")
            if not (0 <= e.a < self.a_count) or not (0 <= e.b < self.b_count):
                raise InstanceError(f"{loc}: endpoint ({e.a},{e.b}) out of range")
            if not (0.0 < e.p <= 1.0):
                raise InstanceError(f"{loc}: probability must lie in (0,1], got {e.p}")
            if e.w < 0.0:
                raise InstanceError(f"{loc}: weight must be nonnegative, got {e.w}")
            if e.is_dummy and (e.w != 0.0 or e.p != 1.0):
                raise InstanceError(f"{loc}: dummy edges require w=0 and p=1")
            if (e.a, e.b) in seen:
                raise InstanceError(f"{loc}: duplicate pair ({e.a},{e.b})")
            seen.add((e.a, e.b))

    @cached_property
    def edges_at_a(self) -> tuple[tuple[int, ...], ...]:
        adj: list[list[int]] = [[] for _ in range(self.a_count)]
        for e in self.edges:
            adj[e.a].append(e.id)
        return tuple(tuple(v) for v in adj)

    @cached_property
    def edges_at_b(self) -> tuple[tuple[int, ...], ...]:
        adj: list[list[int]] = [[] for _ in range(self.b_count)]
        for e in self.edges:
            adj[e.b].append(e.id)
        return tuple(tuple(v) for v in adj)


def check_x_length(graph: StochasticGraph, x) -> None:
    """Refuse a per-edge vector ``x`` whose length is not the edge count."""
    if len(x) != len(graph.edges):
        raise ValueError(f"x has {len(x)} entries but the graph has {len(graph.edges)} edges")


def make_graph(a_count: int, b_count: int, triples) -> StochasticGraph:
    """Build a graph from ``(a, b, w, p)`` tuples in canonical order."""
    edges = tuple(
        Edge(id=i, a=a, b=b, w=float(w), p=float(p))
        for i, (a, b, w, p) in enumerate(triples)
    )
    return StochasticGraph(a_count=a_count, b_count=b_count, edges=edges)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def load_instance(text: str) -> StochasticGraph:
    """Parse the JSON instance format; edge ids are array positions."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceError(f"malformed JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise InstanceError("top level must be a JSON object")
    try:
        a_count = int(obj["a_count"])
        b_count = int(obj["b_count"])
        raw_edges = obj["edges"]
    except KeyError as exc:
        raise InstanceError(f"missing required key {exc}") from exc
    if a_count < 0 or b_count < 0:
        raise InstanceError("vertex counts must be nonnegative")
    if not isinstance(raw_edges, list):
        raise InstanceError("'edges' must be an array")
    triples = []
    for i, rec in enumerate(raw_edges):
        if not isinstance(rec, dict):
            raise InstanceError(f"edge {i}: must be an object")
        try:
            triples.append((int(rec["a"]), int(rec["b"]), float(rec["w"]), float(rec["p"])))
        except (KeyError, TypeError, ValueError) as exc:
            raise InstanceError(f"edge {i}: {exc}") from exc
    return make_graph(a_count, b_count, triples)


def save_instance(graph: StochasticGraph) -> str:
    """Canonical serialization; ``load_instance`` inverts it exactly."""
    payload = {
        "a_count": graph.a_count,
        "b_count": graph.b_count,
        "edges": [{"a": e.a, "b": e.b, "w": e.w, "p": e.p} for e in graph.edges],
    }
    return json.dumps(payload, indent=1)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

GENERATOR_MODELS = ("complete", "uniform", "star", "hard")


def generate_instance(
    model: str,
    *,
    na: int = 2,
    nb: int = 2,
    density: float = 0.5,
    w_range: tuple[float, float] = (0.1, 2.0),
    p_range: tuple[float, float] = (0.1, 1.0),
    seed: int,
) -> StochasticGraph:
    """Deterministic seeded instance generator.

    Models: ``complete`` (all pairs), ``uniform`` (each pair kept with
    probability ``density``), ``star`` (one B vertex), and ``hard``
    (a low-probability perfect matching plus sparse cross edges, aimed at
    the heavy-edge branch of the two-phase rounding; the cross edges take
    LP mass off the matching edges and make them light, so most draws
    still take the two-round branch).
    """
    if model not in GENERATOR_MODELS:
        raise InstanceError(f"unknown model {model!r}; choose from {GENERATOR_MODELS}")
    if na < 1 or nb < 1:
        raise InstanceError("sizes must be >= 1")
    if not (0.0 <= density <= 1.0):
        raise InstanceError("density must lie in [0,1]")
    if not (0.0 < p_range[0] <= p_range[1] <= 1.0):
        raise InstanceError("p_range must satisfy 0 < lo <= hi <= 1")
    if not (0.0 <= w_range[0] <= w_range[1]):
        raise InstanceError("w_range must satisfy 0 <= lo <= hi")

    rng = np.random.default_rng(seed)

    def draw(lo: float, hi: float) -> float:
        return lo if lo == hi else float(rng.uniform(lo, hi))

    triples: list[tuple[int, int, float, float]] = []
    if model == "complete":
        for a in range(na):
            for b in range(nb):
                triples.append((a, b, draw(*w_range), draw(*p_range)))
    elif model == "uniform":
        for a in range(na):
            for b in range(nb):
                if rng.random() < density:
                    triples.append((a, b, draw(*w_range), draw(*p_range)))
    elif model == "star":
        nb = 1
        for a in range(na):
            triples.append((a, 0, draw(*w_range), draw(*p_range)))
    else:  # hard
        n = min(na, nb)
        plo, phi_ = min(p_range[0], 0.15), min(p_range[1], 0.15)
        for i in range(n):
            triples.append((i, i, draw(*w_range), draw(plo, phi_)))
        for a in range(na):
            for b in range(nb):
                if a == b and a < n:
                    continue
                if rng.random() < density * 0.25:
                    triples.append((a, b, draw(*w_range), draw(plo, phi_)))
        triples.sort(key=lambda t: (t[0], t[1]))
    return make_graph(na, nb, triples)


# ---------------------------------------------------------------------------
# Realization sampling
# ---------------------------------------------------------------------------

@dataclass
class RealizationState:
    """Per-experiment memo of edge realizations, keyed by endpoint pair, so
    every round of one trial sees the same coins.

    Single-owner per trial.  Dummy edges are realized without consuming
    randomness; every other edge consumes exactly one uniform at its first
    examination, so the stream layout depends only on the examination
    sequence.
    """

    rng: np.random.Generator
    flags: dict[tuple[int, int], bool] = field(default_factory=dict)


def sample_realization(graph: StochasticGraph, state: RealizationState, edge_id: int) -> bool:
    """Sample (first call) or recall (later calls) the realization of an edge."""
    e = graph.edges[edge_id]
    if e.is_dummy:
        return True
    got = state.flags.get((e.a, e.b))
    if got is None:
        got = bool(state.rng.random() < e.p)
        state.flags[(e.a, e.b)] = got
    return got
