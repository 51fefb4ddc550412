"""Distributions over permutations of an A-vertex's edges whose
first-realized marginals hit prescribed targets, plus the filtered sampler
used by the base rounding.

If a permutation is examined edge by edge until the first realized edge,
edge ``e`` stops the scan with probability

    p_e * prod_{e' before e} (1 - p_{e'})

summed over the support.  A target vector is achievable exactly when it
satisfies the vertex's subset constraints, and a distribution realizing it
is found as a feasible point of a small LP whose columns enumerate every
permutation of every subset of the target's support (the empty permutation
absorbs slack mass).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np
from scipy.optimize import linprog

from .instance import StochasticGraph
from .lpmatch import EPS, _vertex_worst

#: supports larger than this make the permutation LP explode (13700 columns
#: at 7); refuse rather than thrash
DEGREE_CAP = 7

_HIGHS_OPTS = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}

PermSample = tuple[int, ...]


class DegreeCapExceeded(ValueError):
    pass


class InfeasibleTargets(ValueError):
    """Targets violate a subset constraint at the vertex; carries the
    worst-violated witness set."""

    def __init__(self, vertex: int, violation: float, witness: frozenset[int]):
        self.vertex = vertex
        self.violation = violation
        self.witness = witness
        super().__init__(
            f"targets at vertex {vertex} violate subset {sorted(witness)} "
            f"by {violation}"
        )


@dataclass(frozen=True)
class PermDistribution:
    """Explicit distribution over permutations of subsets of one A-vertex's
    edges; ``targets`` maps each incident edge to its first-realized
    marginal."""

    vertex: int
    support: tuple[tuple[PermSample, float], ...]
    targets: Mapping[int, float]

    @cached_property
    def cumulative(self) -> np.ndarray:
        return np.cumsum([q for _, q in self.support])


def _stop_probability(graph: StochasticGraph, perm: PermSample, edge: int) -> float:
    """Probability that ``edge`` is the first realized edge of ``perm``."""
    acc = 1.0
    for e in perm:
        if e == edge:
            return acc * graph.edges[e].p
        acc *= 1.0 - graph.edges[e].p
    return 0.0


def first_realized_marginals(dist: PermDistribution, graph: StochasticGraph) -> dict[int, float]:
    """Exact per-edge stop probabilities of a distribution; the test oracle
    for marginal exactness."""
    out = {e: 0.0 for e in dist.targets}
    for perm, q in dist.support:
        for e in perm:
            out[e] = out.get(e, 0.0) + q * _stop_probability(graph, perm, e)
    return out


def build_proportional_distribution(
    graph: StochasticGraph, vertex: int, x
) -> PermDistribution:
    """Construct a distribution whose first-realized marginals equal ``x``
    restricted to the vertex's edges, via a feasibility LP over enumerated
    permutations of subsets of the support.
    """
    incident = graph.edges_at_a[vertex]
    targets = {e: float(x[e]) for e in incident}
    support_edges = [e for e in incident if targets[e] > 1e-15]
    if len(support_edges) > DEGREE_CAP:
        raise DegreeCapExceeded(
            f"A-vertex {vertex}: LP support {len(support_edges)} exceeds cap {DEGREE_CAP}"
        )
    if not support_edges:
        return PermDistribution(vertex=vertex, support=(((), 1.0),), targets=targets)

    perms: list[PermSample] = [()]
    for k in range(1, len(support_edges) + 1):
        perms.extend(itertools.permutations(support_edges, k))

    n = len(perms)
    k_edges = len(support_edges)
    a_eq = np.zeros((k_edges + 1, n))
    b_eq = np.zeros(k_edges + 1)
    for j, perm in enumerate(perms):
        for i, e in enumerate(support_edges):
            a_eq[i, j] = _stop_probability(graph, perm, e)
    for i, e in enumerate(support_edges):
        b_eq[i] = targets[e]
    a_eq[k_edges, :] = 1.0
    b_eq[k_edges] = 1.0

    res = linprog(
        np.zeros(n),
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=[(0.0, 1.0)] * n,
        method="highs",
        options=_HIGHS_OPTS,
    )
    if not res.success:
        worst, witness = _vertex_worst(graph, x, incident, exhaustive=True)
        if worst > EPS:
            raise InfeasibleTargets(vertex, worst, witness or frozenset())
        raise InfeasibleTargets(vertex, worst, frozenset(support_edges))

    # drop numerically-zero columns; park the lost mass on the empty
    # permutation so the marginals are untouched
    kept = [(perm, float(q)) for perm, q in zip(perms, res.x) if q > 1e-14]
    total = sum(q for _, q in kept)
    deficit = 1.0 - total
    merged: dict[PermSample, float] = {}
    for perm, q in kept:
        merged[perm] = merged.get(perm, 0.0) + q
    merged[()] = merged.get((), 0.0) + deficit
    if merged[()] <= 0.0:
        del merged[()]
    support = tuple(sorted(merged.items()))
    return PermDistribution(vertex=vertex, support=support, targets=targets)


def draw_modified_perm(
    dist: PermDistribution,
    x,
    x_tilde,
    graph: StochasticGraph,
    rng: np.random.Generator,
) -> PermSample:
    """Sample a base permutation and filter it edge by edge.

    For each edge, with probability ``p_e (1 - r_e)`` the walk ends, with
    probability ``r_e`` the edge is appended, otherwise it is skipped, where
    ``r_e = x_tilde_e / x_e``.  Examining the returned permutation up to its
    first realized edge stops at each edge with probability exactly
    ``x_tilde_e``.
    """
    u = rng.random()
    idx = int(np.searchsorted(dist.cumulative, u, side="right"))
    idx = min(idx, len(dist.support) - 1)
    base = dist.support[idx][0]
    out: list[int] = []
    for e in base:
        if x[e] <= 0.0:
            raise ValueError(f"edge {e} in support has x=0")
        r = x_tilde[e] / x[e]
        if r > 1.0 + 1e-9:
            raise ValueError(f"x_tilde exceeds x at edge {e}")
        r = min(r, 1.0)
        p = graph.edges[e].p
        c = rng.random()
        if c <= p * (1.0 - r):
            break
        if c <= p * (1.0 - r) + r:
            out.append(e)
    return tuple(out)
