"""Distributions over permutations of an A-vertex's edges whose
first-realized marginals hit prescribed targets, plus the filtered sampler
used by the base rounding.

If a permutation is examined edge by edge until the first realized edge,
edge ``e`` stops the scan with probability

    p_e * prod_{e' before e} (1 - p_{e'})

summed over the support.  The achievable target vectors are the points of
the vertex's polymatroid, ``x(S) <= 1 - prod_{e in S} (1 - p_e)`` for every
subset S of its edges, whose vertices are exactly the stop-probability
vectors of permutations (Edmonds' greedy vertices; this is the
construction of Gamlath, Kale and Svensson, SODA 2019).  A distribution
realizing a target is therefore an exact decomposition of the target into
greedy vertices, found with numpy over the vertex's 2^k subset table; the
empty permutation absorbs slack mass.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Mapping

import numpy as np

from .instance import StochasticGraph
from .lpmatch import EPS, _subset_worst

#: supports larger than this are refused: a vertex's walk-outcome law, which
#: two-round apx and the oracle enumerate, has up to
#: (k + 2) * 2^(k - 1) outcomes
DEGREE_CAP = 7

#: a support, and a proposal round's law, holds only targets above this
SUPPORT_FLOOR = 1e-15

#: relative tolerance of the decomposition's zero and tight tests, and the
#: largest marginal error its last step may leave
_TOL = 1e-12

#: floor of the absolute zero and tight tolerance: the rounding a residual
#: accumulates over k + 2 steps
_ROUNDING = 1e-15

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


@lru_cache(maxsize=None)
def _subset_table(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Row ``i`` of the (2^k, k) bool ``masks`` marks the edges of subset
    ``i`` (bit ``j`` of ``i`` is edge ``j``); ``order`` lists the subsets by
    size, ties by index."""
    idx = np.arange(1 << k)
    masks = ((idx[:, None] >> np.arange(k)) & 1).astype(bool)
    order = np.lexsort((idx, masks.sum(axis=1)))
    masks.flags.writeable = order.flags.writeable = False  # shared by every call
    return masks, order


def build_proportional_distribution(
    graph: StochasticGraph, vertex: int, x
) -> PermDistribution:
    """Construct a distribution whose first-realized marginals equal ``x``
    restricted to the vertex's edges, by decomposing ``x`` into greedy
    vertices of the vertex's polymatroid.

    Each step takes the greedy vector ``v`` of a permutation that follows a
    maximal chain of the residual point's tight sets (each block in edge id
    order), so ``v`` lies on the point's minimal face, and gives it the
    largest mass that keeps the rest feasible.  The rest then has a new
    tight set or a new zero, so at most k + 1 steps give at most k + 1
    permutations.  Targets that violate a subset constraint by at most
    ``EPS`` are first scaled onto the polymatroid; a larger violation
    raises ``InfeasibleTargets`` with the worst subset.
    """
    incident = graph.edges_at_a[vertex]
    targets = {e: float(x[e]) for e in incident}
    support_edges = [e for e in incident if targets[e] > SUPPORT_FLOOR]
    if len(support_edges) > DEGREE_CAP:
        raise DegreeCapExceeded(
            f"A-vertex {vertex}: LP support {len(support_edges)} exceeds cap {DEGREE_CAP}"
        )
    if not support_edges:
        return PermDistribution(vertex=vertex, support=(((), 1.0),), targets=targets)

    k = len(support_edges)
    masks, order = _subset_table(k)
    p = np.array([graph.edges[e].p for e in support_edges])
    f = 1.0 - np.prod(np.where(masks, 1.0 - p, 1.0), axis=1)
    y = np.array([targets[e] for e in support_edges])
    y_sets = masks @ y
    if np.max(y_sets - f) > EPS:
        # an edge off the support only lowers a set's violation
        raise InfeasibleTargets(vertex, *_subset_worst(graph, targets, support_edges))
    y *= min(1.0, float(np.min(f[1:] / y_sets[1:])))

    # y is the part of the targets not yet placed and ``left`` the
    # probability not yet placed, so y / left lies in the polymatroid.  The
    # zero and tight tests scale with ``left``, floored above the rounding
    # that y accumulates; the finish test is absolute, so it bounds the
    # error in the marginals.
    found: dict[PermSample, float] = {}
    left = 1.0
    for _ in range(k + 2):
        tol = max(_TOL * left, _ROUNDING)
        y[y <= tol] = 0.0
        live = ~masks[:, y == 0.0].any(axis=1)
        slack = left * f - masks @ y
        tight = live & (slack <= tol)
        # maximal chain of tight sets: each the smallest tight strict
        # superset of the last, the lowest mask on ties
        perm: list[int] = []
        chain = 0
        for s in order[tight[order]].tolist():
            if s & chain == chain and s != chain:
                perm += [j for j in range(k) if (s & ~chain) >> j & 1]
                chain = s
        v = np.zeros(k)
        stay = 1.0
        for j in perm:
            v[j] = stay * p[j]
            stay *= 1.0 - p[j]
        gap = f - masks @ v
        # a near-tight set off the chain would hold the step at zero
        room = live & ~tight & (gap > _TOL)
        step = min(
            left,
            float(np.min(y[v > 0.0] / v[v > 0.0], initial=left)),
            float(np.min(slack[room] / gap[room], initial=left)),
        )
        last = step >= left or np.max(np.abs(y - left * v)) <= _TOL
        key = tuple(support_edges[j] for j in perm)
        found[key] = found.get(key, 0.0) + (left if last else step)
        if last:
            break
        y -= step * v
        left -= step
    else:
        # rounding can leave a remainder too small to decompose; it stays
        # unplaced, so the rest of the mass lands on the empty permutation
        if np.max(y) > EPS:
            raise RuntimeError(f"A-vertex {vertex}: greedy decomposition did not converge")

    # drop numerically-zero masses; park the lost mass on the empty
    # permutation so the marginals are untouched
    merged = {perm: q for perm, q in found.items() if q > 1e-14}
    merged[()] = merged.get((), 0.0) + (1.0 - sum(merged.values()))
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
