"""Query-commit execution of the rounding algorithms.

Examining an edge flips its (memoized) existence coin.  When both endpoints
are unmatched the examination is a *query* and a realized edge joins the
matching irrevocably; with a matched endpoint it is a consequence-free coin
flip.  All four algorithms live here:

* ``greedy_matching``   -- weight-descending scan, the 0.5 baseline,
* ``proposal_round``    -- one proposal round driven by proportional
                           permutation distributions: ``sigma=None`` is
                           ``simple``; a float ``sigma`` shrinks the LP
                           values and pads B-side degrees to ``sigma`` with
                           dummy edges (``alg1``),
* ``apx_matching``      -- two-branch wrapper: either two rounds at cap 1
                           (the second on edges left available) or one
                           round on the heavy edges with a reduced degree
                           cap, as ``apx_plan`` decides.

Every round is one rounding of the LP vector masked to the round's edges
over one augmented graph, laid out by ``transform.add_dummy_edges``: the
instance plus B vertex u's dummy as edge m + u at A vertex a_count + u,
so edge ids never change.  Dummy edges may block endpoints but never
appear in reported matchings, weights, or logs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from .instance import RealizationState, StochasticGraph, check_x_length, sample_realization
from .lpmatch import EPS
from .permdist import PermDistribution, build_proportional_distribution, draw_modified_perm
from .transform import TransformParams, add_dummy_edges, g_transform, heavy_degree_bound

UNEXAMINED = "unexamined"
QUERIED_MATCHED = "queried-realized-matched"
QUERIED_NOT_REALIZED = "queried-not-realized"
COINFLIP_REALIZED = "coinflip-realized"
COINFLIP_NOT_REALIZED = "coinflip-not-realized"

#: query_order entry marking a B vertex blocked by a dummy match; the first
#: tuple element is the B vertex index, not an edge id
DUMMY_BLOCKED = "dummy-blocked-b"

ALGORITHMS = ("greedy", "simple", "alg1", "apx")


@dataclass(frozen=True)
class RunResult:
    """One execution: the matching (original edge ids only), its weight,
    per-edge terminal statuses, the examination event sequence, and which
    round touched each edge.  ``matched_a``/``matched_b`` include endpoints
    blocked by dummy matches; blocking also appears in ``query_order`` as a
    ``DUMMY_BLOCKED`` entry carrying the B vertex index, so the sequence
    replays to the exact matched-state history."""

    matching: frozenset[int]
    weight: float
    edge_log: tuple[str, ...]
    query_order: tuple[tuple[int, str], ...]
    rounds: Mapping[int, int]
    matched_a: frozenset[int]
    matched_b: frozenset[int]
    branch: str | None = None


# ---------------------------------------------------------------------------
# Greedy baseline
# ---------------------------------------------------------------------------

def greedy_matching(graph: StochasticGraph, state: RealizationState) -> RunResult:
    """Query edges in weight-descending order (ties by id) whenever both
    endpoints are unmatched; commit realized edges.  Deterministic given the
    coins."""
    order = sorted(range(len(graph.edges)), key=lambda e: (-graph.edges[e].w, e))
    log = [UNEXAMINED] * len(graph.edges)
    events: list[tuple[int, str]] = []
    matched_a: set[int] = set()
    matched_b: set[int] = set()
    matching: set[int] = set()
    for e_id in order:
        e = graph.edges[e_id]
        if e.a in matched_a or e.b in matched_b:
            continue
        realized = sample_realization(graph, state, e_id)
        status = QUERIED_MATCHED if realized else QUERIED_NOT_REALIZED
        log[e_id] = status
        events.append((e_id, status))
        if realized:
            matching.add(e_id)
            matched_a.add(e.a)
            matched_b.add(e.b)
    return RunResult(
        matching=frozenset(matching),
        weight=sum(graph.edges[e].w for e in matching),
        edge_log=tuple(log),
        query_order=tuple(events),
        rounds={e: 1 for e, s in enumerate(log) if s != UNEXAMINED},
        matched_a=frozenset(matched_a),
        matched_b=frozenset(matched_b),
    )


# ---------------------------------------------------------------------------
# Proposal rounding core
# ---------------------------------------------------------------------------

class DistributionCache:
    """Memo for proportional distributions keyed by (vertex, incident edge
    subset) and for compiled rounds keyed by (cap, edge ids), so every round
    of every trial on the same (graph, x) can reuse them."""

    def __init__(self, graph: StochasticGraph, x) -> None:
        check_x_length(graph, x)
        self.graph = graph
        self.x = tuple(float(v) for v in x)
        self._memo: dict[tuple[int, tuple[int, ...]], tuple[tuple[tuple[int, ...], float], ...]] = {}
        self._rounds: dict[tuple[float | None, tuple[int, ...]], _Round] = {}

    def round_for(self, sigma: float | None, edge_ids) -> "_Round":
        key = (sigma, tuple(sorted(edge_ids)))
        if key not in self._rounds:
            self._rounds[key] = _compile_round(self.graph, self.x, sigma, key[1], self)
        return self._rounds[key]

    def support_for(self, vertex: int, edge_ids: tuple[int, ...]):
        key = (vertex, edge_ids)
        got = self._memo.get(key)
        if got is None:
            x = [0.0] * len(self.x)
            for e in edge_ids:
                x[e] = self.x[e]
            got = build_proportional_distribution(self.graph, vertex, x).support
            self._memo[key] = got
        return got


@dataclass
class _Round:
    """One compiled proposal round: the whole graph with dummies appended
    (original edge ids are the augmented prefix), and x zero outside the
    round's edges."""

    aug: StochasticGraph
    x_aug: tuple[float, ...]
    xt_aug: tuple[float, ...]
    dists: dict[int, PermDistribution]


def _pad_round(graph: StochasticGraph, x, sigma: float | None, edge_ids):
    """The round's x is ``x`` on ``edge_ids`` and 0 elsewhere, padded to B
    degree ``sigma`` on ``add_dummy_edges``'s augmented graph and shrunk
    through the transform; with ``sigma`` None (plain proposal rounding)
    every dummy has mass 0 and nothing is shrunk.  Returns (augmented
    graph, augmented x, augmented shrunk x); each augmented A vertex
    proposes edge e with probability exactly the shrunk x_e."""
    x_round = [0.0] * len(graph.edges)
    for e in edge_ids:
        x_round[e] = float(x[e])
    aug, x_aug = add_dummy_edges(graph, x_round, sigma)
    if sigma is None:
        return aug, x_aug, x_aug
    return aug, x_aug, tuple(g_transform(np.array(x_aug), sigma).tolist())


def _compile_round(
    graph: StochasticGraph,
    x,
    sigma: float | None,
    edge_ids,
    cache: DistributionCache,
) -> _Round:
    """``_pad_round`` plus each augmented A vertex's permutation
    distribution over its support."""
    aug, x_aug, xt_aug = _pad_round(graph, x, sigma, edge_ids)
    dists: dict[int, PermDistribution] = {}
    for v in range(aug.a_count):
        incident = aug.edges_at_a[v]
        support_edges = tuple(e for e in incident if x_aug[e] > 1e-15)
        if not support_edges:
            continue
        if v < graph.a_count:
            support = cache.support_for(v, support_edges)
        else:
            # dummy vertex: single p=1 edge with mass x, rest on the empty perm
            (d,) = support_edges
            q = min(x_aug[d], 1.0)
            support = (((d,), q),) if q >= 1.0 - 1e-15 else (((), 1.0 - q), ((d,), q))
        dists[v] = PermDistribution(
            vertex=v, support=support, targets={e: x_aug[e] for e in incident}
        )
    return _Round(aug=aug, x_aug=x_aug, xt_aug=xt_aug, dists=dists)


def _vertex_outcomes(rnd: _Round, vertex: int) -> list[tuple[int, frozenset[int], float]]:
    """Distribution of one vertex's walk outcome: (proposed augmented edge
    or -1, examined augmented edge set, probability)."""
    dist = rnd.dists.get(vertex)
    if dist is None:
        return [(-1, frozenset(), 1.0)]
    acc: dict[tuple[int, frozenset[int]], float] = {}

    def put(prop: int, examined: frozenset[int], q: float) -> None:
        if q <= 0.0:
            return
        key = (prop, examined)
        acc[key] = acc.get(key, 0.0) + q

    for perm, q0 in dist.support:
        def walk(pos: int, q: float, examined: frozenset[int]) -> None:
            if pos == len(perm):
                put(-1, examined, q)
                return
            e = perm[pos]
            p = rnd.aug.edges[e].p
            r = rnd.xt_aug[e] / rnd.x_aug[e]
            put(-1, examined, q * p * (1.0 - r))                 # filter ends the walk
            put(e, examined | {e}, q * r * p)                    # examined and realized
            walk(pos + 1, q * r * (1.0 - p), examined | {e})     # examined, not realized
            walk(pos + 1, q * (1.0 - p) * (1.0 - r), examined)   # filtered out
        walk(0, q0, frozenset())
    return sorted(((k[0], k[1], v) for k, v in acc.items()), key=lambda t: (t[0], sorted(t[1])))


def proposal_round(
    graph: StochasticGraph,
    x,
    sigma: float | None,
    state: RealizationState,
    rng: np.random.Generator,
    cache: DistributionCache | None = None,
    edge_ids=None,
) -> RunResult:
    """One proposal round over ``edge_ids`` (default: every edge): walk the
    augmented A side in a uniform random order; each vertex examines a
    permutation of its edges until its first realized one, which it
    proposes; B accepts first proposals only.  ``sigma=None`` is plain
    proportional rounding (``simple``) with marginals exactly ``x``; a
    float ``sigma`` shrinks ``x`` through the transform and pads B degrees
    to ``sigma`` with dummies, whose matches block endpoints but are not
    reported (``alg1``)."""
    ids = range(len(graph.edges)) if edge_ids is None else edge_ids
    rnd = (cache or DistributionCache(graph, x)).round_for(sigma, ids)
    aug = rnd.aug
    log = [UNEXAMINED] * len(graph.edges)
    events: list[tuple[int, str]] = []
    matched_a: set[int] = set()
    matched_b: set[int] = set()
    matching: set[int] = set()
    weight = 0.0
    for v in rng.permutation(aug.a_count):
        dist = rnd.dists.get(int(v))
        if dist is None:
            continue
        perm = draw_modified_perm(dist, rnd.x_aug, rnd.xt_aug, aug, rng)
        for e_id in perm:
            e = aug.edges[e_id]
            realized = sample_realization(aug, state, e_id)
            u_free = e.b not in matched_b
            if not e.is_dummy:
                if u_free:
                    status = QUERIED_MATCHED if realized else QUERIED_NOT_REALIZED
                else:
                    status = COINFLIP_REALIZED if realized else COINFLIP_NOT_REALIZED
                log[e_id] = status
                events.append((e_id, status))
            if realized:
                if u_free:
                    matched_b.add(e.b)
                    if e.is_dummy:
                        events.append((e.b, DUMMY_BLOCKED))
                    else:
                        matching.add(e_id)
                        weight += e.w
                        matched_a.add(e.a)
                break
    return RunResult(
        matching=frozenset(matching),
        weight=weight,
        edge_log=tuple(log),
        query_order=tuple(events),
        rounds={e: 1 for e, status in events if status != DUMMY_BLOCKED},
        matched_a=frozenset(matched_a),
        matched_b=frozenset(matched_b),
    )


def available_edges(graph: StochasticGraph, run: RunResult) -> frozenset[int]:
    """Edges unexamined by ``run`` with both endpoints unmatched (dummy
    blocking counts as matched); the candidate set for a second pass."""
    out = set()
    for e in graph.edges:
        if (
            run.edge_log[e.id] == UNEXAMINED
            and e.a not in run.matched_a
            and e.b not in run.matched_b
        ):
            out.add(e.id)
    return frozenset(out)


def classify_light(graph: StochasticGraph, x, tau: float) -> tuple[list[int], float, float]:
    """Split edges by the shrunk-to-probability ratio at cap 1.

    Returns (light edge ids with ratio <= tau, their LP mass, total LP
    mass); the branch test of the two-branch rounding compares the two
    masses.
    """
    m = len(graph.edges)
    ratio = g_transform(np.asarray(x, dtype=float), 1.0) / np.array([e.p for e in graph.edges])
    light = np.nonzero(ratio <= tau)[0].tolist()
    lp_mass = sum(x[e] * graph.edges[e].w for e in range(m))
    omega = sum(x[e] * graph.edges[e].w for e in light)
    return light, omega, lp_mass


@dataclass(frozen=True)
class ApxPlan:
    """The two-branch algorithm's decision for one (graph, x): light edges
    carry ``omega`` of the LP mass ``lp_mass``.  At ``omega >= lam *
    lp_mass`` the branch is ``two-round`` (round 1 on every edge at cap 1,
    round 2 on the edges left available), else ``heavy-prune`` (one round
    on the heavy edges at the reduced cap implied by ``tau``)."""

    branch: str
    edge_ids: tuple[int, ...]  # round-1 edges
    sigma: float  # round-1 cap
    omega: float
    lp_mass: float


def apx_plan(graph: StochasticGraph, x, params: TransformParams) -> ApxPlan:
    """Classify edges by the shrunk-to-probability ratio at cap 1 and pick
    the branch.  The heavy branch refuses a heavy B degree above its bound,
    which no LP optimum has."""
    check_x_length(graph, x)
    light, omega, lp_mass = classify_light(graph, x, params.tau)
    m = len(graph.edges)
    if omega >= params.lam * lp_mass:
        return ApxPlan("two-round", tuple(range(m)), 1.0, omega, lp_mass)
    light_set = set(light)
    sigma = heavy_degree_bound(params.tau)
    for u in range(graph.b_count):
        deg = sum(x[e] for e in graph.edges_at_b[u] if e not in light_set)
        if deg > sigma + EPS:
            raise ValueError(
                f"heavy fractional degree {deg} at B vertex {u} exceeds "
                f"the guaranteed bound {sigma}; x is not an LP optimum"
            )
    heavy = tuple(e for e in range(m) if e not in light_set)
    return ApxPlan("heavy-prune", heavy, sigma, omega, lp_mass)


def apx_matching(
    graph: StochasticGraph,
    x,
    params: TransformParams,
    state: RealizationState,
    rng: np.random.Generator,
    cache: DistributionCache | None = None,
) -> RunResult:
    """Two-branch rounding around ``proposal_round`` as decided by
    ``apx_plan``; in the two-round branch the second pass runs on the edges
    still available after the first."""
    cache = cache or DistributionCache(graph, x)
    plan = apx_plan(graph, x, params)
    run1 = proposal_round(graph, x, plan.sigma, state, rng, cache, plan.edge_ids)
    if plan.branch == "heavy-prune":
        return replace(run1, branch=plan.branch)

    run2 = proposal_round(graph, x, 1.0, state, rng, cache, available_edges(graph, run1))
    rounds = dict(run1.rounds)
    rounds.update({e: 2 for e in run2.rounds})
    return RunResult(
        matching=run1.matching | run2.matching,
        weight=run1.weight + run2.weight,
        edge_log=tuple(
            s2 if s2 != UNEXAMINED else s1 for s1, s2 in zip(run1.edge_log, run2.edge_log)
        ),
        query_order=run1.query_order + run2.query_order,
        rounds=rounds,
        matched_a=run1.matched_a | run2.matched_a,
        matched_b=run1.matched_b | run2.matched_b,
        branch=plan.branch,
    )


# ---------------------------------------------------------------------------
# Replay validation
# ---------------------------------------------------------------------------

def validate_run_result(graph: StochasticGraph, run: RunResult) -> None:
    """Replay the event sequence and assert query-commit soundness.

    Raises AssertionError when a query happened with a matched endpoint, a
    queried realized edge is missing from the matching, a coin flip happened
    with both endpoints free, or the matching/weight are inconsistent.
    """
    matched_a: set[int] = set()
    matched_b: set[int] = set()
    for e_id, status in run.query_order:
        if status == DUMMY_BLOCKED:
            matched_b.add(e_id)  # entry carries the blocked B vertex index
            continue
        e = graph.edges[e_id]
        if status in (QUERIED_MATCHED, QUERIED_NOT_REALIZED):
            assert e.a not in matched_a and e.b not in matched_b, (
                f"edge {e_id} queried with a matched endpoint"
            )
            if status == QUERIED_MATCHED:
                assert e_id in run.matching, f"edge {e_id} queried+realized but unmatched"
                matched_a.add(e.a)
                matched_b.add(e.b)
        elif status in (COINFLIP_REALIZED, COINFLIP_NOT_REALIZED):
            assert e.b in matched_b or e.a in matched_a, (
                f"edge {e_id} coin-flipped with both endpoints free"
            )
            assert e_id not in run.matching, f"coin-flipped edge {e_id} in matching"
        else:
            raise AssertionError(f"unexpected event status {status!r}")
    seen_a: set[int] = set()
    seen_b: set[int] = set()
    total = 0.0
    for e_id in run.matching:
        e = graph.edges[e_id]
        assert run.edge_log[e_id] == QUERIED_MATCHED
        assert e.a not in seen_a and e.b not in seen_b, "matching shares endpoints"
        seen_a.add(e.a)
        seen_b.add(e.b)
        total += e.w
    assert abs(total - run.weight) <= 1e-9, "weight does not match matching"
