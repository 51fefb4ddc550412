"""Vectorized Monte-Carlo trial runner.

Simulates many independent trials of an algorithm at once with numpy.  In a
proposal round each augmented A vertex proposes edge e with probability
exactly the shrunk LP value of e (the filtered permutation sampler is built
for this), independently of the other vertices, and each B vertex accepts
its min-priority proposer.  So ``simple``, ``alg1`` and heavy-prune ``apx``
need no permutation walk: every proposer makes one categorical draw over its
edges per trial, and whole chunks of trials advance in lockstep.  Round 1
of two-round ``apx`` also needs the examined sets, because they decide
which edges stay available for round 2, so each of its vertices draws one
outcome of its walk-outcome law (``engine._vertex_outcomes``: proposed
edge, examined set, probability).  That law is enumerated from permutation
distributions, so two-round ``apx`` keeps the A-vertex degree cap.  Its
second pass at cap 1 is again one draw per proposer: each A vertex proposes
an available edge e with probability g(x_e, 1) whatever the available set,
and only each B vertex's dummy depends on the trial.  Only the per-trial
engine walks permutations.

Greedy keeps its state edge-major.  A chunk's coins are drawn trial-major,
``rng.random((n, m))``, which fixes the random stream; they are compared
once against the edges' p and transposed into contiguous per-edge rows.
Free flags are one contiguous row per vertex over the chunk's trials.  So
each edge, in greedy order, combines and updates whole rows in place
instead of strided columns.

Trials are processed in fixed-size chunks with per-chunk RNG streams derived
from (master seed, chunk index); chunk partials are reduced in chunk order,
so results are bit-identical for fixed inputs no matter how many worker
threads run the chunks.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .engine import ApxPlan, DistributionCache, _compile_round, _pad_round, _vertex_outcomes, apx_plan
from .instance import StochasticGraph
from .transform import TransformParams, g_transform

CHUNK_SIZE = 1 << 16


@dataclass(frozen=True)
class BatchResult:
    trials: int
    mean: float
    stderr: float
    edge_match_freq: tuple[float, ...]
    branch: str | None = None


def _compile_arrays(graph: StochasticGraph, x, sigma, edge_ids, cache: DistributionCache):
    """A proposal round as each augmented A vertex's walk-outcome law:
    cumulative masses, the proposed augmented edge (-1 for none), the
    vertex's incident edge ids and an outcomes x incident examined matrix.
    Returns (augmented B endpoints, augmented weights, B count, laws)."""
    rnd = _compile_round(graph, x, sigma, edge_ids, cache)
    laws = []
    for v in sorted(rnd.dists):
        outcomes = _vertex_outcomes(rnd, v)
        incident = rnd.aug.edges_at_a[v]
        laws.append((
            np.cumsum([q for _, _, q in outcomes]),
            np.array([e for e, _, _ in outcomes], dtype=np.int64),
            np.array(incident, dtype=np.int64),
            np.array([[e in examined for e in incident] for _, examined, _ in outcomes], dtype=bool),
        ))
    edge_b = np.array([e.b for e in rnd.aug.edges], dtype=np.int64)
    edge_w = np.array([e.w for e in rnd.aug.edges])
    return edge_b, edge_w, rnd.aug.b_count, laws


def _run_proposal_chunk(comp, n: int, rng: np.random.Generator):
    """One proposal round over ``n`` trials: every vertex draws one outcome
    of its walk-outcome law, then B accepts its min-priority proposer.

    Returns (per-trial weight, winner edges (n, n_b), examined flags (n, m)).
    """
    edge_b, edge_w, n_b, laws = comp
    prop = np.empty((n, len(laws)), dtype=np.int64)
    exam = np.zeros((n, len(edge_b)), dtype=bool)
    for i, (cum, target, incident, examined) in enumerate(laws):
        k = np.minimum(np.searchsorted(cum, rng.random(n), side="right"), len(cum) - 1)
        prop[:, i] = target[k]
        exam[:, incident] = examined[k]
    weights, win = _accept(prop, rng.random((n, len(laws))), edge_b, edge_w, n_b)
    return weights, win, exam


def _accept(prop: np.ndarray, prio: np.ndarray, edge_b: np.ndarray, edge_w: np.ndarray, n_b: int):
    """Each B vertex accepts its min-priority proposer.

    ``prop`` (n, k) holds each proposer's edge id (-1 for none) and ``prio``
    its uniform priority; returns the per-trial accepted weight and the
    accepted edge per (trial, B vertex), -1 where nobody proposed.
    """
    n = len(prop)
    has = prop >= 0
    rows = np.broadcast_to(np.arange(n)[:, None], prop.shape)[has]
    eids = prop[has]
    b = edge_b[eids]
    pr = prio[has]
    best = np.full((n, n_b), np.inf)
    np.minimum.at(best, (rows, b), pr)
    first = pr <= best[rows, b]
    win = -np.ones((n, n_b), dtype=np.int64)
    win[rows[first], b[first]] = eids[first]
    return (edge_w[np.maximum(win, 0)] * (win >= 0)).sum(axis=1), win


def _count_matches(win: np.ndarray, n_orig: int) -> np.ndarray:
    """Matches per original edge; original edges are the prefix of every
    augmented edge set."""
    return np.bincount(win[win >= 0], minlength=n_orig)[:n_orig]


class _Proposers:
    """The proposers of a round on ``graph``: the A vertices, then B vertex
    u's dummy as proposer n_a + u with edge m + u.  Their laws are laid out
    as columns, the graph's edges grouped by A vertex and then the dummies:
    column c lets proposer ``owner[c]`` propose edge ``edge[c]``, and
    ``start[c]`` is the first column of its group."""

    def __init__(self, graph: StochasticGraph) -> None:
        m, n_a, n_b = len(graph.edges), graph.a_count, graph.b_count
        edge_a = np.array([e.a for e in graph.edges], dtype=np.int64)
        self.by_a = np.argsort(edge_a, kind="stable")
        self.n_prop = n_a + n_b
        self.owner = np.concatenate((edge_a[self.by_a], n_a + np.arange(n_b)))
        self.edge = np.concatenate((self.by_a, m + np.arange(n_b)))
        self.start = np.searchsorted(self.owner, self.owner)
        self.edge_b = np.concatenate(([e.b for e in graph.edges], np.arange(n_b))).astype(np.int64)
        self.edge_w = np.concatenate(([e.w for e in graph.edges], np.zeros(n_b)))
        self.n_b = n_b


def _propose(props: _Proposers, law: np.ndarray, n: int, rng: np.random.Generator):
    """Every proposer draws one column of its group with probability
    ``law`` (per column, or per trial and column) and proposes nothing with
    the rest of its mass, one uniform each against its stretch of a
    cumulative sum; then each B vertex accepts its min-priority proposer.
    Returns per-trial weights and the accepted edge per (trial, B vertex)."""
    cum = np.cumsum(law, axis=-1)
    prev = np.concatenate((np.zeros(cum.shape[:-1] + (1,)), cum[..., :-1]), axis=-1)
    pick = rng.random((n, props.n_prop))[:, props.owner] + prev[..., props.start]
    rows, cols = np.nonzero((prev <= pick) & (pick < cum))
    prop = -np.ones((n, props.n_prop), dtype=np.int64)
    prop[rows, props.owner[cols]] = props.edge[cols]
    return _accept(prop, rng.random((n, props.n_prop)), props.edge_b, props.edge_w, props.n_b)


def _round_law(graph: StochasticGraph, props: _Proposers, x, sigma: float | None, edge_ids) -> np.ndarray:
    """Column law of a round that needs no examined-edge state: every A
    vertex and every dummy proposes each edge of its walk's support with
    probability the edge's shrunk x."""
    aug, x_aug, xt_aug = _pad_round(graph, x, sigma, edge_ids)
    xt = np.where(np.array(x_aug) > 1e-15, xt_aug, 0.0)
    m = len(graph.edges)
    dummy = np.zeros(graph.b_count)
    dummy[[e.b for e in aug.edges[m:]]] = xt[m:]
    return np.concatenate((xt[:m][props.by_a], dummy))


class _ApxContext:
    """Compiled state of two-round apx: round 1 as a draw from per-vertex
    walk-outcome laws, because the edges left available depend on the
    examined sets, and round 2 as a draw from per-edge proposal laws."""

    def __init__(self, graph: StochasticGraph, x, plan: ApxPlan):
        self.graph = graph
        self.round1 = _compile_arrays(graph, x, plan.sigma, plan.edge_ids, DistributionCache(graph, x))
        self.round2 = _Proposers(graph)
        self.x = np.asarray(x, dtype=float)
        self.edge_a = np.array([e.a for e in graph.edges], dtype=np.int64)
        self.edge_b_orig = np.array([e.b for e in graph.edges], dtype=np.int64)
        self.law = g_transform(self.x[self.round2.by_a], 1.0)
        self.at_b = np.eye(graph.b_count)[self.edge_b_orig]

    def round2_for(self, avail: np.ndarray, rng: np.random.Generator):
        """Round 2 at cap 1 on x masked to ``avail`` (trials, edges): each A
        vertex proposes available edge e with probability g(x_e, 1), each B
        vertex's dummy with g(1 - available x-degree, 1).  Returns per-trial
        weights and per-edge match counts."""
        n, m = avail.shape
        gap = np.clip(1.0 - (avail * self.x) @ self.at_b, 0.0, 1.0)
        law = np.concatenate((avail[:, self.round2.by_a] * self.law, g_transform(gap, 1.0)), axis=1)
        weights, win = _propose(self.round2, law, n, rng)
        return weights, _count_matches(win, m)


def _two_round_chunk(ctx: _ApxContext, n: int, rng: np.random.Generator, n_orig: int):
    weights, win, exam = _run_proposal_chunk(ctx.round1, n, rng)
    counts = _count_matches(win, n_orig)
    rows, cols = np.nonzero((win >= 0) & (win < n_orig))
    a_matched = np.zeros((n, ctx.graph.a_count), dtype=bool)
    a_matched[rows, ctx.edge_a[win[rows, cols]]] = True
    # available edges: unexamined, both endpoints unmatched (original edges
    # are the augmented prefix; a dummy match blocks its B vertex)
    avail = (
        ~exam[:, :n_orig]
        & ~a_matched[:, ctx.edge_a]
        & (win[:, ctx.edge_b_orig] < 0)
    )
    live = np.nonzero((avail & (ctx.x > 0.0)).any(axis=1))[0]
    w2, counts2 = ctx.round2_for(avail[live], rng)
    weights[live] += w2
    return weights, counts + counts2


def _greedy_chunk(graph: StochasticGraph, n: int, rng: np.random.Generator):
    """Greedy over ``n`` trials, edge-major: row e of ``real`` holds edge
    e's realization in every trial, and rows of ``a_free``/``b_free`` hold
    a vertex's free flag in every trial.  Returns (per-trial weight,
    matches per edge)."""
    m = len(graph.edges)
    order = sorted(range(m), key=lambda e: (-graph.edges[e].w, e))
    p = np.array([e.p for e in graph.edges])
    # coins drawn eagerly and trial-major, (n, m), which fixes the random
    # stream: each edge's coin is consulted at most once, so this is
    # distribution-identical to lazy sampling
    real = np.ascontiguousarray((rng.random((n, m)) < p).T)
    a_free = np.ones((graph.a_count, n), dtype=bool)
    b_free = np.ones((graph.b_count, n), dtype=bool)
    weights = np.zeros(n)
    counts = np.zeros(m, dtype=np.int64)
    for e_id in order:
        e = graph.edges[e_id]
        hit = real[e_id]  # each row is read once, so it is reused in place
        hit &= a_free[e.a]
        hit &= b_free[e.b]
        weights += e.w * hit
        np.greater(a_free[e.a], hit, out=a_free[e.a])
        np.greater(b_free[e.b], hit, out=b_free[e.b])
        counts[e_id] = np.count_nonzero(hit)
    return weights, counts


def run_batch(
    graph: StochasticGraph,
    x,
    algorithm: str,
    params: TransformParams,
    trials: int,
    master_seed: int,
    *,
    threads: int = 1,
    chunk_size: int = CHUNK_SIZE,
) -> BatchResult:
    """Estimate the expected matching weight of one algorithm.

    ``x`` is required for every algorithm except ``greedy``.  The chunk
    partition depends only on ``trials`` and ``chunk_size``, never on
    ``threads``.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n_orig = len(graph.edges)
    if x is not None and len(x) != n_orig:
        raise ValueError(f"x has {len(x)} entries but the graph has {n_orig} edges")
    branch: str | None = None

    if algorithm == "greedy":
        def body(n, rng):
            return _greedy_chunk(graph, n, rng)
    elif algorithm in ("simple", "alg1", "apx"):
        if x is None:
            raise ValueError(f"{algorithm} requires an LP solution")
        if algorithm == "apx":
            plan = apx_plan(graph, x, params)
            branch, sigma, edge_ids = plan.branch, plan.sigma, plan.edge_ids
        else:
            sigma = None if algorithm == "simple" else params.sigma
            edge_ids = range(n_orig)
        if branch == "two-round":
            ctx = _ApxContext(graph, x, plan)

            def body(n, rng):
                return _two_round_chunk(ctx, n, rng, n_orig)
        else:
            props = _Proposers(graph)
            law = _round_law(graph, props, x, sigma, edge_ids)

            def body(n, rng):
                weights, win = _propose(props, law, n, rng)
                return weights, _count_matches(win, n_orig)
    else:
        raise ValueError(f"unknown algorithm {algorithm!r}")

    n_chunks = (trials + chunk_size - 1) // chunk_size

    def run_chunk(c: int):
        n = min(chunk_size, trials - c * chunk_size)
        rng = np.random.default_rng(np.random.SeedSequence((master_seed, c)))
        weights, counts = body(n, rng)
        return float(weights.sum()), float(np.dot(weights, weights)), counts

    if threads > 1 and n_chunks > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            partials = list(pool.map(run_chunk, range(n_chunks)))
    else:
        partials = [run_chunk(c) for c in range(n_chunks)]

    total = 0.0
    total_sq = 0.0
    counts = np.zeros(n_orig, dtype=np.int64)
    for s, sq, c in partials:
        total += s
        total_sq += sq
        counts += c
    mean = total / trials
    if trials > 1:
        var = max(total_sq - trials * mean * mean, 0.0) / (trials - 1)
        stderr = float(np.sqrt(var / trials))
    else:
        stderr = 0.0
    return BatchResult(
        trials=trials,
        mean=mean,
        stderr=stderr,
        edge_match_freq=tuple((counts / trials).tolist()),
        branch=branch,
    )
