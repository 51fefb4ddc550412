"""Vectorized Monte-Carlo trial runner.

Simulates many independent trials of an algorithm at once with numpy.  The
proposal algorithms factor cleanly across trials: each A vertex's walk is
independent of the global matching state, and acceptance at a B vertex just
picks the proposer with the smallest uniform priority, so whole chunks of
trials advance in lockstep.  The second pass of the two-round branch needs
no walk: at cap 1 each A vertex proposes an available edge e with
probability g(x_e, 1) whatever the available set, so it is one categorical
draw per vertex, and only each B vertex's dummy depends on the trial.

Trials are processed in fixed-size chunks with per-chunk RNG streams derived
from (master seed, chunk index); chunk partials are reduced in chunk order,
so results are bit-identical for fixed inputs no matter how many worker
threads run the chunks.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .engine import DistributionCache, _compile_round, apx_plan
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


@dataclass
class _Compiled:
    """Array form of one proposal round over an augmented edge set."""

    n_a: int
    n_b: int
    m: int
    edge_b: np.ndarray
    edge_w: np.ndarray
    orig_id: np.ndarray          # original edge id, -1 for dummies
    t_term: np.ndarray           # p (1 - r)
    t_prop: np.ndarray           # + r p
    t_app: np.ndarray            # + r (1 - p)
    vert_cum: list[np.ndarray | None]
    vert_edges: list[np.ndarray | None]   # (n_cols, max_len) aug ids, -1 pad


def _compile_arrays(graph: StochasticGraph, x, sigma, edge_ids, cache: DistributionCache) -> _Compiled:
    rnd = _compile_round(graph, x, sigma, edge_ids, cache)
    aug = rnd.aug
    m = len(aug.edges)
    p = np.array([e.p for e in aug.edges])
    x_aug = np.array(rnd.x_aug)
    pos = x_aug > 0.0
    r = np.ones(m)
    r[pos] = np.minimum(np.array(rnd.xt_aug)[pos] / x_aug[pos], 1.0)
    t_term = p * (1.0 - r)
    t_prop = t_term + r * p
    t_app = t_prop + r * (1.0 - p)
    vert_cum: list[np.ndarray | None] = []
    vert_edges: list[np.ndarray | None] = []
    for v in range(aug.a_count):
        dist = rnd.dists.get(v)
        if dist is None:
            vert_cum.append(None)
            vert_edges.append(None)
            continue
        probs = np.array([q for _, q in dist.support])
        max_len = max((len(perm) for perm, _ in dist.support), default=0)
        mat = -np.ones((len(dist.support), max(max_len, 1)), dtype=np.int64)
        for i, (perm, _) in enumerate(dist.support):
            for j, e in enumerate(perm):
                mat[i, j] = e
        vert_cum.append(np.cumsum(probs))
        vert_edges.append(mat)
    return _Compiled(
        n_a=aug.a_count,
        n_b=aug.b_count,
        m=m,
        edge_b=np.array([e.b for e in aug.edges], dtype=np.int64),
        edge_w=np.array([e.w for e in aug.edges]),
        orig_id=np.array([-1 if e.is_dummy else e.id for e in aug.edges], dtype=np.int64),
        t_term=t_term,
        t_prop=t_prop,
        t_app=t_app,
        vert_cum=vert_cum,
        vert_edges=vert_edges,
    )


def _run_proposal_chunk(comp: _Compiled, n: int, rng: np.random.Generator, need_state: bool):
    """One proposal round over ``n`` trials.

    Returns (per-trial weight, winner edges (n, n_b), and, when
    ``need_state``, examined flags).
    """
    prio = rng.random((n, comp.n_a))
    prop = -np.ones((n, comp.n_a), dtype=np.int64)
    exam = np.zeros((n, comp.m), dtype=bool) if need_state else None
    for v in range(comp.n_a):
        cum = comp.vert_cum[v]
        if cum is None:
            continue
        cols = np.searchsorted(cum, rng.random(n), side="right")
        cols = np.minimum(cols, len(cum) - 1)
        eids = comp.vert_edges[v][cols]
        max_len = eids.shape[1]
        z = rng.random((n, max_len))
        active = np.ones(n, dtype=bool)
        for j in range(max_len):
            e = eids[:, j]
            walk = active & (e >= 0)
            if not walk.any():
                continue
            zz = z[:, j]
            esafe = np.maximum(e, 0)
            t1 = comp.t_term[esafe]
            t2 = comp.t_prop[esafe]
            t3 = comp.t_app[esafe]
            term = walk & (zz <= t1)
            do_prop = walk & (zz > t1) & (zz <= t2)
            do_exam = walk & (zz > t2) & (zz <= t3)
            if do_prop.any():
                prop[do_prop, v] = e[do_prop]
                if need_state:
                    exam[do_prop, e[do_prop]] = True
            if need_state and do_exam.any():
                exam[do_exam, e[do_exam]] = True
            active &= ~(term | do_prop)

    weights, win = _accept(prop, prio, comp.edge_b, comp.edge_w, comp.n_b)
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


def _count_orig_matches(comp: _Compiled, win: np.ndarray, n_orig: int) -> np.ndarray:
    ovals = comp.orig_id[win[win >= 0]]
    return np.bincount(ovals[ovals >= 0], minlength=n_orig)


class _ApxContext:
    """Compiled state of the two-branch algorithm: round 1 as a walk kernel,
    round 2 of the two-round branch as a draw from per-edge proposal laws."""

    def __init__(self, graph: StochasticGraph, x, params: TransformParams):
        self.graph = graph
        self.plan = apx_plan(graph, x, params)
        self.round1 = _compile_arrays(graph, x, self.plan.sigma, self.plan.edge_ids, DistributionCache(graph, x))
        self.x = np.asarray(x, dtype=float)
        self.edge_a = np.array([e.a for e in graph.edges], dtype=np.int64)
        self.edge_b_orig = np.array([e.b for e in graph.edges], dtype=np.int64)
        # round 2 proposers are the A vertices and then B vertex u's dummy
        # as proposer n_a + u with edge m + u; columns are grouped by
        # proposer, each group starting at group_start
        m, n_a, n_b = len(graph.edges), graph.a_count, graph.b_count
        self.by_a = np.argsort(self.edge_a, kind="stable")
        self.col_edge = np.concatenate((self.by_a, m + np.arange(n_b)))
        self.col_owner = np.concatenate((self.edge_a[self.by_a], n_a + np.arange(n_b)))
        self.group_start = np.searchsorted(self.col_owner, self.col_owner)
        self.law = g_transform(self.x[self.by_a], 1.0)
        self.at_b = np.eye(n_b)[self.edge_b_orig]
        self.edge_b2 = np.concatenate((self.edge_b_orig, np.arange(n_b)))
        self.edge_w2 = np.concatenate(([e.w for e in graph.edges], np.zeros(n_b)))

    def round2_for(self, avail: np.ndarray, rng: np.random.Generator):
        """Round 2 at cap 1 on x masked to ``avail`` (trials, edges): each A
        vertex proposes available edge e with probability g(x_e, 1), each B
        vertex's dummy with g(1 - available x-degree, 1), one uniform each
        against the proposer's stretch of a masked cumulative sum.  Returns
        per-trial weights and per-edge match counts."""
        n, m = avail.shape
        n_prop = self.graph.a_count + self.graph.b_count
        gap = np.clip(1.0 - (avail * self.x) @ self.at_b, 0.0, 1.0)
        law = np.concatenate((avail[:, self.by_a] * self.law, g_transform(gap, 1.0)), axis=1)
        cum = np.cumsum(law, axis=1)
        prev = np.concatenate((np.zeros((n, 1)), cum[:, :-1]), axis=1)
        pick = rng.random((n, n_prop))[:, self.col_owner] + prev[:, self.group_start]
        rows, cols = np.nonzero((prev <= pick) & (pick < cum))
        prop = -np.ones((n, n_prop), dtype=np.int64)
        prop[rows, self.col_owner[cols]] = self.col_edge[cols]
        weights, win = _accept(prop, rng.random((n, n_prop)), self.edge_b2, self.edge_w2, self.graph.b_count)
        return weights, np.bincount(win[win >= 0], minlength=m + self.graph.b_count)[:m]


def _apx_chunk(ctx: _ApxContext, n: int, rng: np.random.Generator, n_orig: int):
    if ctx.plan.branch == "heavy-prune":
        weights, win, _ = _run_proposal_chunk(ctx.round1, n, rng, need_state=False)
        return weights, _count_orig_matches(ctx.round1, win, n_orig)

    weights, win, exam = _run_proposal_chunk(ctx.round1, n, rng, need_state=True)
    counts = _count_orig_matches(ctx.round1, win, n_orig)
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
    m = len(graph.edges)
    order = sorted(range(m), key=lambda e: (-graph.edges[e].w, e))
    # coins drawn eagerly: each edge's coin is consulted at most once, so
    # this is distribution-identical to lazy sampling
    coins = rng.random((n, m))
    a_used = np.zeros((n, graph.a_count), dtype=bool)
    b_used = np.zeros((n, graph.b_count), dtype=bool)
    weights = np.zeros(n)
    counts = np.zeros(m, dtype=np.int64)
    for e_id in order:
        e = graph.edges[e_id]
        hit = ~a_used[:, e.a] & ~b_used[:, e.b] & (coins[:, e_id] < e.p)
        weights += e.w * hit
        a_used[:, e.a] |= hit
        b_used[:, e.b] |= hit
        counts[e_id] += int(hit.sum())
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
    branch: str | None = None

    if algorithm == "greedy":
        def body(n, rng):
            return _greedy_chunk(graph, n, rng)
    elif algorithm in ("simple", "alg1"):
        if x is None:
            raise ValueError(f"{algorithm} requires an LP solution")
        cache = DistributionCache(graph, x)
        sigma = None if algorithm == "simple" else params.sigma
        comp = _compile_arrays(graph, x, sigma, range(n_orig), cache)

        def body(n, rng):
            weights, win, _ = _run_proposal_chunk(comp, n, rng, need_state=False)
            return weights, _count_orig_matches(comp, win, n_orig)
    elif algorithm == "apx":
        if x is None:
            raise ValueError("apx requires an LP solution")
        ctx = _ApxContext(graph, x, params)
        branch = ctx.plan.branch

        def body(n, rng):
            return _apx_chunk(ctx, n, rng, n_orig)
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
