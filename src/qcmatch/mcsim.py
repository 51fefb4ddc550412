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

Every proposal round accepts through one B-major slot table (``_Slots``):
slot (u, j) holds the j-th edge at B vertex u and the proposer that owns
it.  A round first flags, per column (proposer, edge) and trial, whether
the column fired: in a law round, when the proposer's uniform offset by the
mass before its group lands in the column's stretch of a cumulative sum; in
round 1 of two-round ``apx``, when the drawn outcome proposes the column's
edge.  A slot's key is its owner's priority, plus 1 where its column did
not fire, and each B vertex accepts the least key below 1.  The work is laid
out slot by trial, so the minimum over a B vertex's slots is a few
whole-row operations; there is no compaction of the proposals and no
scatter.  Law-round tables hold only the columns that can carry mass.
Proposers, columns and edges are those of the round's augmented graph
(``engine._compile_round``, laid out by ``transform.add_dummy_edges``),
which carries one dummy per B vertex in every round and gives a law round
its law; round 2 of two-round ``apx`` reuses round 1's graph and law.

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

from .engine import DistributionCache, _compile_round, _Round, _vertex_outcomes, apx_plan
from .instance import StochasticGraph, check_x_length
from .transform import TransformParams, dummy_mass, g_transform

CHUNK_SIZE = 1 << 16


@dataclass(frozen=True)
class BatchResult:
    trials: int
    mean: float
    stderr: float
    edge_match_freq: tuple[float, ...]
    branch: str | None = None


def _compile_arrays(rnd: _Round):
    """A proposal round as each augmented A vertex's walk-outcome law:
    cumulative masses, the proposed augmented edge (-1 for none), the
    vertex's incident edge ids and an outcomes x incident examined matrix.
    Returns (slot table over the proposable edges, augmented graph, laws);
    the table's proposers are the laws' vertices in order."""
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
    # one column per (proposer, edge) that some outcome proposes
    pairs = sorted({(i, e) for i, (_, target, _, _) in enumerate(laws) for e in target.tolist() if e >= 0})
    owner = np.array([i for i, _ in pairs], dtype=np.int64)
    edge = np.array([e for _, e in pairs], dtype=np.int64)
    slots = _Slots(owner, edge, [e.b for e in rnd.aug.edges], [e.w for e in rnd.aug.edges], rnd.aug.b_count)
    return slots, rnd.aug, laws


def _run_proposal_chunk(comp, n: int, rng: np.random.Generator):
    """One proposal round over ``n`` trials: every vertex draws one outcome
    of its walk-outcome law, then B accepts its min-priority proposer.

    Returns (per-trial weight, winner edges (n, n_b), examined flags (n, m)).
    """
    slots, aug, laws = comp
    prop = np.empty((len(laws), n), dtype=np.int64)
    exam = np.zeros((n, len(aug.edges)), dtype=bool)
    for i, (cum, target, incident, examined) in enumerate(laws):
        k = np.minimum(np.searchsorted(cum, rng.random(n), side="right"), len(cum) - 1)
        prop[i] = target[k]
        exam[:, incident] = examined[k]
    miss = np.ones((len(slots.owner) + 1, n), dtype=bool)
    np.not_equal(prop[slots.owner], slots.edge[:, None], out=miss[:-1])
    weights, win = slots.accept(miss, rng.random((n, len(laws))))
    return weights, win, exam


def _transposed(a: np.ndarray) -> np.ndarray:
    """``a.T`` as a contiguous array, copied 4,096 rows at a time: one
    strided copy of a (60,000, 13) float array took 3.5 times as long on a
    2-vCPU Xeon."""
    out = np.empty(a.shape[::-1], dtype=a.dtype)
    for i in range(0, len(a), 4096):
        out[:, i:i + 4096] = a[i:i + 4096].T
    return out


class _Slots:
    """B-major slot table of a round.  Column c lets proposer ``owner[c]``
    propose augmented edge ``edge[c]``; row c of a round's (columns + 1,
    trials) ``miss`` flags the trials where column c did not fire, and its
    last row, which no column owns, is all True.  Slot (u, j) holds the
    column ``col`` of the j-th such edge at B vertex u, its owner and its
    edge + 1; the ``width - degree`` slots past u's edges read the last
    row, so they never fire, and hold edge + 1 = 0."""

    def __init__(self, owner: np.ndarray, edge: np.ndarray, edge_b, edge_w, n_b: int) -> None:
        self.owner, self.edge, self.n_b = owner, edge, n_b
        col_b = np.asarray(edge_b, dtype=np.int64)[edge]
        deg = np.bincount(col_b, minlength=n_b)
        self.width = max(int(deg.max(initial=0)), 1)
        by_b = np.argsort(col_b, kind="stable")
        slot = col_b[by_b] * self.width + np.arange(len(by_b)) - np.repeat(np.cumsum(deg) - deg, deg)
        self.col = np.full(n_b * self.width, len(owner), dtype=np.int64)
        self.col[slot] = by_b
        # a slot past the degree reads proposer 0's priority, which its
        # miss flag always outweighs
        self.slot_owner = np.append(owner, 0)[self.col]
        edge_p1 = np.zeros(n_b * self.width, dtype=np.int32)
        edge_p1[slot] = edge[by_b] + 1
        self.edge_p1 = edge_p1.reshape(n_b, self.width, 1)
        # weight per edge, and 0 for edge -1
        self.w_ext = np.append(np.asarray(edge_w, dtype=float), 0.0)

    def accept(self, miss: np.ndarray, prio: np.ndarray):
        """Each B vertex accepts the least-priority proposer among its fired
        slots.  ``prio`` (trials, proposers) holds uniform priorities in
        [0, 1); a slot's key is its owner's priority, plus 1 where it did not
        fire.  Returns per-trial weights and the accepted edge per (trial, B
        vertex), -1 where nobody proposed."""
        n = miss.shape[1]
        key = _transposed(prio)[self.slot_owner]
        key += miss[self.col]
        key = key.reshape(self.n_b, self.width, n)
        best = key.min(axis=1)
        win_p1 = ((key == best[:, None]) * self.edge_p1).max(axis=1)
        win_p1 *= best < 1.0
        win = _transposed(win_p1) - 1
        return self.w_ext[win].sum(axis=1), win


def _count_matches(win: np.ndarray, n_orig: int) -> np.ndarray:
    """Matches per original edge; original edges are the prefix of every
    augmented edge set."""
    return np.bincount(win.ravel() + 1, minlength=n_orig + 1)[1:n_orig + 1]


class _Proposers:
    """The proposers of a law round: the A vertices of the augmented graph
    ``aug``, dummies included, each drawing one uniform and one priority
    per trial.  The columns are the augmented edges grouped stably by A
    vertex, and only those flagged in ``live`` (one flag per augmented
    edge) enter the slot table: a column whose mass is 0 never fires, and
    leaving it out moves no other column's stretch.  ``edge[c]`` is column
    c's augmented edge and ``start[c]`` the first live column of its
    owner's group."""

    def __init__(self, aug: StochasticGraph, live: np.ndarray) -> None:
        edge_a = np.array([e.a for e in aug.edges], dtype=np.int64)
        by_a = np.argsort(edge_a, kind="stable")
        self.edge = by_a[live[by_a]]
        owner = edge_a[self.edge]
        self.n_prop = aug.a_count
        self.start = np.searchsorted(owner, owner)
        self.slots = _Slots(owner, self.edge, [e.b for e in aug.edges], [e.w for e in aug.edges], aug.b_count)


def _propose(props: _Proposers, law: np.ndarray, n: int, rng: np.random.Generator):
    """Every proposer draws one live column of its group with probability
    ``law`` (columns x 1, or columns x trials) and proposes nothing with the
    rest of its mass, one uniform each against its stretch of a cumulative
    sum; then each B vertex accepts its min-priority proposer.  Returns
    per-trial weights and the accepted edge per (trial, B vertex)."""
    # cum[c] is the mass before column c, cum[c + 1] the mass through it
    cum = np.zeros((len(law) + 1, law.shape[1]))
    np.cumsum(law, axis=0, out=cum[1:])
    pick = _transposed(rng.random((n, props.n_prop)))[props.slots.owner]
    pick += cum[props.start]
    miss = np.ones((len(law) + 1, n), dtype=bool)
    np.less(pick, cum[:-1], out=miss[:-1])
    miss[:-1] |= pick >= cum[1:]
    return props.slots.accept(miss, rng.random((n, props.n_prop)))


class _ApxContext:
    """Compiled state of two-round apx: round 1 as a draw from per-vertex
    walk-outcome laws, because the edges left available depend on the
    examined sets, and round 2 as a draw from per-edge proposal laws."""

    def __init__(self, rnd: _Round):
        self.graph = graph = rnd.cache.graph
        self.round1 = _compile_arrays(rnd)
        self.x = np.array(rnd.cache.x)
        # round 1 runs on every edge at cap 1, so its law is round 2's
        self.law = rnd.law[:len(graph.edges)]
        # round 2's live columns: edges that can carry mass, and every dummy
        self.round2 = _Proposers(rnd.aug, np.append(self.law > 0.0, np.ones(graph.b_count, dtype=bool)))
        self.edge_a = np.array([e.a for e in graph.edges], dtype=np.int64)
        # indexed by a round-1 winner (-1 is the last entry): its A vertex,
        # or a_count for a dummy edge and for nobody
        self.win_a = np.minimum(np.append([e.a for e in rnd.aug.edges], graph.a_count), graph.a_count)
        self.edge_b_orig = np.array([e.b for e in graph.edges], dtype=np.int64)
        self.at_b = np.eye(graph.b_count)[self.edge_b_orig]

    def round2_for(self, avail: np.ndarray, rng: np.random.Generator):
        """Round 2 at cap 1 on x masked to ``avail`` (trials, edges): each A
        vertex proposes available edge e with probability g(x_e, 1), each B
        vertex's dummy with g(1 - available x-degree, 1).  Returns per-trial
        weights and per-edge match counts."""
        n, m = avail.shape
        dummy = dummy_mass((avail * self.x) @ self.at_b, 1.0)
        # per augmented edge: x masked to the trial's available edges, then
        # each dummy's mass
        law = np.concatenate((_transposed(avail) * self.law[:, None], _transposed(g_transform(dummy, 1.0))))
        weights, win = _propose(self.round2, law[self.round2.edge], n, rng)
        return weights, _count_matches(win, m)


def _two_round_chunk(ctx: _ApxContext, n: int, rng: np.random.Generator, n_orig: int):
    weights, win, exam = _run_proposal_chunk(ctx.round1, n, rng)
    counts = _count_matches(win, n_orig)
    # matched A vertices, with one extra column for dummies and nobody
    a_matched = np.zeros((n, ctx.graph.a_count + 1), dtype=bool)
    a_matched[np.arange(n)[:, None], ctx.win_a[win]] = True
    # available edges: unexamined, both endpoints unmatched (original edges
    # are the augmented prefix; a dummy match blocks its B vertex)
    avail = (
        ~exam[:, :n_orig]
        & ~a_matched[:, ctx.edge_a]
        & (win < 0)[:, ctx.edge_b_orig]
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
    if x is not None:
        check_x_length(graph, x)
    branch: str | None = None

    if algorithm == "greedy":
        def body(n, rng):
            return _greedy_chunk(graph, n, rng)
    elif algorithm in ("simple", "alg1", "apx"):
        if x is None:
            raise ValueError(f"{algorithm} requires an LP solution")
        cache = DistributionCache(graph, x)
        if algorithm == "apx":
            plan = apx_plan(graph, cache.x, params)
            branch, sigma, edge_ids = plan.branch, plan.sigma, plan.edge_ids
        else:
            sigma = None if algorithm == "simple" else params.sigma
            edge_ids = range(n_orig)
        rnd = _compile_round(cache, sigma, edge_ids)
        if branch == "two-round":
            ctx = _ApxContext(rnd)

            def body(n, rng):
                return _two_round_chunk(ctx, n, rng, n_orig)
        else:
            props = _Proposers(rnd.aug, rnd.law > 0.0)
            law = rnd.law[props.edge, None]

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
