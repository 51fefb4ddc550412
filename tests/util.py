"""Shared test helpers: random tiny instances, random feasible LP vectors,
closed-form and brute-force cross-checks independent of the library's own
oracles, and the pooled two-proportion z of the sampler agreement tests."""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from functools import lru_cache

import numpy as np

from qcmatch.engine import DistributionCache, _compile_round, _vertex_outcomes
from qcmatch.instance import StochasticGraph, make_graph
from qcmatch.lpmatch import constraint_rhs
from qcmatch.transform import add_dummy_edges, g_transform


def random_instance(
    rng: np.random.Generator,
    max_a: int = 3,
    max_b: int = 3,
    max_edges: int = 6,
    p_lo: float = 0.2,
    p_hi: float = 1.0,
) -> StochasticGraph:
    """Random bipartite instance with at least one edge."""
    while True:
        na = int(rng.integers(1, max_a + 1))
        nb = int(rng.integers(1, max_b + 1))
        pairs = [(a, b) for a in range(na) for b in range(nb)]
        keep = [pairs[i] for i in range(len(pairs)) if rng.random() < 0.6]
        if len(keep) > max_edges:
            idx = sorted(rng.choice(len(keep), size=max_edges, replace=False).tolist())
            keep = [keep[i] for i in idx]
        if keep:
            break
    triples = [
        (a, b, float(rng.uniform(0.1, 2.0)), float(rng.uniform(p_lo, p_hi)))
        for a, b in keep
    ]
    return make_graph(na, nb, triples)


def rng_for_trial(master_seed: int, trial: int) -> np.random.Generator:
    """Independent per-trial stream from (master seed, trial index)."""
    return np.random.default_rng(np.random.SeedSequence((master_seed, trial)))


def greedy_match_probabilities_brute_force(graph: StochasticGraph) -> list[float]:
    """Independent oracle: run greedy's deterministic scan over every
    realization and return each edge's probability of being matched."""
    m = len(graph.edges)
    order = sorted(range(m), key=lambda e: (-graph.edges[e].w, e))
    matched = [0.0] * m
    for bits in itertools.product([0, 1], repeat=m):
        prob = 1.0
        for e, bit in zip(graph.edges, bits):
            prob *= e.p if bit else 1.0 - e.p
        used_a, used_b = set(), set()
        for e_id in order:
            e = graph.edges[e_id]
            if e.a in used_a or e.b in used_b:
                continue
            if bits[e_id]:
                used_a.add(e.a)
                used_b.add(e.b)
                matched[e_id] += prob
    return matched


def greedy_expected_weight_brute_force(graph: StochasticGraph) -> float:
    """Greedy's exact expected weight from the brute-force per-edge
    probabilities."""
    return sum(e.w * q for e, q in zip(graph.edges, greedy_match_probabilities_brute_force(graph)))


def worst_subset_ratio(graph: StochasticGraph, x) -> float:
    """max over vertices and incident subsets of (sum x) / rhs."""
    worst = 0.0
    groups = list(graph.edges_at_a) + list(graph.edges_at_b)
    for incident in groups:
        deg = len(incident)
        for mask in range(1, 1 << deg):
            ids = [incident[i] for i in range(deg) if (mask >> i) & 1]
            s = sum(x[e] for e in ids)
            rhs = constraint_rhs(graph, ids)
            if rhs > 0:
                worst = max(worst, s / rhs)
    return worst


def feasibility_reference(graph: StochasticGraph, x, exhaustive: bool):
    """Reference for ``lpmatch.check_feasibility``: (worst violation,
    (vertex, witness)), the first maximum over vertices; at each vertex the
    plain loop over every subset mask, or over the prefixes sorted by
    descending x/p (ties by id), first maximum again."""
    worst, witness = -math.inf, None
    groups = [(("a", i), graph.edges_at_a[i]) for i in range(graph.a_count)]
    groups += [(("b", j), graph.edges_at_b[j]) for j in range(graph.b_count)]
    for key, incident in groups:
        deg = len(incident)
        if exhaustive:
            sets = [[incident[i] for i in range(deg) if (mask >> i) & 1] for mask in range(1, 1 << deg)]
        else:
            order = sorted(incident, key=lambda e: (-(max(x[e], 0.0) / graph.edges[e].p), e))
            sets = [order[: k + 1] for k in range(deg)]
        for ids in sets:
            s = 0.0
            prod = 1.0
            for e in ids:
                s += x[e]
                prod *= 1.0 - graph.edges[e].p
            if s - (1.0 - prod) > worst:
                worst, witness = s - (1.0 - prod), (key, frozenset(ids))
    return (0.0, None) if witness is None else (worst, witness)


def random_feasible_x(
    graph: StochasticGraph,
    rng: np.random.Generator,
    sigma: float | None = None,
    slack: float = 0.999,
) -> list[float]:
    """Random vector satisfying every subset constraint, with B-side
    fractional degrees at most ``sigma`` when given."""
    x = [float(rng.random()) * e.p for e in graph.edges]
    ratio = worst_subset_ratio(graph, x)
    scale = slack / ratio if ratio > 1e-12 else 0.0
    scale = min(scale, 1.0) if ratio > 1e-12 else 1.0
    x = [v * scale for v in x]
    if sigma is not None:
        max_deg = max(
            (sum(x[e] for e in graph.edges_at_b[u]) for u in range(graph.b_count)),
            default=0.0,
        )
        if max_deg > sigma:
            f = sigma * slack / max_deg
            x = [v * f for v in x]
    return x


def scaled_lp_x(graph: StochasticGraph, lp_x, sigma: float) -> list[float]:
    """LP solution rescaled so every B vertex's fractional degree fits
    under ``sigma`` (downscaling preserves feasibility)."""
    max_deg = max(
        (sum(lp_x[e] for e in graph.edges_at_b[u]) for u in range(graph.b_count)),
        default=0.0,
    )
    if max_deg <= sigma:
        return list(lp_x)
    f = sigma * 0.999999 / max_deg
    return [v * f for v in lp_x]


def two_proportion_z(hits_ref, n_ref: int, hits, n: int) -> np.ndarray:
    """Pooled two-proportion z of ``hits / n`` against ``hits_ref / n_ref``
    (elementwise).  The variance comes from the pooled hit rate, so an
    event that one side saw only a few times does not overstate |z|."""
    hits_ref, hits = np.asarray(hits_ref, dtype=float), np.asarray(hits, dtype=float)
    pooled = (hits_ref + hits) / (n_ref + n)
    var = pooled * (1 - pooled) * (1 / n_ref + 1 / n)
    return (hits / n - hits_ref / n_ref) / np.sqrt(np.maximum(var, 1e-12))


def shrunk_vector(graph: StochasticGraph, x, sigma: float | None):
    """(augmented graph, augmented x, augmented shrunk values) exactly as
    the base rounding computes them; ``sigma=None`` is plain proposal
    rounding (mass-0 dummies, shrunk values equal to x)."""
    aug, x_aug = add_dummy_edges(graph, x, sigma)
    if sigma is None:
        return aug, x_aug, x_aug
    xt = tuple(float(g_transform(v, sigma)) for v in x_aug)
    return aug, x_aug, xt


def matched_prob_closed_form(graph: StochasticGraph, x, sigma: float | None, edge_id: int) -> float:
    """Independent closed form for the probability that an edge joins the
    matching in one shrink-and-pad round (``sigma=None``: one plain
    proposal round).

    Proposals arrive at the edge's B endpoint independently, each with its
    shrunk probability; the edge wins when it proposes and its proposer has
    the smallest uniform priority among all proposers there:

        P = q_e * integral_0^1 prod_rivals (1 - t q_rival) dt

    evaluated exactly via the polynomial's coefficients.
    """
    aug, _, xt = shrunk_vector(graph, x, sigma)
    u = aug.edges[edge_id].b
    rivals = [xt[f] for f in aug.edges_at_b[u] if f != edge_id]
    coeffs = np.array([1.0])
    for q in rivals:
        coeffs = np.convolve(coeffs, np.array([1.0, -q]))
    # coeffs[k] multiplies t^k; integrate over [0,1]
    integral = sum(c / (k + 1) for k, c in enumerate(coeffs))
    return xt[edge_id] * float(integral)


def b_unmatched_closed_form(graph: StochasticGraph, x, sigma: float, u: int) -> float:
    """P[no proposal arrives at B vertex u] = prod (1 - shrunk value)."""
    aug, _, xt = shrunk_vector(graph, x, sigma)
    out = 1.0
    for f in aug.edges_at_b[u]:
        out *= 1.0 - xt[f]
    return out


def enumerate_filter_outcomes(graph, dist, x, xt):
    """Independent oracle for the filtered permutation sampler: enumerate
    the filter's three-way branching over every base permutation, then the
    stop probabilities of each surviving permutation under fresh
    realization coins."""
    stop = defaultdict(float)
    for base, q0 in dist.support:
        partial = [((), 1.0)]  # (kept prefix, prob) after a prefix of base
        for e in base:
            p = graph.edges[e].p
            r = xt[e] / x[e]
            nxt = []
            for kept, q in partial:
                nxt.append((kept, q * p * (1.0 - r), "ended"))
                nxt.append((kept + (e,), q * r, None))
                nxt.append((kept, q * (1.0 - p) * (1.0 - r), None))
            done = [(k, q) for k, q, tag in nxt if tag == "ended"]
            partial = [(k, q) for k, q, tag in nxt if tag is None]
            for kept, q in done:
                _accumulate_stops(graph, kept, q0 * q, stop)
        for kept, q in partial:
            _accumulate_stops(graph, kept, q0 * q, stop)
    return dict(stop)


def _accumulate_stops(graph, perm, mass, stop):
    alive = 1.0
    for e in perm:
        stop[e] += mass * alive * graph.edges[e].p
        alive *= 1.0 - graph.edges[e].p


def brute_probability(graph: StochasticGraph, x, sigma: float | None, conj) -> float:
    """Reference for ``oracle.exact_event_probabilities``: P[conjunction of
    atoms] in one round (``sigma=None``: plain proposal rounding), by
    enumerating every joint walk outcome of all augmented A vertices and,
    for each, every accepted proposer at each B vertex.  Under a uniform
    A-order the accepted proposer is uniform among the vertex's proposers,
    independently across B vertices."""
    aug, worlds = _brute_worlds(graph, tuple(x), sigma)

    def holds(atom, target, examined, accepted) -> bool:
        kind = atom[0]
        if kind == "matched":
            e = aug.edges[atom[1]]
            return target[e.a] == e.b and accepted.get(e.b) == e.a
        if kind == "examined":
            return atom[1] in examined
        if kind == "not_examined":
            return atom[1] not in examined
        if kind == "a_unmatched":
            return accepted.get(target[atom[1]]) != atom[1]
        if kind == "b_unmatched":
            return atom[1] not in accepted
        if kind == "proposed":
            return target[atom[1]] == atom[2]
        if kind == "not_proposed":
            return target[atom[1]] != atom[2]
        if kind == "beaten_proposal":
            return target[atom[1]] == atom[2] and accepted[atom[2]] != atom[1]
        raise ValueError(f"unknown atom {atom!r}")

    return sum(
        share
        for share, target, examined, accepted in worlds
        if all(holds(atom, target, examined, accepted) for atom in conj)
    )


@lru_cache(maxsize=8)
def _brute_worlds(graph: StochasticGraph, x: tuple, sigma: float | None):
    """(augmented graph, [(probability, B target per A vertex or -1,
    examined edge set, accepted proposer per B vertex)])."""
    rnd = _compile_round(DistributionCache(graph, x), sigma, range(len(graph.edges)))
    aug = rnd.aug
    outcomes = [_vertex_outcomes(rnd, v) for v in range(aug.a_count)]
    worlds = []
    for joint in itertools.product(*outcomes):
        target = [aug.edges[t].b if t >= 0 else -1 for t, _, _ in joint]
        examined = frozenset().union(*(ex for _, ex, _ in joint))
        busy = [
            [v for v in range(aug.a_count) if target[v] == u] for u in range(aug.b_count)
        ]
        busy = [ps for ps in busy if ps]
        share = math.prod(q for _, _, q in joint) / math.prod(len(ps) for ps in busy)
        for winners in itertools.product(*busy):
            accepted = {target[w]: w for w in winners}
            worlds.append((share, target, examined, accepted))
    return aug, worlds


def law_round_proposals(columns, law, u) -> list[list[int]]:
    """Plain-Python replay of a law round's proposals over one chunk's
    uniforms ``u`` (trials x proposers).  ``columns`` lists (proposer, edge)
    in the round's column order, each proposer's columns consecutive, and
    ``law`` holds their masses: one list, or one list per trial.  A running
    sum over all columns gives column c the stretch [before c, through c);
    each proposer proposes the edge of the column whose stretch holds its
    uniform plus the mass before its first column, and nothing when none
    does.  Returns the proposed edge per (trial, proposer), -1 for none."""
    n, n_prop = np.shape(u)
    out = []
    for t in range(n):
        masses = law[t] if np.ndim(law) == 2 else law
        bounds, total = [], 0.0
        for q in masses:
            bounds.append((total, total + float(q)))
            total += float(q)
        first: dict[int, float] = {}
        for (owner, _), (lo, _) in zip(columns, bounds):
            first.setdefault(owner, lo)
        props = [-1] * n_prop
        for (owner, edge), (lo, hi) in zip(columns, bounds):
            pick = float(u[t][owner]) + first[owner]
            if lo <= pick < hi:
                props[owner] = edge
        out.append(props)
    return out


def outcome_round_proposals(laws, draws):
    """Plain-Python replay of round 1's outcome draws: vertex i takes the
    first outcome whose cumulative mass exceeds its uniform ``draws[i][t]``
    (the last one if none does).  ``laws`` are (cumulative masses, proposed
    edge, incident edges, examined matrix) per vertex.  Returns (proposed
    edge per (trial, vertex), examined edge set per trial)."""
    n = len(draws[0]) if laws else 0
    props = [[-1] * len(laws) for _ in range(n)]
    examined = [set() for _ in range(n)]
    for i, (cum, target, incident, exam) in enumerate(laws):
        for t in range(n):
            k = next((j for j, c in enumerate(cum) if draws[i][t] < c), len(cum) - 1)
            props[t][i] = int(target[k])
            examined[t].update(int(e) for e, hit in zip(incident, exam[k]) if hit)
    return props, examined


def accept_min_priority(proposals, prio, edge_b, n_b: int) -> list[list[int]]:
    """Each B vertex accepts the proposer with the least priority among
    those that propose one of its edges.  Returns the accepted edge per
    (trial, B vertex), -1 where nobody proposed."""
    win = []
    for t, props in enumerate(proposals):
        best: dict[int, tuple[float, int]] = {}
        for owner, edge in enumerate(props):
            if edge < 0:
                continue
            b, key = edge_b[edge], float(prio[t][owner])
            if b not in best or key < best[b][0]:
                best[b] = (key, edge)
        win.append([best[b][1] if b in best else -1 for b in range(n_b)])
    return win
