"""The matching relaxation and its solver.

The relaxation maximizes ``x . w`` subject to, for every vertex ``u`` and
every subset ``F`` of its incident edges,

    sum_{e in F} x_e  <=  1 - prod_{e in F} (1 - p_e)

i.e. the probability that at least one edge of ``F`` exists.  The family is
exponential; we solve by cutting planes.  Separation exploits that for each
vertex the most violated subset is a prefix of the incident edges sorted by
``x_e / p_e`` descending: at an optimum, in-set edges satisfy
``x_e/p_e > P`` and out-of-set edges ``x_e/p_e <= P``, where ``P`` is the
product of ``(1-p)`` over the set, so the optimum is a threshold set.  The
prefix scan is O(deg log deg) per vertex; completeness versus exhaustive
enumeration is covered by tests on small degrees.

Each vertex's family is a polymatroid (the right-hand side is monotone
submodular), so a linear objective with distinct weights is maximized over
it by Edmonds' greedy chain: the prefixes of the incident edges sorted by
weight.  The solver seeds those chains as its first rows.  Equal weights
make the optimal face degenerate, and HiGHS then wanders between its
vertices while separation adds rows for each; a tiny scale ``TIE_ETA``
breaks the ties in the seeded order instead, and one solve with the true
weights certifies that the tie-broken optimum is optimal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .instance import StochasticGraph

#: feasibility tolerance used throughout
EPS = 1e-9

#: relative step of the tie-breaking scale among edges of equal weight
TIE_ETA = 1e-6

#: exhaustive subset enumeration refuses degrees above this
EXHAUSTIVE_DEGREE_CAP = 20

_HIGHS_OPTS = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}

VertexKey = tuple[str, int]  # ("a", i) or ("b", j)


class LpSolveError(RuntimeError):
    """The restricted LP failed; the polytope is nonempty and bounded, so
    this signals an internal bug rather than bad input."""


@dataclass(frozen=True)
class FractionalSolution:
    x: tuple[float, ...]
    objective: float
    generated_constraints: tuple[tuple[VertexKey, frozenset[int]], ...]


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    worst_violation: float
    witness: tuple[VertexKey, frozenset[int]] | None
    mode: str


def _vertices(graph: StochasticGraph):
    for i in range(graph.a_count):
        yield ("a", i), graph.edges_at_a[i]
    for j in range(graph.b_count):
        yield ("b", j), graph.edges_at_b[j]


def constraint_rhs(graph: StochasticGraph, edge_ids) -> float:
    """Probability that at least one edge of the set exists: 1 - prod(1-p).

    The set must share an endpoint (that is the only family the relaxation
    uses); the empty set yields 0.
    """
    ids = list(edge_ids)
    if not ids:
        return 0.0
    if len(ids) > 1:
        a_common = set.intersection(*({graph.edges[e].a} for e in ids))
        b_common = set.intersection(*({graph.edges[e].b} for e in ids))
        if not a_common and not b_common:
            raise ValueError("edges do not share a common endpoint")
    prod = 1.0
    for e in ids:
        prod *= 1.0 - graph.edges[e].p
    return 1.0 - prod


def _sorted_incident(graph: StochasticGraph, incident, x) -> list[int]:
    # descending x/p, ties by ascending id, for the prefix scan
    return sorted(incident, key=lambda e: (-(max(x[e], 0.0) / graph.edges[e].p), e))


def separate(graph: StochasticGraph, x, eps: float = EPS) -> list[tuple[VertexKey, frozenset[int]]]:
    """Return all violated sorted prefixes, one scan per vertex.

    If any subset constraint at a vertex is violated, some returned prefix
    at that vertex is violated at least as much.
    """
    out: list[tuple[VertexKey, frozenset[int]]] = []
    for key, incident in _vertices(graph):
        if not incident:
            continue
        order = _sorted_incident(graph, incident, x)
        s = 0.0
        prod = 1.0
        for k, e in enumerate(order):
            s += x[e]
            prod *= 1.0 - graph.edges[e].p
            if s - (1.0 - prod) > eps:
                out.append((key, frozenset(order[: k + 1])))
    return out


def _vertex_worst(graph: StochasticGraph, x, incident, exhaustive: bool):
    """(worst violation, witness id set) at one vertex."""
    worst = -math.inf
    witness: frozenset[int] | None = None
    if exhaustive:
        deg = len(incident)
        xs = [x[e] for e in incident]
        ps = [graph.edges[e].p for e in incident]
        for mask in range(1, 1 << deg):
            s = 0.0
            prod = 1.0
            for i in range(deg):
                if (mask >> i) & 1:
                    s += xs[i]
                    prod *= 1.0 - ps[i]
            v = s - (1.0 - prod)
            if v > worst:
                worst = v
                witness = frozenset(e for i, e in enumerate(incident) if (mask >> i) & 1)
    else:
        order = _sorted_incident(graph, incident, x)
        s = 0.0
        prod = 1.0
        for k, e in enumerate(order):
            s += x[e]
            prod *= 1.0 - graph.edges[e].p
            v = s - (1.0 - prod)
            if v > worst:
                worst = v
                witness = frozenset(order[: k + 1])
    return worst, witness


def check_feasibility(graph: StochasticGraph, x, mode: str = "exhaustive") -> FeasibilityReport:
    """Worst subset-constraint violation over all vertices.

    ``exhaustive`` enumerates every incident subset (degree <= 20);
    ``prefix`` checks only the sorted prefixes.
    """
    if mode not in ("exhaustive", "prefix"):
        raise ValueError(f"unknown mode {mode!r}")
    worst = -math.inf
    witness: tuple[VertexKey, frozenset[int]] | None = None
    for key, incident in _vertices(graph):
        if not incident:
            continue
        if mode == "exhaustive" and len(incident) > EXHAUSTIVE_DEGREE_CAP:
            raise ValueError(
                f"{key[0].upper()}-vertex {key[1]}: degree {len(incident)} "
                f"exceeds exhaustive cap {EXHAUSTIVE_DEGREE_CAP}"
            )
        v, wit = _vertex_worst(graph, x, incident, exhaustive=(mode == "exhaustive"))
        if v > worst:
            worst = v
            witness = (key, wit)
    if worst == -math.inf:
        worst = 0.0
    return FeasibilityReport(
        feasible=worst <= EPS, worst_violation=worst, witness=witness, mode=mode
    )


def solve_lp_match(graph: StochasticGraph, eps: float = EPS) -> FractionalSolution:
    """Cutting-plane solve of the relaxation.

    Starts with every vertex's greedy chain: with the edges ordered by
    ``(-w, id)``, each prefix of length 2..deg of the vertex's incident
    edges is a row (singleton constraints are the variable bounds
    ``0 <= x_e <= p_e``).  Equal weights are tie-broken by scaling the
    k-th edge (k = 0, 1, ...) of each group of equal ``w`` by
    ``1 - TIE_ETA * k / m``.  The cut loop solves the restricted LP with
    HiGHS, adds the violated prefixes from ``separate`` and repeats until
    nothing is added; each distinct (vertex, set) row is added at most
    once, and its right-hand side is computed when it is added, so the
    loop terminates.  If a weight was scaled, one more solve with the true
    ``w`` over the rows so far bounds the optimum from above; ``x`` is kept
    if it is within ``eps * max(1, bound)`` of that bound, and otherwise
    the cut loop continues with the true ``w``.  The result is verified
    exhaustively on every vertex of degree <= 20 (prefix scan above that).
    """
    m = len(graph.edges)
    if m == 0:
        return FractionalSolution(x=(), objective=0.0, generated_constraints=())
    w = np.array([e.w for e in graph.edges])
    bounds = [(0.0, e.p) for e in graph.edges]

    rows: list[tuple[VertexKey, frozenset[int]]] = []
    seen: set[tuple[VertexKey, frozenset[int]]] = set()
    a_ub = np.zeros((0, m))
    b_ub: list[float] = []

    def add_rows(new):
        nonlocal a_ub
        block = np.zeros((len(new), m))
        for i, row in enumerate(new):
            block[i, list(row[1])] = 1.0
            b_ub.append(constraint_rhs(graph, row[1]))
        rows.extend(new)
        seen.update(new)
        a_ub = np.vstack((a_ub, block))

    def solve(cost):
        res = linprog(
            -cost,
            A_ub=a_ub if rows else None,
            b_ub=np.array(b_ub) if rows else None,
            bounds=bounds,
            method="highs",
            options=_HIGHS_OPTS,
        )
        if not res.success:
            raise LpSolveError(f"restricted LP failed: {res.message}")
        return np.clip(res.x, 0.0, None)

    def cut_loop(cost):
        while True:
            x = solve(cost)
            new = [row for row in separate(graph, x, eps) if row not in seen]
            if not new:
                return x
            add_rows(new)

    order = sorted(range(m), key=lambda e: (-w[e], e))
    rank = {e: r for r, e in enumerate(order)}
    seeds = []
    for key, incident in _vertices(graph):
        chain = sorted(incident, key=rank.__getitem__)
        seeds.extend((key, frozenset(chain[:k])) for k in range(2, len(chain) + 1))
    add_rows(seeds)

    w_tie = w.copy()
    k = 0
    for prev, e in zip(order, order[1:]):
        k = k + 1 if w[prev] == w[e] else 0
        w_tie[e] = w[e] * (1.0 - TIE_ETA * k / m)

    x = cut_loop(w_tie)
    if np.any(w_tie != w):
        # the restricted LP relaxes the full one: its optimum bounds LP*
        bound = float(np.dot(solve(w), w))
        if bound - float(np.dot(x, w)) > eps * max(1.0, bound):
            x = cut_loop(w)
    xs = tuple(float(v) for v in x)
    for key, incident in _vertices(graph):
        if not incident:
            continue
        exhaustive = len(incident) <= EXHAUSTIVE_DEGREE_CAP
        v, wit = _vertex_worst(graph, xs, incident, exhaustive=exhaustive)
        if v > eps:
            raise LpSolveError(f"solution violates {(key, wit)} by {v}")
    return FractionalSolution(
        x=xs, objective=float(np.dot(xs, w)), generated_constraints=tuple(rows)
    )


def solution_to_json(sol: FractionalSolution) -> dict:
    return {"objective": sol.objective, "x": list(sol.x)}


def solution_from_json(obj: dict) -> FractionalSolution:
    return FractionalSolution(
        x=tuple(float(v) for v in obj["x"]),
        objective=float(obj["objective"]),
        generated_constraints=(),
    )
