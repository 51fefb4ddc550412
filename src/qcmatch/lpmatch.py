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
prefix scan is O(deg log deg) per vertex.  Certificates (``check_feasibility``
and the solver's final check) evaluate every subset of a vertex of degree
<= ``EXHAUSTIVE_DEGREE_CAP`` by one numpy doubling over its subset lattice:
O(2^deg) time, two float arrays of 2^deg entries (16 MB at degree 20).
Above the cap the solver falls back to the prefix scan.

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


def _prefix_scan(graph: StochasticGraph, x, incident) -> tuple[list[int], list[float]]:
    """The incident edges sorted by descending x/p (ties by ascending id),
    and the violation of each sorted prefix."""
    order = sorted(incident, key=lambda e: (-(max(x[e], 0.0) / graph.edges[e].p), e))
    violations = []
    s = 0.0
    prod = 1.0
    for e in order:
        s += x[e]
        prod *= 1.0 - graph.edges[e].p
        violations.append(s - (1.0 - prod))
    return order, violations


def _subset_worst(graph: StochasticGraph, x, edges) -> tuple[float, frozenset[int]]:
    """Worst violation over the nonempty subsets of ``edges``, which share
    an endpoint, and the lowest mask attaining it (bit ``j`` is
    ``edges[j]``); each subset's sum and product run in list order."""
    s = np.zeros(1 << len(edges))
    prod = np.ones(1 << len(edges))
    for j, e in enumerate(edges):
        # the masks with top bit j extend the masks below 1 << j by edge j
        np.add(s[: 1 << j], x[e], out=s[1 << j : 2 << j])
        np.multiply(prod[: 1 << j], 1.0 - graph.edges[e].p, out=prod[1 << j : 2 << j])
    s -= np.subtract(1.0, prod, out=prod)  # the violations
    mask = int(np.argmax(s[1:])) + 1
    witness = frozenset(e for j, e in enumerate(edges) if mask >> j & 1)
    return float(s[mask]), witness


def separate(graph: StochasticGraph, x, eps: float = EPS) -> list[tuple[VertexKey, frozenset[int]]]:
    """Return all violated sorted prefixes, one scan per vertex.

    If any subset constraint at a vertex is violated, some returned prefix
    at that vertex is violated at least as much.
    """
    out: list[tuple[VertexKey, frozenset[int]]] = []
    for key, incident in _vertices(graph):
        order, violations = _prefix_scan(graph, x, incident)
        out.extend(
            (key, frozenset(order[: k + 1])) for k, v in enumerate(violations) if v > eps
        )
    return out


def _vertex_worsts(graph: StochasticGraph, x, exhaustive_cap: int):
    """Yield (worst violation, (vertex, witness)) for every vertex with
    edges: over all its subsets if its degree is at most
    ``exhaustive_cap``, else over its sorted prefixes."""
    for key, incident in _vertices(graph):
        if not incident:
            continue
        if len(incident) <= exhaustive_cap:
            v, wit = _subset_worst(graph, x, incident)
        else:
            order, violations = _prefix_scan(graph, x, incident)
            k = max(range(len(violations)), key=violations.__getitem__)
            v, wit = violations[k], frozenset(order[: k + 1])
        yield v, (key, wit)


def check_feasibility(graph: StochasticGraph, x, mode: str = "exhaustive") -> FeasibilityReport:
    """Worst subset-constraint violation over all vertices.

    ``exhaustive`` evaluates every incident subset (degree <= 20);
    ``prefix`` checks only the sorted prefixes.
    """
    if mode not in ("exhaustive", "prefix"):
        raise ValueError(f"unknown mode {mode!r}")
    cap = EXHAUSTIVE_DEGREE_CAP if mode == "exhaustive" else 0
    for key, incident in _vertices(graph):
        if mode == "exhaustive" and len(incident) > cap:
            raise ValueError(
                f"{key[0].upper()}-vertex {key[1]}: degree {len(incident)} "
                f"exceeds exhaustive cap {cap}"
            )
    # the first vertex attaining the worst violation
    worst, witness = max(_vertex_worsts(graph, x, cap), key=lambda r: r[0], default=(0.0, None))
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
    for v, row in _vertex_worsts(graph, xs, EXHAUSTIVE_DEGREE_CAP):
        if v > eps:
            raise LpSolveError(f"solution violates {row} by {v}")
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
