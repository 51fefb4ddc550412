import itertools
import math

import numpy as np
import pytest
from scipy.optimize import linprog

from qcmatch import lpmatch
from qcmatch.instance import make_graph
from qcmatch.lpmatch import (
    EPS,
    check_feasibility,
    constraint_rhs,
    separate,
    solve_lp_match,
)
from qcmatch.oracle import expected_opt_exact
from util import feasibility_reference, random_feasible_x, random_instance


def brute_force_worst(graph, x):
    """Independent exhaustive scan of all incident subsets."""
    worst, witness = -np.inf, None
    groups = [(("a", i), graph.edges_at_a[i]) for i in range(graph.a_count)]
    groups += [(("b", j), graph.edges_at_b[j]) for j in range(graph.b_count)]
    for key, incident in groups:
        for r in range(1, len(incident) + 1):
            for ids in itertools.combinations(incident, r):
                v = sum(x[e] for e in ids) - constraint_rhs(graph, ids)
                if v > worst:
                    worst, witness = v, (key, frozenset(ids))
    return worst, witness


def test_constraint_rhs_examples():
    g = make_graph(2, 1, [(0, 0, 1.0, 0.5), (1, 0, 1.0, 0.5)])
    assert constraint_rhs(g, []) == 0.0
    assert constraint_rhs(g, [0]) == 0.5
    assert constraint_rhs(g, [0, 1]) == pytest.approx(0.75, abs=1e-15)


def test_constraint_rhs_requires_shared_endpoint():
    g = make_graph(2, 2, [(0, 0, 1.0, 0.5), (1, 1, 1.0, 0.5)])
    with pytest.raises(ValueError, match="share"):
        constraint_rhs(g, [0, 1])


def test_constraint_rhs_monotone():
    rng = np.random.default_rng(0)
    for _ in range(50):
        g = random_instance(rng)
        for u in range(g.b_count):
            inc = list(g.edges_at_b[u])
            for r in range(len(inc)):
                sub = inc[:r]
                assert constraint_rhs(g, sub) <= constraint_rhs(g, inc) + 1e-15


def test_separate_examples():
    g = make_graph(2, 1, [(0, 0, 1.0, 0.5), (1, 0, 1.0, 0.5)])
    assert separate(g, [0.2, 0.2]) == []
    # both-edge set is the most violated subset; brute force agrees
    out = separate(g, [0.5, 0.5])
    assert (("b", 0), frozenset({0, 1})) in out
    worst, witness = brute_force_worst(g, [0.5, 0.5])
    assert worst == pytest.approx(0.25, abs=1e-12)
    assert witness[1] == frozenset({0, 1})

    g2 = make_graph(2, 1, [(0, 0, 1.0, 0.5), (1, 0, 1.0, 1.0)])
    out2 = separate(g2, [0.6, 0.0])
    assert any(ids == frozenset({0}) for _, ids in out2)


def test_prefix_separation_matches_exhaustive():
    rng = np.random.default_rng(42)
    for _ in range(150):
        g = random_instance(rng, max_a=4, max_b=3, max_edges=8)
        x = [float(rng.random()) * e.p * 1.4 for e in g.edges]  # often infeasible
        exh = check_feasibility(g, x, "exhaustive")
        pre = check_feasibility(g, x, "prefix")
        assert abs(exh.worst_violation - pre.worst_violation) <= EPS
        assert (exh.worst_violation > EPS) == bool(separate(g, x))


def test_solve_single_edge():
    g = make_graph(1, 1, [(0, 0, 1.0, 0.5)])
    sol = solve_lp_match(g)
    assert sol.x[0] == pytest.approx(0.5, abs=1e-9)
    assert sol.objective == pytest.approx(0.5, abs=1e-9)


def test_solve_two_edges_deterministic_p1():
    g = make_graph(2, 1, [(0, 0, 1.0, 1.0), (1, 0, 1.0, 1.0)])
    sol = solve_lp_match(g)
    assert sol.objective == pytest.approx(1.0, abs=1e-9)


def test_solve_two_edges_half():
    # two w=1 p=1/2 edges at one B vertex: optimum is x1+x2 = 3/4
    g = make_graph(2, 1, [(0, 0, 1.0, 0.5), (1, 0, 1.0, 0.5)])
    sol = solve_lp_match(g)
    assert sol.objective == pytest.approx(0.75, abs=1e-9)
    assert all(v <= 0.5 + 1e-9 for v in sol.x)


def test_solve_empty_graph():
    g = make_graph(1, 1, [])
    sol = solve_lp_match(g)
    assert sol.x == () and sol.objective == 0.0


def test_generated_constraints_unique():
    rng = np.random.default_rng(1)
    for _ in range(10):
        g = random_instance(rng, max_a=4, max_b=4, max_edges=10)
        sol = solve_lp_match(g)
        assert len(set(sol.generated_constraints)) == len(sol.generated_constraints)


def test_solutions_feasible_on_random_instances():
    rng = np.random.default_rng(7)
    for _ in range(50):
        g = random_instance(rng, max_a=4, max_b=4, max_edges=10)
        sol = solve_lp_match(g)
        rep = check_feasibility(g, sol.x, "exhaustive")
        assert rep.feasible, rep
        assert sol.objective == pytest.approx(
            sum(x * e.w for x, e in zip(sol.x, g.edges)), abs=1e-9
        )


def test_lp_dominates_exact_opt():
    rng = np.random.default_rng(3)
    for _ in range(25):
        g = random_instance(rng, max_a=4, max_b=4, max_edges=10)
        sol = solve_lp_match(g)
        assert sol.objective >= expected_opt_exact(g) - EPS


def test_check_feasibility_examples():
    g = make_graph(1, 1, [(0, 0, 1.0, 0.7)])
    assert check_feasibility(g, [0.0], "exhaustive").feasible
    rep = check_feasibility(g, [0.7], "exhaustive")  # tight
    assert rep.feasible and rep.worst_violation <= 1e-15


def test_exhaustive_degree_cap():
    triples = [(a, 0, 1.0, 0.5) for a in range(21)]
    g = make_graph(21, 1, triples)
    with pytest.raises(ValueError, match="B-vertex 0: degree 21 exceeds exhaustive cap 20"):
        check_feasibility(g, [0.0] * 21, "exhaustive")
    check_feasibility(g, [0.0] * 21, "prefix")  # prefix mode still works


@pytest.mark.parametrize("mode", ["exhaustive", "prefix"])
def test_check_feasibility_matches_plain_loop(mode):
    # 600 random stars: a B centre of degree 1-12 and its A leaves.  Every
    # third draws x from {0, a} and p from {1, b}, so equal edges tie whole
    # subsets, and zero-x edges after a p = 1 edge tie prefixes: the
    # first-maximum tie-break decides the witness
    rng = np.random.default_rng(12)
    for t in range(600):
        deg = 1 + t % 12
        ps = rng.uniform(0.05, 1.0, deg)
        x = [float(p * rng.uniform(0.3, 1.5)) for p in ps]
        if t % 3 == 0:
            ps = rng.choice([1.0, float(rng.uniform(0.05, 1.0))], deg)
            x = [float(v) for v in rng.choice([0.0, float(rng.uniform(0.0, 0.6))], deg)]
        g = make_graph(deg, 1, [(a, 0, 1.0, float(ps[a])) for a in range(deg)])
        rep = check_feasibility(g, x, mode)
        worst, witness = feasibility_reference(g, x, mode == "exhaustive")
        assert rep.worst_violation == worst
        assert rep.witness == witness


def test_exhaustive_check_at_degree_20():
    # x/p strictly descends with the edge id, so each sorted prefix sums in
    # the order the subset lattice does: both modes must agree to the bit
    deg = 20
    rng = np.random.default_rng(20)
    ps = rng.uniform(0.05, 0.5, deg)
    x = [float(p * r) for p, r in zip(ps, np.linspace(1.3, 0.7, deg))]
    g = make_graph(deg, 1, [(a, 0, 1.0, float(ps[a])) for a in range(deg)])
    exh = check_feasibility(g, x, "exhaustive")
    pre = check_feasibility(g, x, "prefix")
    assert not exh.feasible
    assert exh.witness[0] == ("b", 0) and len(exh.witness[1]) > 1
    assert (exh.worst_violation, exh.witness) == (pre.worst_violation, pre.witness)


def test_random_feasible_x_helper_is_feasible():
    rng = np.random.default_rng(11)
    for _ in range(30):
        g = random_instance(rng)
        x = random_feasible_x(g, rng, sigma=0.5)
        assert check_feasibility(g, x, "exhaustive").feasible
        for u in range(g.b_count):
            assert sum(x[e] for e in g.edges_at_b[u]) <= 0.5 + 1e-12


def _union_prob(ps) -> float:
    return 1.0 - math.prod(1.0 - p for p in ps)


def _greedy_closed_form(ws, ps) -> float:
    """Edmonds' greedy value of one polymatroid: sum_k w_(k) (f(S_k) - f(S_{k-1}))
    with f(S) = 1 - prod_{S} (1 - p), edges taken by descending weight."""
    order = sorted(range(len(ws)), key=lambda e: -ws[e])
    total, prev = 0.0, 0.0
    for k in range(1, len(order) + 1):
        f = _union_prob([ps[e] for e in order[:k]])
        total += ws[order[k - 1]] * (f - prev)
        prev = f
    return total


@pytest.mark.parametrize("unit", [True, False], ids=["unit", "weighted"])
@pytest.mark.parametrize("deg", range(2, 17))
def test_star_objective_matches_greedy_closed_form(deg, unit):
    rng = np.random.default_rng(900 + deg)
    ws = [1.0] * deg if unit else [float(v) for v in rng.uniform(0.1, 2.0, deg)]
    ps = [float(v) for v in rng.uniform(0.05, 1.0, deg)]
    g = make_graph(deg, 1, [(a, 0, ws[a], ps[a]) for a in range(deg)])
    sol = solve_lp_match(g)
    assert sol.objective == pytest.approx(_greedy_closed_form(ws, ps), abs=1e-9)


def _tied_instance(rng, weights):
    """Random bipartite graph, degree <= 6, weights drawn from ``weights``."""
    while True:
        na, nb = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        deg_a, deg_b = [0] * na, [0] * nb
        triples = []
        for a in range(na):
            for b in range(nb):
                if rng.random() < 0.6 and deg_a[a] < 6 and deg_b[b] < 6:
                    deg_a[a] += 1
                    deg_b[b] += 1
                    w = float(weights[int(rng.integers(len(weights)))])
                    triples.append((a, b, w, float(rng.uniform(0.1, 1.0))))
        if triples:
            return make_graph(na, nb, triples)


def _explicit_lp_objective(g) -> float:
    """One LP over every subset row at every vertex, built independently."""
    m = len(g.edges)
    groups = [[e.id for e in g.edges if e.a == a] for a in range(g.a_count)]
    groups += [[e.id for e in g.edges if e.b == b] for b in range(g.b_count)]
    rows, rhs = [], []
    for incident in groups:
        for r in range(2, len(incident) + 1):
            for ids in itertools.combinations(incident, r):
                row = np.zeros(m)
                row[list(ids)] = 1.0
                rows.append(row)
                rhs.append(_union_prob([g.edges[e].p for e in ids]))
    res = linprog(
        -np.array([e.w for e in g.edges]),
        A_ub=np.array(rows) if rows else None,
        b_ub=np.array(rhs) if rows else None,
        bounds=[(0.0, e.p) for e in g.edges],
        method="highs",
    )
    assert res.success
    return -res.fun


@pytest.mark.parametrize("weights", [(1.0,), (1.0, 2.0)], ids=["unit", "one-two"])
def test_tied_weights_objective_matches_explicit_lp(weights):
    rng = np.random.default_rng(77)
    for _ in range(25):
        g = _tied_instance(rng, weights)
        sol = solve_lp_match(g)
        assert sol.objective == pytest.approx(_explicit_lp_objective(g), abs=1e-9)
        assert check_feasibility(g, sol.x, "exhaustive").feasible


def test_certificate_recovers_from_a_coarse_tie_break(monkeypatch):
    # a scale this coarse reorders weights across groups, so the tie-broken
    # optimum is often not optimal; the true-objective certificate must see
    # the gap and finish the cut loop on the true weights
    monkeypatch.setattr(lpmatch, "TIE_ETA", 0.9)
    rng = np.random.default_rng(1)
    for _ in range(40):
        g = _tied_instance(rng, (1.0, 1.5, 2.0))
        sol = solve_lp_match(g)
        assert sol.objective == pytest.approx(_explicit_lp_objective(g), abs=1e-9)


def test_unit_star_needs_no_cut_storm():
    # the seeded greedy chain at the centre already holds the optimum, so
    # at most one row beyond the 13 seeded prefixes may be added
    deg = 14
    rng = np.random.default_rng(14)
    g = make_graph(deg, 1, [(a, 0, 1.0, float(rng.uniform(0.05, 0.5))) for a in range(deg)])
    sol = solve_lp_match(g)
    assert len(sol.generated_constraints) <= deg
    assert check_feasibility(g, sol.x, "exhaustive").feasible
