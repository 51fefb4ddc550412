import math

import numpy as np
import pytest

from qcmatch import mcsim, oracle
from qcmatch.instance import generate_instance, make_graph
from qcmatch.lpmatch import solve_lp_match
from qcmatch.oracle import (
    CONDITION_MASS_FLOOR,
    SizeCapError,
    exact_event_probabilities,
    expected_opt_exact,
    max_weight_matching,
)
from qcmatch.transform import TransformParams
from util import (
    b_unmatched_closed_form,
    brute_probability,
    matched_prob_closed_form,
    random_feasible_x,
    random_instance,
)


def test_max_weight_matching_examples():
    assert max_weight_matching([]) == ((), 0.0)
    assert max_weight_matching([(0, 0, 3.0)]) == ((0,), 3.0)
    sel, w = max_weight_matching([(0, 0, 1.0), (1, 0, 2.0)])
    assert sel == (1,) and w == 2.0
    sel, w = max_weight_matching([(0, 0, 1.0), (1, 1, 1.0), (0, 1, 1.9)])
    assert w == pytest.approx(2.0)


def test_expected_opt_examples():
    assert expected_opt_exact(make_graph(1, 1, [(0, 0, 2.0, 0.3)])) == pytest.approx(0.6)
    g = make_graph(2, 1, [(0, 0, 1.0, 0.5), (1, 0, 1.0, 0.5)])
    assert expected_opt_exact(g) == pytest.approx(0.75)
    g2 = make_graph(2, 2, [(0, 0, 1.0, 1.0), (0, 1, 1.0, 1.0), (1, 0, 1.0, 1.0), (1, 1, 1.0, 1.0)])
    assert expected_opt_exact(g2) == pytest.approx(2.0)


def test_expected_opt_matches_naive_enumeration():
    import itertools

    rng = np.random.default_rng(17)
    pairs = [(a, b) for a in range(3) for b in range(3)]
    complete = make_graph(3, 3, [(a, b, 0.5 + a + b / 3, 0.3 + 0.2 * b) for a, b in pairs])
    for g in [random_instance(rng, max_edges=5) for _ in range(10)] + [complete]:
        naive = 0.0
        for bits in itertools.product([0, 1], repeat=len(g.edges)):
            prob = 1.0
            for e, bit in zip(g.edges, bits):
                prob *= e.p if bit else 1.0 - e.p
            realized = [(e.a, e.b, e.w) for e, bit in zip(g.edges, bits) if bit]
            naive += prob * max_weight_matching(realized)[1]
        assert expected_opt_exact(g) == pytest.approx(naive, abs=1e-12)


def test_expected_opt_size_cap():
    g = make_graph(21, 1, [])
    triples = [(a, 0, 1.0, 0.5) for a in range(21)]
    g = make_graph(21, 21, [(a, a, 1.0, 0.5) for a in range(21)])
    with pytest.raises(SizeCapError):
        expected_opt_exact(g)


def test_single_sure_edge_events():
    g = make_graph(1, 1, [(0, 0, 1.0, 1.0)])
    rep = exact_event_probabilities(g, [1.0], 1.0)
    one_minus = 1 - 1 / math.e
    assert rep.edge_matched[0] == pytest.approx(one_minus, abs=1e-12)
    assert rep.edge_examined[0] == pytest.approx(one_minus, abs=1e-12)
    assert rep.edge_available[0] == pytest.approx(1 / math.e, abs=1e-12)
    assert rep.expected_weight == pytest.approx(one_minus, abs=1e-12)


def test_a_side_partition_sums_to_one():
    rng = np.random.default_rng(19)
    for _ in range(15):
        g = random_instance(rng)
        x = random_feasible_x(g, rng, sigma=1.0)
        rep = exact_event_probabilities(g, x, 1.0)
        for v in range(g.a_count):
            total = rep.a_unmatched[v] + sum(
                rep.edge_matched[e] for e in g.edges_at_a[v]
            )
            assert total == pytest.approx(1.0, abs=1e-12)


def test_matched_probabilities_match_closed_form():
    rng = np.random.default_rng(20)
    for _ in range(15):
        g = random_instance(rng)
        for sigma in (0.5, 1.0):
            x = random_feasible_x(g, rng, sigma=sigma)
            rep = exact_event_probabilities(g, x, sigma)
            for e in range(len(g.edges)):
                want = matched_prob_closed_form(g, x, sigma, e)
                assert rep.edge_matched[e] == pytest.approx(want, abs=1e-9)
            for u in range(g.b_count):
                assert rep.b_unmatched[u] == pytest.approx(
                    b_unmatched_closed_form(g, x, sigma, u), abs=1e-9
                )


def test_vertex_outcome_masses_conserved():
    # every vertex's enumerated walk outcomes carry exactly the full mass
    from qcmatch.engine import DistributionCache, _compile_round
    from qcmatch.oracle import _vertex_outcomes

    rng = np.random.default_rng(18)
    for _ in range(10):
        g = random_instance(rng)
        x = random_feasible_x(g, rng, sigma=1.0)
        rnd = _compile_round(g, x, 1.0, range(len(g.edges)), DistributionCache(g, x))
        for v in range(rnd.aug.a_count):
            total = sum(q for _, _, q in _vertex_outcomes(rnd, v))
            assert total == pytest.approx(1.0, abs=1e-12)


def test_conditional_with_null_condition_equals_unconditional():
    g = make_graph(2, 2, [(0, 0, 1.0, 0.8), (1, 1, 1.0, 0.8), (0, 1, 1.0, 0.5)])
    x = [0.5, 0.5, 0.0]  # edge 2 never enters any permutation
    cond = [((("b_unmatched", 1),), (("not_examined", 2),))]
    rep = exact_event_probabilities(g, x, 1.0, cond)
    val = rep.conditionals[((("b_unmatched", 1),), (("not_examined", 2),))]
    assert val == pytest.approx(rep.b_unmatched[1], abs=1e-12)


def test_conditional_undefined_when_mass_zero():
    # b1's budget is fully owned by a0 (so no dummy pads it), making a0 the
    # only possible proposer there: a beaten proposal at b1 has mass zero
    g = make_graph(2, 2, [(0, 0, 1.0, 1.0), (0, 1, 1.0, 1.0)])
    x = [0.0, 1.0]
    cond = [((("not_proposed", 0, 0),), (("beaten_proposal", 0, 1), ("not_examined", 0)))]
    rep = exact_event_probabilities(g, x, 1.0, cond)
    (val,) = rep.conditionals.values()
    assert val is None


def _assert_a_side_partition(g, rep, tol):
    for v in range(g.a_count):
        total = rep.a_unmatched[v] + sum(rep.edge_matched[e] for e in g.edges_at_a[v])
        assert total == pytest.approx(1.0, abs=tol)


def test_complete_3x3_has_no_size_refusal():
    g = make_graph(3, 3, [(a, b, 1.0, 0.5) for a in range(3) for b in range(3)])
    x = random_feasible_x(g, np.random.default_rng(0), sigma=1.0)
    rep = exact_event_probabilities(g, x, 1.0)
    _assert_a_side_partition(g, rep, 1e-12)


@pytest.mark.parametrize("sigma", [1.0, 0.5, None], ids=["sigma1", "sigma0.5", "simple"])
def test_events_match_brute_force_enumeration(sigma):
    # every field and every "all"-bundle conditional against the joint
    # enumeration of all augmented A vertices and all accepted proposers
    rng = np.random.default_rng(29)
    for _ in range(10):
        g = random_instance(rng, max_a=3, max_b=3, max_edges=5)
        x = random_feasible_x(g, rng, sigma=sigma or 1.0)
        conds = oracle.conditional_bundles(g, "all")
        rep = exact_event_probabilities(g, x, sigma, conds)

        def brute(*atoms):
            return brute_probability(g, x, sigma, atoms)

        fields = [
            (rep.edge_matched, [brute(("matched", e.id)) for e in g.edges]),
            (rep.edge_examined, [brute(("examined", e.id)) for e in g.edges]),
            (rep.edge_available, [
                brute(("not_examined", e.id), ("b_unmatched", e.b), ("a_unmatched", e.a))
                for e in g.edges
            ]),
            (rep.a_unmatched, [brute(("a_unmatched", v)) for v in range(g.a_count)]),
            (rep.b_unmatched, [brute(("b_unmatched", u)) for u in range(g.b_count)]),
        ]
        for got, want in fields:
            assert np.allclose(got, want, rtol=0.0, atol=1e-12), (got, want)
        for (target, given), got in rep.conditionals.items():
            denom = brute(*given)
            if denom < CONDITION_MASS_FLOOR:
                assert got is None
            else:
                assert got == pytest.approx(brute(*target, *given) / denom, abs=1e-12)


def test_c08_instance_7_events():
    # the 16-edge c08 acceptance instance: a joint table over every vertex
    # did not fit in memory
    g = generate_instance("uniform", na=5, nb=6, density=0.45, seed=201)
    x = solve_lp_match(g).x
    conds = oracle.conditional_bundles(g, "lemma7") + oracle.conditional_bundles(g, "lemma8")
    rep = exact_event_probabilities(g, x, 1.0, conds)
    _assert_a_side_partition(g, rep, 1e-12)
    for e in range(len(g.edges)):
        assert rep.edge_matched[e] == pytest.approx(matched_prob_closed_form(g, x, 1.0, e), abs=1e-9)
    for u in range(g.b_count):
        assert rep.b_unmatched[u] == pytest.approx(b_unmatched_closed_form(g, x, 1.0, u), abs=1e-9)


def _canonical(*atoms):
    return tuple(sorted(set(atoms)))


def test_each_distinct_conjunction_evaluated_once(monkeypatch):
    # lemma 8's given is lemma 7's target and given, and edge_available is
    # lemma 8's target and given in another atom order
    g = generate_instance("uniform", na=5, nb=6, density=0.45, seed=201)
    x = solve_lp_match(g).x
    conds = oracle.conditional_bundles(g, "lemma7") + oracle.conditional_bundles(g, "lemma8")
    calls = []
    evaluate = oracle._Evaluator.probability

    def counted(self, conj):
        calls.append(conj)
        return evaluate(self, conj)

    monkeypatch.setattr(oracle._Evaluator, "probability", counted)
    rep = exact_event_probabilities(g, x, 1.0, conds)
    want = set()
    for e in g.edges:
        want |= {
            _canonical(("matched", e.id)),
            _canonical(("examined", e.id)),
            _canonical(("not_examined", e.id), ("b_unmatched", e.b), ("a_unmatched", e.a)),
        }
    want |= {_canonical(("a_unmatched", v)) for v in range(g.a_count)}
    want |= {_canonical(("b_unmatched", u)) for u in range(g.b_count)}
    for target, given in conds:
        want.add(_canonical(*given))
        if rep.conditionals[(target, given)] is not None:
            want.add(_canonical(*target, *given))
    assert len(calls) == len(set(calls)) == len(want)
    assert set(calls) == want
    assert len(calls) < 3 * len(g.edges) + g.a_count + g.b_count + 2 * len(conds)


@pytest.mark.parametrize("sigma", [1.0, 0.5, None], ids=["sigma1", "sigma0.5", "simple"])
def test_atom_order_and_repeats_leave_values_unchanged(sigma):
    rng = np.random.default_rng(31)
    for _ in range(6):
        g = random_instance(rng, max_a=3, max_b=3, max_edges=5)
        x = random_feasible_x(g, rng, sigma=sigma or 1.0)
        conds = oracle.conditional_bundles(g, "all")
        # shuffle each side and repeat one of its atoms; the target also
        # repeats a given atom, which leaves the conditional unchanged
        mixed = []
        for target, given in conds:
            t = list(target) + [target[0], given[-1]]
            gv = list(given) + [given[0]]
            rng.shuffle(t)
            rng.shuffle(gv)
            mixed.append((tuple(t), tuple(gv)))
        rep = exact_event_probabilities(g, x, sigma, conds)
        rep2 = exact_event_probabilities(g, x, sigma, mixed)
        assert rep2.edge_available == rep.edge_available
        for key, key2 in zip(conds, mixed):
            got = rep2.conditionals[key2]
            assert got == rep.conditionals[key]
            if got is not None:
                t, gv = key2
                want = brute_probability(g, x, sigma, t + gv) / brute_probability(g, x, sigma, gv)
                assert got == pytest.approx(want, abs=1e-12)


def test_wide_conjunction_of_independent_vertices():
    # eight A vertices on disjoint B vertices among 400: their row codes
    # outgrow int64 and are re-ranked, and the events stay independent
    g = make_graph(8, 400, [(a, a, 1.0, 0.5) for a in range(8)])
    atoms = tuple(("a_unmatched", v) for v in range(8))
    rep = exact_event_probabilities(g, [0.5] * 8, 1.0, [(atoms[1:], atoms[:1])])
    (got,) = rep.conditionals.values()
    assert got == pytest.approx(math.prod(rep.a_unmatched[1:]), abs=1e-12)


def test_conditionals_from_json_feed_back():
    # report_to_json writes atoms as lists; feeding them back must work
    g = generate_instance("uniform", na=3, nb=3, seed=4)
    x = solve_lp_match(g).x
    conds = oracle.conditional_bundles(g, "all")
    rep = exact_event_probabilities(g, x, 1.0, conds)
    payload = oracle.report_to_json(rep)
    again = [(c["target"], c["given"]) for c in payload["conditionals"]]
    assert isinstance(again[0][0][0], list)
    rep2 = exact_event_probabilities(g, x, 1.0, again)
    assert rep2 == rep


def test_count_law_matches_enumeration():
    # the unnamed proposer counts at one or two B vertices, against every
    # joint proposal target of the unnamed vertices with none into zero
    import itertools
    from qcmatch.engine import DistributionCache, _compile_round

    rng = np.random.default_rng(37)
    checked = 0
    for _ in range(6):
        g = random_instance(rng, max_a=4, max_b=3, max_edges=7)
        x = random_feasible_x(g, rng, sigma=1.0)
        rnd = _compile_round(g, x, 1.0, range(len(g.edges)), DistributionCache(g, x))
        ev = oracle._Evaluator(rnd)
        na, nb = ev.pi.shape
        cases = [((), (), (u,)) for u in range(nb)]
        cases += [((0,), (), (u1, u2)) for u1 in range(nb) for u2 in range(u1 + 1, nb)]
        cases += [((), (z,), (u,)) for z in range(nb) for u in range(nb) if u != z]
        for named, zero, us in cases:
            law = ev._count_law(named, zero, us)
            unnamed = [w for w in range(na) if w not in named]
            seen = list(us) + list(zero)  # -1: any other B vertex or none
            want = np.zeros((na + 1,) * len(us))
            free = 0.0
            for targets in itertools.product([-1] + seen, repeat=len(unnamed)):
                q = 1.0
                for w, t in zip(unnamed, targets):
                    q *= ev.pi[w, t] if t >= 0 else 1.0 - ev.pi[w, seen].sum()
                if q == 0.0 or any(t in zero for t in targets):
                    continue
                free += q
                want[tuple(targets.count(u) for u in us)] += q
            got = np.zeros_like(want)
            got[tuple(slice(0, n) for n in law.shape)] = law
            assert np.allclose(got, want / free, rtol=0.0, atol=1e-12)
            checked += 1
    assert checked > 20


def test_monte_carlo_deterministic_instance():
    g = make_graph(1, 1, [(0, 0, 2.5, 1.0)])
    est = mcsim.run_batch(g, None, "greedy", TransformParams(), 1000, 5)
    assert est.mean == 2.5 and est.stderr == 0.0


def test_monte_carlo_reproducible():
    g = make_graph(2, 2, [(0, 0, 1.0, 0.7), (1, 1, 1.0, 0.7), (0, 1, 1.0, 0.4)])
    sol = solve_lp_match(g)
    a = mcsim.run_batch(g, sol.x, "alg1", TransformParams(), 50000, 9)
    b = mcsim.run_batch(g, sol.x, "alg1", TransformParams(), 50000, 9)
    assert a == b


def test_monte_carlo_agrees_with_exact():
    g = make_graph(1, 1, [(0, 0, 1.0, 1.0)])
    est = mcsim.run_batch(g, [1.0], "alg1", TransformParams(), 10**6, 13)
    assert abs(est.mean - (1 - 1 / math.e)) <= 4 * est.stderr


def test_conditional_bundles():
    g = make_graph(2, 2, [(0, 0, 1.0, 0.8), (1, 0, 1.0, 0.8), (0, 1, 1.0, 0.8)])
    l7 = oracle.conditional_bundles(g, "unmatched-given-unexamined")
    assert len(l7) == 3
    assert l7[0] == ((("a_unmatched", 0),), (("not_examined", 0),))
    l8 = oracle.conditional_bundles(g, "correlation")
    assert l8[0] == ((("b_unmatched", 0),), (("a_unmatched", 0), ("not_examined", 0)))
    pc = oracle.conditional_bundles(g, "proposal-correlation")
    # edge 0=(a0,b0): other target b1, rivals at b0 are a0 and a1
    assert ((("not_proposed", 1, 0),), (("beaten_proposal", 0, 1), ("not_examined", 0))) in pc


def test_unknown_bundle_is_refused():
    g = make_graph(1, 1, [(0, 0, 1.0, 0.5)])
    with pytest.raises(ValueError, match="unknown bundle 'lemma9'.*lemma7.*proposal-correlation"):
        oracle.conditional_bundles(g, "lemma9")


@pytest.mark.parametrize("sigma", [1.0, None], ids=["sigma1", "simple"])
@pytest.mark.parametrize("x", [[0.3, 0.4, 0.2], [0.3]])
def test_oracle_rejects_x_of_wrong_length(sigma, x):
    g = make_graph(2, 2, [(0, 0, 1.0, 0.5), (1, 1, 1.0, 0.5)])
    with pytest.raises(ValueError, match=f"x has {len(x)} entries but the graph has 2 edges"):
        exact_event_probabilities(g, x, sigma)
