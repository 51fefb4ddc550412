import math

import numpy as np
import pytest

from qcmatch import engine, mcsim, oracle
from qcmatch.engine import (
    COINFLIP_NOT_REALIZED,
    COINFLIP_REALIZED,
    QUERIED_MATCHED,
    UNEXAMINED,
    DistributionCache,
    _compile_round,
    apx_matching,
    available_edges,
    classify_light,
    greedy_matching,
    proposal_round,
    validate_run_result,
)
from qcmatch.instance import RealizationState, make_graph
from qcmatch.lpmatch import solve_lp_match
from qcmatch.transform import TransformParams, g_transform, heavy_degree_bound
from util import (
    greedy_expected_weight_brute_force,
    random_feasible_x,
    random_instance,
    rng_for_trial,
    scaled_lp_x,
)


def test_greedy_single_sure_edge():
    g = make_graph(1, 1, [(0, 0, 2.5, 1.0)])
    st = RealizationState(np.random.default_rng(0))
    run = greedy_matching(g, st)
    assert run.matching == {0} and run.weight == 2.5
    validate_run_result(g, run)


def test_greedy_commit_blocks_heavier_neighbor():
    g = make_graph(1, 2, [(0, 0, 2.0, 1.0), (0, 1, 1.0, 1.0)])
    st = RealizationState(np.random.default_rng(0))
    run = greedy_matching(g, st)
    assert run.matching == {0}
    assert run.edge_log[1] == UNEXAMINED


def test_greedy_path_expected_weight():
    # a1-b1-a2 path, both w=1 p=1/2: brute force gives 0.75
    g = make_graph(2, 1, [(0, 0, 1.0, 0.5), (1, 0, 1.0, 0.5)])
    assert greedy_expected_weight_brute_force(g) == pytest.approx(0.75, abs=1e-12)
    n, tot = 40000, 0.0
    for t in range(n):
        st = RealizationState(rng_for_trial(2, t))
        run = greedy_matching(g, st)
        validate_run_result(g, run)
        tot += run.weight
    assert abs(tot / n - 0.75) <= 0.01


def test_simple_empty_graph():
    g = make_graph(1, 1, [])
    st = RealizationState(np.random.default_rng(0))
    run = proposal_round(g, [], None, st, np.random.default_rng(1))
    assert run.matching == frozenset() and run.weight == 0.0


def test_simple_sure_edge_always_matches():
    g = make_graph(1, 1, [(0, 0, 1.0, 1.0)])
    for t in range(20):
        rng = rng_for_trial(3, t)
        run = proposal_round(g, [1.0], None, RealizationState(rng), rng)
        assert run.matching == {0}
        validate_run_result(g, run)


def test_simple_two_proposers_probability():
    g = make_graph(2, 1, [(0, 0, 1.0, 1.0), (1, 0, 1.0, 1.0)])
    rep = oracle.exact_event_probabilities(g, [0.5, 0.5], None)
    assert 1.0 - rep.b_unmatched[0] == pytest.approx(0.75, abs=1e-12)
    cache = DistributionCache(g, [0.5, 0.5])
    hits = 0
    n = 20000
    for t in range(n):
        rng = rng_for_trial(4, t)
        run = proposal_round(g, [0.5, 0.5], None, RealizationState(rng), rng, cache)
        hits += bool(run.matching)
    assert abs(hits / n - 0.75) <= 0.015


def test_base_matching_sure_edge_rate():
    g = make_graph(1, 1, [(0, 0, 1.0, 1.0)])
    rep = oracle.exact_event_probabilities(g, [1.0], 1.0)
    assert rep.edge_matched[0] == pytest.approx(1 - 1 / math.e, abs=1e-12)


def test_base_matching_rejects_overfull_vertex():
    g = make_graph(2, 1, [(0, 0, 1.0, 1.0), (1, 0, 1.0, 1.0)])
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="fractional degree"):
        proposal_round(g, [0.7, 0.7], 1.0, RealizationState(rng), rng)


def test_available_edges_examples():
    from qcmatch.engine import RunResult

    g = make_graph(2, 2, [(0, 0, 1.0, 0.5), (1, 1, 1.0, 0.5), (0, 1, 1.0, 0.5)])
    # a run that matched nothing and examined nothing leaves every edge
    idle = RunResult(
        matching=frozenset(),
        weight=0.0,
        edge_log=(UNEXAMINED,) * 3,
        query_order=(),
        rounds={},
        matched_a=frozenset(),
        matched_b=frozenset(),
    )
    assert available_edges(g, idle) == {0, 1, 2}

    # a match on edge 0 = (a0, b0) disqualifies edges 0 and 2 = (a0, b1)...
    matched = RunResult(
        matching=frozenset({0}),
        weight=1.0,
        edge_log=(QUERIED_MATCHED, UNEXAMINED, UNEXAMINED),
        query_order=((0, QUERIED_MATCHED),),
        rounds={0: 1},
        matched_a=frozenset({0}),
        matched_b=frozenset({0}),
    )
    assert available_edges(g, matched) == {1}

    # dummy blocking counts as matched even without a matching edge
    blocked = RunResult(
        matching=frozenset(),
        weight=0.0,
        edge_log=(UNEXAMINED,) * 3,
        query_order=((1, "dummy-blocked-b"),),
        rounds={},
        matched_a=frozenset(),
        matched_b=frozenset({1}),
    )
    assert available_edges(g, blocked) == {0}

    # whenever a run matches the sure edge, nothing stays available
    g1 = make_graph(1, 1, [(0, 0, 1.0, 1.0)])
    matched_runs = 0
    for t in range(20):
        rng = rng_for_trial(2, t)
        run1 = proposal_round(g1, [1.0], 1.0, RealizationState(rng), rng)
        if run1.matching:
            matched_runs += 1
            assert available_edges(g1, run1) == frozenset()
    assert matched_runs > 0


def test_query_commit_soundness_random_sweep():
    rng = np.random.default_rng(10)
    params = TransformParams()
    for _ in range(25):
        g = random_instance(rng)
        sol = solve_lp_match(g)
        cache = DistributionCache(g, sol.x)
        for t in range(8):
            trial = rng_for_trial(int(rng.integers(1 << 30)), t)
            st = RealizationState(trial)
            for run in (
                greedy_matching(g, RealizationState(rng_for_trial(1, t))),
                proposal_round(g, sol.x, None, RealizationState(rng_for_trial(2, t)), rng_for_trial(3, t), cache),
                proposal_round(g, sol.x, 1.0, st, trial, cache),
                apx_matching(g, sol.x, params, RealizationState(rng_for_trial(4, t)), rng_for_trial(5, t), cache),
            ):
                validate_run_result(g, run)


def test_coinflip_only_with_matched_endpoint():
    rng = np.random.default_rng(11)
    seen_coinflip = False
    for _ in range(40):
        g = random_instance(rng, p_lo=0.5)
        x = random_feasible_x(g, rng)
        trial = rng_for_trial(int(rng.integers(1 << 30)), 0)
        run = proposal_round(g, x, 1.0, RealizationState(trial), trial)
        validate_run_result(g, run)
        seen_coinflip = seen_coinflip or any(
            s in (COINFLIP_REALIZED, COINFLIP_NOT_REALIZED) for s in run.edge_log
        )
    assert seen_coinflip  # the status is actually exercised


def test_apx_branch_selection():
    # sure edge: shrunk ratio 1-1/e <= tau, all mass light -> two-round
    g = make_graph(1, 1, [(0, 0, 1.0, 1.0)])
    light, omega, mass = classify_light(g, [1.0], 0.8723)
    assert light == [0] and omega == mass
    rng = np.random.default_rng(0)
    run = apx_matching(g, [1.0], TransformParams(), RealizationState(rng), rng)
    assert run.branch == "two-round"

    # disjoint matching with tiny p: x = p, ratio ~ 0.96 > tau -> heavy prune
    g2 = make_graph(3, 3, [(i, i, 1.0, 0.1) for i in range(3)])
    sol = solve_lp_match(g2)
    assert all(abs(v - 0.1) <= 1e-9 for v in sol.x)
    ratio = float(g_transform(0.1, 1.0)) / 0.1
    assert ratio > 0.8723
    rng = np.random.default_rng(1)
    run2 = apx_matching(g2, sol.x, TransformParams(), RealizationState(rng), rng)
    assert run2.branch == "heavy-prune"
    assert 0.1 <= heavy_degree_bound(0.8723)


def test_classify_light_matches_the_scalar_transform():
    # one vectorized g_transform call against one scalar call per edge, at x
    # near 0 and 1 and at ratios a few ulps either side of tau
    tau = TransformParams().tau
    rng = np.random.default_rng(14)
    xs = [0.0, 1e-300, 1e-15, 1e-9, 0.5, 1 - 2e-12, 1 - 1e-12, 1 - 1e-13, 1.0]
    xs += rng.uniform(0.0, 1.0, 200).tolist()
    triples = []
    for i, x in enumerate(xs):
        g_x = float(g_transform(x, 1.0))
        p = g_x / tau if g_x > 0.0 else 0.5
        for b, step in enumerate((-2, 0, 2)):
            triples.append((i, b, float(rng.uniform(0.1, 2.0)), min(p + step * np.spacing(p), 1.0)))
    g = make_graph(len(xs), 3, triples)
    x = [xs[e.a] for e in g.edges]
    light, omega, mass = classify_light(g, x, tau)
    ref = [e.id for e in g.edges if float(g_transform(x[e.id], 1.0)) / e.p <= tau]
    assert light == ref
    assert 0 < len(ref) < len(g.edges)
    assert omega == sum(x[e] * g.edges[e].w for e in ref)
    assert mass == sum(x[e] * g.edges[e].w for e in range(len(g.edges)))


def test_apx_round_disjointness_and_rounds():
    rng = np.random.default_rng(12)
    params = TransformParams()
    for _ in range(20):
        g = random_instance(rng, p_lo=0.4)
        sol = solve_lp_match(g)
        cache = DistributionCache(g, sol.x)
        for t in range(5):
            trial = rng_for_trial(int(rng.integers(1 << 30)), t)
            run = apx_matching(g, sol.x, params, RealizationState(trial), trial, cache)
            validate_run_result(g, run)
            if run.branch == "two-round":
                r1 = {e for e, r in run.rounds.items() if r == 1}
                r2 = {e for e, r in run.rounds.items() if r == 2}
                assert not (r1 & r2)  # each edge examined in one round only
                ends = set()
                for e_id in run.matching:
                    e = g.edges[e_id]
                    assert ("a", e.a) not in ends and ("b", e.b) not in ends
                    ends.add(("a", e.a))
                    ends.add(("b", e.b))


def test_match_probability_sandwich_small_sweep():
    rng = np.random.default_rng(13)
    for _ in range(10):
        g = random_instance(rng)
        sol = solve_lp_match(g)
        for sigma in (0.5, 1.0):
            x = scaled_lp_x(g, sol.x, sigma)
            rep = oracle.exact_event_probabilities(g, x, sigma)
            for e in range(len(g.edges)):
                lo = (1 - math.exp(-sigma)) * x[e] / sigma
                hi = x[e] * (1 + math.exp(-sigma)) / 2
                assert lo - 1e-9 <= rep.edge_matched[e] <= hi + 1e-9


def test_examination_rate_equals_shrunk_ratio():
    rng = np.random.default_rng(14)
    for _ in range(10):
        g = random_instance(rng)
        x = random_feasible_x(g, rng, sigma=1.0)
        rep = oracle.exact_event_probabilities(g, x, 1.0)
        for e in range(len(g.edges)):
            want = float(g_transform(x[e], 1.0)) / g.edges[e].p
            assert rep.edge_examined[e] == pytest.approx(want, abs=1e-9)


def test_two_round_branch_bound_monte_carlo():
    # expected weight >= (1-1/e) LP + (1-tau) (1-1/e)^3/4 * light mass
    g = make_graph(2, 2, [(0, 0, 1.0, 0.9), (0, 1, 0.7, 0.8), (1, 0, 0.6, 0.7), (1, 1, 1.1, 0.95)])
    sol = solve_lp_match(g)
    params = TransformParams()
    light, omega, mass = classify_light(g, sol.x, params.tau)
    assert omega >= params.lam * mass
    res = mcsim.run_batch(g, sol.x, "apx", params, 200000, 91)
    c = 1 - 1 / math.e
    bound = c * sol.objective + (1 - params.tau) * (c**3 / 4) * omega
    assert res.mean >= bound - 4 * res.stderr


def test_heavy_branch_bound_monte_carlo():
    # expected weight >= (1-e^-r)/r * heavy mass at the reduced cap r
    g = make_graph(3, 3, [(i, i, 1.0, 0.1) for i in range(3)])
    sol = solve_lp_match(g)
    params = TransformParams()
    light, omega, mass = classify_light(g, sol.x, params.tau)
    assert omega < params.lam * mass
    res = mcsim.run_batch(g, sol.x, "apx", params, 200000, 92)
    r = heavy_degree_bound(params.tau)
    bound = (1 - math.exp(-r)) / r * (mass - omega)
    assert res.mean >= bound - 4 * res.stderr


def test_heavy_degree_refusal_is_shared():
    # every edge is heavy (ratio ~0.96 > tau), so the heavy degree at b0 is
    # 1.0 against a bound of ~0.53: no LP optimum looks like this
    g = make_graph(10, 1, [(a, 0, 1.0, 0.1) for a in range(10)])
    x = [0.1] * 10
    params = TransformParams()
    assert heavy_degree_bound(params.tau) < 0.54
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="not an LP optimum"):
        apx_matching(g, x, params, RealizationState(rng), rng)
    with pytest.raises(ValueError, match="not an LP optimum"):
        mcsim.run_batch(g, x, "apx", params, 100, 0)


@pytest.mark.parametrize("sigma", [None, 1.0, 0.53])
def test_compile_round_masks_x_to_its_edges(sigma):
    rng = np.random.default_rng(15)
    for _ in range(20):
        g = random_instance(rng)
        x = random_feasible_x(g, rng, sigma=sigma or 1.0)
        m = len(g.edges)
        subset = [e for e in range(m) if rng.random() < 0.6]
        rnd = _compile_round(g, x, sigma, subset, DistributionCache(g, x))
        assert rnd.aug.edges[:m] == g.edges
        assert all(e.is_dummy for e in rnd.aug.edges[m:])
        for e in range(m):
            assert rnd.x_aug[e] == (x[e] if e in subset else 0.0)
        for dist in rnd.dists.values():
            for perm, _ in dist.support:
                assert all(e in subset or rnd.aug.edges[e].is_dummy for e in perm)


def test_every_round_pads_on_one_augmented_graph():
    # B vertex u's dummy is edge m + u at A vertex a_count + u whatever the
    # cap and the round's edges; a B vertex already at the cap gets a
    # dummy of mass 0
    g = make_graph(
        3, 3,
        [(0, 0, 1.0, 0.5), (0, 1, 0.9, 0.6), (1, 0, 0.8, 0.7), (1, 2, 1.1, 0.5),
         (2, 1, 0.7, 0.8), (2, 2, 1.0, 0.6), (0, 2, 0.6, 0.9)],
    )
    x = [0.5, 0.2, 0.5, 0.2, 0.3, 0.3, 0.3]
    m = len(g.edges)
    dummies = [(m + u, g.a_count + u, u) for u in range(g.b_count)]
    augs = []
    for sigma in (None, 1.0, 0.53):
        for edge_ids in ([1, 3, 4, 5], range(m)):
            if sigma == 0.53 and len(edge_ids) == m:
                continue  # B vertex 0 has degree 1 over every edge
            aug, x_aug, xt_aug = engine._pad_round(g, x, sigma, edge_ids)
            assert aug.edges[:m] == g.edges
            assert [(e.id, e.a, e.b) for e in aug.edges[m:]] == dummies
            assert all(e.is_dummy for e in aug.edges[m:])
            if sigma is None:
                assert x_aug[m:] == (0.0,) * g.b_count and xt_aug == x_aug
            augs.append(aug)
    assert all(aug == augs[0] for aug in augs)
    assert aug.a_count == g.a_count + g.b_count
    _, x_aug, _ = engine._pad_round(g, x, 1.0, range(m))
    assert x_aug[m:] == (0.0, pytest.approx(0.5), pytest.approx(0.2))


@pytest.mark.parametrize("x", [[0.3, 0.4, 0.2], [0.3]])
def test_engine_rejects_x_of_wrong_length(x):
    g = make_graph(2, 2, [(0, 0, 1.0, 0.5), (1, 1, 1.0, 0.5)])
    rng = np.random.default_rng(0)
    msg = f"x has {len(x)} entries but the graph has 2 edges"
    for sigma in (None, 1.0):
        with pytest.raises(ValueError, match=msg):
            proposal_round(g, x, sigma, RealizationState(rng), rng)
    with pytest.raises(ValueError, match=msg):
        apx_matching(g, x, TransformParams(), RealizationState(rng), rng)


def test_rounds_compile_once_per_cap_and_edge_set(monkeypatch):
    # a shared cache compiles each (cap, edge set) once, however many trials
    # reuse it; 4 edges allow at most 16 edge sets at cap 1
    calls = []

    def counting(*args):
        calls.append(args)
        return _compile_round(*args)

    monkeypatch.setattr(engine, "_compile_round", counting)
    g = make_graph(2, 2, [(0, 0, 1.0, 0.6), (0, 1, 0.8, 0.9), (1, 0, 0.5, 1.0), (1, 1, 1.2, 0.4)])
    sol = solve_lp_match(g)
    params = TransformParams()
    cache = DistributionCache(g, sol.x)
    for t in range(200):
        rng = rng_for_trial(5, t)
        proposal_round(g, sol.x, params.sigma, RealizationState(rng), rng, cache)
        rng = rng_for_trial(6, t)
        run = apx_matching(g, sol.x, params, RealizationState(rng), rng, cache)
        assert run.branch == "two-round"
    assert 2 <= len(calls) <= 16
