import numpy as np
import pytest

from qcmatch import engine, mcsim, oracle
from qcmatch.engine import (
    DistributionCache,
    apx_matching,
    apx_plan,
    available_edges,
    greedy_matching,
    proposal_round,
)
from qcmatch.instance import RealizationState, generate_instance, make_graph
from qcmatch.lpmatch import solve_lp_match
from qcmatch.transform import TransformParams, add_dummy_edges, g_transform
from util import (
    accept_min_priority,
    greedy_expected_weight_brute_force,
    greedy_match_probabilities_brute_force,
    law_round_proposals,
    matched_prob_closed_form,
    outcome_round_proposals,
    random_instance,
    rng_for_trial,
    two_proportion_z,
)


def engine_run(graph, x, algorithm, params, rng, cache):
    """One per-trial engine run of ``algorithm``, its coins drawn from
    ``rng``."""
    st = RealizationState(rng)
    if algorithm == "greedy":
        return greedy_matching(graph, st)
    if algorithm == "apx":
        return apx_matching(graph, x, params, st, rng, cache)
    return proposal_round(graph, x, None if algorithm == "simple" else params.sigma, st, rng, cache)


def reference_mean(graph, x, algorithm, params, trials, seed):
    cache = DistributionCache(graph, x) if x is not None else None
    return sum(engine_run(graph, x, algorithm, params, rng_for_trial(seed, t), cache).weight
               for t in range(trials)) / trials


@pytest.mark.parametrize("algorithm", ["greedy", "simple", "alg1", "apx"])
def test_batch_agrees_with_reference_engine(algorithm):
    g = make_graph(
        2, 2, [(0, 0, 1.0, 0.6), (0, 1, 0.8, 0.9), (1, 0, 0.5, 1.0), (1, 1, 1.2, 0.4)]
    )
    sol = solve_lp_match(g)
    x = None if algorithm == "greedy" else sol.x
    params = TransformParams()
    res = mcsim.run_batch(g, x, algorithm, params, 200000, 31)
    ref = reference_mean(g, x, algorithm, params, 8000, 59)
    # joint tolerance: batch stderr plus the reference's own noise
    ref_se = res.stderr * np.sqrt(200000 / 8000)
    assert abs(res.mean - ref) <= 5 * max(ref_se, 1e-9)


def test_batch_matches_exact_oracle_per_edge():
    g = make_graph(2, 2, [(0, 0, 1.0, 0.6), (0, 1, 0.8, 0.9), (1, 0, 0.5, 1.0), (1, 1, 1.2, 0.4)])
    sol = solve_lp_match(g)
    rep = oracle.exact_event_probabilities(g, sol.x, 1.0)
    res = mcsim.run_batch(g, sol.x, "alg1", TransformParams(), 400000, 77)
    for e in range(len(g.edges)):
        freq = res.edge_match_freq[e]
        se = np.sqrt(max(freq * (1 - freq), 1e-9) / 400000)
        assert abs(freq - rep.edge_matched[e]) <= 5 * se


def test_batch_deterministic_and_thread_invariant():
    g = make_graph(2, 2, [(0, 0, 1.0, 0.7), (1, 1, 1.0, 0.7), (0, 1, 1.0, 0.4)])
    sol = solve_lp_match(g)
    params = TransformParams()
    for algorithm, x in (("apx", sol.x), ("greedy", None)):
        runs = [
            mcsim.run_batch(g, x, algorithm, params, 150000, 21, threads=th)
            for th in (1, 1, 4)
        ]
        assert runs[0] == runs[1] == runs[2], algorithm


def _greedy_instance(rng, na, nb, n_edges):
    """Random instance with weights tied from {0.5, 1, 2}, about a third of
    the edges sure, and one isolated vertex on each side."""
    pairs = [(a, b) for a in range(na) for b in range(nb)]
    keep = sorted(rng.choice(len(pairs), size=min(n_edges, len(pairs)), replace=False).tolist())
    triples = [
        (*pairs[i], float(rng.choice([0.5, 1.0, 2.0])),
         1.0 if rng.random() < 0.3 else float(rng.uniform(0.05, 1.0)))
        for i in keep
    ]
    return make_graph(na + 1, nb + 1, triples)


@pytest.mark.parametrize("n", [1, 7, 1000])
def test_greedy_chunk_agrees_with_engine_trial_by_trial(n):
    # the engine scans each trial with its coins pre-filled from the same
    # chunk draw that the batch kernel consumes
    rng = np.random.default_rng(70 + n)
    for k in range(6):
        g = _greedy_instance(rng, int(rng.integers(1, 6)), int(rng.integers(1, 6)), int(rng.integers(1, 16)))
        m = len(g.edges)
        weights, counts = mcsim._greedy_chunk(g, n, np.random.default_rng(k))
        real = np.random.default_rng(k).random((n, m)) < np.array([e.p for e in g.edges])
        ref_weights = np.empty(n)
        ref_counts = np.zeros(m, dtype=np.int64)
        for t in range(n):
            flags = {(e.a, e.b): bool(real[t, e.id]) for e in g.edges}
            run = greedy_matching(g, RealizationState(np.random.default_rng(0), flags))
            ref_weights[t] = run.weight
            ref_counts[list(run.matching)] += 1
        assert np.all(np.abs(weights - ref_weights) <= 1e-12), k
        assert counts.tolist() == ref_counts.tolist(), k


def _law_columns_and_masses(g, rng, trials=None):
    """The law-round column order (edges grouped by A vertex, then B vertex
    u's dummy as proposer n_a + u with edge m + u), checked against the
    augmented graph of ``add_dummy_edges``, and random masses: each
    proposer spreads at most 1 over its columns, about a third of them 0.
    With ``trials`` the masses are drawn per trial."""
    m, n_a = len(g.edges), g.a_count
    columns = [(e.a, e.id) for e in sorted(g.edges, key=lambda e: e.a)]
    columns += [(n_a + u, m + u) for u in range(g.b_count)]
    aug, _ = add_dummy_edges(g, [0.0] * m, None)
    assert columns == [(e.a, e.id) for e in sorted(aug.edges, key=lambda e: e.a)]
    owners = np.array([o for o, _ in columns])

    def draw():
        q = rng.random(len(columns)) * (rng.random(len(columns)) > 0.3)
        scale = rng.choice([1.0, float(rng.random())])
        for o in set(owners.tolist()):
            at = owners == o
            if q[at].sum() > 0:
                q[at] *= scale / q[at].sum()
        return q

    law = draw() if trials is None else np.array([draw() for _ in range(trials)])
    return columns, law


def _aug_edges(g):
    """The augmented graph of ``add_dummy_edges``, and the B endpoint and
    weight of every edge and then of every dummy, checked against it."""
    edge_b = [e.b for e in g.edges] + list(range(g.b_count))
    edge_w = [e.w for e in g.edges] + [0.0] * g.b_count
    aug, _ = add_dummy_edges(g, [0.0] * len(g.edges), None)
    assert [e.b for e in aug.edges] == edge_b and [e.w for e in aug.edges] == edge_w
    return aug, edge_b, edge_w


def _assert_round_matches_replay(weights, win, ref_win, edge_w):
    ref_weights = [sum(edge_w[e] for e in row if e >= 0) for row in ref_win]
    assert win.tolist() == ref_win
    assert np.all(np.abs(weights - np.array(ref_weights)) <= 1e-12)


@pytest.mark.parametrize("n", [1, 7, 1000])
def test_law_round_kernel_agrees_with_replay_trial_by_trial(n):
    # the replay reads the same two draws that the kernel consumes and
    # walks every column, zero-law ones included; the kernel keeps only
    # the columns that can fire
    rng = np.random.default_rng(170 + n)
    for k in range(6):
        g = _greedy_instance(rng, int(rng.integers(1, 6)), int(rng.integers(1, 6)), int(rng.integers(1, 16)))
        n_prop = g.a_count + g.b_count
        aug, edge_b, edge_w = _aug_edges(g)
        for per_trial in (False, True):
            columns, law = _law_columns_and_masses(g, rng, n if per_trial else None)
            live = (law > 0.0).any(axis=0) if per_trial else law > 0.0
            live_by_edge = np.zeros(len(aug.edges), dtype=bool)
            live_by_edge[[e for _, e in columns]] = live
            props = mcsim._Proposers(aug, live_by_edge)
            assert len(props.slots.owner) == live.sum()
            assert props.edge.tolist() == [e for (_, e), keep in zip(columns, live) if keep]
            kernel_law = law[:, live].T if per_trial else law[live, None]
            weights, win = mcsim._propose(props, kernel_law, n, np.random.default_rng(k))
            draws = np.random.default_rng(k)
            u, prio = draws.random((n, n_prop)), draws.random((n, n_prop))
            ref_win = accept_min_priority(law_round_proposals(columns, law, u), prio, edge_b, g.b_count)
            _assert_round_matches_replay(weights, win, ref_win, edge_w)


@pytest.mark.parametrize("n", [1, 7, 1000])
def test_outcome_round_kernel_agrees_with_replay_trial_by_trial(n):
    rng = np.random.default_rng(190 + n)
    for k in range(6):
        g = _greedy_instance(rng, int(rng.integers(1, 6)), int(rng.integers(1, 6)), int(rng.integers(1, 16)))
        x = solve_lp_match(g).x
        sigma = TransformParams().sigma
        comp = mcsim._compile_arrays(g, x, sigma, range(len(g.edges)), DistributionCache(g, x))
        weights, win, exam = mcsim._run_proposal_chunk(comp, n, np.random.default_rng(k))
        _, aug, laws = comp
        assert aug == engine._pad_round(g, x, sigma, range(len(g.edges)))[0]
        draws = np.random.default_rng(k)
        r = [draws.random(n) for _ in laws]
        props, examined = outcome_round_proposals(laws, r)
        ref_win = accept_min_priority(props, draws.random((n, len(laws))), [e.b for e in aug.edges], aug.b_count)
        _assert_round_matches_replay(weights, win, ref_win, [e.w for e in aug.edges])
        assert [set(np.flatnonzero(row).tolist()) for row in exam] == examined


def test_simple_slot_table_has_no_dummy_columns():
    g = _mixed_3x3()
    x = solve_lp_match(g).x
    aug, x_aug, _ = engine._pad_round(g, x, None, range(len(g.edges)))
    props = mcsim._Proposers(aug, np.array(x_aug) > 1e-15)
    assert len(props.slots.owner) == sum(1 for v in x if v > 1e-15)
    assert props.slots.edge.max() < len(g.edges)


def test_greedy_batch_matches_exact_value():
    rng = np.random.default_rng(90)
    trials = 200000
    for i in range(4):
        g = _greedy_instance(rng, 3, 4, int(rng.integers(4, 11)))
        exact = greedy_expected_weight_brute_force(g)
        probs = np.array(greedy_match_probabilities_brute_force(g))
        res = mcsim.run_batch(g, None, "greedy", TransformParams(), trials, 91 + i)
        assert abs(res.mean - exact) <= 4 * max(res.stderr, 1e-9), i
        sd = np.sqrt(np.maximum(probs * (1 - probs), 1e-12) / trials)
        assert np.all(np.abs(np.array(res.edge_match_freq) - probs) <= 4 * sd), i


def test_batch_chunk_boundaries():
    g = make_graph(1, 1, [(0, 0, 1.0, 0.5)])
    for trials in (1, 2, mcsim.CHUNK_SIZE, mcsim.CHUNK_SIZE + 1):
        res = mcsim.run_batch(g, None, "greedy", TransformParams(), trials, 3)
        assert res.trials == trials
        assert 0.0 <= res.mean <= 1.0


@pytest.mark.parametrize("algorithm", ["simple", "alg1", "apx-heavy-prune", "apx-two-round"])
def test_law_round_batch_chunk_boundaries(algorithm):
    if algorithm == "apx-heavy-prune":
        g, x, _ = _hard_heavy_prune()
    else:
        g = _mixed_3x3()
        x = solve_lp_match(g).x
    name, _, branch = algorithm.partition("-")
    w = np.array([e.w for e in g.edges])
    for trials in (1, 2, mcsim.CHUNK_SIZE, mcsim.CHUNK_SIZE + 1):
        res = mcsim.run_batch(g, x, name, TransformParams(), trials, 3)
        assert res.trials == trials
        assert res.branch == (branch or None)
        counts = np.array(res.edge_match_freq) * trials
        assert np.all(np.abs(counts - np.round(counts)) <= 1e-6)
        # a vertex is matched at most once per trial
        for incident in g.edges_at_a + g.edges_at_b:
            assert counts[list(incident)].sum() <= trials + 1e-6
        assert res.mean == pytest.approx(float(w @ res.edge_match_freq), rel=1e-12, abs=1e-15)
        if trials == 1:
            assert res.stderr == 0.0


@pytest.mark.parametrize("algorithm", ["alg1", "apx"])
def test_law_rounds_thread_invariant(algorithm):
    g, x, _ = _hard_heavy_prune()
    runs = [
        mcsim.run_batch(g, x, algorithm, TransformParams(), 150000, 21, threads=th)
        for th in (1, 4)
    ]
    assert runs[0] == runs[1]
    assert runs[0].branch == ("heavy-prune" if algorithm == "apx" else None)


def test_batch_rejects_unknown_algorithm():
    g = make_graph(1, 1, [(0, 0, 1.0, 0.5)])
    with pytest.raises(ValueError, match="unknown algorithm"):
        mcsim.run_batch(g, [0.5], "blossom", TransformParams(), 10, 0)


def test_batch_requires_solution_when_needed():
    g = make_graph(1, 1, [(0, 0, 1.0, 0.5)])
    with pytest.raises(ValueError, match="requires"):
        mcsim.run_batch(g, None, "alg1", TransformParams(), 10, 0)


def test_batch_mean_agrees_with_exact_oracle_on_sweep():
    rng = np.random.default_rng(50)
    for i in range(6):
        g = random_instance(rng)
        sol = solve_lp_match(g)
        rep = oracle.exact_event_probabilities(g, sol.x, 1.0)
        res = mcsim.run_batch(g, sol.x, "alg1", TransformParams(), 200000, 60 + i)
        assert abs(res.mean - rep.expected_weight) <= 4 * max(res.stderr, 1e-9), i


def test_apx_two_round_exceeds_single_round():
    # with everything light, the second pass can only add weight
    rng = np.random.default_rng(40)
    for _ in range(5):
        g = random_instance(rng, p_lo=0.6)
        sol = solve_lp_match(g)
        params = TransformParams()
        one = mcsim.run_batch(g, sol.x, "alg1", params, 100000, 81)
        two = mcsim.run_batch(g, sol.x, "apx", params, 100000, 81)
        if two.branch == "two-round":
            assert two.mean >= one.mean - 4 * (one.stderr + two.stderr)


@pytest.mark.parametrize("algorithm", ["alg1", "apx", "greedy"])
def test_batch_edge_frequencies_are_python_floats(algorithm):
    g = make_graph(2, 2, [(0, 0, 1.0, 0.7), (1, 1, 1.0, 0.7), (0, 1, 1.0, 0.4)])
    x = None if algorithm == "greedy" else solve_lp_match(g).x
    res = mcsim.run_batch(g, x, algorithm, TransformParams(), 5000, 13)
    assert len(res.edge_match_freq) == len(g.edges)
    assert all(type(f) is float for f in res.edge_match_freq)


@pytest.mark.parametrize("n,x", [(70, 1.0), (200, 1.0), (70, 0.5)])
def test_apx_two_round_on_many_disjoint_sure_edges(n, x):
    # a perfect matching of sure edges: in each round an edge is matched when
    # its A end proposes, with probability g(x, 1), and beats b's dummy,
    # which proposes with g(1 - x, 1); it stays available when neither
    # proposed.  At x = 1 that is 1 - e^-2 over both rounds.
    g = make_graph(n, n, [(i, i, 1.0, 1.0) for i in range(n)])
    trials = 4000
    res = mcsim.run_batch(g, [x] * n, "apx", TransformParams(), trials, 3)
    assert res.branch == "two-round"
    prop, dummy = g_transform(x, 1.0), g_transform(1.0 - x, 1.0)
    once = prop * (1 - dummy / 2)
    q = once * (1 + (1 - prop) * (1 - dummy))
    if x == 1.0:
        assert q == pytest.approx(1 - np.exp(-2.0))
    assert abs(res.mean - n * q) <= 4 * res.stderr
    sd = np.sqrt(q * (1 - q) / trials)
    assert np.all(np.abs(np.array(res.edge_match_freq) - q) <= 4 * sd)


def _mixed_3x3():
    return make_graph(
        3, 3,
        [(0, 0, 1.0, 0.5), (0, 1, 0.9, 0.6), (1, 0, 0.8, 0.7), (1, 2, 1.1, 0.5),
         (2, 1, 0.7, 0.8), (2, 2, 1.0, 0.6), (0, 2, 0.6, 0.9)],
    )


def test_apx_round2_edge_frequencies_agree_with_engine():
    # two-round instance whose first round leaves many distinct available
    # edge sets; the engine walks both rounds, the batch draws round 2
    g = _mixed_3x3()
    sol = solve_lp_match(g)
    params = TransformParams()
    cache = DistributionCache(g, sol.x)
    ref_trials = 20000
    avail_sets = set()
    for t in range(1000):
        rng = rng_for_trial(16, t)
        run1 = proposal_round(g, sol.x, 1.0, RealizationState(rng), rng, cache)
        avail_sets.add(available_edges(g, run1))
    assert len(avail_sets) >= 20
    hits_ref = np.zeros(len(g.edges))
    for t in range(ref_trials):
        rng = rng_for_trial(17, t)
        run = apx_matching(g, sol.x, params, RealizationState(rng), rng, cache)
        assert run.branch == "two-round"
        hits_ref[list(run.matching)] += 1
    trials = 200000
    res = mcsim.run_batch(g, sol.x, "apx", params, trials, 19)
    hits = np.array(res.edge_match_freq) * trials
    z = two_proportion_z(hits_ref, ref_trials, hits, trials)
    assert np.all(np.abs(z) <= 4), z


@pytest.mark.parametrize("algorithm", ["simple", "alg1", "apx"])
@pytest.mark.parametrize("x", [[0.3, 0.4, 0.2], [0.3]])
def test_batch_rejects_x_of_wrong_length(algorithm, x):
    g = make_graph(2, 2, [(0, 0, 1.0, 0.5), (1, 1, 1.0, 0.5)])
    with pytest.raises(ValueError, match=f"x has {len(x)} entries but the graph has 2 edges"):
        mcsim.run_batch(g, x, algorithm, TransformParams(), 100, 0)


def _hard_heavy_prune():
    # the c08 acceptance suite's hard spec #23, which takes the heavy branch
    g = generate_instance("hard", na=4, nb=4, density=0.4, seed=403)
    x = solve_lp_match(g).x
    plan = apx_plan(g, x, TransformParams())
    assert plan.branch == "heavy-prune"
    return g, x, plan


def _assert_edges_match_closed_form(g, x, sigma, res):
    trials = res.trials
    for e in range(len(g.edges)):
        q = matched_prob_closed_form(g, x, sigma, e)
        se = np.sqrt(max(q * (1 - q), 1e-12) / trials)
        assert abs(res.edge_match_freq[e] - q) <= 4 * se, (e, res.edge_match_freq[e], q)


@pytest.mark.parametrize("algorithm", ["simple", "alg1"])
@pytest.mark.parametrize(
    "model,kw",
    [("complete", dict(na=3, nb=8, seed=800)), ("uniform", dict(na=12, nb=12, density=0.5, seed=1))],
)
def test_law_rounds_beyond_the_permutation_cap_match_closed_form(algorithm, model, kw):
    # A-vertex LP supports of 8 and 9: no permutation distribution exists
    # for them, yet these rounds need only the proposal laws
    g = generate_instance(model, **kw)
    x = solve_lp_match(g).x
    params = TransformParams()
    res = mcsim.run_batch(g, x, algorithm, params, 200000, 41, chunk_size=8192)
    _assert_edges_match_closed_form(g, x, None if algorithm == "simple" else params.sigma, res)


def test_heavy_prune_matches_closed_form():
    g, x, plan = _hard_heavy_prune()
    res = mcsim.run_batch(g, x, "apx", TransformParams(), 400000, 43)
    assert res.branch == "heavy-prune"
    masked = [x[e] if e in plan.edge_ids else 0.0 for e in range(len(g.edges))]
    _assert_edges_match_closed_form(g, masked, plan.sigma, res)


@pytest.mark.parametrize("algorithm", ["simple", "alg1", "apx"])
def test_law_round_edge_frequencies_agree_with_engine(algorithm):
    # the engine walks sampled permutations; the batch draws each vertex's
    # proposal from its law
    if algorithm == "apx":
        g, x, _ = _hard_heavy_prune()
    else:
        g = _mixed_3x3()
        x = solve_lp_match(g).x
    params = TransformParams()
    cache = DistributionCache(g, x)
    ref_trials = 20000
    hits_ref = np.zeros(len(g.edges))
    for t in range(ref_trials):
        run = engine_run(g, x, algorithm, params, rng_for_trial(23, t), cache)
        if algorithm == "apx":
            assert run.branch == "heavy-prune"
        hits_ref[list(run.matching)] += 1
    trials = 200000
    res = mcsim.run_batch(g, x, algorithm, params, trials, 29)
    hits = np.array(res.edge_match_freq) * trials
    z = two_proportion_z(hits_ref, ref_trials, hits, trials)
    assert np.all(np.abs(z) <= 4), z


def test_law_rounds_build_no_permutation_distribution(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("permutation distribution built")

    monkeypatch.setattr(engine, "build_proportional_distribution", refuse)
    g, x, _ = _hard_heavy_prune()
    params = TransformParams()
    for algorithm in ("simple", "alg1", "apx"):
        res = mcsim.run_batch(g, x, algorithm, params, 2000, 47)
        assert res.trials == 2000
        assert res.branch == ("heavy-prune" if algorithm == "apx" else None)


def test_round1_draw_at_the_support_cap_agrees_with_engine():
    # both A supports are 7 (the cap) and vertex 0 has 303 walk outcomes;
    # the engine walks round 1, the batch draws one outcome per vertex
    g = generate_instance("complete", na=2, nb=7, seed=5)
    x = solve_lp_match(g).x
    plan = apx_plan(g, x, TransformParams())
    assert plan.branch == "two-round"
    cache = DistributionCache(g, x)
    m = len(g.edges)
    ref_trials = 20000
    matched_ref = np.zeros(m)
    examined_ref = np.zeros(m)
    for t in range(ref_trials):
        rng = rng_for_trial(31, t)
        run = proposal_round(g, x, plan.sigma, RealizationState(rng), rng, cache, plan.edge_ids)
        matched_ref[list(run.matching)] += 1
        examined_ref += np.array(run.edge_log) != engine.UNEXAMINED
    trials = 200000
    comp = mcsim._compile_arrays(g, x, plan.sigma, plan.edge_ids, cache)
    _, win, exam = mcsim._run_proposal_chunk(comp, trials, np.random.default_rng(37))
    for hits_ref, hits in (
        (matched_ref, mcsim._count_matches(win, m)),
        (examined_ref, exam[:, :m].sum(axis=0)),
    ):
        z = two_proportion_z(hits_ref, ref_trials, hits, trials)
        assert np.all(np.abs(z) <= 4), z
