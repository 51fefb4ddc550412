import numpy as np
import pytest

from qcmatch import mcsim, oracle
from qcmatch.engine import (
    DistributionCache,
    apx_matching,
    base_matching,
    greedy_matching,
    simple_matching,
)
from qcmatch.instance import RealizationState, make_graph, rng_for_trial
from qcmatch.lpmatch import solve_lp_match
from qcmatch.transform import TransformParams
from util import random_instance


def reference_mean(graph, x, algorithm, params, trials, seed):
    cache = DistributionCache(graph, x) if x is not None else None
    total = 0.0
    for t in range(trials):
        rng = rng_for_trial(seed, t)
        st = RealizationState(rng)
        if algorithm == "greedy":
            run = greedy_matching(graph, st)
        elif algorithm == "simple":
            run = simple_matching(graph, x, st, rng, cache)
        elif algorithm == "alg1":
            run = base_matching(graph, x, params.sigma, st, rng, cache)
        else:
            run = apx_matching(graph, x, params, st, rng, cache)
        total += run.weight
    return total / trials


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
    runs = [
        mcsim.run_batch(g, sol.x, "apx", params, 150000, 21, threads=th)
        for th in (1, 1, 4)
    ]
    assert runs[0] == runs[1] == runs[2]


def test_batch_chunk_boundaries():
    g = make_graph(1, 1, [(0, 0, 1.0, 0.5)])
    for trials in (1, 2, mcsim.CHUNK_SIZE, mcsim.CHUNK_SIZE + 1):
        res = mcsim.run_batch(g, None, "greedy", TransformParams(), trials, 3)
        assert res.trials == trials
        assert 0.0 <= res.mean <= 1.0


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


def test_apx_two_round_refuses_more_than_64_edges():
    # surviving edges are packed into a uint64; edges past 63 would lose
    # their second round, so the run must fail instead of returning a
    # wrong mean
    g = make_graph(70, 70, [(i, i, 1.0, 1.0) for i in range(70)])
    with pytest.raises(ValueError, match="64"):
        mcsim.run_batch(g, [1.0] * 70, "apx", TransformParams(), 200, 3)
