import numpy as np
import pytest

from qcmatch.instance import make_graph
from qcmatch.permdist import (
    DEGREE_CAP,
    DegreeCapExceeded,
    InfeasibleTargets,
    PermDistribution,
    build_proportional_distribution,
    draw_modified_perm,
    first_realized_marginals,
)
from qcmatch.transform import g_transform
from util import enumerate_filter_outcomes, random_feasible_x, worst_subset_ratio


def test_forced_single_edge():
    g = make_graph(1, 1, [(0, 0, 1.0, 0.7)])
    d = build_proportional_distribution(g, 0, [0.7])
    assert d.support == (((0,), 1.0),)


def test_half_mass_single_edge():
    g = make_graph(1, 1, [(0, 0, 1.0, 0.8)])
    d = build_proportional_distribution(g, 0, [0.4])
    marg = first_realized_marginals(d, g)
    assert marg[0] == pytest.approx(0.4, abs=1e-9)
    total = sum(q for _, q in d.support)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_two_sure_edges():
    g = make_graph(1, 2, [(0, 0, 1.0, 1.0), (0, 1, 1.0, 1.0)])
    d = build_proportional_distribution(g, 0, [0.5, 0.5])
    marg = first_realized_marginals(d, g)
    assert marg[0] == pytest.approx(0.5, abs=1e-9)
    assert marg[1] == pytest.approx(0.5, abs=1e-9)


def test_first_realized_marginals_examples():
    g = make_graph(1, 2, [(0, 0, 1.0, 0.5), (0, 1, 1.0, 0.5)])
    d = PermDistribution(vertex=0, support=(((0, 1), 1.0),), targets={0: 0.5, 1: 0.25})
    marg = first_realized_marginals(d, g)
    assert marg[0] == pytest.approx(0.5) and marg[1] == pytest.approx(0.25)
    empty = PermDistribution(vertex=0, support=(((), 1.0),), targets={0: 0.0, 1: 0.0})
    assert all(v == 0.0 for v in first_realized_marginals(empty, g).values())


def test_exactness_on_random_vertices():
    rng = np.random.default_rng(12)
    for _ in range(40):
        deg = int(rng.integers(1, 7))
        g = make_graph(1, deg, [(0, b, 1.0, float(rng.uniform(0.15, 1.0))) for b in range(deg)])
        x = random_feasible_x(g, rng)
        d = build_proportional_distribution(g, 0, x)
        marg = first_realized_marginals(d, g)
        for e in range(deg):
            assert marg[e] == pytest.approx(x[e], abs=1e-7)


def test_greedy_decomposition_on_random_vertices():
    rng = np.random.default_rng(16)
    for i in range(600):
        deg = int(rng.integers(1, DEGREE_CAP + 1))
        ps = [1.0 if rng.random() < 0.5 else float(rng.uniform(0.05, 1.0)) for _ in range(deg)]
        g = make_graph(1, deg, [(0, b, 1.0, p) for b, p in enumerate(ps)])
        x = random_feasible_x(g, rng)
        if i % 3 == 0:  # onto a tight set
            ratio = worst_subset_ratio(g, x)
            x = [v * (1.0 - 1e-13) / ratio for v in x]
        d = build_proportional_distribution(g, 0, x)
        marg = first_realized_marginals(d, g)
        assert max(abs(marg[e] - x[e]) for e in range(deg)) <= 1e-12
        assert sum(1 for perm, _ in d.support if perm) <= deg + 1
        assert all(q > 0.0 for _, q in d.support)
        assert abs(sum(q for _, q in d.support) - 1.0) <= 1e-12
        assert build_proportional_distribution(g, 0, x).support == d.support


@pytest.mark.parametrize(
    "ps, x",
    [
        # two p = 1 edges, targets on a tight set: the last step leaves 8e-15
        # of the remaining mass, which must not be decomposed as a new point
        (
            [0.512882617999671, 0.7850785851136106, 1.0, 0.8944949361299177,
             0.49461809458787825, 1.0, 0.322002396915484],
            [0.1237747845599638, 0.1271434180665008, 0.3633695637061306, 0.13594283989086087,
             0.14691635354157956, 0.09950346844592371, 0.0033495717890405473],
        ),
        # a step leaves 3.7e-9 of the remaining mass (1e-9 in all), whose
        # tight sets show only at tolerances scaled to that mass
        (
            [1.0, 0.8306741573091204, 0.9453663382633002, 0.5753860552063763,
             0.3850447900401545, 0.924622221431753, 0.4502035679785114],
            [0.2547069603288643, 0.1495096077351552, 0.034784691774091166, 0.08438224549501797,
             0.02024423608000435, 0.32728625685518237, 0.12908600173158466],
        ),
    ],
)
def test_greedy_decomposition_converges_near_a_full_step(ps, x):
    g = make_graph(1, len(ps), [(0, b, 1.0, p) for b, p in enumerate(ps)])
    d = build_proportional_distribution(g, 0, x)
    marg = first_realized_marginals(d, g)
    assert max(abs(marg[e] - x[e]) for e in range(len(ps))) <= 1e-12
    assert sum(1 for perm, _ in d.support if perm) <= len(ps) + 1


@pytest.mark.parametrize("delta", [5e-11, 5e-10])
def test_targets_within_feasibility_tolerance_build(delta):
    # check_feasibility accepts a worst violation up to EPS; so does the builder
    g = make_graph(1, 2, [(0, 0, 1.0, 0.5), (0, 1, 1.0, 0.5)])
    x = [0.375 + delta, 0.375]
    marg = first_realized_marginals(build_proportional_distribution(g, 0, x), g)
    assert abs(marg[0] - x[0]) <= 2e-9 and abs(marg[1] - x[1]) <= 2e-9


def test_targets_beyond_feasibility_tolerance_raise():
    g = make_graph(1, 2, [(0, 0, 1.0, 0.5), (0, 1, 1.0, 0.5)])
    with pytest.raises(InfeasibleTargets):
        build_proportional_distribution(g, 0, [0.375 + 2e-9, 0.375])


def test_degree_cap():
    deg = DEGREE_CAP + 1
    g = make_graph(1, deg, [(0, b, 1.0, 1.0) for b in range(deg)])
    with pytest.raises(DegreeCapExceeded):
        build_proportional_distribution(g, 0, [1.0 / deg] * deg)


def test_degree_cap_error_names_the_vertex():
    deg = DEGREE_CAP + 1
    g = make_graph(3, deg, [(2, b, 1.0, 1.0) for b in range(deg)])
    with pytest.raises(
        DegreeCapExceeded, match=f"A-vertex 2: LP support {deg} exceeds cap {DEGREE_CAP}"
    ):
        build_proportional_distribution(g, 2, [1.0 / deg] * deg)


def test_infeasible_targets_witness():
    g = make_graph(1, 2, [(0, 0, 1.0, 0.5), (0, 1, 1.0, 0.5)])
    with pytest.raises(InfeasibleTargets) as err:
        build_proportional_distribution(g, 0, [0.5, 0.5])  # sum 1 > 0.75
    assert err.value.witness == frozenset({0, 1})
    assert err.value.violation == pytest.approx(0.25, abs=1e-9)


def test_infeasible_witness_ignores_edges_off_the_support():
    # 24 incident edges, 2 carrying mass: the witness must be the one the
    # two edges give alone (edge ids 5, 17 there are 0, 1 here)
    deg = 24
    ps = np.random.default_rng(24).uniform(0.1, 0.9, deg)
    g = make_graph(1, deg, [(0, b, 1.0, float(ps[b])) for b in range(deg)])
    x = [0.0] * deg
    x[5], x[17] = float(ps[5]), float(ps[17])  # their sum exceeds 1 - (1-p5)(1-p17)
    pair = make_graph(1, 2, [(0, 0, 1.0, float(ps[5])), (0, 1, 1.0, float(ps[17]))])
    with pytest.raises(InfeasibleTargets) as big:
        build_proportional_distribution(g, 0, x)
    with pytest.raises(InfeasibleTargets) as alone:
        build_proportional_distribution(pair, 0, [x[5], x[17]])
    assert big.value.vertex == alone.value.vertex == 0
    assert big.value.violation == alone.value.violation > 0.0
    assert big.value.witness == frozenset({5, 17})
    assert alone.value.witness == frozenset({0, 1})


def test_draw_identity_when_unshrunk():
    g = make_graph(1, 3, [(0, b, 1.0, 0.6) for b in range(3)])
    rng = np.random.default_rng(5)
    x = random_feasible_x(g, rng)
    d = build_proportional_distribution(g, 0, x)
    rng2 = np.random.default_rng(9)
    for _ in range(200):
        out = draw_modified_perm(d, x, x, g, rng2)
        assert out in {perm for perm, _ in d.support}


def test_draw_zero_targets_gives_empty():
    g = make_graph(1, 2, [(0, 0, 1.0, 0.5), (0, 1, 1.0, 0.5)])
    d = build_proportional_distribution(g, 0, [0.4, 0.2])
    rng = np.random.default_rng(4)
    for _ in range(100):
        assert draw_modified_perm(d, [0.4, 0.2], [0.0, 0.0], g, rng) == ()


def test_draw_is_subsequence_of_base():
    g = make_graph(1, 4, [(0, b, 1.0, 0.7) for b in range(4)])
    rng = np.random.default_rng(8)
    x = random_feasible_x(g, rng)
    xt = [float(g_transform(v, 1.0)) for v in x]
    d = build_proportional_distribution(g, 0, x)
    bases = [perm for perm, _ in d.support]
    for _ in range(300):
        out = draw_modified_perm(d, x, xt, g, rng)
        assert any(_is_subsequence(out, b) for b in bases)


def _is_subsequence(sub, seq):
    it = iter(seq)
    return all(s in it for s in sub)


def test_filtered_stop_probabilities_match_shrunk_targets():
    # two sure edges, x=(0.5,0.5), shrunk by the cap-1 transform
    g = make_graph(1, 2, [(0, 0, 1.0, 1.0), (0, 1, 1.0, 1.0)])
    x = [0.5, 0.5]
    xt = [float(g_transform(0.5, 1.0))] * 2
    d = build_proportional_distribution(g, 0, x)
    stops = enumerate_filter_outcomes(g, d, x, xt)
    for e in (0, 1):
        assert stops[e] == pytest.approx(xt[e], abs=1e-9)
        assert stops[e] == pytest.approx(0.40163, abs=5e-6)


def test_filtered_stop_probabilities_random_supports():
    rng = np.random.default_rng(21)
    for _ in range(40):
        deg = int(rng.integers(1, 5))
        g = make_graph(
            1, deg, [(0, b, 1.0, float(rng.uniform(0.2, 1.0))) for b in range(deg)]
        )
        x = random_feasible_x(g, rng)
        if all(v < 1e-12 for v in x):
            continue
        xt = [float(g_transform(v, 1.0)) for v in x]
        d = build_proportional_distribution(g, 0, x)
        stops = enumerate_filter_outcomes(g, d, x, xt)
        for e in range(deg):
            if x[e] > 1e-12:
                assert stops.get(e, 0.0) == pytest.approx(xt[e], abs=1e-9)


def test_sampler_frequencies_match_marginals():
    g = make_graph(1, 2, [(0, 0, 1.0, 0.9), (0, 1, 1.0, 0.6)])
    x = [0.5, 0.3]
    xt = [float(g_transform(v, 1.0)) for v in x]
    d = build_proportional_distribution(g, 0, x)
    rng = np.random.default_rng(33)
    n = 40000
    stops = {0: 0, 1: 0}
    for _ in range(n):
        perm = draw_modified_perm(d, x, xt, g, rng)
        for e in perm:
            if rng.random() < g.edges[e].p:
                stops[e] += 1
                break
    for e in (0, 1):
        se = (xt[e] * (1 - xt[e]) / n) ** 0.5
        assert abs(stops[e] / n - xt[e]) <= 5 * se
