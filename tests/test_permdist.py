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
from util import enumerate_filter_outcomes, random_feasible_x


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
