import json

import numpy as np
import pytest

from qcmatch.instance import (
    InstanceError,
    RealizationState,
    generate_instance,
    load_instance,
    make_graph,
    sample_realization,
    save_instance,
)
from util import rng_for_trial


def test_load_single_edge():
    g = load_instance('{"a_count":1,"b_count":1,"edges":[{"a":0,"b":0,"w":1,"p":0.5}]}')
    assert g.a_count == 1 and g.b_count == 1
    assert len(g.edges) == 1
    assert g.edges[0].w == 1.0 and g.edges[0].p == 0.5


@pytest.mark.parametrize(
    "bad, msg",
    [
        ('{"a_count":1,"b_count":1,"edges":[{"a":0,"b":0,"w":1,"p":0}]}', "probability"),
        ('{"a_count":1,"b_count":1,"edges":[{"a":0,"b":0,"w":1,"p":1.5}]}', "probability"),
        ('{"a_count":1,"b_count":1,"edges":[{"a":0,"b":0,"w":-1,"p":0.5}]}', "weight"),
        (
            '{"a_count":1,"b_count":1,"edges":[{"a":0,"b":0,"w":1,"p":0.5},'
            '{"a":0,"b":0,"w":2,"p":0.5}]}',
            "duplicate",
        ),
        ('{"a_count":1,"b_count":1,"edges":[{"a":3,"b":0,"w":1,"p":0.5}]}', "out of range"),
        ("{not json", "JSON"),
    ],
)
def test_load_rejects(bad, msg):
    with pytest.raises(InstanceError, match=msg):
        load_instance(bad)


def test_load_save_identity():
    g = generate_instance("uniform", na=4, nb=3, density=0.7, seed=5)
    text = save_instance(g)
    assert save_instance(load_instance(text)) == text


def test_generate_complete_degenerate_ranges():
    g = generate_instance("complete", na=2, nb=2, w_range=(1, 1), p_range=(1, 1), seed=0)
    assert len(g.edges) == 4
    assert all(e.w == 1.0 and e.p == 1.0 for e in g.edges)


def test_generate_deterministic():
    a = save_instance(generate_instance("uniform", na=5, nb=5, density=0.5, seed=7))
    b = save_instance(generate_instance("uniform", na=5, nb=5, density=0.5, seed=7))
    assert a == b
    # edge count is Binomial(25, 0.5); [2, 23] has negligible miss mass
    n = len(json.loads(a)["edges"])
    assert 2 <= n <= 23


def test_generate_models_and_errors():
    star = generate_instance("star", na=4, nb=3, seed=1)
    assert star.b_count == 1 and len(star.edges) == 4
    hard = generate_instance("hard", na=3, nb=3, seed=2)
    assert all(e.p <= 0.15 for e in hard.edges)
    with pytest.raises(InstanceError, match="unknown model"):
        generate_instance("nope", seed=0)
    with pytest.raises(InstanceError, match="density"):
        generate_instance("uniform", density=1.5, seed=0)


def test_sample_realization_memoizes():
    g = make_graph(1, 2, [(0, 0, 1.0, 0.5), (0, 1, 1.0, 1.0)])
    st = RealizationState(np.random.default_rng(3))
    first = sample_realization(g, st, 0)
    for _ in range(10):
        assert sample_realization(g, st, 0) == first
    assert sample_realization(g, st, 1) is True  # p=1


def test_dummy_always_realized_without_consuming_randomness():
    from qcmatch.transform import add_dummy_edges

    g = make_graph(1, 1, [(0, 0, 1.0, 0.5)])
    aug, _ = add_dummy_edges(g, [0.2], 1.0)
    st = RealizationState(np.random.default_rng(0))
    before = st.rng.bit_generator.state["state"]["state"]
    assert sample_realization(aug, st, 1) is True
    assert st.rng.bit_generator.state["state"]["state"] == before


def test_equal_seeds_equal_realization_sequences():
    g = generate_instance("complete", na=3, nb=3, seed=9)
    seqs = []
    for _ in range(2):
        st = RealizationState(rng_for_trial(123, 0))
        seqs.append([sample_realization(g, st, e) for e in range(9)])
    assert seqs[0] == seqs[1]


def test_realization_frequency():
    # p=0.5 edge over 1e6 fresh per-trial states: frequency 0.5 +- 0.002
    g = make_graph(1, 1, [(0, 0, 1.0, 0.5)])
    n = 10**6
    hits = 0
    for t in range(n):
        st = RealizationState(rng_for_trial(77, t))
        hits += sample_realization(g, st, 0)
    assert abs(hits / n - 0.5) <= 0.002
