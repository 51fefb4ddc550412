import math

import numpy as np
import pytest

from qcmatch.instance import make_graph
from qcmatch.lpmatch import check_feasibility
from qcmatch.transform import (
    TransformParams,
    add_dummy_edges,
    fixed_point_gap,
    g_ratio,
    g_transform,
    guaranteed_ratio,
    heavy_degree_bound,
    ratio_crossing,
)


def test_g_zero_and_cap():
    for s in np.arange(0.05, 1.01, 0.05):
        assert g_transform(0.0, float(s)) == 0.0
        assert g_transform(float(s), float(s)) == pytest.approx(1 - math.exp(-s), abs=1e-15)
    assert g_transform(1.0, 1.0) == pytest.approx(1 - 1 / math.e, abs=1e-15)


def test_g_published_ratio_values():
    # four-significant-figure values quoted for the threshold analysis
    assert g_transform(0.74, 1.0) / 0.74 == pytest.approx(0.718, abs=5e-4)
    assert g_transform(0.3172, 1.0) / 0.3172 == pytest.approx(0.872296, abs=1e-6)
    assert g_transform(0.31719, 1.0) / 0.31719 == pytest.approx(0.8723003, abs=1e-7)
    assert g_transform(0.5, 1.0) == pytest.approx(0.40163, abs=5e-6)
    assert g_transform(0.1, 1.0) == pytest.approx(0.09587, abs=5e-6)


def test_g_limit_branch_continuity():
    for s in (0.3, 0.7, 1.0):
        assert g_transform(s - 1e-7, s) == pytest.approx(1 - math.exp(-s), abs=1e-6)
        assert g_transform(s - 1e-13, s) == g_transform(s, s)  # window branch


def test_g_array_input():
    xs = np.array([0.0, 0.25, 0.5, 1.0])
    vals = g_transform(xs, 1.0)
    assert vals.shape == xs.shape
    assert vals[0] == 0.0 and vals[-1] == pytest.approx(1 - 1 / math.e)


def test_g_domain_errors():
    with pytest.raises(ValueError):
        g_transform(1.1, 1.0)
    with pytest.raises(ValueError):
        g_transform(0.6, 0.5)
    with pytest.raises(ValueError):
        g_transform(0.5, 0.0)


def test_g_ratio_limit_at_zero():
    assert g_ratio(0.0, 1.0) == 1.0
    assert g_ratio(1e-8, 0.7) == pytest.approx(1.0, abs=1e-6)


def test_add_dummy_edges():
    g = make_graph(1, 1, [(0, 0, 1.0, 1.0)])
    aug, x2 = add_dummy_edges(g, [1.0], 1.0)
    assert len(aug.edges) == 2 and aug.edges[1].a == 1  # already tight: a mass-0 dummy
    assert x2 == (1.0, 0.0)

    aug, x2 = add_dummy_edges(g, [0.3], 1.0)
    assert len(aug.edges) == 2
    d = aug.edges[1]
    assert d.is_dummy and d.w == 0.0 and d.p == 1.0 and d.a == 1
    assert x2 == (0.3, 0.7)

    with pytest.raises(ValueError, match="fractional degree"):
        add_dummy_edges(g, [0.8], 0.5)


def test_augmented_x_stays_feasible():
    g = make_graph(2, 2, [(0, 0, 1.0, 0.6), (0, 1, 1.0, 0.9), (1, 0, 1.0, 0.8)])
    x = [0.3, 0.4, 0.2]
    aug, x2 = add_dummy_edges(g, x, 1.0)
    rep = check_feasibility(aug, x2, "exhaustive")
    assert rep.feasible, rep
    for u in range(aug.b_count):
        assert sum(x2[e] for e in aug.edges_at_b[u]) == pytest.approx(1.0, abs=1e-12)


def test_ratio_crossing():
    assert ratio_crossing(1 - 1 / math.e) == pytest.approx(1.0, abs=1e-6)
    c = ratio_crossing(0.8723)
    assert 0.31719 <= c <= 0.3172
    assert ratio_crossing(0.75) <= 0.74
    for tau in (0.78, 0.8723, 0.95):
        c = ratio_crossing(tau)
        assert g_transform(c, 1.0) / c == pytest.approx(tau, abs=1e-7)
    with pytest.raises(ValueError):
        ratio_crossing(0.5)


def test_heavy_degree_bound():
    r = heavy_degree_bound(0.8723)
    assert r <= 0.5303
    assert fixed_point_gap(0.5303, 0.8723) > 0.0
    assert abs(fixed_point_gap(r, 0.8723)) <= 1e-7
    assert fixed_point_gap(r + 1e-4, 0.8723) > 0.0
    for tau in np.arange(0.75, 0.995, 0.01):
        assert heavy_degree_bound(float(tau)) < 1.0
        assert fixed_point_gap(1.0, float(tau)) > 0.0


def test_guaranteed_ratio():
    r = guaranteed_ratio(0.8723, 0.1837)
    assert r >= 0.63353 - 1e-5
    assert r >= 1 - 1 / math.e + 0.0014
    assert guaranteed_ratio(0.8723, 1.0) == 0.0
    assert guaranteed_ratio(0.8723, 0.0) == pytest.approx(1 - 1 / math.e, abs=1e-12)


def test_params_validation():
    TransformParams()
    with pytest.raises(ValueError, match="sigma"):
        TransformParams(sigma=0.0)
    with pytest.raises(ValueError, match="tau"):
        TransformParams(tau=0.5)
    with pytest.raises(ValueError, match="lambda"):
        TransformParams(lam=1.5)
