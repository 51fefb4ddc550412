"""Ground truth for the rounding algorithms at desk scale.

Two oracles live here:

* ``max_weight_matching`` / ``expected_opt_exact`` -- the offline optimum,
  by exhaustive search over tiny edge sets and a subset-lattice DP over all
  2^|E| realizations.

* ``exact_event_probabilities`` -- exact probabilities of per-edge and
  per-vertex events under one proposal round.  A vertex's walk is a finite
  branching process (base permutation choice, the three-way filter branch,
  the realization coin of each examined edge), independent across vertices;
  the uniform A-order only matters through which proposer is first at each
  B vertex.  Ranks of disjoint proposer sets are independent under a
  uniform order, so order integrates out analytically: given everyone's
  proposal, the first-proposer factor at a B vertex with m proposers is
  1/m, and the not-first factor (m-1)/m.  We therefore enumerate the joint
  per-vertex outcomes as a product measure and attach per-B order factors,
  which is exact and cheap at the supported sizes.  Each vertex's outcome
  law comes from ``engine._vertex_outcomes``, the same law from which
  ``mcsim`` draws round 1 of two-round ``apx``.

Monte Carlo estimates come from ``mcsim.run_batch``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .engine import DistributionCache, _compile_round, _vertex_outcomes
from .instance import StochasticGraph

#: enumeration refuses to build joint tables beyond this many entries
DEFAULT_BUDGET = 10**8

#: conditioning events with less mass than this are reported as undefined
CONDITION_MASS_FLOOR = 1e-12


class EnumerationBudgetError(ValueError):
    pass


class SizeCapError(ValueError):
    pass


Atom = tuple
Conj = tuple  # tuple of atoms
ConditionalKey = tuple  # (target conj, given conj)


@dataclass(frozen=True)
class ExactEventReport:
    """Exact probabilities from one proposal round: per original edge
    (matched / examined / available afterwards), per vertex (unmatched),
    the expected matching weight, and any requested conditionals.
    Conditionals map to ``None`` when the conditioning mass is below
    ``CONDITION_MASS_FLOOR``."""

    edge_matched: tuple[float, ...]
    edge_examined: tuple[float, ...]
    edge_available: tuple[float, ...]
    a_unmatched: tuple[float, ...]
    b_unmatched: tuple[float, ...]
    expected_weight: float
    conditionals: Mapping[ConditionalKey, float | None] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Offline optimum
# ---------------------------------------------------------------------------

def max_weight_matching(edges: Sequence[tuple[int, int, float]]) -> tuple[tuple[int, ...], float]:
    """Exact maximum-weight matching of a bipartite edge list.

    Branch-and-memo over edge indices with endpoint masks; exponential in
    the worst case but instances here are tiny.  Returns (indices into the
    input list, total weight).
    """
    if len(edges) > 22:
        raise SizeCapError(f"{len(edges)} edges exceeds the exact-matching cap")
    a_ids = sorted({e[0] for e in edges})
    b_ids = sorted({e[1] for e in edges})
    a_pos = {v: i for i, v in enumerate(a_ids)}
    b_pos = {v: i for i, v in enumerate(b_ids)}
    memo: dict[tuple[int, int, int], tuple[float, tuple[int, ...]]] = {}

    def best(i: int, used_a: int, used_b: int) -> tuple[float, tuple[int, ...]]:
        if i == len(edges):
            return 0.0, ()
        key = (i, used_a, used_b)
        got = memo.get(key)
        if got is not None:
            return got
        skip_w, skip_sel = best(i + 1, used_a, used_b)
        a, b, w = edges[i]
        am, bm = 1 << a_pos[a], 1 << b_pos[b]
        out = (skip_w, skip_sel)
        if not (used_a & am) and not (used_b & bm):
            take_w, take_sel = best(i + 1, used_a | am, used_b | bm)
            if take_w + w > out[0]:
                out = (take_w + w, (i,) + take_sel)
        memo[key] = out
        return out

    w, sel = best(0, 0, 0)
    return sel, w


def expected_opt_exact(graph: StochasticGraph) -> float:
    """Expected weight of the offline max-weight matching over all 2^|E|
    realizations, via a subset-lattice DP (|E| <= 20)."""
    m = len(graph.edges)
    if m > 20:
        raise SizeCapError(f"{m} edges exceeds the 2^|E| enumeration cap of 20")
    if m == 0:
        return 0.0
    conflict = []
    for e in graph.edges:
        mask = 0
        for f in graph.edges:
            if f.id != e.id and (f.a == e.a or f.b == e.b):
                mask |= 1 << f.id
        conflict.append(mask)
    w = [e.w for e in graph.edges]

    size = 1 << m
    best = np.zeros(size)
    for s in range(1, size):
        e = s.bit_length() - 1  # highest set edge
        rest = s & ~(1 << e)
        take = w[e] + best[rest & ~conflict[e]]
        skip = best[rest]
        best[s] = take if take > skip else skip

    probs = np.ones(1)
    for e in graph.edges:
        probs = np.concatenate((probs * (1.0 - e.p), probs * e.p))
    return float(np.dot(probs, best))


# ---------------------------------------------------------------------------
# Exact event probabilities for one proposal round
# ---------------------------------------------------------------------------

@dataclass
class _JointTable:
    """Product measure over all vertices' outcomes with per-B proposer
    counts; everything vectorized over the joint index."""

    mass: np.ndarray          # (N,)
    prop: np.ndarray          # (N, n_a_aug) proposed aug edge or -1
    exam: np.ndarray          # (N, m_aug) bool
    m_count: np.ndarray       # (N, n_b) proposers per B vertex
    edge_b: np.ndarray        # (m_aug,)
    aug_a: np.ndarray         # (m_aug,) augmented A endpoint per edge


def _build_joint(graph: StochasticGraph, rnd, budget: int) -> _JointTable:
    aug = rnd.aug
    n_a, n_b, m_aug = aug.a_count, aug.b_count, len(aug.edges)
    outs = [_vertex_outcomes(rnd, v) for v in range(n_a)]
    total = 1
    for o in outs:
        total *= len(o)
        if total > budget:
            raise EnumerationBudgetError(f"joint table would exceed {budget} entries")

    mass = np.ones(1)
    prop = -np.ones((1, n_a), dtype=np.int64)
    exam = np.zeros((1, m_aug), dtype=bool)
    m_count = np.zeros((1, n_b), dtype=np.int64)
    edge_b = np.array([e.b for e in aug.edges], dtype=np.int64)
    for v, out in enumerate(outs):
        k = len(out)
        n = len(mass)
        probs = np.array([q for _, _, q in out])
        targets = np.array([t for t, _, _ in out], dtype=np.int64)
        bits = np.zeros((k, m_aug), dtype=bool)
        for i, (_, ex, _) in enumerate(out):
            for e in ex:
                bits[i, e] = True
        mass = np.repeat(mass, k) * np.tile(probs, n)
        prop = np.repeat(prop, k, axis=0)
        prop[:, v] = np.tile(targets, n)
        exam = np.repeat(exam, k, axis=0) | np.tile(bits, (n, 1))
        m_count = np.repeat(m_count, k, axis=0)
        tgt = prop[:, v]
        has = tgt >= 0
        np.add.at(m_count, (np.nonzero(has)[0], edge_b[tgt[has]]), 1)
    aug_a = np.array([e.a for e in aug.edges], dtype=np.int64)
    return _JointTable(mass=mass, prop=prop, exam=exam, m_count=m_count,
                       edge_b=edge_b, aug_a=aug_a)


def _not_first_factor(jt: _JointTable, vertex: int) -> np.ndarray:
    """P[this vertex's proposal is not first at its target | joint outcome];
    1 where it proposes nothing."""
    tgt = jt.prop[:, vertex]
    has = tgt >= 0
    f = np.ones(len(jt.mass))
    mm = jt.m_count[np.nonzero(has)[0], jt.edge_b[tgt[has]]].astype(float)
    f[has] = (mm - 1.0) / mm
    return f


def _atom_value(jt: _JointTable, atom: Atom, order_vertices: set[int]) -> np.ndarray:
    """Per-joint-outcome value of one atom: an indicator, possibly times an
    order factor.  ``order_vertices`` collects the B vertices carrying order
    factors so accidental dependent combinations fail loudly."""
    kind = atom[0]
    if kind == "examined":
        return jt.exam[:, atom[1]].astype(float)
    if kind == "not_examined":
        return 1.0 - jt.exam[:, atom[1]]
    if kind == "b_unmatched":
        return (jt.m_count[:, atom[1]] == 0).astype(float)
    if kind == "a_unmatched":
        v = atom[1]
        tgt = jt.prop[:, v]
        has = tgt >= 0
        bs = set(np.unique(jt.edge_b[tgt[has]]).tolist())
        if bs & order_vertices:
            raise NotImplementedError("two order factors on one B vertex")
        order_vertices.update(bs)
        return _not_first_factor(jt, v)
    if kind == "matched":
        e = atom[1]
        v = int(jt.aug_a[e])
        u = int(jt.edge_b[e])
        if u in order_vertices:
            raise NotImplementedError("two order factors on one B vertex")
        order_vertices.add(u)
        ind = jt.prop[:, v] == e
        mm = np.where(jt.m_count[:, u] > 0, jt.m_count[:, u], 1).astype(float)
        return ind / mm
    if kind == "proposed":
        v, u = atom[1], atom[2]
        tgt = jt.prop[:, v]
        return ((tgt >= 0) & (jt.edge_b[np.maximum(tgt, 0)] == u)).astype(float)
    if kind == "not_proposed":
        v, u = atom[1], atom[2]
        tgt = jt.prop[:, v]
        return 1.0 - ((tgt >= 0) & (jt.edge_b[np.maximum(tgt, 0)] == u))
    if kind == "beaten_proposal":
        # v proposes to u and some earlier vertex in the A-order already
        # proposed to u, i.e. v is not first there
        v, u = atom[1], atom[2]
        if u in order_vertices:
            raise NotImplementedError("two order factors on one B vertex")
        order_vertices.add(u)
        tgt = jt.prop[:, v]
        ind = (tgt >= 0) & (jt.edge_b[np.maximum(tgt, 0)] == u)
        return ind * _not_first_factor(jt, v)
    raise ValueError(f"unknown atom {atom!r}")


def _conj_value(jt: _JointTable, conj: Conj) -> np.ndarray:
    order_vertices: set[int] = set()
    val = np.ones(len(jt.mass))
    for atom in conj:
        val = val * _atom_value(jt, atom, order_vertices)
    return val


def exact_event_probabilities(
    graph: StochasticGraph,
    x,
    sigma: float | None,
    conditionals: Sequence[ConditionalKey] = (),
    *,
    algorithm: str = "alg1",
    budget: int = DEFAULT_BUDGET,
) -> ExactEventReport:
    """Exact event report for one round of the proposal rounding.

    ``algorithm="alg1"`` runs the shrink-and-pad round at cap ``sigma``;
    ``algorithm="simple"`` runs the plain proportional round (``sigma``
    ignored).  Conditionals are (target conjunction, given conjunction)
    pairs of atoms over original edge ids / vertex indices:

        ("matched", e) ("examined", e) ("not_examined", e)
        ("a_unmatched", v) ("b_unmatched", u)
        ("proposed", v, u) ("not_proposed", v, u) ("beaten_proposal", v, u)
    """
    if algorithm not in ("alg1", "simple"):
        raise ValueError(f"unsupported algorithm {algorithm!r}")
    cache = DistributionCache(graph, x)
    eff_sigma = None if algorithm == "simple" else float(sigma if sigma is not None else 1.0)
    rnd = _compile_round(graph, x, eff_sigma, range(len(graph.edges)), cache)
    jt = _build_joint(graph, rnd, budget)

    m = len(graph.edges)
    mass = jt.mass
    edge_matched = []
    edge_examined = []
    edge_available = []
    for e in range(m):  # original edges are the augmented prefix
        u = int(jt.edge_b[e])
        v = int(jt.aug_a[e])
        ind = jt.prop[:, v] == e
        mm = np.where(jt.m_count[:, u] > 0, jt.m_count[:, u], 1).astype(float)
        edge_matched.append(float(np.dot(mass, ind / mm)))
        edge_examined.append(float(np.dot(mass, jt.exam[:, e])))
        free_u = jt.m_count[:, u] == 0
        avail = (1.0 - jt.exam[:, e]) * free_u * _not_first_factor(jt, v)
        edge_available.append(float(np.dot(mass, avail)))
    a_unmatched = [
        float(np.dot(mass, _not_first_factor(jt, v))) for v in range(graph.a_count)
    ]
    b_unmatched = [
        float(np.dot(mass, (jt.m_count[:, u] == 0).astype(float)))
        for u in range(graph.b_count)
    ]
    expected_weight = float(
        sum(graph.edges[e].w * edge_matched[e] for e in range(m))
    )

    conds: dict[ConditionalKey, float | None] = {}
    for target, given in conditionals:
        given_val = _conj_value(jt, tuple(given))
        denom = float(np.dot(mass, given_val))
        if denom < CONDITION_MASS_FLOOR:
            conds[(tuple(target), tuple(given))] = None
            continue
        joint_val = _conj_value(jt, tuple(target) + tuple(given))
        conds[(tuple(target), tuple(given))] = float(np.dot(mass, joint_val)) / denom
    return ExactEventReport(
        edge_matched=tuple(edge_matched),
        edge_examined=tuple(edge_examined),
        edge_available=tuple(edge_available),
        a_unmatched=tuple(a_unmatched),
        b_unmatched=tuple(b_unmatched),
        expected_weight=expected_weight,
        conditionals=conds,
    )


def conditional_bundles(graph: StochasticGraph, which: str) -> list[ConditionalKey]:
    """Pre-canned conditional-event bundles.

    ``unmatched-given-unexamined`` (CLI token ``lemma7``): per edge, the A
    endpoint stays unmatched given the edge was not examined.
    ``correlation`` (CLI token ``lemma8``): per edge, the B endpoint stays
    unmatched given the A endpoint did and the edge was not examined.
    ``proposal-correlation``: pairs comparing a rival's proposal probability
    against the same event under a beaten-proposal conditioning.
    """
    out: list[ConditionalKey] = []
    if which in ("lemma7", "unmatched-given-unexamined", "all"):
        for e in graph.edges:
            out.append(
                ((("a_unmatched", e.a),), (("not_examined", e.id),))
            )
    if which in ("lemma8", "correlation", "all"):
        for e in graph.edges:
            out.append(
                (
                    (("b_unmatched", e.b),),
                    (("a_unmatched", e.a), ("not_examined", e.id)),
                )
            )
    if which in ("proposal-correlation", "all"):
        for e in graph.edges:
            others_b = {f.b for f in graph.edges if f.a == e.a and f.b != e.b}
            rivals_a = {f.a for f in graph.edges if f.b == e.b}
            for u2 in sorted(others_b):
                for v2 in sorted(rivals_a):
                    out.append(
                        (
                            (("not_proposed", v2, e.b),),
                            (
                                ("beaten_proposal", e.a, u2),
                                ("not_examined", e.id),
                            ),
                        )
                    )
    return out


def report_to_json(report: ExactEventReport) -> dict:
    conds = [
        {
            "target": [list(a) for a in target],
            "given": [list(a) for a in given],
            "probability": val,
        }
        for (target, given), val in report.conditionals.items()
    ]
    return {
        "edge_matched": list(report.edge_matched),
        "edge_examined": list(report.edge_examined),
        "edge_available": list(report.edge_available),
        "a_unmatched": list(report.a_unmatched),
        "b_unmatched": list(report.b_unmatched),
        "expected_weight": report.expected_weight,
        "conditionals": conds,
    }
