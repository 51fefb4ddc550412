"""Ground truth for the rounding algorithms at desk scale.

Two oracles live here:

* ``max_weight_matching`` / ``expected_opt_exact`` -- the offline optimum,
  by exhaustive search over tiny edge sets and a subset-lattice DP over all
  2^|E| realizations.

* ``exact_event_probabilities`` -- exact probabilities of per-edge and
  per-vertex events under one proposal round.  A vertex's walk is a finite
  branching process (base permutation choice, the three-way filter branch,
  the realization coin of each examined edge), independent across vertices;
  its outcome law comes from ``engine._vertex_outcomes`` on the round that
  ``engine._compile_round`` compiles, the law from which ``mcsim`` draws
  round 1 of two-round ``apx``.  The uniform A-order only matters through
  which proposer is first at each B vertex; ranks of disjoint proposer
  sets are independent under a uniform order, so given everyone's proposal
  the first-proposer factor at a B vertex with m proposers is 1/m, and the
  not-first factor (m-1)/m.

  Every reported quantity is the probability of one conjunction of atoms.
  Only the A vertices that a conjunction names (at most two in every
  bundle) are enumerated, as a product table of their outcomes, built once
  per named set and shared by the conjunctions that name it.  Every
  other vertex, dummies included, enters through its proposal law, and
  the number of them proposing at a B vertex that carries an order factor
  comes from a DP over proposer counts.  So nothing is exponential in the
  vertex count; one vertex's outcome list is bounded by the permutation
  support cap.

  One report evaluates each distinct conjunction once.  A conjunction is
  keyed by its sorted, de-duplicated atoms, since neither order nor
  repeats change its probability; the bundles share many (lemma 8's given
  is lemma 7's target and given, and ``edge_available`` is lemma 8's
  target and given).  The memo lives for one call only.

Monte Carlo estimates come from ``mcsim.run_batch``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .engine import DistributionCache, _compile_round, _vertex_outcomes
from .instance import StochasticGraph

#: conditioning events with less mass than this are reported as undefined
CONDITION_MASS_FLOOR = 1e-12

#: ``expected_opt_exact`` enumerates 2^|E| realizations up to this many edges
EXPECTED_OPT_EDGE_CAP = 20


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
    realizations, via a subset-lattice DP (|E| <= ``EXPECTED_OPT_EDGE_CAP``)."""
    m = len(graph.edges)
    if m > EXPECTED_OPT_EDGE_CAP:
        raise SizeCapError(f"{m} edges exceeds the 2^|E| enumeration cap of {EXPECTED_OPT_EDGE_CAP}")
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

    # best[s] for the subsets s whose highest edge is e: either e joins the
    # best matching of s's other edges that avoid e's endpoints, or not
    best = np.zeros(1 << m)
    for e in range(m):
        rest = np.arange(1 << e)
        take = w[e] + best[rest & ~conflict[e]]
        skip = best[: 1 << e]
        best[1 << e : 2 << e] = np.where(take > skip, take, skip)

    probs = np.ones(1)
    for e in graph.edges:
        probs = np.concatenate((probs * (1.0 - e.p), probs * e.p))
    return float(np.dot(probs, best))


# ---------------------------------------------------------------------------
# Exact event probabilities for one proposal round
# ---------------------------------------------------------------------------

@dataclass
class _JointTable:
    """Product measure over the walk outcomes of a few named vertices; one
    row per joint outcome."""

    mass: np.ndarray          # (N,)
    prop: np.ndarray          # (N, len(vertices)) proposed aug edge or -1
    exam: np.ndarray          # (N, m_aug) bool


def _build_joint(rnd, outcomes, vertices) -> _JointTable:
    m_aug = len(rnd.aug.edges)
    mass = np.ones(1)
    prop = np.zeros((1, 0), dtype=np.int64)
    exam = np.zeros((1, m_aug), dtype=bool)
    for v in vertices:
        out = outcomes[v]
        k, n = len(out), len(mass)
        bits = np.zeros((k, m_aug), dtype=bool)
        for i, (_, ex, _) in enumerate(out):
            for e in ex:
                bits[i, e] = True
        mass = np.repeat(mass, k) * np.tile([q for _, _, q in out], n)
        targets = np.tile(np.array([t for t, _, _ in out], dtype=np.int64), n)
        prop = np.column_stack((np.repeat(prop, k, axis=0), targets))
        exam = np.repeat(exam, k, axis=0) | np.tile(bits, (n, 1))
    return _JointTable(mass=mass, prop=prop, exam=exam)


class _Evaluator:
    """Probability of a conjunction of atoms under one compiled round.

    Unnamed vertices w enter through ``pi[w, u]``, their probability of
    proposing to B vertex u.  The ``b_unmatched`` atoms' B vertices Z cost
    prod_w (1 - pi_w(Z)) and leave w independent with law
    pi_w(u) / (1 - pi_w(Z)).  An order factor at a B vertex with k named
    and c unnamed proposers is 1/(k+c) for the winner and (k+c-1)/(k+c)
    for a loser, averaged over the law of c.

    Everything that depends only on the named vertices and Z (the joint
    table, the unnamed scale, the rows that keep Z free, the count laws and
    the order factors) is built once per evaluator and shared by the
    conjunctions that need it.
    """

    def __init__(self, rnd) -> None:
        aug = rnd.aug
        self.rnd = rnd
        self.edge_a = [e.a for e in aug.edges]
        # a trailing -1 so that indexing with "no proposal" (-1) yields -1
        self.edge_b = np.array([e.b for e in aug.edges] + [-1], dtype=np.int64)
        self.outcomes = [_vertex_outcomes(rnd, v) for v in range(aug.a_count)]
        self.pi = np.zeros((aug.a_count, aug.b_count))
        for v, out in enumerate(self.outcomes):
            for t, _, q in out:
                if t >= 0:
                    self.pi[v, self.edge_b[t]] += q
        self._laws: dict[tuple, np.ndarray] = {}
        self._factors: dict[tuple, float] = {}
        # per named-vertex tuple: its joint table and each row's B targets
        self._joints: dict[tuple, tuple[_JointTable, np.ndarray]] = {}
        # per (named, zero): the unnamed scale and each row's mass where no
        # named vertex proposes into zero
        self._bases: dict[tuple, tuple[float, np.ndarray]] = {}

    def _named(self, atom: Atom) -> int | None:
        kind = atom[0]
        if kind in ("matched", "examined", "not_examined"):
            return self.edge_a[atom[1]]
        if kind in ("a_unmatched", "proposed", "not_proposed", "beaten_proposal"):
            return atom[1]
        if kind == "b_unmatched":
            return None
        raise ValueError(f"unknown atom {atom!r}")

    def _joint(self, named) -> tuple[_JointTable, np.ndarray]:
        joint = self._joints.get(named)
        if joint is None:
            jt = _build_joint(self.rnd, self.outcomes, named)
            joint = self._joints[named] = (jt, self.edge_b[jt.prop])
        return joint

    def _base(self, named, zero) -> tuple[float, np.ndarray]:
        base = self._bases.get((named, zero))
        if base is None:
            unnamed = np.ones(len(self.pi), dtype=bool)
            unnamed[list(named)] = False
            scale = float(np.prod(1.0 - self.pi[unnamed][:, list(zero)].sum(axis=1)))
            jt, prop_b = self._joint(named)
            val = jt.mass * ~np.isin(prop_b, zero).any(axis=1)
            base = self._bases[(named, zero)] = (scale, val)
        return base

    def probability(self, conj: Conj) -> float:
        owners = [self._named(atom) for atom in conj]
        named = tuple(sorted({v for v in owners if v is not None}))
        col = {v: i for i, v in enumerate(named)}
        zero = tuple(sorted({atom[1] for atom in conj if atom[0] == "b_unmatched"}))
        jt, prop_b = self._joint(named)
        scale, val = self._base(named, zero)
        factors = []  # (B vertex per row or -1, wins)
        for atom, owner in zip(conj, owners):
            if owner is None:  # b_unmatched, handled through zero
                continue
            kind, i = atom[0], col[owner]
            if kind == "examined":
                val = val * jt.exam[:, atom[1]]
            elif kind == "not_examined":
                val = val * ~jt.exam[:, atom[1]]
            elif kind == "matched":
                val = val * (jt.prop[:, i] == atom[1])
                factors.append((np.full(len(val), self.edge_b[atom[1]]), True))
            elif kind == "a_unmatched":
                factors.append((prop_b[:, i], False))
            else:  # proposed, not_proposed, beaten_proposal
                hit = prop_b[:, i] == atom[2]
                val = val * (~hit if kind == "not_proposed" else hit)
                if kind == "beaten_proposal":
                    factors.append((np.full(len(val), atom[2]), False))
        if not factors or scale == 0.0:
            return scale * float(val.sum())
        live = val > 0.0
        us = np.column_stack([u[live] for u, _ in factors])
        ks = np.column_stack([(prop_b[live] == u[:, None]).sum(axis=1) for u in us.T])
        # one integer per row, equal exactly when (us, ks) rows are equal:
        # digit (u + 1) * (K + 1) + k per factor, with K = len(named) >= k
        radix = (len(self.pi[0]) + 1) * (len(named) + 1)
        code, span = np.zeros(len(us), dtype=np.int64), 1
        for u, k in zip(us.T, ks.T):
            if span * radix >= 2**63:  # re-rank before the next digit overflows
                code = np.unique(code, return_inverse=True)[1]
                span = len(code)
            code = code * radix + (u + 1) * (len(named) + 1) + k
            span *= radix
        _, first, inverse = np.unique(code, return_index=True, return_inverse=True)
        wins = [w for _, w in factors]
        expect = [self._order_factor(named, zero, us[r], ks[r], wins) for r in first]
        return scale * float(np.dot(val[live], np.array(expect)[inverse.ravel()]))

    def _order_factor(self, named, zero, us, ks, wins) -> float:
        """E[product of order factors] for one row's (B vertices, named
        proposer counts); a factor at B vertex -1 (no proposal) is 1."""
        active = tuple(sorted((int(u), int(k), w) for u, k, w in zip(us, ks, wins) if u >= 0))
        key = (named, zero, active)
        got = self._factors.get(key)
        if got is not None:
            return got
        at = tuple(u for u, _, _ in active)
        if len(set(at)) < len(at):
            raise NotImplementedError("two order factors on one B vertex")
        law = self._count_law(named, zero, at)
        f = 1.0
        for (_, k, win), c in zip(active, np.ix_(*map(np.arange, law.shape))):
            f = f * (1.0 / (k + c) if win else (k + c - 1.0) / (k + c))
        got = self._factors[key] = float((law * f).sum())
        return got

    def _count_law(self, named, zero, us) -> np.ndarray:
        """Joint law of the unnamed proposer counts at the B vertices
        ``us``, given that no unnamed vertex proposes into ``zero``."""
        key = (named, zero, us)
        law = self._laws.get(key)
        if law is not None:
            return law
        law = np.ones((1,) * len(us))
        near = self.pi[:, list(us)]
        for w in np.nonzero(near.sum(axis=1) > 0.0)[0]:
            if w in named:
                continue
            p = near[w] / (1.0 - self.pi[w, list(zero)].sum())
            # a count grows by one along each axis that w may propose to
            head = tuple(slice(0, n) for n in law.shape)
            grown = np.zeros([n + (q > 0.0) for n, q in zip(law.shape, p)])
            grown[head] = law * (1.0 - p.sum())
            for axis in np.nonzero(p)[0]:
                up = head[:axis] + (slice(1, law.shape[axis] + 1),) + head[axis + 1 :]
                grown[up] += p[axis] * law
            law = grown
        self._laws[key] = law
        return law


def exact_event_probabilities(
    graph: StochasticGraph,
    x,
    sigma: float | None,
    conditionals: Sequence[ConditionalKey] = (),
) -> ExactEventReport:
    """Exact event report for one round of the proposal rounding.

    A float ``sigma`` runs alg1's shrink-and-pad round at that cap;
    ``sigma=None`` runs the plain proportional round (``simple``).
    Conditionals are (target conjunction, given conjunction)
    pairs of atoms over original edge ids / vertex indices:

        ("matched", e) ("examined", e) ("not_examined", e)
        ("a_unmatched", v) ("b_unmatched", u)
        ("proposed", v, u) ("not_proposed", v, u) ("beaten_proposal", v, u)
    """
    sigma = None if sigma is None else float(sigma)
    rnd = _compile_round(DistributionCache(graph, x), sigma, range(len(graph.edges)))
    evaluator = _Evaluator(rnd)
    memo: dict[Conj, float] = {}

    def prob(*atoms: Atom) -> float:
        # atom order and repeats do not change a conjunction's probability
        key = tuple(sorted(set(atoms)))
        if key not in memo:
            memo[key] = evaluator.probability(key)
        return memo[key]

    edge_matched = [prob(("matched", e.id)) for e in graph.edges]
    conds: dict[ConditionalKey, float | None] = {}
    for target, given in conditionals:
        key = (tuple(map(tuple, target)), tuple(map(tuple, given)))
        denom = prob(*key[1])
        conds[key] = None if denom < CONDITION_MASS_FLOOR else prob(*key[0], *key[1]) / denom
    return ExactEventReport(
        edge_matched=tuple(edge_matched),
        edge_examined=tuple(prob(("examined", e.id)) for e in graph.edges),
        edge_available=tuple(
            prob(("not_examined", e.id), ("b_unmatched", e.b), ("a_unmatched", e.a))
            for e in graph.edges
        ),
        a_unmatched=tuple(prob(("a_unmatched", v)) for v in range(graph.a_count)),
        b_unmatched=tuple(prob(("b_unmatched", u)) for u in range(graph.b_count)),
        expected_weight=float(sum(e.w * q for e, q in zip(graph.edges, edge_matched))),
        conditionals=conds,
    )


_BUNDLES = ("lemma7", "unmatched-given-unexamined", "lemma8", "correlation",
            "proposal-correlation", "all")


def conditional_bundles(graph: StochasticGraph, which: str) -> list[ConditionalKey]:
    """Pre-canned conditional-event bundles.

    ``unmatched-given-unexamined`` (CLI token ``lemma7``): per edge, the A
    endpoint stays unmatched given the edge was not examined.
    ``correlation`` (CLI token ``lemma8``): per edge, the B endpoint stays
    unmatched given the A endpoint did and the edge was not examined.
    ``proposal-correlation``: pairs comparing a rival's proposal probability
    against the same event under a beaten-proposal conditioning.
    """
    if which not in _BUNDLES:
        raise ValueError(f"unknown bundle {which!r}; choose from {', '.join(_BUNDLES)}")
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
