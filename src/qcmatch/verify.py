"""Numeric certification of the analytic claims behind the rounding
pipeline.

Each check evaluates one claim over an explicit grid or a seeded random
sweep and records the worst violation and where it happened, so a failure
pinpoints the offending input.  Grid checks stand in for the places where
the source analysis argues "by plotting": a dense grid with 1e-9 slack is
the reproducible counterpart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from . import mcsim, oracle
from .instance import make_graph
from .transform import (
    TransformParams,
    g_transform,
    guaranteed_ratio,
    heavy_degree_bound,
    ratio_crossing,
)

SUITES = ("g", "split", "fact1", "minprod", "constants", "limit")

#: slack for grid inequalities
GRID_TOL = 1e-9


@dataclass(frozen=True)
class CheckRecord:
    name: str
    domain: str
    passed: bool
    worst: float
    where: str
    values: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # checks compute with numpy, whose np.bool_ json cannot encode; store
        # plain Python scalars so every report serialises
        object.__setattr__(self, "passed", bool(self.passed))
        object.__setattr__(self, "worst", float(self.worst))
        object.__setattr__(self, "values", {k: float(v) for k, v in self.values.items()})


@dataclass(frozen=True)
class VerificationReport:
    records: tuple[CheckRecord, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "records": [
                {
                    "name": r.name,
                    "domain": r.domain,
                    "passed": r.passed,
                    "worst_violation": r.worst,
                    "worst_at": r.where,
                    "values": dict(r.values),
                }
                for r in self.records
            ],
        }


def _record_max(name, domain, values, locations, bound=GRID_TOL, extra=None) -> CheckRecord:
    """Violations are ``values``; pass iff all <= bound."""
    values = np.asarray(values, dtype=float)
    idx = int(np.argmax(values)) if len(values) else 0
    worst = float(values[idx]) if len(values) else 0.0
    return CheckRecord(
        name=name,
        domain=domain,
        passed=worst <= bound,
        worst=worst,
        where=str(locations[idx]) if len(values) else "",
        values=extra or {},
    )


# ---------------------------------------------------------------------------
# Shrink-map claims
# ---------------------------------------------------------------------------

def verify_g_claims(step: float = 1e-3, g_fn: Callable | None = None) -> VerificationReport:
    """Grid check of the shrink map: 0 <= g <= x, g/x strictly decreasing,
    ratio -> 1 at 0, value -> 1 - e^-sigma at sigma."""
    if not (0.0 < step <= 0.1):
        raise ValueError("step must lie in (0, 0.1]")
    g = g_fn if g_fn is not None else g_transform
    records = []
    sigmas = np.arange(0.05, 1.0 + 1e-12, 0.05)
    upper, upper_loc = [], []
    lower, lower_loc = [], []
    mono, mono_loc = [], []
    ends, ends_loc = [], []
    for s in sigmas:
        xs = np.arange(0.0, s + step / 2, step)
        xs[-1] = s
        vals = np.asarray(g(xs, float(s)))
        upper.append(np.max(vals - xs))
        upper_loc.append((float(s), float(xs[int(np.argmax(vals - xs))])))
        lower.append(np.max(-vals))
        lower_loc.append((float(s), float(xs[int(np.argmax(-vals))])))
        ratio = vals[1:] / xs[1:]
        diffs = np.diff(ratio)  # must be strictly negative
        if len(diffs):
            mono.append(np.max(diffs))
            mono_loc.append((float(s), float(xs[1 + int(np.argmax(diffs))])))
        ratio_at_zero = float(np.asarray(g(1e-8, float(s)))) / 1e-8
        ends.append(abs(ratio_at_zero - 1.0) - 1e-6)
        ends_loc.append((float(s), "ratio at 0"))
        val_at_cap = float(np.asarray(g(s - 1e-7, float(s))))
        ends.append(abs(val_at_cap - (1.0 - math.exp(-s))) - 1e-6)
        ends_loc.append((float(s), "value at sigma"))
    records.append(_record_max("g_at_most_x", "sigma in {0.05..1}, x in [0,sigma]", upper, upper_loc, 1e-12))
    records.append(_record_max("g_nonnegative", "same grid", lower, lower_loc, 1e-12))
    records.append(_record_max("g_ratio_strictly_decreasing", "same grid", mono, mono_loc, -0.0))
    records.append(_record_max("g_endpoint_limits", "per sigma", ends, ends_loc, 0.0))
    cap = float(np.asarray(g(1.0, 1.0)))
    records.append(
        CheckRecord(
            name="g_cap_value",
            domain="sigma=1, x=1",
            passed=abs(cap - (1.0 - 1.0 / math.e)) <= 1e-12,
            worst=abs(cap - (1.0 - 1.0 / math.e)),
            where="x=sigma=1",
            values={"g(1,1)": cap},
        )
    )
    return VerificationReport(records=tuple(records))


def split_expression(sigma, x):
    """The exchange-step expression whose nonpositivity underlies the
    per-edge lower bound; array-aware, singular at x = sigma."""
    s = np.asarray(sigma, dtype=float)
    xx = np.asarray(x, dtype=float)
    es = np.exp(s)
    half = np.exp(xx / 2.0)
    full = np.exp(xx)
    return (
        -8.0 * (s - xx / 2.0) / (es - half)
        + (es - 1.0) * (s - xx / 2.0) ** 2 * xx / (s * (es - half) ** 2)
        + 8.0 * (s - xx) / (es - full)
    )


def split_expression_at_cap(sigma):
    """Limit of the expression at x = sigma: the last term tends to
    8 e^-sigma."""
    s = np.asarray(sigma, dtype=float)
    es = np.exp(s)
    half = np.exp(s / 2.0)
    return (
        -8.0 * (s / 2.0) / (es - half)
        + (es - 1.0) * (s / 2.0) ** 2 * s / (s * (es - half) ** 2)
        + 8.0 * np.exp(-s)
    )


def verify_split_inequality(step: float = 1e-3) -> VerificationReport:
    """Grid check that the exchange-step expression stays nonpositive over
    sigma in (0,1], x in [0,sigma]; a 1e-6 band below x=sigma is replaced
    by the analytic limit."""
    if not (0.0 < step <= 0.1):
        raise ValueError("step must lie in (0, 0.1]")
    sigmas = np.arange(step, 1.0 + step / 2, step)
    worst = -math.inf
    where = ""
    for s in sigmas:
        xs = np.arange(0.0, s - 1e-6, step)
        if len(xs):
            vals = split_expression(float(s), xs)
            i = int(np.argmax(vals))
            if vals[i] > worst:
                worst = float(vals[i])
                where = f"sigma={float(s):.6g}, x={float(xs[i]):.6g}"
        cap = float(split_expression_at_cap(float(s)))
        if cap > worst:
            worst = cap
            where = f"sigma={float(s):.6g}, x=sigma (limit)"
    rec = CheckRecord(
        name="split_expression_nonpositive",
        domain=f"sigma in (0,1] step {step}, x in [0,sigma] minus 1e-6 band",
        passed=worst <= GRID_TOL,
        worst=worst,
        where=where,
    )
    return VerificationReport(records=(rec,))


# ---------------------------------------------------------------------------
# Probability inequalities
# ---------------------------------------------------------------------------

def verify_hit_probability_bound(
    step: float = 1e-3, trials: int = 10**5, seed: int = 0
) -> VerificationReport:
    """At-least-one-success bound for independent Bernoullis:
    1 - prod(1-q_i) >= 1 - e^{-sum q} >= (sum q)(1 - 1/e) for sum q <= 1."""
    ss = np.arange(0.0, 1.0 + step / 2, step)
    scalar_viol = ss * (1.0 - 1.0 / math.e) - (1.0 - np.exp(-ss))
    i = int(np.argmax(scalar_viol))
    rec1 = CheckRecord(
        name="scalar_exponential_bound",
        domain=f"s in [0,1] step {step}",
        passed=float(scalar_viol[i]) <= 1e-12,
        worst=float(scalar_viol[i]),
        where=f"s={float(ss[i]):.6g}",
    )
    rng = np.random.default_rng(seed)
    k = rng.integers(1, 9, size=trials)
    worst = -math.inf
    where = ""
    for kk in range(1, 9):
        n = int((k == kk).sum())
        if n == 0:
            continue
        q = rng.random((n, kk))
        scale = rng.random(n) / np.maximum(q.sum(axis=1), 1e-12)
        q = q * np.minimum(scale, 1.0 / np.maximum(q.sum(axis=1), 1e-12))[:, None]
        lhs = 1.0 - np.prod(1.0 - q, axis=1)
        rhs = 1.0 - np.exp(-q.sum(axis=1))
        viol = rhs - lhs
        j = int(np.argmax(viol))
        if float(viol[j]) > worst:
            worst = float(viol[j])
            where = f"k={kk}, q={np.round(q[j], 6).tolist()}"
    rec2 = CheckRecord(
        name="product_exponential_bound",
        domain=f"{trials} random Bernoulli vectors, sum q <= 1",
        passed=worst <= 1e-12,
        worst=worst,
        where=where,
    )
    return VerificationReport(records=(rec1, rec2))


def verify_min_product_bound(trials: int = 10**5, seed: int = 0) -> VerificationReport:
    """prod(1-a_i) >= (1-c)^{s/c} for a_i in [0,c] with sum s."""
    rng = np.random.default_rng(seed)
    worst = -math.inf
    where = ""
    for _ in range(8):
        n = trials // 8
        kk = int(rng.integers(1, 11))
        c = rng.uniform(1e-3, 1.0, size=n)
        a = rng.random((n, kk)) * c[:, None]
        s = a.sum(axis=1)
        lhs = np.prod(1.0 - a, axis=1)
        with np.errstate(divide="ignore"):
            rhs = np.where(c >= 1.0, np.where(s > 0, 0.0, 1.0), (1.0 - c) ** (s / c))
        viol = rhs - lhs
        j = int(np.argmax(viol))
        if float(viol[j]) > worst:
            worst = float(viol[j])
            where = f"k={kk}, c={float(c[j]):.6g}, s={float(s[j]):.6g}"
    # tight case: all a_i equal to c
    eq = np.prod(1.0 - np.full(4, 0.3)) - (1.0 - 0.3) ** (1.2 / 0.3)
    rec = CheckRecord(
        name="min_product_bound",
        domain=f"{trials} random (c, k, a) draws",
        passed=worst <= 1e-12 and abs(eq) <= 1e-12,
        worst=max(worst, abs(eq)),
        where=where,
    )
    return VerificationReport(records=(rec,))


# ---------------------------------------------------------------------------
# Constants of the final guarantee
# ---------------------------------------------------------------------------

def verify_constants() -> VerificationReport:
    """Recompute every constant of the final guarantee and check the claimed
    bounds; also sweep (tau, lambda) on a 1e-3 grid for the numerically best
    pair (informational, not a gate)."""
    tau, lam = 0.8723, 0.1837
    records = []
    crossing = ratio_crossing(tau)
    records.append(
        CheckRecord(
            name="ratio_crossing_bracket",
            domain="tau=0.8723",
            passed=0.31719 <= crossing <= 0.3172,
            worst=max(0.31719 - crossing, crossing - 0.3172),
            where=f"crossing={crossing:.9f}",
            values={"crossing": crossing},
        )
    )
    bound = heavy_degree_bound(tau)
    gap_at_claim = 0.5303 - 1.0 + (1.0 - crossing / tau) ** (0.5303 / crossing)
    records.append(
        CheckRecord(
            name="heavy_degree_bound_claim",
            domain="tau=0.8723",
            passed=bound <= 0.5303 and gap_at_claim > 0.0,
            worst=bound - 0.5303,
            where=f"bound={bound:.9f}, gap(0.5303)={gap_at_claim:.3e}",
            values={"bound": bound, "gap_at_0.5303": gap_at_claim},
        )
    )
    # the source's own interval arithmetic for the same gap, reproduced
    mixed = 0.5303 - 1.0 + (1.0 - 0.3172 / tau) ** (0.5303 / 0.31719)
    records.append(
        CheckRecord(
            name="gap_interval_arithmetic",
            domain="claimed-value reproduction",
            passed=abs(mixed - 6.3e-7) <= 1e-7,
            worst=abs(mixed - 6.3e-7),
            where=f"mixed-bound gap={mixed:.4e}",
            values={"mixed_gap": mixed},
        )
    )
    heavy_rate = (1.0 - math.exp(-0.5303)) / 0.5303
    records.append(
        CheckRecord(
            name="heavy_branch_rate",
            domain="rho=0.5303",
            passed=heavy_rate > 0.7761,
            worst=0.7761 - heavy_rate,
            where=f"rate={heavy_rate:.9f}",
            values={"rate": heavy_rate},
        )
    )
    ratio = guaranteed_ratio(tau, lam)
    floor = 1.0 - 1.0 / math.e + 0.0014
    records.append(
        CheckRecord(
            name="final_ratio",
            domain="tau=0.8723, lambda=0.1837",
            passed=ratio >= 0.63353 - 1e-5 and ratio >= floor,
            worst=max(0.63353 - 1e-5 - ratio, floor - ratio),
            where=f"ratio={ratio:.9f}",
            values={"ratio": ratio, "beats_baseline_by": ratio - (1.0 - 1.0 / math.e)},
        )
    )
    taus = np.arange(0.75, 0.99 + 1e-9, 1e-3)
    cross_ok = all(ratio_crossing(t) / t < 1.0 for t in taus)
    bound_ok = all(heavy_degree_bound(t) < 1.0 for t in taus)
    records.append(
        CheckRecord(
            name="threshold_sanity_sweep",
            domain="tau in [0.75,0.99] step 1e-3",
            passed=cross_ok and bound_ok,
            worst=0.0 if (cross_ok and bound_ok) else 1.0,
            where="crossing/tau < 1 and degree bound < 1",
        )
    )
    lams = np.arange(0.0, 1.0 + 1e-9, 1e-3)
    c = 1.0 - 1.0 / math.e
    best_val, best_tau, best_lam = -1.0, tau, lam
    for t in taus:
        r = heavy_degree_bound(float(t))
        rate = (1.0 - math.exp(-r)) / r
        vals = np.minimum(c + (c**3 / 4.0) * lams * (1.0 - t), rate * (1.0 - lams))
        j = int(np.argmax(vals))
        if float(vals[j]) > best_val:
            best_val, best_tau, best_lam = float(vals[j]), float(t), float(lams[j])
    records.append(
        CheckRecord(
            name="parameter_sweep",
            domain="tau x lambda grid, step 1e-3 (informational)",
            passed=True,
            worst=0.0,
            where=f"best ratio {best_val:.6f} at tau={best_tau:.4f}, lambda={best_lam:.4f}",
            values={
                "best_ratio": best_val,
                "best_tau": best_tau,
                "best_lambda": best_lam,
                "matches_adopted_pair": float(
                    abs(best_tau - tau) <= 5e-3 and abs(best_lam - lam) <= 5e-3
                ),
            },
        )
    )
    return VerificationReport(records=tuple(records))


# ---------------------------------------------------------------------------
# Limit behaviour of the per-edge match probability
# ---------------------------------------------------------------------------

def verify_limit_convergence(
    ks: tuple[int, ...] = (1, 2, 3, 4, 5, 50, 200),
    mc_k: int = 50,
    mc_trials: int = 10**6,
    seed: int = 0,
) -> VerificationReport:
    """Star-family check that the per-edge match probability converges to
    (1 - e^-sigma) x / sigma as one B vertex's rival edges are split ever
    finer; exact for each rival count in ``ks``, Monte Carlo at ``mc_k``."""
    records = []

    # no rivals, full budget: the probability is the limit exactly
    g0 = make_graph(1, 1, [(0, 0, 1.0, 1.0)])
    rep0 = oracle.exact_event_probabilities(g0, [1.0], 1.0)
    limit0 = 1.0 - 1.0 / math.e
    records.append(
        CheckRecord(
            name="limit_no_rivals",
            domain="x=sigma=1, k=0",
            passed=abs(rep0.edge_matched[0] - limit0) <= 1e-9,
            worst=abs(rep0.edge_matched[0] - limit0),
            where=f"P={rep0.edge_matched[0]:.12f}",
        )
    )

    x_e, sigma = 0.5, 1.0
    limit = (1.0 - math.exp(-sigma)) * x_e / sigma
    devs = []
    for k in ks:
        rival = (sigma - x_e) / k
        triples = [(0, 0, 1.0, 1.0)] + [(1 + i, 0, 1.0, 1.0) for i in range(k)]
        g = make_graph(1 + k, 1, triples)
        xs = [x_e] + [rival] * k
        rep = oracle.exact_event_probabilities(g, xs, sigma)
        devs.append(abs(rep.edge_matched[0] - limit))
    shrink_viol = max(
        (devs[i + 1] - devs[i] for i in range(len(devs) - 1)), default=-1.0
    )
    records.append(
        CheckRecord(
            name="limit_deviation_shrinks",
            domain=f"k in {list(ks)}, x=0.5, sigma=1",
            passed=shrink_viol <= 0.0,
            worst=shrink_viol,
            where=f"deviations={[round(d, 8) for d in devs]}",
            values={f"dev_k{k}": d for k, d in zip(ks, devs)},
        )
    )

    rival = (sigma - x_e) / mc_k
    triples = [(0, 0, 1.0, 1.0)] + [(1 + i, 0, 1.0, 1.0) for i in range(mc_k)]
    g = make_graph(1 + mc_k, 1, triples)
    xs = [x_e] + [rival] * mc_k
    res = mcsim.run_batch(g, xs, "alg1", TransformParams(sigma=sigma), mc_trials, seed)
    freq = res.edge_match_freq[0]
    se = math.sqrt(max(freq * (1.0 - freq), 1e-12) / mc_trials)
    records.append(
        CheckRecord(
            name="limit_large_k_monte_carlo",
            domain=f"k={mc_k}, {mc_trials} trials, seed {seed}",
            passed=abs(freq - limit) <= 4.0 * se + 0.01,
            worst=abs(freq - limit) - (4.0 * se + 0.01),
            where=f"freq={freq:.6f}, limit={limit:.6f}",
        )
    )
    return VerificationReport(records=tuple(records))


# ---------------------------------------------------------------------------
# Suite runner
# ---------------------------------------------------------------------------

def run_suite(name: str, *, grid_step: float = 1e-3, seed: int = 0) -> VerificationReport:
    if name == "g":
        return verify_g_claims(grid_step)
    if name == "split":
        return verify_split_inequality(grid_step)
    if name == "fact1":
        return verify_hit_probability_bound(grid_step, seed=seed)
    if name == "minprod":
        return verify_min_product_bound(seed=seed)
    if name == "constants":
        return verify_constants()
    if name == "limit":
        return verify_limit_convergence(seed=seed)
    if name == "all":
        records: list[CheckRecord] = []
        for s in SUITES:
            records.extend(run_suite(s, grid_step=grid_step, seed=seed).records)
        return VerificationReport(records=tuple(records))
    raise ValueError(f"unknown suite {name!r}; choose from {SUITES + ('all',)}")
