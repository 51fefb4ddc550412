"""Analytic machinery for the rounding pipeline: the shrink map applied to
LP values before rounding, dummy-edge padding of B-side fractional degrees,
and the threshold functions behind the two-phase algorithm's guarantee.

``g_transform(x, sigma)`` shrinks an LP value so that, after padding every
B vertex to fractional degree exactly ``sigma``, the base rounding matches
each edge with probability at least ``(1 - e^-sigma) * x / sigma``.  The
formula

    g(x, s) = (e^s - 1) (s - x) x / (s (e^s - e^x))

has a removable singularity at ``x = s`` where the limit is ``1 - e^-s``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .instance import Edge, StochasticGraph, check_x_length

#: width of the window around x = sigma where the limit branch is used
_LIMIT_WINDOW = 1e-12

#: fractional-degree slack tolerated before dummy padding rejects the input
DEGREE_EPS = 1e-9


@dataclass(frozen=True)
class TransformParams:
    """Knobs of the two-phase rounding: per-B-vertex degree cap ``sigma``,
    heavy-edge threshold ``tau``, branch-selection threshold ``lam``."""

    sigma: float = 1.0
    tau: float = 0.8723
    lam: float = 0.1837

    def __post_init__(self) -> None:
        if not (0.0 < self.sigma <= 1.0):
            raise ValueError(f"sigma must lie in (0,1], got {self.sigma}")
        if not (0.75 <= self.tau < 1.0):
            raise ValueError(f"tau must lie in [3/4,1), got {self.tau}")
        if not (0.0 <= self.lam <= 1.0):
            raise ValueError(f"lambda must lie in [0,1], got {self.lam}")


def g_transform(x, sigma: float):
    """Shrink map; accepts scalars or numpy arrays with ``0 <= x <= sigma``."""
    if not (0.0 < sigma <= 1.0):
        raise ValueError(f"sigma must lie in (0,1], got {sigma}")
    arr = np.asarray(x, dtype=float)
    if np.any(arr < -1e-15) or np.any(arr > sigma + 1e-12):
        raise ValueError(f"x out of [0, {sigma}]")
    arr = np.clip(arr, 0.0, sigma)
    es = math.exp(sigma)
    at_limit = np.abs(arr - sigma) < _LIMIT_WINDOW
    safe = np.where(at_limit, 0.0, arr)
    with np.errstate(invalid="ignore"):
        val = (es - 1.0) * (sigma - safe) * safe / (sigma * (es - np.exp(safe)))
    val = np.where(at_limit, 1.0 - math.exp(-sigma), val)
    if np.ndim(x) == 0:
        return float(val)
    return val


def g_ratio(x, sigma: float):
    """``g_transform(x, sigma) / x`` extended by its limit 1 at ``x = 0``."""
    arr = np.asarray(x, dtype=float)
    at_zero = arr < 1e-300
    safe = np.where(at_zero, 1.0, arr)
    val = np.where(at_zero, 1.0, np.asarray(g_transform(np.where(at_zero, 0.0, arr), sigma)) / safe)
    if np.ndim(x) == 0:
        return float(val)
    return val


def add_dummy_edges(
    graph: StochasticGraph, x, sigma: float | None
) -> tuple[StochasticGraph, tuple[float, ...]]:
    """Pad every B vertex to fractional degree exactly ``sigma``.

    This is the one place that lays out the augmented graph of a proposal
    round: B vertex u gets a zero-weight, probability-one dummy edge with
    id ``m + u`` to a fresh degree-one A vertex ``a_count + u``.  The dummy
    carries u's missing mass when that exceeds 1e-12 and exactly 0.0
    otherwise, so a tight vertex's dummy never proposes; ``sigma=None``
    (plain proposal rounding) gives every dummy mass 0.  Original edge ids
    are unchanged.  Raises if some B vertex already exceeds ``sigma``
    beyond tolerance.
    """
    check_x_length(graph, x)
    x = [float(v) for v in x]
    m, n_a = len(graph.edges), graph.a_count
    new_x = list(x)
    for u in range(graph.b_count):
        gap = 0.0
        if sigma is not None:
            deg = sum(x[e] for e in graph.edges_at_b[u])
            if deg > sigma + DEGREE_EPS:
                raise ValueError(
                    f"B vertex {u} has fractional degree {deg} > sigma={sigma}"
                )
            gap = sigma - min(deg, sigma)
        new_x.append(gap if gap > 1e-12 else 0.0)
    dummies = tuple(
        Edge(id=m + u, a=n_a + u, b=u, w=0.0, p=1.0, is_dummy=True) for u in range(graph.b_count)
    )
    aug = StochasticGraph(a_count=n_a + graph.b_count, b_count=graph.b_count, edges=graph.edges + dummies)
    return aug, tuple(new_x)


# ---------------------------------------------------------------------------
# Threshold functions of the two-phase guarantee
# ---------------------------------------------------------------------------

MIN_TAU = 1.0 - 1.0 / math.e


@lru_cache(maxsize=256)
def ratio_crossing(tau: float) -> float:
    """Least x with ``g(x,1)/x <= tau``.

    The ratio decreases strictly from 1 (at x -> 0) to 1-1/e (at x = 1),
    so for ``tau`` in that range the crossing is the unique root of
    ``g(x,1)/x = tau``; found by bisection to 1e-9.
    """
    if not (MIN_TAU <= tau < 1.0):
        raise ValueError(f"tau must lie in [1-1/e, 1), got {tau}")
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if g_ratio(mid, 1.0) > tau:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def fixed_point_gap(x: float, tau: float) -> float:
    """``x - 1 + (1 - c/tau)^(x/c)`` with ``c = ratio_crossing(tau)``.

    Nonpositive exactly on [0, heavy_degree_bound(tau)]; the function is
    strictly convex with a single interior sign change.
    """
    c = ratio_crossing(tau)
    return x - 1.0 + (1.0 - c / tau) ** (x / c)


@lru_cache(maxsize=256)  # pure in tau; the engine plans every apx trial
def heavy_degree_bound(tau: float) -> float:
    """Largest x in (0,1] with ``x <= 1 - (1 - c/tau)^(x/c)``, c the ratio
    crossing.  This bounds the total LP mass of heavy edges at any B vertex,
    and is strictly below 1 for ``tau in [3/4, 1)``.
    """
    if not (0.75 <= tau < 1.0):
        raise ValueError(f"tau must lie in [3/4,1), got {tau}")
    hi = 1.0
    if fixed_point_gap(hi, tau) <= 0.0:  # cannot happen for tau in range; guards the bracket
        return 1.0
    lo = hi
    while fixed_point_gap(lo, tau) > 0.0:
        lo -= 0.01
        if lo <= 0.0:
            raise ArithmeticError("no sign change found bracketing from above")
    hi = lo + 0.01
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if fixed_point_gap(mid, tau) <= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def guaranteed_ratio(tau: float, lam: float) -> float:
    """Approximation-ratio guarantee of the two-branch algorithm.

    The two-pass branch yields ``(1-1/e) + ((1-1/e)^3/4) * lam * (1-tau)``;
    the heavy-only branch yields ``((1-e^-r)/r) * (1-lam)`` with
    ``r = heavy_degree_bound(tau)``.  The guarantee is their minimum.
    """
    if not (0.0 <= lam <= 1.0):
        raise ValueError(f"lambda must lie in [0,1], got {lam}")
    c = 1.0 - 1.0 / math.e
    two_pass = c + (c**3 / 4.0) * lam * (1.0 - tau)
    r = heavy_degree_bound(tau)
    heavy_only = (1.0 - math.exp(-r)) / r * (1.0 - lam)
    return min(two_pass, heavy_only)
