"""Catalog of barrier Lyapunov functions with exact calculus.

Seven closed-form barriers of a Lyapunov value V with bound b > 0,
two logarithmic (LI, LII) and five fractional (FI..FV).  Each kind
carries analytic first and second derivatives, vectorized over V.

The second derivatives of the fractional kinds carry the factor 2
obtained by straightforward differentiation of the first derivative;
this is cross-checked against central finite differences in the test
suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np


class BarrierDomainError(ValueError):
    """Raised when V falls outside [0, b).

    Callers treat this as a constraint breach, not as a numerical
    overflow, so evaluation never returns infinity.
    """


class BarrierKind(Enum):
    LI = "LI"
    LII = "LII"
    FI = "FI"
    FII = "FII"
    FIII = "FIII"
    FIV = "FIV"
    FV = "FV"


def _check_domain(V, b):
    if not b > 0:
        raise BarrierDomainError(f"barrier bound must be positive, got {b}")
    V = np.asarray(V, dtype=float)
    if np.any(V < 0.0) or np.any(V >= b):
        raise BarrierDomainError(f"V outside [0, {b})")
    return V


# value, d/dV, d2/dV2 for each kind; V is an array or a float, b a scalar.
# The engine calls these forms directly, so their spelling fixes its
# output bit for bit: b * b and b ** 2 round differently for some b.
FORMS = {
    BarrierKind.LI: (
        lambda V, b: np.log(b / (b - V)),
        lambda V, b: 1.0 / (b - V),
        lambda V, b: 1.0 / (b - V) ** 2,
    ),
    BarrierKind.LII: (
        lambda V, b: V + np.log(b / (b - V)),
        lambda V, b: 1.0 + 1.0 / (b - V),
        lambda V, b: 1.0 / (b - V) ** 2,
    ),
    BarrierKind.FI: (
        lambda V, b: V / (b - V),
        lambda V, b: b / (b - V) ** 2,
        lambda V, b: 2.0 * b / (b - V) ** 3,
    ),
    BarrierKind.FII: (
        lambda V, b: b * V / (b - V),
        lambda V, b: b * b / (b - V) ** 2,
        lambda V, b: 2.0 * b ** 2 / (b - V) ** 3,
    ),
    BarrierKind.FIII: (
        lambda V, b: (b + 1.0 - V) * V / (b - V),
        lambda V, b: 1.0 + b / (b - V) ** 2,
        lambda V, b: 2.0 * b / (b - V) ** 3,
    ),
    BarrierKind.FIV: (
        lambda V, b: (2.0 * b - V) * V / (b - V),
        lambda V, b: 1.0 + b ** 2 / (b - V) ** 2,
        lambda V, b: 2.0 * b ** 2 / (b - V) ** 3,
    ),
    BarrierKind.FV: (
        lambda V, b: (b + 1.0) * V / (b - V),
        lambda V, b: b * (b + 1.0) / (b - V) ** 2,
        lambda V, b: 2.0 * b * (b + 1.0) / (b - V) ** 3,
    ),
}


def _apply(idx, kind, V, b):
    Va = _check_domain(V, b)
    out = FORMS[kind][idx](Va, b)
    if np.isscalar(V) or np.ndim(V) == 0:
        return float(out)
    return out


def blf_eval(kind: BarrierKind, V, b):
    """Barrier value at V; zero iff V is zero."""
    return _apply(0, kind, V, b)


def blf_d1(kind: BarrierKind, V, b):
    """First derivative w.r.t. V; strictly positive on (0, b)."""
    return _apply(1, kind, V, b)


def blf_d2(kind: BarrierKind, V, b):
    """Second derivative w.r.t. V (exact symbolic form)."""
    return _apply(2, kind, V, b)


@dataclass(frozen=True)
class OrderViolation:
    quantity: str  # "value", "d1" or "d2"
    V: float
    gap: float  # f_lo - f_hi at the violation (positive)


@dataclass(frozen=True)
class OrderVerdict:
    holds: bool
    first_violation: OrderViolation | None = None


def verify_order(lo: BarrierKind, hi: BarrierKind, b,
                 samples: int = 1000) -> OrderVerdict:
    """Check the dominance ordering lo <= hi on a sampled grid.

    The value and both derivatives of `hi` must be at least those of
    `lo` at every sample in [0, 0.99 b], within 1e-12.  The 1 % margin
    keeps samples away from the pole where cancellation noise dominates.
    """
    if samples < 2:
        raise ValueError("samples must be >= 2")
    if not b > 0:
        raise BarrierDomainError(f"barrier bound must be positive, got {b}")
    grid = np.linspace(0.0, 0.99 * b, samples)
    for name, fn in (("value", blf_eval), ("d1", blf_d1), ("d2", blf_d2)):
        gap = fn(lo, grid, b) - fn(hi, grid, b)
        bad = np.nonzero(gap > 1e-12)[0]
        if bad.size:
            i = int(bad[0])
            return OrderVerdict(False, OrderViolation(name, float(grid[i]),
                                                      float(gap[i])))
    return OrderVerdict(True)


@dataclass(frozen=True)
class IbpProbe:
    c_estimate: float  # empirical limit of f(V, b)/V along the bounds
    ibp_holds: bool


def ibp_probe(kind: BarrierKind, V, b_sequence) -> IbpProbe:
    """Probe the infinite barrier property along ascending bounds.

    Evaluates f(V, b)/V as b grows; the property holds when the last two
    ratios agree to 1e-6 (relative) and the last exceeds 1e-4, and fails
    when the ratio decays to zero.
    """
    if not V > 0:
        raise ValueError("V must be positive")
    bs = [float(b) for b in b_sequence]
    if len(bs) < 2 or any(b2 <= b1 for b1, b2 in zip(bs, bs[1:])):
        raise ValueError("b_sequence must be strictly increasing with >= 2 entries")
    ratios = [blf_eval(kind, V, b) / V for b in bs]
    limit = ratios[-1]
    converged = abs(ratios[-1] - ratios[-2]) <= 1e-6 * (1.0 + abs(limit))
    holds = converged and limit > 1e-4
    return IbpProbe(c_estimate=limit, ibp_holds=holds)


def default_bound_sequence():
    """The bounds 10, 100, ..., 1e8 for IBP probing."""
    return [10.0 ** k for k in range(1, 9)]
