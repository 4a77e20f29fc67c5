"""Catalog of barrier Lyapunov functions with exact calculus.

Seven closed-form barriers of a Lyapunov value V with a finite bound b > 0,
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


def _check_bound(b):
    """Every entry point checks b first: b = inf raises too."""
    if not 0 < b < math.inf:
        raise BarrierDomainError(
            f"barrier bound must be positive and finite, got {b}")


def _check_domain(V, b):
    # fmin/fmax skip NaN, so NaN passes as it fails every comparison;
    # the initial values pass an empty V
    if (np.fmin.reduce(V, axis=None, initial=np.inf) < 0.0
            or np.fmax.reduce(V, axis=None, initial=-np.inf) >= b):
        raise BarrierDomainError(f"V outside [0, {b})")
    return V


def _square(x):
    return x * x


def _cube(x):
    return x * x * x


# value, d/dV, d2/dV2 for each kind; V is an array or a float, b a scalar.
# The engine calls the value and d1 forms directly, never d2, so their
# spelling fixes its output bit for bit: b * b and b ** 2 round
# differently for some b.  The d2 forms spell the powers of x = b - V
# as products: numpy's array x ** 3 costs about five times x * x * x,
# and Python's pow rounds some squares and cubes apart from numpy's
# array loops, while IEEE products round the same on a float and an
# array.
FORMS = {
    BarrierKind.LI: (
        lambda V, b: np.log(b / (b - V)),
        lambda V, b: 1.0 / (b - V),
        lambda V, b: 1.0 / _square(b - V),
    ),
    BarrierKind.LII: (
        lambda V, b: V + np.log(b / (b - V)),
        lambda V, b: 1.0 + 1.0 / (b - V),
        lambda V, b: 1.0 / _square(b - V),
    ),
    BarrierKind.FI: (
        lambda V, b: V / (b - V),
        lambda V, b: b / (b - V) ** 2,
        lambda V, b: 2.0 * b / _cube(b - V),
    ),
    BarrierKind.FII: (
        lambda V, b: b * V / (b - V),
        lambda V, b: b * b / (b - V) ** 2,
        lambda V, b: 2.0 * b * b / _cube(b - V),
    ),
    BarrierKind.FIII: (
        lambda V, b: (b + 1.0 - V) * V / (b - V),
        lambda V, b: 1.0 + b / (b - V) ** 2,
        lambda V, b: 2.0 * b / _cube(b - V),
    ),
    BarrierKind.FIV: (
        lambda V, b: (2.0 * b - V) * V / (b - V),
        lambda V, b: 1.0 + b ** 2 / (b - V) ** 2,
        lambda V, b: 2.0 * b * b / _cube(b - V),
    ),
    BarrierKind.FV: (
        lambda V, b: (b + 1.0) * V / (b - V),
        lambda V, b: b * (b + 1.0) / (b - V) ** 2,
        lambda V, b: 2.0 * b * (b + 1.0) / _cube(b - V),
    ),
}


# Samples per block of an array input.  A form's temporaries for one
# block (256 KB each) stay in a core's cache, where a whole 2^20-sample
# array writes several fresh 8 MB temporaries per form to memory.
# 2^15 measured fastest of 2^12..2^17 (process time over 7 interleaved
# rounds on a 2-vCPU Xeon).
_BLOCK = 1 << 15


def _apply(idx, kind, V, b):
    """Form idx of kind at V, in V's shape.  Either path gives the bits of
    the form run on the whole array, for strided, Fortran-ordered and
    read-only inputs too; a larger array's output is allocated first."""
    _check_bound(b)
    form = FORMS[kind][idx]
    Va = np.asarray(V, dtype=float)
    if Va.size <= _BLOCK:
        # run whole; numpy's scalar ** rounds like Python's pow, its array
        # loops do not (the d1 forms' squares lie up to 2 ulps apart on
        # some samples), so a 0-d input stays 0-d and a float keeps its bits
        out = form(_check_domain(Va, b), b)
        return out if Va.shape else float(out)
    out = np.empty(Va.shape)
    src, dst = Va.reshape(-1), out.reshape(-1)
    for i in range(0, src.size, _BLOCK):
        dst[i:i + _BLOCK] = form(_check_domain(src[i:i + _BLOCK], b), b)
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
    _check_bound(b)
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
