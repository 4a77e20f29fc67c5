"""Standalone verifiers for the sequence lemmas, convergence metric
extraction, and the barrier comparison report."""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .barrier import (BarrierKind, default_bound_sequence, ibp_probe,
                      verify_order)
from .engine import RunResult, _csv_lines

_SLACK = 1e-12
_ZERO_TOL = 1e-9


@dataclass(frozen=True)
class SequenceTriple:
    """r, s and d as float arrays; a d of None is stored as zeros, which
    is Lemma 1.  Empty or unequal lengths, a first r that is not finite,
    and a NaN anywhere raise ValueError."""
    r: np.ndarray
    s: np.ndarray
    d: np.ndarray | None = None  # None reads as zeros: Lemma 1
    d_bar: float | None = None

    def __post_init__(self):
        r = np.asarray(self.r, dtype=float)
        s = np.asarray(self.s, dtype=float)
        d = np.asarray(np.zeros_like(r) if self.d is None else self.d,
                       dtype=float)
        for name, a in (("r", r), ("s", s), ("d", d)):
            object.__setattr__(self, name, a)
        if len(d) != len(r):
            raise ValueError("d must match r in length")
        if len(r) != len(s):
            raise ValueError("r and s must have equal lengths")
        if len(r) == 0:
            raise ValueError("r and s are empty")
        if not math.isfinite(r[0]):
            raise ValueError("r[0] must be finite")
        for name, a in (("r", r), ("s", s), ("d", d)):
            # +-inf past r[0] is data (r_bounded reports it), NaN is not
            if np.isnan(a).any():
                raise ValueError(f"{name}[{np.isnan(a).argmax()}] is NaN")


@dataclass(frozen=True)
class LemmaVerdict:
    inequality_holds: bool
    first_violation: int | None
    s_tail_estimate: float   # tail-window max, the empirical limsup of s
    r_bounded: bool
    bound_respected: bool | None  # limsup s <= d_bar, when d_bar given
    s_vanishes: bool | None       # s tail ~ 0, reported when d tail ~ 0


def _tail(a: np.ndarray) -> np.ndarray:
    # last 25% of entries, at least one
    w = max(1, len(a) // 4)
    return a[len(a) - w:]


def lemma2_check(seq: SequenceTriple) -> LemmaVerdict:
    """Verify r_k <= r_{k-1} - s_k + d_k and the residual-limited limsup.

    A missing d reads as zeros, which is Lemma 1: r_k <= r_{k-1} - s_k.
    The lemma's coupling hypothesis (s vanishes whenever r does) is not
    checkable from finite data and is treated as an assumption.
    """
    r, s, d, d_bar = seq.r, seq.s, seq.d, seq.d_bar
    # one vector comparison, with a per-k loop's arithmetic in its order;
    # inf - inf (NaN, a violation) or an overflow may occur past the first
    # violation, where a loop stopping there would not have computed it
    with np.errstate(invalid="ignore", over="ignore"):
        bad = ~(r[1:] <= r[:-1] - s[1:] + d[1:] + _SLACK)
    holds = not bad.any()
    first = None if holds else int(bad.argmax()) + 1
    s_tail = float(np.max(_tail(s)))
    r_bounded = bool(np.all(np.isfinite(r)))
    bound_respected = None
    if d_bar is not None:
        bound_respected = bool(s_tail <= d_bar * (1.0 + _SLACK) + _SLACK)
    s_vanishes = None
    if float(np.max(np.abs(_tail(d)))) <= _ZERO_TOL:
        s_vanishes = bool(s_tail <= _ZERO_TOL)
    return LemmaVerdict(holds, first, s_tail, r_bounded, bound_respected,
                        s_vanishes)


lemma1_check = lemma2_check  # Lemma 1 is Lemma 2 with d = 0


@dataclass(frozen=True)
class ConvergenceMetrics:
    limsup_supV: float
    bound: float        # eps*T over the barrier scale: 2*eps*T for model II
    bound_ratio: float
    # model I: the measured radius alpha1^{-1}(limsup_supV); model II:
    # the guaranteed radius sqrt(bound / lambda_min(P))
    e_radius: float


def convergence_metrics(result: RunResult, eps: float, T: float) -> ConvergenceMetrics:
    """Tail-window limsup of the constrained quantity against the
    smoothed scheme's residual bound, plus the implied error radius.
    An eps or T that is not positive and finite (a Theorem-1 config's
    eps is None) raises ValueError naming it."""
    for name, value in (("eps", eps), ("T", T)):
        if value is None or not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value}")
    sup_V = np.array([s.sup_V for s in result.summaries])
    if len(sup_V) < 8:
        raise ValueError("need at least 8 iterations for a tail window")
    limsup = float(np.max(_tail(sup_V)))
    model = result.model
    bound = eps * T / model.barrier_scale
    ratio = limsup / bound if bound > 0 else float("inf")
    return ConvergenceMetrics(limsup, bound, ratio,
                              model.error_radius(limsup, bound))


# ordering relations asserted for the barrier catalog; the (FII, FIII)
# pair only applies for bounds <= 1
_RELATIONS = (
    ("LI", "FI", None),
    ("FI", "FIII", None),
    ("LII", "FIII", None),
    ("FII", "FIII", 1.0),
    ("FII", "FIV", None),
    ("FI", "FV", None),
    ("FII", "FV", None),
    ("FIII", "FV", None),
)

_IBP_EXPECTED = {
    "LI": None, "FI": None,
    "LII": 1.0, "FII": 1.0, "FIII": 1.0, "FV": 1.0,
    "FIV": 2.0,
}


@dataclass(frozen=True)
class RelationRow:
    lo: str
    hi: str
    b: float
    applicable: bool
    holds: bool | None


@dataclass(frozen=True)
class IbpRow:
    kind: str
    c_estimate: float
    ibp_holds: bool
    expected_c: float | None


@dataclass(frozen=True)
class BlfReport:
    relations: tuple[RelationRow, ...]
    ibp: tuple[IbpRow, ...]

    @property
    def all_hold(self) -> bool:
        rel_ok = all(r.holds for r in self.relations if r.applicable)
        ibp_ok = all(
            (row.expected_c is None and not row.ibp_holds)
            or (row.expected_c is not None and row.ibp_holds
                and abs(row.c_estimate - row.expected_c) <= 1e-4)
            for row in self.ibp)
        return rel_ok and ibp_ok

    def to_csv(self, path):
        rows = [["section", "lo_or_kind", "hi", "b", "applicable", "holds",
                 "c_estimate", "expected_c"]]
        rows += [["order", r.lo, r.hi, repr(r.b), str(int(r.applicable)),
                  "" if r.holds is None else str(int(r.holds)), "", ""]
                 for r in self.relations]
        rows += [["ibp", row.kind, "", "", "1", str(int(row.ibp_holds)),
                  repr(float(row.c_estimate)), "" if row.expected_c is None
                  else repr(float(row.expected_c))] for row in self.ibp]
        with open(path, "w", newline="") as fh:
            fh.write(_csv_lines(rows))

    def to_text(self) -> str:
        out = io.StringIO()
        out.write("ordering relations (lo <= hi for value, d1, d2):\n")
        for r in self.relations:
            status = "n/a" if not r.applicable else ("holds" if r.holds else "FAILS")
            out.write(f"  {r.lo:>4} <= {r.hi:<4} b={r.b:<6g} {status}\n")
        out.write("infinite barrier property (limit of f/V as b grows):\n")
        for row in self.ibp:
            verdict = "holds" if row.ibp_holds else "fails"
            out.write(f"  {row.kind:>4}: c ~ {row.c_estimate:.6g} ({verdict})\n")
        return out.getvalue()


def blf_report(bounds) -> BlfReport:
    """Verdict table for every asserted ordering relation and IBP probe."""
    if not bounds:
        raise ValueError("bounds must be nonempty")
    rel_rows = []
    for b in bounds:
        for lo, hi, max_b in _RELATIONS:
            applicable = max_b is None or b <= max_b
            holds = None
            if applicable:
                holds = verify_order(BarrierKind(lo), BarrierKind(hi), b).holds
            rel_rows.append(RelationRow(lo, hi, float(b), applicable, holds))
    seq = default_bound_sequence()
    ibp_rows = []
    for kind in BarrierKind:
        probe = ibp_probe(kind, 1.0, seq)
        ibp_rows.append(IbpRow(kind.value, probe.c_estimate, probe.ibp_holds,
                               _IBP_EXPECTED[kind.value]))
    return BlfReport(tuple(rel_rows), tuple(ibp_rows))
