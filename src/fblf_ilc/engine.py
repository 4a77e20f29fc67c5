"""Closed-loop ILC execution: per-iteration integration, in-loop learning,
and the theorem-level monitors.

Each iteration integrates the error dynamics with a classical 4th-order
fixed-step scheme on the learning grid.  At every node the engine reads
the state, builds the learning signal z, updates the parameter memory,
and forms the control input.  Across an interval the node estimate
theta_hat is held while state-dependent terms (z, rho, robust action)
are re-evaluated at the integrator stage states.

A barrier-domain breach (V >= bound at a node or stage) truncates the
iteration, flags it, and lets the run continue with the memory as
updated so far.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import plant
from .barrier import FORMS, BarrierKind
from .controller import ControllerConfig, robust_term
from .learner import ParamMemory, TimeGrid


class NonFiniteStateError(RuntimeError):
    """Integration produced a non-finite state (blow-up)."""


@dataclass
class IterationTrace:
    k: int
    t: np.ndarray        # (N+1,)
    e: np.ndarray        # (N+1, n)
    u: np.ndarray        # (N+1, m)
    V: np.ndarray        # (N+1,)  constrained quantity: V(e,t) or e'Pe
    theta_hat: np.ndarray  # (N+1, m)
    L: np.ndarray        # (N+1,)  filled by monitor_L
    breach: bool = False
    breach_node: int | None = None

    @property
    def valid(self) -> slice:
        end = self.breach_node if self.breach else len(self.t)
        return slice(0, end)


@dataclass
class IterationSummary:
    k: int
    sup_e: float
    sup_V: float
    L_T: float
    delta_L: float
    violations: int
    wall_time: float


@dataclass
class RunResult:
    model: object
    config: ControllerConfig
    theorem: int
    grid: TimeGrid
    summaries: list[IterationSummary] = field(default_factory=list)
    traces: list[IterationTrace] = field(default_factory=list)
    memory: ParamMemory | None = None

    @property
    def any_breach(self) -> bool:
        return any(tr.breach for tr in self.traces)


class _Breach(Exception):
    def __init__(self, node: int):
        self.node = node


# theorem -> the barrier kind whose value the monitor uses and whose d1
# weights the learning signal z = d1(V, bound) * grad
_THEOREM_KINDS = {1: BarrierKind.FII, 2: BarrierKind.FV}
# model II under Theorem 1 takes its gain from FI, not from FII: the
# gain be2/(be2 - V)^2 is FII's d1 divided by be2, so the two agree only
# at b_e = 1
_MODEL2_GAIN_KINDS = {1: BarrierKind.FI, 2: BarrierKind.FV}


def _bind(model, config: ControllerConfig, theorem: int):
    """Model/theorem-specific closures: (value, zvec, blf, rhs, bound).

    Model I constrains V(e, t) < b_V with gradient LgV; model II
    constrains e'Pe < b_e^2 with gradient B'Pe and halves the barrier.
    """
    if theorem not in _THEOREM_KINDS:
        raise ValueError("theorem must be 1 or 2")
    kind = _THEOREM_KINDS[theorem]
    w = model.uncertainty.w
    if isinstance(model, plant.ErrorModelI):
        value, grad = model.certificate.V, model.certificate.LgV
        bound, scale, gain_kind = config.bound, 1.0, kind
        f, g = model.f, model.g

        def rhs(t, e, u, xd):
            # dw + theta collapses to w evaluated at the actual state
            return f(e, t) + g(e, t) @ (u + w(xd + e, t))
    elif isinstance(model, plant.ErrorModelII):
        P, A, B = model.P, model.A, model.b
        BtP = B.T @ P
        bound, scale = config.bound ** 2, 0.5
        gain_kind = _MODEL2_GAIN_KINDS[theorem]

        def value(e, t):
            return float(e @ (P @ e))

        def grad(e, t):
            return BtP @ e

        def rhs(t, e, u, xd):
            return A @ e + B @ (u + w(xd + e, t))
    else:
        raise TypeError(f"unsupported model type {type(model)!r}")
    form, d1 = FORMS[kind][0], FORMS[gain_kind][1]

    def zvec(e, t, v):
        return d1(v, bound) * grad(e, t)

    def blf(v):
        return scale * form(v, bound)

    return value, zvec, blf, rhs, bound


def _xd_table(model, grid: TimeGrid) -> np.ndarray:
    """Desired trajectory sampled at nodes and interval midpoints."""
    half = np.linspace(0.0, grid.T, 2 * grid.N + 1)
    return np.stack([np.asarray(model.x_d(t), dtype=float) for t in half])


def run_iteration(model, config: ControllerConfig, memory: ParamMemory,
                  theorem: int = 1, k: int = 0,
                  xd_table: np.ndarray | None = None) -> IterationTrace:
    """Run one iteration of the closed loop, updating memory in place."""
    grid = memory.grid
    if abs(grid.T - model.T) > 1e-9:
        raise ValueError("memory grid horizon does not match model horizon")
    if xd_table is None:
        xd_table = _xd_table(model, grid)
    value, zvec, blf, rhs, bound = _bind(model, config, theorem)
    gamma = config.gamma
    n, m = model.n, model.m
    robust = robust_term(config, m)
    N, dt = grid.N, grid.dt
    nodes = grid.nodes

    tr = IterationTrace(
        k=k,
        t=nodes.copy(),
        e=np.full((N + 1, n), np.nan),
        u=np.full((N + 1, m), np.nan),
        V=np.full(N + 1, np.nan),
        theta_hat=np.full((N + 1, m), np.nan),
        L=np.full(N + 1, np.nan),
    )

    rho = model.uncertainty.rho
    e = np.zeros(n)  # alignment: x_k(0) = x_d(0)
    half_dt = 0.5 * dt
    try:
        for i in range(N + 1):
            t = nodes[i]
            v = value(e, t)
            if not v < bound:
                if not math.isfinite(v):
                    raise NonFiniteStateError(f"non-finite state at t={t}")
                raise _Breach(i)
            z = zvec(e, t, v)
            _, theta_hat = memory.update_node(i, z, gamma)
            u = -theta_hat - robust(z, rho(e, t))
            tr.e[i] = e
            tr.u[i] = u
            tr.V[i] = v
            tr.theta_hat[i] = theta_hat
            if i == N:
                break

            def deriv(ts, es, xd):
                vs = value(es, ts)
                if not vs < bound:
                    if not math.isfinite(vs):
                        raise NonFiniteStateError(f"non-finite state at t={ts}")
                    raise _Breach(i)
                s = robust(zvec(es, ts, vs), rho(es, ts))
                return rhs(ts, es, -theta_hat - s, xd)

            xd0 = xd_table[2 * i]
            xdh = xd_table[2 * i + 1]
            xd1 = xd_table[2 * i + 2]
            th = t + half_dt
            k1 = deriv(t, e, xd0)
            k2 = deriv(th, e + half_dt * k1, xdh)
            k3 = deriv(th, e + half_dt * k2, xdh)
            k4 = deriv(t + dt, e + dt * k3, xd1)
            e = e + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    except _Breach as br:
        tr.breach = True
        tr.breach_node = br.node
    return tr


def monitor_L(trace: IterationTrace, model, gamma: float,
              config: ControllerConfig, theorem: int = 1) -> np.ndarray:
    """Per-node Lyapunov-Krasovskii monitor.

    L(t) = BLF(V(t)) + (1/2 gamma) * integral of |theta - theta_hat|^2,
    with theta the true learnable uncertainty (simulation-only) and the
    integral taken by the trapezoid rule on the grid.  NaN past a breach.
    """
    _, _, blf, _, _ = _bind(model, config, theorem)
    sel = trace.valid
    t = trace.t[sel]
    if len(t) == 0:
        return trace.L
    theta = np.stack([plant.theta_true(model, ti) for ti in t])
    diff = theta - trace.theta_hat[sel]
    sq = np.sum(diff * diff, axis=1)
    dt = trace.t[1] - trace.t[0] if len(trace.t) > 1 else 0.0
    cum = np.concatenate(([0.0], np.cumsum(0.5 * dt * (sq[1:] + sq[:-1]))))
    trace.L[sel] = blf(trace.V[sel]) + cum / (2.0 * gamma)
    return trace.L


def run(model, config: ControllerConfig, K: int, N: int = 2000,
        theorem: int = 1) -> RunResult:
    """Execute K iterations threading the parameter memory."""
    if K < 1:
        raise ValueError("K must be >= 1")
    grid = TimeGrid(T=model.T, N=N)
    memory = ParamMemory(grid, m=model.m, bound=config.theta_bar)
    result = RunResult(model=model, config=config, theorem=theorem,
                       grid=grid, memory=memory)
    xd_table = _xd_table(model, grid)
    prev_LT = None
    for k in range(K):
        t0 = time.perf_counter()
        tr = run_iteration(model, config, memory, theorem=theorem, k=k,
                           xd_table=xd_table)
        monitor_L(tr, model, config.gamma, config, theorem=theorem)
        wall = time.perf_counter() - t0
        sel = tr.valid
        sup_e = float(np.max(np.linalg.norm(tr.e[sel], axis=1))) if sel.stop else float("nan")
        sup_V = float(np.max(tr.V[sel])) if sel.stop else float("nan")
        L_T = float(tr.L[-1]) if not tr.breach else float("nan")
        delta = L_T - prev_LT if (prev_LT is not None and np.isfinite(L_T)) else float("nan")
        result.traces.append(tr)
        result.summaries.append(IterationSummary(
            k=k, sup_e=sup_e, sup_V=sup_V, L_T=L_T, delta_L=delta,
            violations=int(tr.breach), wall_time=wall))
        if np.isfinite(L_T):
            prev_LT = L_T
    return result


@dataclass(frozen=True)
class DeltaLVerdict:
    k: int
    delta_L: float
    required: float  # ΔL must be <= required (+ slack)
    slack: float
    passed: bool


def check_delta_L(result: RunResult) -> list[DeltaLVerdict]:
    """Verify the per-iteration decrease of the monitor at t = T.

    For model I the bound uses V_{k-1}(T); for model II the BLF value
    W_{k-1}(T), with an additive eps*T allowance under the smoothed
    (theorem-2) scheme.
    """
    model, config, theorem = result.model, result.config, result.theorem
    _, _, blf, _, _ = _bind(model, config, theorem)
    residual = (config.eps or 0.0) * result.grid.T if theorem == 2 else 0.0
    verdicts = []
    for k in range(1, len(result.traces)):
        prev, cur = result.traces[k - 1], result.traces[k]
        if prev.breach or cur.breach:
            continue
        L_k = float(cur.L[-1])
        dL = L_k - float(prev.L[-1])
        if isinstance(model, plant.ErrorModelI):
            decrease = float(prev.V[-1])
        else:
            decrease = blf(float(prev.V[-1]))
        required = -decrease + residual
        slack = 1e-6 * (1.0 + abs(L_k))
        verdicts.append(DeltaLVerdict(k=k, delta_L=dL, required=required,
                                      slack=slack, passed=dL <= required + slack))
    return verdicts


def write_trace_csv(result: RunResult, path):
    """Per-node trace rows for all iterations."""
    model = result.model
    n, m = model.n, model.m
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        header = (["k", "t"] + [f"e{j}" for j in range(n)]
                  + [f"u{j}" for j in range(m)] + ["V", "L"]
                  + [f"theta_hat{j}" for j in range(m)] + ["breach"])
        wr.writerow(header)
        for tr in result.traces:
            for i in range(len(tr.t)):
                row = ([tr.k, repr(float(tr.t[i]))]
                       + [repr(float(x)) for x in tr.e[i]]
                       + [repr(float(x)) for x in tr.u[i]]
                       + [repr(float(tr.V[i])), repr(float(tr.L[i]))]
                       + [repr(float(x)) for x in tr.theta_hat[i]]
                       + [int(tr.breach and tr.breach_node is not None
                              and i >= tr.breach_node)])
                wr.writerow(row)


def write_summary_csv(result: RunResult, path):
    """Per-iteration summary rows."""
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["k", "sup_e", "sup_V", "L_T", "delta_L", "violations"])
        for s in result.summaries:
            wr.writerow([s.k, repr(s.sup_e), repr(s.sup_V), repr(s.L_T),
                         repr(s.delta_L), s.violations])
