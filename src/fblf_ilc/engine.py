"""Closed-loop ILC execution: per-iteration integration, in-loop learning,
and the theorem-level monitors.

Each iteration integrates the error dynamics with a classical 4th-order
fixed-step scheme on the learning grid.  At every node the engine reads
the state, builds the learning signal z, updates the parameter memory,
and forms the control input.  Across an interval the node estimate
theta_hat is held, so the node's evaluation is the first integrator
stage; the state-dependent terms (z, rho, robust action) are
re-evaluated at the other three stage states.

A barrier-domain breach (V >= bound at a node or stage) truncates the
iteration, flags it, and lets the run continue with the memory as
updated so far.
"""

from __future__ import annotations

import csv
import math
import operator
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import plant
from .barrier import FORMS, BarrierKind
from .controller import ControllerConfig, robust_term
from .learner import ParamMemory, TimeGrid, sat


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
    """V reached the bound at a node or stage of the current interval."""


def _identity(a):
    return a


def _wrap(x: float) -> np.ndarray:
    # faster than np.array([x])
    a = np.empty(1)
    a[0] = x
    return a


def _item(a) -> float:
    # a model callable may return a one-element array or a plain number
    return a.item() if isinstance(a, np.ndarray) else float(a)


class _Shape(NamedTuple):
    """The primitives through which one closed loop serves both shapes."""
    wrap: Callable     # loop state -> the array a model callable receives
    unwrap: Callable   # a model's vector or matrix -> the loop's form
    dot: Callable      # inner product, as a float
    matvec: Callable   # matrix (in the loop's form) times vector
    clamp: Callable    # component-wise clamp to [-b, b]
    row: Callable      # row i of a 2-D array, in the loop's form
    zeros: Callable    # zero vector of a given length


# n = m = 1: the loop runs on Python floats.  numpy's one-term matmul and
# dot add their product to 0.0, which turns -0.0 into 0.0, so the float
# dot and matvec do too; every other operation is the same IEEE operation
# on a float as on a one-element array.
_FLOAT = _Shape(
    wrap=_wrap,
    unwrap=_item,
    dot=lambda a, b: 0.0 + a * b,
    matvec=lambda M, x: 0.0 + M * x,
    clamp=lambda v, b: min(max(v, -b), b),
    row=lambda a, i: a.item(i, 0),
    zeros=lambda n: 0.0,
)
_ARRAY = _Shape(
    wrap=_identity,
    unwrap=_identity,
    dot=lambda a, b: float(a @ b),
    matvec=operator.matmul,
    clamp=sat,
    row=operator.getitem,
    zeros=np.zeros,
)


class _Loop(NamedTuple):
    """A model/theorem pair bound for the closed loop.

    The state-dependent closures take the stage state twice: e in the
    loop's shape, x as the array the model's callables receive (the same
    object as e in the array shape).
    """
    shape: _Shape
    value: Callable    # (x, e, t) -> V, the constrained quantity
    zvec: Callable     # (x, e, t, V) -> z, the learning signal
    rhs: Callable      # (x, e, t, u, x_d) -> de/dt
    blf: Callable      # V -> the monitor's barrier
    bound: float


# theorem -> the monitor's barrier kind (the model type names the gain's)
_THEOREM_KINDS = {1: BarrierKind.FII, 2: BarrierKind.FV}


def _bind(model, config: ControllerConfig, theorem: int) -> _Loop:
    """The model type's constraint terms bound for the closed loop, on
    Python floats for n = m = 1 and on numpy arrays otherwise.  The
    learning signal is z = d1(V, bound) * grad, d1 of the gain kind."""
    if theorem not in _THEOREM_KINDS:
        raise ValueError("theorem must be 1 or 2")
    shape = _FLOAT if model.n == model.m == 1 else _ARRAY
    value, grad, rhs = model.loop_terms(shape)
    bound = config.bound ** model.bound_power
    scale = model.barrier_scale
    form = FORMS[_THEOREM_KINDS[theorem]][0]
    d1 = FORMS[model.gain_kinds[theorem]][1]

    def zvec(x, e, t, v):
        return d1(v, bound) * grad(x, e, t)

    def blf(v):
        return scale * form(v, bound)

    return _Loop(shape, value, zvec, rhs, blf, bound)


def _xd_table(model, grid: TimeGrid) -> np.ndarray:
    """Desired trajectory sampled at nodes and interval midpoints."""
    half = np.linspace(0.0, grid.T, 2 * grid.N + 1)
    return np.stack([np.asarray(model.x_d(t), dtype=float) for t in half])


def _theta_table(model, nodes: np.ndarray) -> np.ndarray:
    """The learnable uncertainty theta(t) at the nodes, for the monitor."""
    return np.stack([plant.theta_true(model, t) for t in nodes])


def run_iteration(model, config: ControllerConfig, memory: ParamMemory,
                  theorem: int = 1, k: int = 0,
                  xd_table: np.ndarray | None = None) -> IterationTrace:
    """Run one iteration of the closed loop, updating memory in place."""
    grid = memory.grid
    if abs(grid.T - model.T) > 1e-9:
        raise ValueError("memory grid horizon does not match model horizon")
    if xd_table is None:
        xd_table = _xd_table(model, grid)
    shape, value, zvec, rhs, _, bound = _bind(model, config, theorem)
    wrap, clamp, row = shape.wrap, shape.clamp, shape.row
    gamma = config.gamma
    n, m = model.n, model.m
    robust = robust_term(config, shape.zeros(m), shape.dot)
    update = memory.update_node
    N, dt = grid.N, grid.dt
    nodes = grid.nodes
    times = nodes.tolist()

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

    def probe(t, e):
        x = wrap(e)
        v = value(x, e, t)
        if not v < bound:
            if not math.isfinite(v):
                raise NonFiniteStateError(f"non-finite state at t={t}")
            raise _Breach
        return x, v, zvec(x, e, t, v)

    def deriv(t, e, xd):
        # node i's estimate theta_hat is held across its interval
        x, _, z = probe(t, e)
        return rhs(x, e, t, -theta_hat - robust(z, rho(x, t)), xd)

    e = shape.zeros(n)  # alignment: x_k(0) = x_d(0)
    half_dt = 0.5 * dt
    try:
        for i in range(N + 1):
            t = times[i]
            x, v, z = probe(t, e)
            _, theta_hat = update(i, z, gamma, clamp, row)
            u = -theta_hat - robust(z, rho(x, t))
            tr.e[i] = e
            tr.u[i] = u
            tr.V[i] = v
            tr.theta_hat[i] = theta_hat
            if i == N:
                break

            xdh = row(xd_table, 2 * i + 1)
            th = t + half_dt
            k1 = rhs(x, e, t, u, row(xd_table, 2 * i))
            k2 = deriv(th, e + half_dt * k1, xdh)
            k3 = deriv(th, e + half_dt * k2, xdh)
            k4 = deriv(t + dt, e + dt * k3, row(xd_table, 2 * i + 2))
            e = e + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    except _Breach:
        tr.breach = True
        tr.breach_node = i
    return tr


def monitor_L(trace: IterationTrace, model, config: ControllerConfig,
              theorem: int = 1,
              theta_table: np.ndarray | None = None) -> np.ndarray:
    """Per-node Lyapunov-Krasovskii monitor.

    L(t) = BLF(V(t)) + (1/2 gamma) * integral of |theta - theta_hat|^2,
    with theta the true learnable uncertainty (simulation-only) and the
    integral taken by the trapezoid rule on the grid and gamma the
    learning gain of config.  NaN past a breach.  theta_table, theta at
    every node, is computed when not given.
    """
    blf = _bind(model, config, theorem).blf
    sel = trace.valid
    if not sel.stop:
        return trace.L
    if theta_table is None:
        theta_table = _theta_table(model, trace.t)
    diff = theta_table[sel] - trace.theta_hat[sel]
    sq = np.sum(diff * diff, axis=1)
    dt = trace.t[1] - trace.t[0] if len(trace.t) > 1 else 0.0
    cum = np.concatenate(([0.0], np.cumsum(0.5 * dt * (sq[1:] + sq[:-1]))))
    trace.L[sel] = blf(trace.V[sel]) + cum / (2.0 * config.gamma)
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
    theta_table = _theta_table(model, grid.nodes)
    prev_LT = None
    for k in range(K):
        tr = run_iteration(model, config, memory, theorem=theorem, k=k,
                           xd_table=xd_table)
        monitor_L(tr, model, config, theorem=theorem, theta_table=theta_table)
        sel = tr.valid
        sup_e = float(np.max(np.linalg.norm(tr.e[sel], axis=1))) if sel.stop else float("nan")
        sup_V = float(np.max(tr.V[sel])) if sel.stop else float("nan")
        L_T = float(tr.L[-1]) if not tr.breach else float("nan")
        delta = L_T - prev_LT if (prev_LT is not None and np.isfinite(L_T)) else float("nan")
        result.traces.append(tr)
        result.summaries.append(IterationSummary(
            k=k, sup_e=sup_e, sup_V=sup_V, L_T=L_T, delta_L=delta,
            violations=int(tr.breach)))
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

    The model type names the required decrease: V_{k-1}(T) for model I,
    the BLF value W_{k-1}(T) for model II; the smoothed (theorem-2)
    scheme adds an eps*T allowance.
    """
    model, config, theorem = result.model, result.config, result.theorem
    blf = _bind(model, config, theorem).blf
    residual = (config.eps or 0.0) * result.grid.T if theorem == 2 else 0.0
    verdicts = []
    for k in range(1, len(result.traces)):
        prev, cur = result.traces[k - 1], result.traces[k]
        if prev.breach or cur.breach:
            continue
        L_k = float(cur.L[-1])
        dL = L_k - float(prev.L[-1])
        required = -model.required_decrease(float(prev.V[-1]), blf) + residual
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
