"""Closed-loop ILC execution: per-iteration integration, in-loop learning,
and the theorem-level monitors.

Each iteration integrates the error dynamics with a classical 4th-order
fixed-step scheme on the learning grid.  At every node the engine reads
the state, builds the learning signal z, updates the parameter memory,
and forms the control input.  Across an interval the node estimate
theta_hat is held, so the node's evaluation is the first integrator
stage; the state-dependent terms (z, rho, robust action) are
re-evaluated at the other three stage states.  Per step, V, grad V, rho
and the robust term are evaluated four times, and so are f, g and w.

A barrier-domain breach (V >= bound at a node or stage) truncates the
iteration, flags it, and lets the run continue with the memory as
updated so far.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, NamedTuple

import numpy as np

from . import plant
from .barrier import _BLOCK, FORMS
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
    L: np.ndarray | None = None  # (N+1,)  set by monitor_L
    breach_node: int | None = None

    @property
    def breach(self) -> bool:
        return self.breach_node is not None

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
    scheme: plant.Scheme
    grid: TimeGrid
    summaries: list[IterationSummary]
    traces: list[IterationTrace]
    memory: ParamMemory

    @property
    def any_breach(self) -> bool:
        return any(tr.breach for tr in self.traces)


class _Breach(Exception):
    """V reached the bound at a node or stage of the current interval."""


def _leave_domain(v, t):
    """Raise for V = v at or past its bound at t: a blow-up or a breach."""
    if not math.isfinite(v):
        raise NonFiniteStateError(f"non-finite state at t={t}")
    raise _Breach


class _Shape(NamedTuple):
    """The primitives in which the float and the array loop differ; the
    two loops give the same bits.  The float dot and matvec are the bare
    product, -0.0 where numpy's give 0.0 + product; so each model term
    that sums them adds 0.0 once, at its outermost sum.  On floats that
    gives the bits of a 0.0 on each product (f + (0.0 + g x) is
    0.0 + (f + g x) for every float, signed zeros, infinities and NaN
    included); on arrays it changes no bit but costs one array add per
    call of a term."""
    unwrap: Callable   # a model's vector or matrix -> the loop's form
    dot: Callable      # inner product, as a float
    matvec: Callable   # matrix (in the loop's form) times vector
    clamp: Callable    # component-wise clamp to [-b, b]
    rows: Callable     # a 2-D array's rows, in the loop's form, as a list


# n = m = 1: Python floats throughout; the float clamp keeps NaN and
# -0.0 as numpy's minimum/maximum do
_FLOAT = _Shape(
    unwrap=plant._item,
    dot=operator.mul,
    matvec=operator.mul,
    clamp=lambda v, b: -b if v < -b else (b if v > b else v),
    rows=lambda a: a[:, 0].tolist(),
)
_ARRAY = _Shape(
    unwrap=lambda a: a,
    dot=lambda a, b: float(a @ b),
    matvec=operator.matmul,
    clamp=sat,
    rows=list,
)


def _table(rows, shape) -> np.ndarray:
    """An array of shape holding rows, in either loop's form, then NaN
    rows: those a breach left unwritten."""
    # numpy reads [] as shape (0,), so the reshape names the row shape
    a = np.array(rows, dtype=float).reshape(len(rows), *shape[1:])
    if len(rows) == shape[0]:
        return a
    full = np.empty(shape)
    full[:len(rows)] = a
    full[len(rows):] = np.nan
    return full


def _blf(model, config: ControllerConfig, scheme: plant.Scheme) -> Callable:
    """V -> the monitor's barrier, of scheme's monitor kind."""
    form = FORMS[scheme.monitor][0]
    bound = plant.value_bound(model, config.bound)
    return lambda v: model.barrier_scale * form(v, bound)


def run_iteration(model, config: ControllerConfig, memory: ParamMemory,
                  scheme: plant.Scheme, k: int = 0,
                  xd_table: list | None = None) -> IterationTrace:
    """Run one iteration of scheme's closed loop, updating memory in place;
    each stage reads its time off grid.times, where xd_table was read.

    Raises ValueError, before the first step, when memory's horizon is
    not model.T, its width not model.m, or xd_table's length not that of
    grid.times; the message names both widths or both lengths.
    """
    grid = memory.grid
    if grid.T != model.T:  # run builds its grid from model.T
        raise ValueError("memory grid horizon does not match model horizon")
    if memory.theta_star.shape[1] != model.m:
        raise ValueError(f"memory width {memory.theta_star.shape[1]} does "
                         f"not match model input width {model.m}")
    times = grid.times
    if xd_table is None:
        xd_table = plant._desired(model, times)
    elif len(xd_table) != len(times):
        raise ValueError(f"x_d table length {len(xd_table)} does not match "
                         f"grid times length {len(times)}")
    shape = _FLOAT if plant.float_native(model) else _ARRAY
    value, grad, rhs = model.loop_terms(shape)
    bound = plant.value_bound(model, config.bound)
    d1 = FORMS[scheme.gain][1]
    unwrap, clamp = shape.unwrap, shape.clamp
    gamma, theta_bar = config.gamma, config.theta_bar
    n, m = model.n, model.m
    robust = robust_term(config, shape.dot)
    update = memory.update_node
    N, dt = grid.N, grid.dt
    rho = model.uncertainty.rho

    # z and each stage derivative are read into the loop's form once, not
    # each of LgV, f, g and w: IEEE +, - and * round the same on floats,
    # numpy scalars and size-1 arrays, so the bits are an all-float run's
    def deriv(t, e, xd):
        v = value(e, t)
        if not v < bound:
            _leave_domain(v, t)
        z = d1(v, bound) * grad(e, t)
        z = z if type(z) is float else unwrap(z)
        # node i's estimate theta_hat is held across its interval
        de = rhs(e, t, -theta_hat - robust(z, rho(e, t)), xd)
        return de if type(de) is float else unwrap(de)

    # the node rows, written into the trace once the iteration ends, and
    # theta_star's rows, written back however the iteration ends
    es, us, vs, ths = [], [], [], []
    store = shape.rows(memory.theta_star)
    breach_node = None
    e = unwrap(np.zeros(n))  # alignment: x_k(0) = x_d(0)
    half_dt, sixth_dt = 0.5 * dt, dt / 6.0
    try:
        for i in range(N + 1):
            t = times[2 * i]
            v = value(e, t)
            if not v < bound:
                _leave_domain(v, t)
            # the learning signal z = dB/dV * grad V, B of the gain kind
            z = d1(v, bound) * grad(e, t)
            z = z if type(z) is float else unwrap(z)
            theta_hat = update(i, z, gamma, theta_bar, clamp, store)
            u = -theta_hat - robust(z, rho(e, t))
            es.append(e)
            us.append(u)
            vs.append(v)
            ths.append(theta_hat)
            if i == N:
                break

            th, xdh = times[2 * i + 1], xd_table[2 * i + 1]
            k1 = rhs(e, t, u, xd_table[2 * i])
            k1 = k1 if type(k1) is float else unwrap(k1)
            k2 = deriv(th, e + half_dt * k1, xdh)
            k3 = deriv(th, e + half_dt * k2, xdh)
            k4 = deriv(times[2 * i + 2], e + dt * k3, xd_table[2 * i + 2])
            e = e + sixth_dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    except _Breach:
        breach_node = i
    finally:
        memory.theta_star[:] = _table(store, memory.theta_star.shape)
    # the rows from a breach on are NaN
    return IterationTrace(
        k=k, t=grid.nodes, e=_table(es, (N + 1, n)), u=_table(us, (N + 1, m)),
        V=_table(vs, (N + 1,)), theta_hat=_table(ths, (N + 1, m)),
        breach_node=breach_node)


def monitor_L(traces: list[IterationTrace], model, config: ControllerConfig,
              scheme: plant.Scheme) -> list[IterationSummary]:
    """Per-node Lyapunov-Krasovskii monitor of traces on one grid: the
    one code that forms L.

    L(t) = BLF(V(t)) + (1/2 gamma) * integral of |theta - theta_hat|^2,
    the integral by the grid's trapezoid rule, with BLF of scheme's
    monitor kind, theta = plant.theta_path at the nodes (simulation-only)
    and gamma config's learning gain.  Sets each trace's L, NaN from its
    breach node on, and returns their summaries.  An empty list, or a
    trace whose t is not the first trace's, raises ValueError before any
    L is set.
    """
    if not traces:
        raise ValueError("monitor_L got no traces")
    blf = _blf(model, config, scheme)
    t = traces[0].t
    for tr in traces:  # run's traces share one nodes array
        if tr.t is not t and not np.array_equal(tr.t, t):
            raise ValueError(f"trace k={tr.k} is not on the time grid of "
                             f"trace k={traces[0].k}")
    theta_table = plant.theta_path(model, t.tolist())
    dt = t[1] - t[0]
    nodes = np.arange(len(t))
    # <= _BLOCK node rows: caps peak memory.  Without the blocks, the peak
    # RSS of simulate (model I, b_V = 0.5, N = 2000, --svg; ru_maxrss,
    # median of 5 processes on a 2-vCPU Xeon) rose from 33.9 to 36.4 MiB
    # at K = 30 and from 47.2 to 70.6 MiB at K = 200.
    step = max(1, _BLOCK // len(t))
    summaries, prev_LT = [], float("nan")
    for i in range(0, len(traces), step):
        block = traces[i:i + step]
        valid = nodes < np.array([tr.valid.stop for tr in block])[:, None]
        V = np.stack([tr.V for tr in block])
        diff = theta_table - np.stack([tr.theta_hat for tr in block])
        sq = np.add.reduce(diff * diff, axis=-1)
        cum = np.zeros_like(sq)
        np.cumsum(0.5 * dt * (sq[:, 1:] + sq[:, :-1]), axis=1, out=cum[:, 1:])
        L = np.where(valid, blf(V) + cum / (2.0 * config.gamma), np.nan)
        # max |e| is sqrt(max |e|^2): sqrt is monotone and correctly rounded
        e2 = np.add.reduce(np.square(np.stack([tr.e for tr in block])), -1)
        top = np.max([e2, V], axis=2, where=valid, initial=-np.inf)
        # NaN propagates as in np.max, and is the value of no valid row
        sup_e, sup_V = np.where(valid[:, 0], top, np.nan).tolist()
        for tr, row, se, sv in zip(block, L, sup_e, sup_V):
            tr.L = row
            L_T = float(row[-1])  # NaN after a breach
            delta = L_T - prev_LT if math.isfinite(L_T) else float("nan")
            summaries.append(IterationSummary(
                k=tr.k, sup_e=math.sqrt(se), sup_V=sv, L_T=L_T,
                delta_L=delta, violations=int(tr.breach)))
            prev_LT = L_T if math.isfinite(L_T) else prev_LT
    return summaries


def run(model, config: ControllerConfig, K: int, N: int = 2000,
        theorem: int = 1) -> RunResult:
    """Execute K iterations of theorem's scheme, threading the memory,
    then monitor and summarise them in one pass.

    The theorem is resolved once, through plant.scheme, before the grid
    or the memory is built, and kept as RunResult.scheme.  x_d is called
    3N + 2 times: 2N + 1 for the table every iteration reads, and N + 1
    for the monitor's theta.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    scheme = plant.scheme(model, theorem)
    grid = TimeGrid(T=model.T, N=N)
    memory = ParamMemory(grid, m=model.m)
    xd_table = plant._desired(model, grid.times)
    traces = [run_iteration(model, config, memory, scheme, k=k,
                            xd_table=xd_table) for k in range(K)]
    summaries = monitor_L(traces, model, config, scheme)
    return RunResult(model=model, config=config, scheme=scheme, grid=grid,
                     summaries=summaries, traces=traces, memory=memory)


@dataclass(frozen=True)
class DeltaLVerdict:
    k: int
    delta_L: float
    required: float  # ΔL must be <= required (+ slack)
    slack: float
    passed: bool


def check_delta_L(result: RunResult) -> list[DeltaLVerdict]:
    """Verify the per-iteration decrease of the monitor at t = T, on the
    L(T) and delta L that monitor_L wrote into result's summaries, so its
    delta L is the one in summary.csv; only V_{k-1}(T) is read off the
    traces.

    The model type names the required decrease: V_{k-1}(T) for model I,
    the BLF value W_{k-1}(T) for model II; a smoothed scheme adds an
    eps*T allowance.  Pairs that touch a breached iteration get no verdict.
    """
    model, config, scheme = result.model, result.config, result.scheme
    blf = _blf(model, config, scheme)
    residual = (config.eps or 0.0) * result.grid.T if scheme.smoothed else 0.0
    verdicts = []
    for prev, cur, tr in zip(result.summaries, result.summaries[1:],
                             result.traces):  # tr: iteration k - 1's trace
        if prev.violations or cur.violations:
            continue
        required = -model.required_decrease(float(tr.V[-1]), blf) + residual
        dL, slack = cur.delta_L, 1e-6 * (1.0 + abs(cur.L_T))
        verdicts.append(DeltaLVerdict(k=cur.k, delta_L=dL, required=required,
                                      slack=slack, passed=dL <= required + slack))
    return verdicts


def _csv_lines(rows) -> str:
    """Rows of str fields as the csv module's excel dialect writes them:
    comma-separated, each ended by CRLF.  Every CSV the package writes
    goes through here; no field its writers give (an int, a float repr,
    nan, a barrier kind or an empty field) needs quoting."""
    return "\r\n".join(map(",".join, rows)) + "\r\n"


def write_trace_csv(result: RunResult, path):
    """Per-node trace rows for all iterations, written once per iteration."""
    model = result.model
    n, m = model.n, model.m
    header = (["k", "t"] + [f"e{j}" for j in range(n)]
              + [f"u{j}" for j in range(m)] + ["V", "L"]
              + [f"theta_hat{j}" for j in range(m)] + ["breach"])
    times = list(map(repr, result.grid.times[::2]))  # every trace's t
    with open(path, "w", newline="") as fh:
        fh.write(_csv_lines([header]))
        for tr in result.traces:
            # each column read once, as Python floats; repr of each float
            # is the writer's floor
            cols = (list(tr.e.T) + list(tr.u.T) + [tr.V, tr.L]
                    + list(tr.theta_hat.T))
            end = tr.valid.stop
            flags = ["0"] * end + ["1"] * (len(times) - end)
            fh.write(_csv_lines(zip(repeat(str(tr.k)), times,
                                    *(map(repr, c.tolist()) for c in cols),
                                    flags)))


def write_summary_csv(result: RunResult, path):
    """Per-iteration summary rows."""
    rows = [["k", "sup_e", "sup_V", "L_T", "delta_L", "violations"]]
    rows += [[str(s.k), repr(s.sup_e), repr(s.sup_V), repr(s.L_T),
              repr(s.delta_L), str(s.violations)] for s in result.summaries]
    with open(path, "w", newline="") as fh:
        fh.write(_csv_lines(rows))
