"""The float closed loop against tests/oracle.py's exact recomputation.

On the golden configs of tests/test_golden.py (K = 3), the engine's e,
V and theta_hat lie within REL of the oracle's, relative to each
trace's max of the field, and each iteration breaches at the oracle's
node: over a whole run, and over each step restarted from the engine's
own state.

REL was chosen from the measured error before any mutant was tried.
The largest is 8.9e-15 over a run and 5.8e-16 over a step.  At K = 10
they grow to 1.4e-14 and 3.3e-15, and at ten times each config's N to
6.6e-14 and 1.2e-14.  REL = 1e-13 sits above all of these, and 11 times
above the largest at the tested K and N.

Theorem 2 at b_V = 0.01985 and N = 200, in either mode, is left out of
the whole-run check (CHAOTIC).  There FV's gain dB/dV is about 1/b_V,
so the loop overshoots and e flips sign at most nodes.  The run
amplifies a rounding about tenfold every ten nodes: 1e-15 at node 10,
1e-6 at node 50 and O(1) by node 90.  Every step of
these runs still lies within 6e-16 of the exact step, and both runs
breach nowhere, as the oracle's do.  At N = 2000 the whole run lies
within 6.6e-14.
"""

from decimal import Decimal

import pytest

import oracle
from fblf_ilc import plant
from fblf_ilc.controller import ControllerConfig
from fblf_ilc.engine import run_iteration
from fblf_ilc.learner import ParamMemory, TimeGrid
from test_golden import GOLDEN, MODELS, MORE_GOLDEN

REL = 1e-13
FIELDS = ("e", "V", "theta_hat")

# (model, theorem, mode, bound, N): GOLDEN runs Theorem 1 in disc mode
# and Theorem 2 in cont mode, both at N = 200
CONFIGS = sorted(
    [(model, theorem, "disc" if theorem == 1 else "cont", bound, 200)
     for model, theorem, bound in GOLDEN] + list(MORE_GOLDEN))
CHAOTIC = {("I", 2, mode, 0.01985, 200) for mode in ("disc", "cont")}


def engine_and_oracle(model, theorem, mode, bound, N, K=3):
    """K iterations of the engine, the restart rows of each (its e rows,
    and its theta* rows before it), and the oracle on the same floats."""
    eps = 1e-2 if mode == "cont" else None
    cfg = ControllerConfig(mode=mode, bound=bound, gamma=2.0, theta_bar=1.0,
                           eps=eps)
    m = MODELS[model]()
    grid = TimeGrid(T=m.T, N=N)
    memory = ParamMemory(grid, m=1)
    xds = plant._desired(m, grid.times)
    traces, restart = [], []
    for k in range(K):
        star_rows = memory.theta_star[:, 0].tolist()
        traces.append(run_iteration(m, cfg, memory, plant.scheme(m, theorem),
                                    k=k, xd_table=xds))
        restart.append((traces[-1].e[:, 0].tolist(), star_rows))
    dt = grid.dt
    exact = oracle.Scheme(model, theorem, mode, xds, dt, 0.5 * dt, dt / 6.0,
                          plant.value_bound(m, bound), cfg.gamma,
                          cfg.theta_bar, eps)
    return traces, restart, exact


def rel_errors(tr, rows):
    """Each field's max distance from the oracle's rows over their max
    magnitude; the engine's rows past the oracle's must be NaN."""
    errs = {}
    for key in FIELDS:
        got, exact = getattr(tr, key).ravel().tolist(), rows[key]
        assert all(x != x for x in got[len(exact):]), (tr.k, key)
        top = max(map(abs, exact))
        diff = max(abs(Decimal(g) - x) for g, x in zip(got, exact))
        errs[key] = float(diff / top) if top else float(diff)
    return errs


def check(traces, want):
    for tr, rows in zip(traces, want):
        assert tr.breach_node == rows["breach"], (
            f"k={tr.k}: breach at node {tr.breach_node}, "
            f"oracle {rows['breach']}")
        errs = rel_errors(tr, rows)
        assert max(errs.values()) <= REL, (tr.k, errs)


@pytest.mark.parametrize("model, theorem, mode, bound, N",
                         [c for c in CONFIGS if c not in CHAOTIC])
def test_run_within_bound_of_exact_run(model, theorem, mode, bound, N):
    traces, _, exact = engine_and_oracle(model, theorem, mode, bound, N)
    check(traces, exact.run(len(traces)))


@pytest.mark.parametrize("model, theorem, mode, bound, N", CONFIGS)
def test_each_step_within_bound_of_exact_step(model, theorem, mode, bound,
                                              N):
    traces, restart, exact = engine_and_oracle(model, theorem, mode, bound, N)
    check(traces, exact.run(len(traces), restart))
