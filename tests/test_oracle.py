"""The float closed loop against tests/oracle.py's exact recomputation.

On the golden cases of tests/golden_cases.py (K = 3), the engine's e,
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

import pytest

import golden_cases
from fblf_ilc import plant
from fblf_ilc.engine import run_iteration
from fblf_ilc.learner import ParamMemory, TimeGrid
from golden_cases import CASES, CHAOTIC
from oracle import FIELDS, distance

REL = 1e-13


def engine_and_oracle(case):
    """K iterations of the engine, the restart rows of each (its e rows,
    and its theta* rows before it), and the oracle on the same floats."""
    m, cfg = golden_cases.model(case), golden_cases.config(case)
    memory = ParamMemory(TimeGrid(T=m.T, N=case[4]), m=1)
    scheme = plant.scheme(m, case[1])
    traces, restart = [], []
    for k in range(golden_cases.K):
        star_rows = memory.theta_star[:, 0].tolist()
        traces.append(run_iteration(m, cfg, memory, scheme, k=k))
        restart.append((traces[-1].e[:, 0].tolist(), star_rows))
    return traces, restart, golden_cases.exact_scheme(case)


def rel_errors(tr, rows):
    """Each field's distance from the oracle's rows; the engine's rows are
    NaN exactly past the oracle's."""
    errs = {}
    for key in FIELDS:
        got = getattr(tr, key).ravel().tolist()
        assert [x != x for x in got] == [
            i >= len(rows[key]) for i in range(len(got))], (tr.k, key)
        errs[key] = distance(got, rows[key])
    return errs


def check(traces, want):
    for tr, rows in zip(traces, want):
        assert tr.breach_node == rows["breach"], (
            f"k={tr.k}: breach at node {tr.breach_node}, "
            f"oracle {rows['breach']}")
        errs = rel_errors(tr, rows)
        assert max(errs.values()) <= REL, (tr.k, errs)


@pytest.mark.parametrize("model, theorem, mode, bound, N",
                         [c for c in CASES if c not in CHAOTIC])
def test_run_within_bound_of_exact_run(model, theorem, mode, bound, N):
    traces, _, exact = engine_and_oracle((model, theorem, mode, bound, N))
    check(traces, exact.run(len(traces)))


@pytest.mark.parametrize("model, theorem, mode, bound, N", CASES)
def test_each_step_within_bound_of_exact_step(model, theorem, mode, bound,
                                              N):
    traces, restart, exact = engine_and_oracle((model, theorem, mode, bound,
                                                N))
    check(traces, exact.run(len(traces), restart))
