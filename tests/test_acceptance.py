"""End-to-end acceptance suite.

Each test covers one frozen criterion and prints a single PASS/FAIL line
so the verdicts can be read off a `pytest -v -s` run at a glance.  Heavy
closed-loop runs are shared through module-scoped fixtures.

1. Closed-form derivatives match central finite differences (rel 1e-6,
   10^3 points per kind and bound, under 1 s).
2. Every asserted ordering relation between barrier kinds holds on 10^4
   samples (slack 1e-12); a deliberately reversed pair is rejected.
3. IBP probes give c = 1 or 2 within 1e-4 where the property holds, and
   a vanishing limit for LI and FI.
4. Model I at desk scale (disc, b_V = 0.5, gamma = 2, theta_bar = 1,
   N = 2000, K = 30): no breach, sup|e| non-increasing after the second
   iteration (5 % slack), final sup|e| <= 1e-2, under 10 s.
5. Model II (b_e^2 = 1): e'Pe < 1 throughout, final sup|e| <= 1e-2.
6. Smoothed mode (Theorem 2, K = 12, N = 2000): (a) the tail limsup of
   sup V stays within 1.5 times the residual bound (eps T, 2 eps T for
   model II) for both built-ins at eps in {1e-3, 1e-2}; (b) halving eps
   from 1e-2 to 5e-3 shrinks the tail plateau by a factor in [1.3, 2.7]
   for both models, with a tail flat to 1 % and no breach, on
   plateau_model's workload.
7. The monitor decrease holds for every iteration of the runs of 4-6,
   and the applied estimate never exceeds theta_bar (exact).
8. The lemma checkers give the stated verdicts on three constructed
   sequences each, and lemma 2 with d = 0 matches lemma 1 bit for bit.
9. Doubling N changes the final error by < 10 %.
10. Repeated simulate runs write byte-identical CSVs.
"""

import dataclasses
import math
import sys
import time

import numpy as np
import pytest

from fblf_ilc.barrier import (BarrierKind, blf_eval, blf_d1, blf_d2,
                              default_bound_sequence, ibp_probe, verify_order)
from fblf_ilc.controller import ControllerConfig, Mode
from fblf_ilc.engine import check_delta_L, run
from fblf_ilc.analysis import (SequenceTriple, convergence_metrics,
                               lemma1_check, lemma2_check)
from fblf_ilc.cli import main
from fblf_ilc.learner import sat
from fblf_ilc.plant import (UncertaintySpec, check_certificate,
                            check_uncertainty_bound, scalar_model_i,
                            scalar_model_ii)

BOUNDS = (0.5, 1.0, 2.0, 10.0)
GAMMA = 2.0
THETA_BAR = 1.0


def report(criterion: int, ok: bool, detail: str):
    # written to the real stdout so the verdict lines survive capture
    line = f"[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    if sys.stdout is not sys.__stdout__:
        print(line, file=sys.__stdout__)
    assert ok, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------- fixtures

@pytest.fixture(scope="module")
def run_m1_disc():
    """Criterion 4 pinned run: model I, discontinuous, K = 30."""
    cfg = ControllerConfig(mode=Mode.DISC, bound=0.5, gamma=GAMMA,
                           theta_bar=THETA_BAR)
    t0 = time.perf_counter()
    result = run(scalar_model_i(), cfg, K=30, N=2000, theorem=1)
    return result, time.perf_counter() - t0


@pytest.fixture(scope="module")
def run_m2_disc():
    """Criterion 5 pinned run: model II, discontinuous, b_e^2 = 1."""
    cfg = ControllerConfig(mode=Mode.DISC, bound=1.0, gamma=GAMMA,
                           theta_bar=THETA_BAR)
    return run(scalar_model_ii(), cfg, K=30, N=2000, theorem=1)


@pytest.fixture(scope="module")
def run_m1_disc_fine():
    cfg = ControllerConfig(mode=Mode.DISC, bound=0.5, gamma=GAMMA,
                           theta_bar=THETA_BAR)
    return run(scalar_model_i(), cfg, K=30, N=4000, theorem=1)


@pytest.fixture(scope="module")
def run_m2_disc_fine():
    cfg = ControllerConfig(mode=Mode.DISC, bound=1.0, gamma=GAMMA,
                           theta_bar=THETA_BAR)
    return run(scalar_model_ii(), cfg, K=30, N=4000, theorem=1)


@pytest.fixture(scope="module")
def cont_runs():
    """Smoothed (theorem 2) runs of the built-in models for the
    residual-bound check and the monitor check."""
    out = {}
    for name, factory, bound in (("I", scalar_model_i, 0.5),
                                 ("II", scalar_model_ii, 1.0)):
        for eps in (1e-2, 5e-3, 1e-3):
            cfg = ControllerConfig(mode=Mode.CONT, bound=bound, gamma=GAMMA,
                                   theta_bar=THETA_BAR, eps=eps)
            out[(name, eps)] = run(factory(), cfg, K=12, N=2000, theorem=2)
    return out


RELAY_AMPLITUDE = 1.0
RELAY_WIDTH = 1e-3


def plateau_model(model):
    """`model` with w(x, t) = θ̄ + e/2 + a·tanh(e/δ), where e = x − x_d(t).

    The built-ins cannot show an ε-set plateau: their θ(t) is learned
    exactly and Δw = e/2 is outweighed by f = −e, so e → 0 and the
    smoothing never binds.  Here the learnable part θ = w(x_d, t) = θ̄
    sits on the saturation bound, so wherever z > 0 the learner clamps
    at θ̂ = θ and stops moving.  The error-induced part
    Δw = e/2 + a·tanh(e/δ) equals its bound ρ for e > 0, so the smoothed
    term leaks z·(Δw − s) = ερ|z|/(ρ|z| + ε), which is ε while ρ|z| ≫ ε.
    The plateau is the equilibrium e = ερ/(ρ|z| + ε) of ė = −e + Δw − s:
    with z ≈ c·e near V = 0 it gives e² ≈ ε/c, so V ∝ ε.  The workload
    passes check_certificate and check_uncertainty_bound, ρ(0, t) = 0
    included.  Measured ratios on halving ε: 1.96 (model I) and 1.94
    (model II), the same at N = 4000.  On the built-ins the tail is a
    learning transient, four or more orders below εT, that still falls
    by a fifth to a quarter per iteration, and the ratios read 1.00 and
    1.03.
    """
    x_d = model.x_d

    def w(x, t):
        e = x - x_d(t)
        return THETA_BAR + 0.5 * e + RELAY_AMPLITUDE * np.tanh(e / RELAY_WIDTH)

    def rho(e, t):
        r = math.sqrt(e * e)
        return 0.5 * r + RELAY_AMPLITUDE * math.tanh(r / RELAY_WIDTH)

    return dataclasses.replace(model, uncertainty=UncertaintySpec(w=w, rho=rho))


@pytest.fixture(scope="module")
def plateau_runs():
    """Smoothed (theorem 2) runs of `plateau_model` at the two eps levels
    of the plateau-scaling check."""
    out = {}
    for name, factory, bound in (("I", scalar_model_i, 0.5),
                                 ("II", scalar_model_ii, 1.0)):
        model = plateau_model(factory())
        for eps in (1e-2, 5e-3):
            cfg = ControllerConfig(mode=Mode.CONT, bound=bound, gamma=GAMMA,
                                   theta_bar=THETA_BAR, eps=eps)
            out[(name, eps)] = run(model, cfg, K=12, N=2000, theorem=2)
    return out


# --------------------------------------------------- 1. derivative calculus

def test_criterion_1_blf_derivatives():
    t0 = time.perf_counter()
    worst = 0.0
    for b in BOUNDS:
        V = np.linspace(1e-3 * b, 0.95 * b, 1000)
        h = 1e-4 * (b - V)
        for kind in BarrierKind:
            f_p = blf_eval(kind, V + h, b)
            f_m = blf_eval(kind, V - h, b)
            f_0 = blf_eval(kind, V, b)
            fd1 = (f_p - f_m) / (2.0 * h)
            fd2 = (f_p - 2.0 * f_0 + f_m) / (h * h)
            d1 = blf_d1(kind, V, b)
            d2 = blf_d2(kind, V, b)
            worst = max(worst,
                        float(np.max(np.abs(d1 - fd1) / np.abs(fd1))),
                        float(np.max(np.abs(d2 - fd2) / np.abs(fd2))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 1.0
    report(1, ok, f"d1/d2 vs central differences, worst rel err "
                  f"{worst:.3e} (tol 1e-6), {elapsed:.3f}s (< 1s)")


# ------------------------------------------------------- 2. ordering suite

_ORDER_PAIRS = (
    (BarrierKind.LI, BarrierKind.FI, None),
    (BarrierKind.FI, BarrierKind.FIII, None),
    (BarrierKind.LII, BarrierKind.FIII, None),
    (BarrierKind.FII, BarrierKind.FIII, 1.0),
    (BarrierKind.FII, BarrierKind.FIV, None),
    (BarrierKind.FI, BarrierKind.FV, None),
    (BarrierKind.FII, BarrierKind.FV, None),
    (BarrierKind.FIII, BarrierKind.FV, None),
)


def test_criterion_2_ordering():
    failures = []
    for lo, hi, max_b in _ORDER_PAIRS:
        for b in BOUNDS:
            if max_b is not None and b > max_b:
                continue
            verdict = verify_order(lo, hi, b, samples=10_000)
            if not verdict.holds:
                failures.append((lo.value, hi.value, b))
    reversed_detected = all(
        not verify_order(BarrierKind.FI, BarrierKind.LI, b,
                         samples=10_000).holds
        for b in BOUNDS)
    ok = not failures and reversed_detected
    report(2, ok, f"8 relations x applicable bounds, 10^4 samples, "
                  f"violations {failures or 'none'}; reversed pair "
                  f"FI<=LI rejected: {reversed_detected}")


# ------------------------------------------------------------ 3. IBP suite

def test_criterion_3_ibp():
    seq = default_bound_sequence()
    expected = {"LII": 1.0, "FII": 1.0, "FIII": 1.0, "FV": 1.0, "FIV": 2.0}
    bad = []
    for kind in BarrierKind:
        probe = ibp_probe(kind, 1.0, seq)
        if kind.value in expected:
            if not (probe.ibp_holds
                    and abs(probe.c_estimate - expected[kind.value]) <= 1e-4):
                bad.append((kind.value, probe.c_estimate))
        else:  # LI, FI: ratio must flatten out to zero
            if probe.ibp_holds or not probe.c_estimate < 1e-4:
                bad.append((kind.value, probe.c_estimate))
    report(3, not bad, f"c within 1e-4 of 1 or 2 where positive, "
                       f"limit < 1e-4 for LI/FI; failures {bad or 'none'}")


# ------------------------------------------ 4. model I desk-scale learning

def test_criterion_4_model1_learning(run_m1_disc):
    result, elapsed = run_m1_disc
    breaches = sum(s.violations for s in result.summaries)
    sup_e = [s.sup_e for s in result.summaries]
    monotone = all(sup_e[k] <= 1.05 * sup_e[k - 1]
                   for k in range(2, len(sup_e)))
    final = sup_e[-1]
    ok = breaches == 0 and monotone and final <= 1e-2 and elapsed < 10.0
    report(4, ok, f"breaches {breaches}, non-increasing after k=2 "
                  f"(5% slack): {monotone}, sup|e_30| {final:.3e} "
                  f"(<= 1e-2), {elapsed:.1f}s (< 10s)")


# ----------------------------------------------------- 5. model II analog

def test_criterion_5_model2_learning(run_m2_disc):
    result = run_m2_disc
    max_quad = max(float(np.max(tr.V[tr.valid])) for tr in result.traces)
    final = result.summaries[-1].sup_e
    ok = max_quad < 1.0 and final <= 1e-2
    report(5, ok, f"max e'Pe {max_quad:.3e} (< b_e^2 = 1), "
                  f"sup|e_30| {final:.3e} (<= 1e-2)")


# ----------------------------------------- 6. smoothed-mode residual bound

def test_criterion_6a_residual_bound(cont_runs):
    T = 2.0 * np.pi
    bad = []
    for (name, eps), result in cont_runs.items():
        if eps not in (1e-3, 1e-2):
            continue
        metrics = convergence_metrics(result, eps, T)
        cap = 1.5 * (2.0 * eps * T if name == "II" else eps * T)
        if not metrics.limsup_supV <= cap:
            bad.append((name, eps, metrics.limsup_supV, cap))
    report(6, not bad, f"tail limsup within 1.5x residual bound for "
                       f"eps in {{1e-3, 1e-2}}, both models; "
                       f"failures {bad or 'none'}")


def test_criterion_6b_plateau_scaling(plateau_runs):
    T = 2.0 * np.pi
    models = {name: result.model for (name, _), result in plateau_runs.items()}
    contract = (check_certificate(models["I"])
                and all(check_uncertainty_bound(m) for m in models.values()))
    breaches = [key for key, result in plateau_runs.items()
                if result.any_breach]
    limsups, unsettled = {}, []
    for (name, eps), result in plateau_runs.items():
        limsups[(name, eps)] = convergence_metrics(result, eps, T).limsup_supV
        # the window convergence_metrics takes its limsup over must hold
        # a plateau, not a transient still falling towards zero
        sup_V = np.array([s.sup_V for s in result.summaries])
        tail = sup_V[-max(1, len(sup_V) // 4):]
        assert float(np.max(tail)) == limsups[(name, eps)]
        if not np.min(tail) >= 0.99 * np.max(tail):
            unsettled.append((name, eps))
    ratios = {name: limsups[(name, 1e-2)] / limsups[(name, 5e-3)]
              for name in ("I", "II")}
    ok = (all(1.3 <= r <= 2.7 for r in ratios.values())
          and contract and not breaches and not unsettled)
    detail = ", ".join(
        f"model {name} {ratios[name]:.3g} ({limsups[(name, 1e-2)]:.3e} / "
        f"{limsups[(name, 5e-3)]:.3e})" for name in ("I", "II"))
    report(6, ok, f"plateau ratio on halving eps (want [1.3, 2.7]): "
                  f"{detail}; tails flat to 1%, unsettled "
                  f"{unsettled or 'none'}; breaches {breaches or 'none'}; "
                  f"plant contract holds: {contract}")


# ----------------------------------------------------- 7. monitor decrease

def test_criterion_7_monitor(run_m1_disc, run_m2_disc, cont_runs,
                             plateau_runs):
    runs = [run_m1_disc[0], run_m2_disc, *cont_runs.values(),
            *plateau_runs.values()]
    failed = []
    for result in runs:
        for v in check_delta_L(result):
            if not v.passed:
                failed.append((type(result.model).__name__, v.k))
    bound_ok = all(
        float(np.max(np.abs(tr.theta_hat[tr.valid]))) <= THETA_BAR
        for result in runs for tr in result.traces)
    ok = not failed and bound_ok
    report(7, ok, f"delta-L decrease holds for all k >= 1 across "
                  f"{len(runs)} runs (failures {failed or 'none'}); "
                  f"|theta_hat| <= theta_bar exact: {bound_ok}")


# ------------------------------------------------------- 8. lemma checkers

def test_criterion_8_lemma_checkers(run_m1_disc):
    K = 40
    k = np.arange(K, dtype=float)

    # lemma 1: geometric equality case, increasing counterexample,
    # and a real closed-loop monitor sequence
    geo = SequenceTriple(2.0 ** -k, 2.0 ** -k)
    v_geo = lemma1_check(geo)
    v_inc = lemma1_check(SequenceTriple(k, np.ones(K)))
    result, _ = run_m1_disc
    L = np.array([s.L_T for s in result.summaries])
    V_prev = np.array([0.0] + [float(tr.V[-1]) for tr in result.traces[:-1]])
    v_run = lemma1_check(SequenceTriple(L, V_prev))
    lemma1_ok = (v_run.inequality_holds
                 and v_geo.inequality_holds and v_geo.s_tail_estimate < 1e-9
                 and not v_inc.inequality_holds and v_inc.first_violation == 1)

    # lemma 2: zero-residual reduction, equality case, and a sequence
    # built to meet the inequality exactly with vanishing s
    v_zero = lemma2_check(SequenceTriple(geo.r, geo.s, np.zeros(K)))
    d_bar = 0.5
    flat = np.full(K, d_bar)
    v_eq = lemma2_check(SequenceTriple(flat, flat, flat, d_bar=d_bar))
    r = d_bar + 2.0 ** -k
    s = 2.0 ** -(k + 1)
    d = np.zeros(K)
    d[1:] = s[1:] + (r[1:] - r[:-1])
    v_con = lemma2_check(SequenceTriple(r, s, d, d_bar=d_bar))
    lemma2_ok = (v_zero == v_geo
                 and v_eq.inequality_holds
                 and v_eq.s_tail_estimate == d_bar and v_eq.bound_respected
                 and v_con.inequality_holds and v_con.bound_respected
                 and v_con.s_vanishes)

    ok = lemma1_ok and lemma2_ok
    report(8, ok, f"lemma 1 trio: {lemma1_ok}; lemma 2 trio incl. "
                  f"bit-identical zero-residual reduction: {lemma2_ok}")


# ------------------------------------------- 9. discretization robustness

def test_criterion_9_grid_robustness(run_m1_disc, run_m2_disc,
                                     run_m1_disc_fine, run_m2_disc_fine):
    rel = {}
    for name, coarse, fine in (("I", run_m1_disc[0], run_m1_disc_fine),
                               ("II", run_m2_disc, run_m2_disc_fine)):
        a = coarse.summaries[-1].sup_e
        b = fine.summaries[-1].sup_e
        rel[name] = abs(b - a) / a
    ok = all(r < 0.10 for r in rel.values())
    report(9, ok, f"sup|e_30| change on doubling N: model I "
                  f"{rel['I']:.2%}, model II {rel['II']:.2%} (< 10%)")


# -------------------------------------------------------- 10. determinism

def test_criterion_10_determinism(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model = scalar-I\nb_V = 0.5\nK = 5\nN = 400\n")
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert main(["simulate", str(cfg), "--out", str(out)]) == 0
        outs.append(((out / "trace.csv").read_bytes(),
                     (out / "summary.csv").read_bytes()))
    ok = outs[0] == outs[1]
    report(10, ok, f"repeated simulate byte-identical CSVs: {ok}")


# implicit invariant of criterion 7's exact bound: saturation never
# exceeds the cap it is given
def test_saturation_is_exact():
    v = np.array([-3.0, -1.0, 0.0, 0.5, 1.0, 7.0])
    assert float(np.max(np.abs(sat(v, THETA_BAR)))) <= THETA_BAR
