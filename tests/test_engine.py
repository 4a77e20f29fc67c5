import math

import numpy as np
import pytest

from fblf_ilc.controller import ControllerConfig, Mode, robust_term
from fblf_ilc.engine import (_bind, check_delta_L, monitor_L, run,
                             run_iteration, write_summary_csv, write_trace_csv)
from fblf_ilc.learner import ParamMemory, TimeGrid
from fblf_ilc.plant import (ErrorModelI, UncertaintySpec, scalar_model_i,
                            scalar_model_ii)

TWO_PI = 2.0 * math.pi


def disc_cfg(bound=0.5):
    return ControllerConfig(mode=Mode.DISC, bound=bound, gamma=2.0,
                            theta_bar=1.0)


def cont_cfg(bound=0.5, eps=1e-2):
    return ControllerConfig(mode=Mode.CONT, bound=bound, gamma=2.0,
                            theta_bar=1.0, eps=eps)


def quiet_model():
    """Built-in scalar plant with the uncertainty switched off."""
    base = scalar_model_i()
    silent = UncertaintySpec(w=lambda x, t: 0.0 * x, rho=lambda e, t: 0.0)
    return ErrorModelI(n=1, m=1, f=base.f, g=base.g, x_d=base.x_d,
                       uncertainty=silent, certificate=base.certificate,
                       T=base.T)


class TestRunIteration:
    def test_origin_invariant_without_uncertainty(self):
        model = quiet_model()
        memory = ParamMemory(TimeGrid(T=model.T, N=200), m=1, bound=1.0)
        tr = run_iteration(model, disc_cfg(), memory)
        assert not tr.breach
        np.testing.assert_allclose(tr.e, 0.0, atol=1e-15)
        np.testing.assert_allclose(tr.u, 0.0, atol=1e-15)

    def test_alignment_every_iteration(self):
        model = scalar_model_i()
        memory = ParamMemory(TimeGrid(T=model.T, N=200), m=1, bound=1.0)
        for k in range(3):
            tr = run_iteration(model, disc_cfg(), memory, k=k)
            assert tr.e[0] == pytest.approx(0.0)

    def test_constraint_respected_iteration_zero(self):
        model = scalar_model_i()
        memory = ParamMemory(TimeGrid(T=model.T, N=500), m=1, bound=1.0)
        tr = run_iteration(model, disc_cfg(bound=0.5), memory)
        assert not tr.breach
        assert np.max(tr.V) < 0.5

    def test_breach_truncates_and_flags(self):
        # a bound this tight is violated immediately by the transient
        model = scalar_model_i()
        memory = ParamMemory(TimeGrid(T=model.T, N=500), m=1, bound=1.0)
        tr = run_iteration(model, disc_cfg(bound=1e-6), memory)
        assert tr.breach
        assert tr.breach_node is not None
        assert np.all(np.isnan(tr.V[tr.breach_node + 1:]))

    def test_input_is_minus_estimate_minus_robust(self):
        # u = -theta_hat - s(z, rho) at every node, bit for bit
        model, cfg = scalar_model_i(), cont_cfg()
        memory = ParamMemory(TimeGrid(T=model.T, N=200), m=1, bound=1.0)
        tr = run_iteration(model, cfg, memory, theorem=2)
        zvec = _bind(model, cfg, 2)[1]
        robust = robust_term(cfg, 1)
        for i, t in enumerate(tr.t):
            s = robust(zvec(tr.e[i], t, tr.V[i]),
                       model.uncertainty.rho(tr.e[i], t))
            np.testing.assert_array_equal(tr.u[i], -tr.theta_hat[i] - s)

    def test_grid_mismatch_rejected(self):
        model = scalar_model_i()
        memory = ParamMemory(TimeGrid(T=1.0, N=100), m=1, bound=1.0)
        with pytest.raises(ValueError):
            run_iteration(model, disc_cfg(), memory)

    def test_continuous_mode_smooth_input(self):
        model = scalar_model_i()
        N = 500
        memory = ParamMemory(TimeGrid(T=model.T, N=N), m=1, bound=1.0)
        tr = run_iteration(model, cont_cfg(eps=1e-2), memory)
        dt = model.T / N
        jumps = np.abs(np.diff(tr.u[:, 0]))
        # du/dt is bounded along the trace, so node jumps scale with dt
        rate = (np.abs(np.gradient(tr.u[:, 0], dt)).max())
        assert jumps.max() <= 2.0 * rate * dt + 1e-9


class TestMonitor:
    def test_zero_error_zero_estimate_closed_form(self):
        # with e = 0 and theta_hat = 0, L(T) = (1/2 gamma) * int theta^2
        model = scalar_model_i()
        gamma = 2.0
        memory = ParamMemory(TimeGrid(T=model.T, N=2000), m=1, bound=1.0)
        tr = run_iteration(quiet_model(), disc_cfg(), memory)
        # overwrite with the built-in model's theta: int 0.25 sin^2 = 0.25*pi
        L = monitor_L(tr, model, gamma, disc_cfg(), theorem=1)
        assert L[-1] == pytest.approx(0.25 * math.pi / (2 * gamma), rel=1e-6)

    def test_perfect_estimate_gives_zero(self):
        model = scalar_model_i()
        memory = ParamMemory(TimeGrid(T=model.T, N=200), m=1, bound=1.0)
        tr = run_iteration(quiet_model(), disc_cfg(), memory)
        for i, t in enumerate(tr.t):
            tr.theta_hat[i] = 0.5 * math.sin(t)
        L = monitor_L(tr, model, 2.0, disc_cfg(), theorem=1)
        np.testing.assert_allclose(L, 0.0, atol=1e-12)

    def test_nondecreasing_when_v_zero(self):
        model = scalar_model_i()
        memory = ParamMemory(TimeGrid(T=model.T, N=200), m=1, bound=1.0)
        tr = run_iteration(quiet_model(), disc_cfg(), memory)
        L = monitor_L(tr, model, 2.0, disc_cfg(), theorem=1)
        assert np.all(np.diff(L) >= -1e-15)


class TestRun:
    def test_k1_matches_single_iteration(self):
        model = scalar_model_i()
        result = run(model, disc_cfg(), K=1, N=200)
        memory = ParamMemory(TimeGrid(T=model.T, N=200), m=1, bound=1.0)
        tr = run_iteration(model, disc_cfg(), memory)
        np.testing.assert_allclose(result.traces[0].e, tr.e)
        assert len(result.summaries) == 1

    def test_estimates_bounded_everywhere(self):
        result = run(scalar_model_i(), disc_cfg(), K=5, N=300)
        for tr in result.traces:
            assert np.max(np.abs(tr.theta_hat)) <= 1.0 + 1e-15

    def test_model2_constraint_quantity(self):
        model = scalar_model_ii()
        result = run(model, disc_cfg(bound=1.0), K=5, N=300)
        for tr in result.traces:
            # V column holds e'Pe, must stay below b_e^2 = 1
            assert np.max(tr.V) < 1.0

    def test_error_decreases(self):
        result = run(scalar_model_i(), disc_cfg(), K=8, N=500)
        sup = [s.sup_e for s in result.summaries]
        assert sup[-1] < 0.05 * sup[0]

    def test_run_does_not_mutate_model(self):
        model = scalar_model_i()
        before = model.T
        run(model, disc_cfg(), K=2, N=200)
        assert model.T == before


class TestDeltaL:
    def test_healthy_run_passes(self):
        result = run(scalar_model_i(), disc_cfg(), K=8, N=500)
        verdicts = check_delta_L(result)
        assert len(verdicts) == 7
        assert all(v.passed for v in verdicts)

    def test_corrupted_sequence_detected(self):
        result = run(scalar_model_i(), disc_cfg(), K=5, N=300)
        result.traces[3].L[-1] = result.traces[2].L[-1] + 1.0
        verdicts = check_delta_L(result)
        assert any(not v.passed for v in verdicts)

    def test_theorem2_allows_residual(self):
        result = run(scalar_model_i(), cont_cfg(eps=1e-2), K=6, N=500,
                     theorem=2)
        assert all(v.passed for v in check_delta_L(result))

    def test_all_zero_traces_pass(self):
        result = run(quiet_model(), disc_cfg(), K=3, N=200)
        verdicts = check_delta_L(result)
        assert all(v.passed for v in verdicts)
        assert all(abs(v.delta_L) < 1e-12 for v in verdicts)


class TestCsvOutput:
    def test_row_counts_and_header(self, tmp_path):
        result = run(scalar_model_i(), disc_cfg(), K=2, N=50)
        tp = tmp_path / "trace.csv"
        sp = tmp_path / "summary.csv"
        write_trace_csv(result, tp)
        write_summary_csv(result, sp)
        trace_lines = tp.read_text().strip().splitlines()
        assert trace_lines[0] == "k,t,e0,u0,V,L,theta_hat0,breach"
        assert len(trace_lines) == 1 + 2 * 51
        summary_lines = sp.read_text().strip().splitlines()
        assert summary_lines[0] == "k,sup_e,sup_V,L_T,delta_L,violations"
        assert len(summary_lines) == 1 + 2
