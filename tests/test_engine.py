import dataclasses
import math

import numpy as np
import pytest

from fblf_ilc.controller import ControllerConfig, Mode, robust_term
from fblf_ilc.engine import (_ARRAY, _FLOAT, _bind, check_delta_L, monitor_L,
                             run, run_iteration, write_summary_csv,
                             write_trace_csv)
from fblf_ilc.learner import ParamMemory, TimeGrid
from fblf_ilc.plant import (ErrorModelI, ErrorModelII, UncertaintySpec,
                            scalar_model_i, scalar_model_ii)

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
        loop = _bind(model, cfg, 2)
        robust = robust_term(cfg, loop.shape.zeros(1), loop.shape.dot)
        for i, t in enumerate(tr.t):
            x = tr.e[i]
            s = robust(loop.zvec(x, loop.shape.unwrap(x), t, tr.V[i]),
                       model.uncertainty.rho(x, t))
            np.testing.assert_array_equal(tr.u[i], -tr.theta_hat[i] - s)

    def test_node_evaluation_is_first_stage(self):
        # the node's V, LgV and rho serve RK4's k1: per interval, four
        # stage evaluations and no repeat, plus one at the final node
        counts = {}

        def counted(name, fn):
            counts[name] = 0

            def wrapper(*args):
                counts[name] += 1
                return fn(*args)
            return wrapper

        N = 50
        one = scalar_model_i()
        cert, unc = one.certificate, one.uncertainty
        one = dataclasses.replace(
            one, f=counted("f", one.f), g=counted("g", one.g),
            certificate=dataclasses.replace(cert, V=counted("V", cert.V),
                                            LgV=counted("LgV", cert.LgV)),
            uncertainty=dataclasses.replace(unc, rho=counted("rho", unc.rho)))
        memory = ParamMemory(TimeGrid(T=one.T, N=N), m=1, bound=1.0)
        assert not run_iteration(one, disc_cfg(), memory).breach
        assert counts == {"f": 4 * N, "g": 4 * N, "V": 4 * N + 1,
                          "LgV": 4 * N + 1, "rho": 4 * N + 1}

        counts.clear()
        two = scalar_model_ii()
        unc = two.uncertainty
        two = dataclasses.replace(
            two, uncertainty=dataclasses.replace(unc,
                                                 rho=counted("rho", unc.rho)))
        memory = ParamMemory(TimeGrid(T=two.T, N=N), m=1, bound=1.0)
        assert not run_iteration(two, disc_cfg(bound=1.0), memory).breach
        assert counts == {"rho": 4 * N + 1}

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
        L = monitor_L(tr, model, disc_cfg(), theorem=1)
        assert L[-1] == pytest.approx(0.25 * math.pi / (2 * gamma), rel=1e-6)

    def test_perfect_estimate_gives_zero(self):
        model = scalar_model_i()
        memory = ParamMemory(TimeGrid(T=model.T, N=200), m=1, bound=1.0)
        tr = run_iteration(quiet_model(), disc_cfg(), memory)
        for i, t in enumerate(tr.t):
            tr.theta_hat[i] = 0.5 * math.sin(t)
        L = monitor_L(tr, model, disc_cfg(), theorem=1)
        np.testing.assert_allclose(L, 0.0, atol=1e-12)

    def test_nondecreasing_when_v_zero(self):
        model = scalar_model_i()
        memory = ParamMemory(TimeGrid(T=model.T, N=200), m=1, bound=1.0)
        tr = run_iteration(quiet_model(), disc_cfg(), memory)
        L = monitor_L(tr, model, disc_cfg(), theorem=1)
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


def lift(model):
    """A 2-state lift of a built-in: the second state is decoupled and
    zero, g/b = [[1], [0]], and the uncertainty and the gradient read the
    first state only.  It runs through the engine's array form."""
    col = np.array([[1.0], [0.0]])
    unc = UncertaintySpec(w=lambda x, t: model.uncertainty.w(x[:1], t),
                          rho=lambda e, t: model.uncertainty.rho(e[:1], t))

    def x_d(t):
        return np.array([model.x_d(t)[0], 0.0])

    if isinstance(model, ErrorModelI):
        cert = dataclasses.replace(
            model.certificate,
            LgV=lambda e, t: model.certificate.LgV(e[:1], t))
        return dataclasses.replace(model, n=2, g=lambda e, t: col, x_d=x_d,
                                   uncertainty=unc, certificate=cert)
    eye = np.eye(2)
    return ErrorModelII(A=model.A[0, 0] * eye, b=col, P=model.P[0, 0] * eye,
                        Q=model.Q[0, 0] * eye, x_d=x_d, uncertainty=unc,
                        T=model.T)


# (model, bound, N): a bound that holds, a bound where b * b and b ** 2
# (model I) or Theorem 1's gain and monitor (model II) differ, and a
# coarse grid whose iterations breach inside an integrator stage
LIFT_CASES = [("I", 0.5, 200), ("I", 0.01985, 200), ("I", 0.05, 10),
              ("II", 1.0, 200), ("II", 2.0, 200), ("II", 0.2, 20)]
FACTORIES = {"I": scalar_model_i, "II": scalar_model_ii}


class TestArrayForm:
    @pytest.mark.parametrize("theorem", [1, 2])
    @pytest.mark.parametrize("mode", [Mode.DISC, Mode.CONT])
    @pytest.mark.parametrize("name, bound, N", LIFT_CASES)
    def test_lift_matches_scalar_run(self, name, bound, N, mode, theorem):
        cfg = ControllerConfig(mode=mode, bound=bound, gamma=2.0,
                               theta_bar=1.0,
                               eps=1e-2 if mode is Mode.CONT else None)
        model = FACTORIES[name]()
        scalar = run(model, cfg, K=3, N=N, theorem=theorem)
        lifted = run(lift(model), cfg, K=3, N=N, theorem=theorem)
        assert _bind(model, cfg, theorem).shape is _FLOAT
        assert _bind(lift(model), cfg, theorem).shape is _ARRAY
        for a, b in zip(scalar.traces, lifted.traces):
            assert (a.breach, a.breach_node) == (b.breach, b.breach_node)
            assert np.array_equal(a.e, b.e[:, :1], equal_nan=True)
            assert np.all(b.e[a.valid, 1] == 0.0)
            for f in ("u", "V", "theta_hat", "L"):
                assert np.array_equal(getattr(a, f), getattr(b, f),
                                      equal_nan=True), f
        # every summary field but the wall time
        assert np.array_equal(
            [dataclasses.astuple(s)[:-1] for s in scalar.summaries],
            [dataclasses.astuple(s)[:-1] for s in lifted.summaries],
            equal_nan=True)
        assert np.array_equal(scalar.memory.theta_star,
                              lifted.memory.theta_star)

    @pytest.mark.parametrize("name, bound, N", [c for c in LIFT_CASES
                                                if c[2] < 200])
    def test_breach_leaves_later_nodes_of_memory_untouched(self, name, bound,
                                                           N):
        cfg = disc_cfg(bound=bound)
        for model in (FACTORIES[name](), lift(FACTORIES[name]())):
            memory = ParamMemory(TimeGrid(T=model.T, N=N), m=1, bound=1.0)
            memory.theta_star[:] = 0.25
            before = memory.theta_star.copy()
            tr = run_iteration(model, cfg, memory)
            assert tr.breach and 0 < tr.breach_node < N
            # the breach is inside the interval after breach_node, whose
            # node was learned before its stages ran
            assert np.isfinite(tr.V[tr.breach_node])
            assert np.array_equal(memory.theta_star[tr.breach_node + 1:],
                                  before[tr.breach_node + 1:])
            assert not np.array_equal(memory.theta_star[:tr.breach_node + 1],
                                      before[:tr.breach_node + 1])


SIGNED = [0.0, -0.0, 1.0, -1.0, 0.5, -3.0, 1e-200, -1e-200, 5e-324, 1e300]


def same_bits(a, b):
    return np.array(a).tobytes() == np.array(b).tobytes()


class TestFloatShape:
    """The float primitives give numpy's one-element results bit for bit,
    signed zeros and underflow included."""

    def test_dot_and_matvec(self):
        for a in SIGNED:
            for b in SIGNED:
                with np.errstate(over="ignore"):
                    dot = _ARRAY.dot(np.array([a]), np.array([b]))
                    matvec = (np.array([[a]]) @ np.array([b])).item()
                assert same_bits(_FLOAT.dot(a, b), dot), (a, b)
                assert same_bits(_FLOAT.matvec(a, b), matvec), (a, b)

    def test_clamp(self):
        for v in SIGNED + [2.0, -2.0, math.nan]:
            assert same_bits(_FLOAT.clamp(v, 1.0),
                             _ARRAY.clamp(np.array([v]), 1.0).item()), v

    def test_wrap_and_unwrap(self):
        x = _FLOAT.wrap(-0.0)
        assert x.shape == (1,) and same_bits(x, np.array([-0.0]))
        assert _FLOAT.unwrap(np.array([[2.5]])) == 2.5
        assert _FLOAT.unwrap(np.float64(-1.5)) == -1.5
        assert type(_FLOAT.unwrap(np.array([1.0]))) is float
