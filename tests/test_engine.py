import csv
import dataclasses
import hashlib
import io
import itertools
import math
import operator
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fblf_ilc import engine, plant
from fblf_ilc.analysis import blf_report
from fblf_ilc.controller import ControllerConfig, Mode, robust_term
from fblf_ilc.barrier import FORMS
from fblf_ilc.engine import (_ARRAY, _FLOAT, _table, check_delta_L,
                             monitor_L, run, run_iteration,
                             write_summary_csv, write_trace_csv)
from fblf_ilc.learner import ParamMemory, TimeGrid, sat
from fblf_ilc.plant import (ErrorModelI, ErrorModelII, UncertaintySpec,
                            _desired, float_native, scalar_model_i,
                            scalar_model_ii, scheme, theta_path, value_bound)

TWO_PI = 2.0 * math.pi


def disc_cfg(bound=0.5):
    return ControllerConfig(mode=Mode.DISC, bound=bound, gamma=2.0,
                            theta_bar=1.0)


def cont_cfg(bound=0.5, eps=1e-2):
    return ControllerConfig(mode=Mode.CONT, bound=bound, gamma=2.0,
                            theta_bar=1.0, eps=eps)


FACTORIES = {"I": scalar_model_i, "II": scalar_model_ii}
# the bound of each built-in's reference runs (disc_cfg, criteria 4-5)
REF_BOUND = {"I": 0.5, "II": 1.0}


def quiet_model():
    """Built-in scalar plant with the uncertainty switched off."""
    base = scalar_model_i()
    silent = UncertaintySpec(w=lambda x, t: 0.0 * x, rho=lambda e, t: 0.0)
    return ErrorModelI(n=1, m=1, f=base.f, g=base.g, x_d=base.x_d,
                       uncertainty=silent, certificate=base.certificate,
                       T=base.T)


def replace_callables(model, wrap):
    """model with x_d and each state callable the closed loop calls (V,
    LgV, f, g, w, rho; model II has only w and rho) replaced by
    wrap(name, fn)."""
    unc = model.uncertainty
    fields = {"x_d": wrap("x_d", model.x_d),
              "uncertainty": dataclasses.replace(
                  unc, w=wrap("w", unc.w), rho=wrap("rho", unc.rho))}
    if isinstance(model, ErrorModelI):
        cert = model.certificate
        fields.update(f=wrap("f", model.f), g=wrap("g", model.g),
                      certificate=dataclasses.replace(
                          cert, V=wrap("V", cert.V),
                          LgV=wrap("LgV", cert.LgV)))
    return dataclasses.replace(model, **fields)


# the return forms a float-native model's callables may use besides a
# float: V and rho return a float or a numpy scalar, and LgV, f, g, w and
# x_d may also return a one-element array
RETURNS = {"numpy-scalar": np.float64,
           "one-element-array": lambda y: np.array([y])}
CONTRACT = ([(f, "numpy-scalar")
             for f in ("V", "LgV", "f", "g", "w", "rho", "x_d")]
            + [(f, "one-element-array") for f in ("LgV", "f", "g", "w", "x_d")])
# (model, theorem, return form of each callable that returns no float):
# each form alone, then all of model I's callables at once in both
# schemes, mixing the forms in model I's sum f + g (u + w), and model II's
NP, ARR = "numpy-scalar", "one-element-array"
RETURN_CASES = [pytest.param("I", 1, {f: form}, id=f"{f}-{form}")
                for f, form in CONTRACT] + [
    pytest.param("I", 1, dict(V=NP, LgV=ARR, f=NP, g=ARR, w=NP, rho=NP,
                              x_d=ARR), id="I-all-thm1-disc"),
    pytest.param("I", 2, dict(V=NP, LgV=NP, f=ARR, g=NP, w=ARR, rho=NP,
                              x_d=NP), id="I-all-thm2-cont"),
    pytest.param("II", 1, dict(w=ARR, rho=NP), id="II-w-rho"),
    pytest.param("II", 2, dict(x_d=NP), id="II-x_d-thm2-cont")]


class TestRunIteration:
    def test_origin_invariant_without_uncertainty(self):
        model = quiet_model()
        memory = ParamMemory(TimeGrid(T=model.T, N=200), m=1)
        tr = run_iteration(model, disc_cfg(), memory, scheme(model, 1))
        assert not tr.breach
        np.testing.assert_allclose(tr.e, 0.0, atol=1e-15)
        np.testing.assert_allclose(tr.u, 0.0, atol=1e-15)

    def test_alignment_every_iteration(self):
        model = scalar_model_i()
        memory = ParamMemory(TimeGrid(T=model.T, N=200), m=1)
        for k in range(3):
            tr = run_iteration(model, disc_cfg(), memory, scheme(model, 1),
                               k=k)
            assert tr.e[0] == pytest.approx(0.0)

    def test_constraint_respected_iteration_zero(self):
        model = scalar_model_i()
        memory = ParamMemory(TimeGrid(T=model.T, N=500), m=1)
        tr = run_iteration(model, disc_cfg(bound=0.5), memory,
                           scheme(model, 1))
        assert not tr.breach
        assert np.max(tr.V) < 0.5

    def test_breach_truncates_and_flags(self):
        # a bound this tight is violated immediately by the transient
        model = scalar_model_i()
        memory = ParamMemory(TimeGrid(T=model.T, N=500), m=1)
        tr = run_iteration(model, disc_cfg(bound=1e-6), memory,
                           scheme(model, 1))
        assert tr.breach
        assert tr.breach_node is not None
        assert np.all(np.isnan(tr.V[tr.breach_node + 1:]))

    @pytest.mark.parametrize("theorem, cfg", [
        pytest.param(1, disc_cfg(), id="thm1-disc"),
        pytest.param(2, cont_cfg(), id="thm2-cont"),
        pytest.param(1, cont_cfg(), id="thm1-cont")])
    @pytest.mark.parametrize("name", ["I", "II"])
    def test_input_is_minus_estimate_minus_robust(self, name, theorem, cfg):
        # u = -theta_hat - s(z, rho) at every node, bit for bit, with
        # z = d1(V, bound) * grad of the theorem's gain kind
        model = FACTORIES[name]()
        memory = ParamMemory(TimeGrid(T=model.T, N=200), m=1)
        tr = run_iteration(model, cfg, memory, scheme(model, theorem))
        assert not tr.breach
        grad = model.loop_terms(_FLOAT)[1]
        d1 = FORMS[scheme(model, theorem).gain][1]
        bound = value_bound(model, cfg.bound)
        robust = robust_term(cfg, _FLOAT.dot)
        for i, t in enumerate(tr.t):
            x = _FLOAT.unwrap(tr.e[i])
            s = robust(d1(tr.V[i], bound) * grad(x, t),
                       model.uncertainty.rho(x, t))
            np.testing.assert_array_equal(tr.u[i], -tr.theta_hat[i] - s)

    def test_node_evaluation_is_first_stage(self, monkeypatch):
        # the node's V, LgV, rho and robust term serve RK4's k1: per
        # interval, four stage evaluations and no repeat, plus one at the
        # final node, and four of f, g and w (engine's docstring)
        counts = {}

        def counted(name, fn):
            counts[name] = 0

            def wrapper(*args):
                counts[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(engine, "robust_term", lambda *args: counted(
            "robust", robust_term(*args)))
        N = 50
        one = replace_callables(scalar_model_i(), counted)
        memory = ParamMemory(TimeGrid(T=one.T, N=N), m=1)
        assert not run_iteration(one, disc_cfg(), memory,
                                 scheme(one, 1)).breach
        assert counts == {"f": 4 * N, "g": 4 * N, "w": 4 * N,
                          "V": 4 * N + 1, "LgV": 4 * N + 1, "rho": 4 * N + 1,
                          "robust": 4 * N + 1, "x_d": 2 * N + 1}

        counts.clear()
        two = replace_callables(scalar_model_ii(), counted)
        memory = ParamMemory(TimeGrid(T=two.T, N=N), m=1)
        assert not run_iteration(two, disc_cfg(bound=1.0), memory,
                                 scheme(two, 1)).breach
        assert counts == {"w": 4 * N, "rho": 4 * N + 1, "robust": 4 * N + 1,
                          "x_d": 2 * N + 1}

    @pytest.mark.parametrize("name", ["I", "II"])
    def test_float_native_callables_receive_floats(self, name):
        # n = m = 1: every state callable gets the loop's Python float
        seen = set()

        def typed(field, fn):
            def wrapper(x, *t):
                seen.add((field, type(x)))
                return fn(x, *t)
            return wrapper

        model = replace_callables(FACTORIES[name](), typed)
        memory = ParamMemory(TimeGrid(T=model.T, N=50), m=1)
        cfg = disc_cfg(bound=REF_BOUND[name])
        assert not run_iteration(model, cfg, memory, scheme(model, 1)).breach
        # x_d, too, gets its time as a float
        fields = (("V", "LgV", "f", "g", "w", "rho", "x_d") if name == "I"
                  else ("w", "rho", "x_d"))
        assert seen == {(field, float) for field in fields}

    @pytest.mark.parametrize("name, theorem, forms", RETURN_CASES)
    def test_callable_return_forms(self, name, theorem, forms):
        # each return form the contract allows, alone or mixed, gives the
        # built-in's run, whose callables return floats, bit for bit
        def returning(field, fn):
            if field not in forms:
                return fn
            form = RETURNS[forms[field]]
            return lambda *args: form(fn(*args))

        bound = REF_BOUND[name]
        cfg = disc_cfg(bound) if theorem == 1 else cont_cfg(bound)
        model = replace_callables(FACTORIES[name](), returning)
        want = run(FACTORIES[name](), cfg, K=3, N=50, theorem=theorem)
        got = run(model, cfg, K=3, N=50, theorem=theorem)
        for a, b in zip(want.traces, got.traces):
            for f in ("e", "u", "V", "theta_hat", "L"):
                assert same_bits(getattr(a, f), getattr(b, f)), f
        assert same_bits([dataclasses.astuple(s) for s in want.summaries],
                         [dataclasses.astuple(s) for s in got.summaries])

    def test_theorem_outside_the_model_types_table_rejected(self,
                                                            monkeypatch):
        # run's one lookup raises a ValueError, not a KeyError, before it
        # builds a memory that the loop would learn into
        memories = []

        def recorded(*args, **kwargs):
            memories.append(ParamMemory(*args, **kwargs))
            return memories[-1]

        monkeypatch.setattr(engine, "ParamMemory", recorded)
        with pytest.raises(ValueError, match="theorem must be one of"):
            run(scalar_model_i(), disc_cfg(), K=2, N=10, theorem=3)
        assert memories == []
        run(scalar_model_i(), disc_cfg(), K=2, N=10, theorem=1)
        memory, = memories
        assert memory.theta_star.any()

    def test_grid_mismatch_rejected(self):
        model = scalar_model_i()
        memory = ParamMemory(TimeGrid(T=1.0, N=100), m=1)
        with pytest.raises(ValueError):
            run_iteration(model, disc_cfg(), memory, scheme(model, 1))

    def test_tiny_horizon_mismatch_rejected(self):
        # the horizons are compared exactly: at T = 1e-100 an absolute
        # tolerance would pass a grid on half the model's horizon
        model = scalar_model_i(T=1e-100)
        memory = ParamMemory(TimeGrid(T=5e-101, N=10), m=1)
        with pytest.raises(ValueError, match="horizon"):
            run_iteration(model, disc_cfg(), memory, scheme(model, 1))

    # both loops: the float loop of model I with a 2-wide memory, and the
    # array loop of a 2-input model with a 1-wide one; the memory is left
    # as it was
    @pytest.mark.parametrize("factory, m, model_m", [
        pytest.param(scalar_model_i, 2, 1, id="float-loop"),
        # a lambda, as two_channel_model is defined further down
        pytest.param(lambda: two_channel_model(), 1, 2, id="array-loop")])
    def test_width_mismatch_rejected(self, factory, m, model_m):
        model = factory()
        memory = ParamMemory(TimeGrid(T=model.T, N=10), m=m)
        with pytest.raises(ValueError, match=f"^memory width {m} does not "
                           f"match model input width {model_m}$"):
            run_iteration(model, disc_cfg(bound=1.0), memory,
                          scheme(model, 1))
        assert not memory.theta_star.any()

    # both loops, with a table built for half and for twice the memory's
    # N: the shorter one ran out mid-iteration, the longer one ran on the
    # wrong reference; theta_star is left as it was
    @pytest.mark.parametrize("table_N", [10, 40])
    @pytest.mark.parametrize("factory", [
        pytest.param(scalar_model_i, id="float-loop"),
        pytest.param(lambda: two_channel_model(), id="array-loop")])
    def test_xd_table_length_mismatch_rejected(self, factory, table_N):
        model = factory()
        cfg = disc_cfg(bound=1.0)
        memory = ParamMemory(TimeGrid(T=model.T, N=20), m=model.m)
        run_iteration(model, cfg, memory, scheme(model, 1))
        before = memory.theta_star.tobytes()
        table = _desired(model, TimeGrid(T=model.T, N=table_N).times)
        with pytest.raises(ValueError, match=f"^x_d table length "
                           f"{2 * table_N + 1} does not match grid times "
                           f"length 41$"):
            run_iteration(model, cfg, memory, scheme(model, 1),
                          xd_table=table)
        assert memory.theta_star.tobytes() == before

    def test_saturates_at_theta_bar(self):
        # the memory saturates at the config's theta_bar, which the
        # monitor and the saturation statistics read
        model = scalar_model_i()
        cfg = dataclasses.replace(disc_cfg(), theta_bar=0.1)
        memory = ParamMemory(TimeGrid(T=model.T, N=200), m=1)
        for k in range(3):
            tr = run_iteration(model, cfg, memory, scheme(model, 1), k=k)
            assert not tr.breach
        assert np.abs(memory.theta_star).max() > 0.1
        assert np.abs(tr.theta_hat).max() == 0.1
        assert same_bits(tr.theta_hat, sat(memory.theta_star, 0.1))

    def test_stage_times_are_desired_path_times(self):
        # x_d and every state callable are read at the same instants: the
        # node, the midpoint and the end of each interval off grid.times
        seen = {}

        def recording(name, fn):
            seen[name] = set()

            def wrapped(*args):
                seen[name].add(args[-1])
                return fn(*args)
            return wrapped

        model = replace_callables(scalar_model_i(), recording)
        result = run(model, disc_cfg(), K=1, N=2000)
        assert not result.any_breach
        for name in ("V", "LgV", "f", "g", "w", "rho"):
            assert seen[name] and seen[name] <= seen["x_d"], name
        assert seen["x_d"] == set(result.grid.times)

    def test_continuous_mode_smooth_input(self):
        model = scalar_model_i()
        N = 500
        memory = ParamMemory(TimeGrid(T=model.T, N=N), m=1)
        tr = run_iteration(model, cont_cfg(eps=1e-2), memory, scheme(model, 1))
        dt = model.T / N
        jumps = np.abs(np.diff(tr.u[:, 0]))
        # du/dt is bounded along the trace, so node jumps scale with dt
        rate = (np.abs(np.gradient(tr.u[:, 0], dt)).max())
        assert jumps.max() <= 2.0 * rate * dt + 1e-9

    # f = -e until t = 3, then inf (a blow-up at t = 3.0631) or 1e3 (a
    # breach inside an integrator stage of interval 19)
    @pytest.mark.parametrize("after", [math.inf, 1e3], ids=["blowup", "breach"])
    def test_memory_written_back_on_every_exit(self, after):
        # theta_star after the iteration as per-node writes leave it:
        # nodes 0-19 learned, node 0 with z = 0, nodes 20-40 untouched
        base = dataclasses.replace(
            scalar_model_i(), f=lambda e, t: -e if t < 3 else after)
        for model in (base, lift(base)):
            memory = ParamMemory(TimeGrid(T=model.T, N=40), m=1)
            if after == math.inf:
                with pytest.raises(engine.NonFiniteStateError,
                                   match="t=3.063052837250048"):
                    run_iteration(model, disc_cfg(), memory, scheme(model, 1))
            else:
                tr = run_iteration(model, disc_cfg(), memory,
                                   scheme(model, 1))
                assert tr.breach_node == 19 and np.isfinite(tr.V[19])
            star = memory.theta_star
            assert np.count_nonzero(star) == 19 and not star[20:].any()
            digest = hashlib.sha256(star.tobytes()).hexdigest()
            assert digest.startswith("ea5802ab7102201a")


class TestMonitor:
    def test_zero_error_zero_estimate_closed_form(self):
        # with e = 0 and theta_hat = 0, L(T) = (1/2 gamma) * int theta^2
        model = scalar_model_i()
        gamma = 2.0
        memory = ParamMemory(TimeGrid(T=model.T, N=2000), m=1)
        tr = run_iteration(quiet_model(), disc_cfg(), memory, scheme(model, 1))
        # overwrite with the built-in model's theta: int 0.25 sin^2 = 0.25*pi
        monitor_L([tr], model, disc_cfg(), scheme(model, 1))
        assert tr.L[-1] == pytest.approx(0.25 * math.pi / (2 * gamma), rel=1e-6)

    def test_perfect_estimate_gives_zero(self):
        model = scalar_model_i()
        memory = ParamMemory(TimeGrid(T=model.T, N=200), m=1)
        tr = run_iteration(quiet_model(), disc_cfg(), memory, scheme(model, 1))
        for i, t in enumerate(tr.t):
            tr.theta_hat[i] = 0.5 * math.sin(t)
        monitor_L([tr], model, disc_cfg(), scheme(model, 1))
        np.testing.assert_allclose(tr.L, 0.0, atol=1e-12)

    def test_nondecreasing_when_v_zero(self):
        model = scalar_model_i()
        memory = ParamMemory(TimeGrid(T=model.T, N=200), m=1)
        tr = run_iteration(quiet_model(), disc_cfg(), memory, scheme(model, 1))
        monitor_L([tr], model, disc_cfg(), scheme(model, 1))
        assert np.all(np.diff(tr.L) >= -1e-15)

    @pytest.mark.parametrize("other", [
        pytest.param((scalar_model_i(T=1.0), 50), id="horizon"),
        pytest.param((scalar_model_i(), 60), id="N")])
    def test_traces_on_another_grid_rejected(self, other):
        traces = []
        for k, (model, N) in enumerate([(scalar_model_i(), 50), other]):
            memory = ParamMemory(TimeGrid(T=model.T, N=N), m=1)
            traces.append(run_iteration(model, disc_cfg(), memory,
                                        scheme(model, 1), k=k))
        with pytest.raises(ValueError, match="^trace k=1 is not on the "
                                             "time grid of trace k=0$"):
            monitor_L(traces, scalar_model_i(), disc_cfg(),
                      scheme(scalar_model_i(), 1))
        assert [tr.L for tr in traces] == [None, None]

    def test_no_traces_rejected(self):
        # the check comes first, so it reads neither the model nor the
        # scheme
        model = scalar_model_i()
        with pytest.raises(ValueError, match="^monitor_L got no traces$"):
            monitor_L([], model, disc_cfg(), scheme(model, 1))
        with pytest.raises(ValueError, match="^monitor_L got no traces$"):
            monitor_L([], None, None, None)


class TestRun:
    def test_k0_rejected(self):
        with pytest.raises(ValueError, match="^K must be >= 1$"):
            run(scalar_model_i(), disc_cfg(), K=0, N=10)

    def test_k1_matches_single_iteration(self):
        model = scalar_model_i()
        result = run(model, disc_cfg(), K=1, N=200)
        memory = ParamMemory(TimeGrid(T=model.T, N=200), m=1)
        tr = run_iteration(model, disc_cfg(), memory, scheme(model, 1))
        np.testing.assert_allclose(result.traces[0].e, tr.e)
        assert tr.L is None  # set by monitor_L, which run calls
        assert len(result.summaries) == 1

    def test_scheme_looked_up_once(self, monkeypatch):
        # run resolves its theorem once; the loop, the monitor and the
        # delta-L check read the Scheme it keeps
        calls = []

        def counted(model, theorem):
            calls.append(theorem)
            return scheme(model, theorem)

        monkeypatch.setattr(plant, "scheme", counted)
        result = run(scalar_model_i(), disc_cfg(), K=3, N=50, theorem=1)
        check_delta_L(result)
        assert calls == [1]
        assert result.scheme == ErrorModelI.theorems[1]

    def test_monitor_called_once_per_run(self, monkeypatch):
        # run monitors all K traces in one call, after the last iteration
        calls = []

        def counted(traces, *args, **kwargs):
            calls.append([tr.k for tr in traces])
            return monitor_L(traces, *args, **kwargs)

        monkeypatch.setattr(engine, "monitor_L", counted)
        run(scalar_model_i(), disc_cfg(), K=3, N=50)
        assert calls == [[0, 1, 2]]

    @pytest.mark.parametrize("name", ["I", "II"])
    def test_x_d_calls_per_run(self, name):
        # 2N + 1 for the table every iteration reads, once per run, and
        # N + 1 for the monitor's theta, whatever K is
        calls = []

        def x_d(t):
            calls.append(t)
            return math.sin(t)

        model = dataclasses.replace(FACTORIES[name](), x_d=x_d)
        N = 50
        result = run(model, disc_cfg(bound=REF_BOUND[name]), K=3, N=N)
        assert not result.any_breach
        assert len(calls) == 3 * N + 2
        assert calls == result.grid.times + result.grid.nodes.tolist()

    def test_breach_rows_masked(self):
        # each iteration after the first breaches inside an integrator
        # stage of interval breach_node, whose node row holds a finite V
        model = scalar_model_i()
        result = run(model, disc_cfg(bound=0.05), K=4, N=10)
        assert [tr.breach_node for tr in result.traces] == [None, 5, 4, 6]
        assert all(tr.t is result.grid.nodes for tr in result.traces)
        for tr in result.traces[1:]:
            assert np.isfinite(tr.V[tr.breach_node])
            assert np.isnan(tr.L[tr.breach_node])
            assert np.isfinite(tr.L[:tr.breach_node]).all()
        assert_monitored_and_summarised(result)

    @pytest.mark.parametrize("block", [1, 25, 33])
    def test_blocks_do_not_move_a_bit(self, monkeypatch, block):
        # 11 node rows: blocks of one trace, of two (2, 2, 1) and of
        # three (3, 2)
        cfg = disc_cfg(bound=0.05)
        want = run(scalar_model_i(), cfg, K=5, N=10)
        monkeypatch.setattr(engine, "_BLOCK", block)
        got = run(scalar_model_i(), cfg, K=5, N=10)
        assert same_bits([tr.L for tr in got.traces],
                         [tr.L for tr in want.traces])
        assert (repr([dataclasses.astuple(s) for s in got.summaries])
                == repr([dataclasses.astuple(s) for s in want.summaries]))
        assert_monitored_and_summarised(got)

    def test_update_node_once_per_finite_V_row(self, monkeypatch):
        # the learner runs once at each node whose V was read inside the
        # bound, so once per trace row with a finite V, breaches included
        calls = []
        update = ParamMemory.update_node

        def counted(self, *args, **kwargs):
            calls.append(args[0])
            return update(self, *args, **kwargs)

        monkeypatch.setattr(ParamMemory, "update_node", counted)
        breaches = 0
        for model in (scalar_model_i(), lift(scalar_model_i()),
                      scalar_model_ii()):
            for theorem, cfg in ((1, disc_cfg(bound=0.05)), (2, cont_cfg())):
                calls.clear()
                result = run(model, cfg, K=4, N=10, theorem=theorem)
                assert calls == [i for tr in result.traces
                                 for i in np.flatnonzero(np.isfinite(tr.V))]
                breaches += sum(tr.breach for tr in result.traces)
        assert breaches > 0

    def test_breach_at_first_node_gives_nan_summaries(self):
        # V(0, t) = 1 is past the bound 0.5 before any row is written
        base = scalar_model_i()
        model = dataclasses.replace(base, certificate=dataclasses.replace(
            base.certificate, V=lambda e, t: 1.0 + 0.5 * (e * e)))
        for each in (model, lift(model)):
            result = run(each, disc_cfg(), K=2, N=10)
            for tr, s in zip(result.traces, result.summaries):
                assert tr.breach_node == 0 and np.isnan(tr.L).all()
                assert all(map(math.isnan, (s.sup_e, s.sup_V, s.L_T,
                                            s.delta_L)))
                assert s.violations == 1
            assert_monitored_and_summarised(result)

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


def assert_monitored_and_summarised(result):
    """Each trace's L, sup_e and sup_V are what monitor_L gives for that
    trace alone, and sup_e and sup_V are max |e| and max V over its
    valid rows (NaN when it has none), all bit for bit."""
    model, config, scheme = result.model, result.config, result.scheme
    for tr, s in zip(result.traces, result.summaries):
        alone = dataclasses.replace(tr, L=None)
        [own] = monitor_L([alone], model, config, scheme)
        assert same_bits(alone.L, tr.L)
        assert same_bits([own.sup_e, own.sup_V], [s.sup_e, s.sup_V])
        sel = tr.valid
        if sel.stop:
            assert same_bits(s.sup_e,
                             np.max(np.linalg.norm(tr.e[sel], axis=1)))
            assert same_bits(s.sup_V, np.max(tr.V[sel]))
        else:
            assert math.isnan(s.sup_e) and math.isnan(s.sup_V)


class TestRunProperties:
    """Invariants of any run: the estimate stays within theta_bar, V
    below the bound on the nodes before a breach and NaN after it, and
    the delta-L verdicts follow from the traces."""

    @pytest.mark.parametrize("mode", [Mode.DISC, Mode.CONT])
    @pytest.mark.parametrize("name", ["I", "II"])
    @settings(max_examples=25, deadline=None)
    @given(share=st.floats(0.05, 2.0), gamma=st.floats(0.5, 4.0),
           theta_bar=st.floats(0.5, 2.0), eps=st.floats(1e-3, 3e-2),
           theorem=st.sampled_from([1, 2]), N=st.sampled_from([10, 20, 50]))
    def test_invariants(self, name, mode, share, gamma, theta_bar, eps,
                        theorem, N):
        model = FACTORIES[name]()
        cfg = ControllerConfig(mode=mode, bound=share * REF_BOUND[name],
                               gamma=gamma, theta_bar=theta_bar,
                               eps=eps if mode is Mode.CONT else None)
        result = run(model, cfg, K=3, N=N, theorem=theorem)
        bound = value_bound(model, cfg.bound)
        for tr in result.traces:
            assert tr.breach == (tr.breach_node is not None)
            sel = tr.valid
            assert np.all(np.abs(tr.theta_hat[sel]) <= theta_bar)
            assert np.all(tr.V[sel] < bound)
            if tr.breach:
                assert np.all(np.isnan(tr.V[tr.breach_node + 1:]))
        # a verdict for each pair of unbreached iterations, read off L(T)
        traces = result.traces
        verdicts = check_delta_L(result)
        assert [v.k for v in verdicts] == [
            k for k in range(1, 3)
            if not (traces[k - 1].breach or traces[k].breach)]
        for v in verdicts:
            assert v.delta_L == traces[v.k].L[-1] - traces[v.k - 1].L[-1]
            assert v.passed == (v.delta_L <= v.required + v.slack)


class TestDeltaL:
    def test_healthy_run_passes(self):
        result = run(scalar_model_i(), disc_cfg(), K=8, N=500)
        verdicts = check_delta_L(result)
        assert len(verdicts) == 7
        assert all(v.passed for v in verdicts)

    def test_corrupted_sequence_detected(self):
        result = run(scalar_model_i(), disc_cfg(), K=5, N=300)
        # check_delta_L reads L(T) and delta L off the summaries
        cur = result.summaries[3]
        cur.L_T, cur.delta_L = result.summaries[2].L_T + 1.0, 1.0
        verdicts = check_delta_L(result)
        assert any(not v.passed for v in verdicts)

    @pytest.mark.parametrize("share, passed", [(0.5, True), (1.5, False)])
    def test_slack_is_relative(self, share, passed):
        # |L(T)| ~ 38, so a delta L above required by share * 1e-6 * |L(T)|
        # passes only within the relative slack 1e-6 * (1 + |L(T)|)
        cfg = ControllerConfig(mode=Mode.DISC, bound=0.5, gamma=0.01,
                               theta_bar=1.0)
        result = run(scalar_model_i(), cfg, K=3, N=50)
        cur = result.summaries[2]
        assert abs(cur.L_T) > 30
        required = check_delta_L(result)[1].required
        cur.delta_L = required + 1e-6 * (1.0 + share * abs(cur.L_T))
        verdict = check_delta_L(result)[1]
        assert (verdict.k, verdict.delta_L) == (2, cur.delta_L)
        assert verdict.passed is passed

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

    def test_every_writer_needs_no_quoting(self, tmp_path):
        # csv.reader reads each file as a plain split on "," and CRLF: a
        # trace with NaN rows and breach flags, its summary's NaN delta_L
        # and the report's empty fields all go through _csv_lines bare
        result = run(scalar_model_i(), disc_cfg(bound=0.05), K=4, N=10)
        assert result.any_breach
        write_trace_csv(result, tmp_path / "trace.csv")
        write_summary_csv(result, tmp_path / "summary.csv")
        blf_report([0.5, 2.0]).to_csv(tmp_path / "blf_report.csv")
        fields = {}
        for name in ("trace.csv", "summary.csv", "blf_report.csv"):
            text = (tmp_path / name).read_bytes().decode()
            assert text.endswith("\r\n")
            split = [line.split(",") for line in text[:-2].split("\r\n")]
            assert list(csv.reader(io.StringIO(text, newline=""))) == split
            fields[name] = split
        assert any(row[-1] == "1" and row[4] == "nan"
                   for row in fields["trace.csv"])
        assert any(row[4] == "nan" for row in fields["summary.csv"][1:])
        assert any("" in row for row in fields["blf_report.csv"])


def lift(model):
    """A 2-state lift of a built-in: the second state is decoupled and
    zero, g/b = [[1], [0]], and the uncertainty, V and the gradient read
    the first state only, as the float the built-in takes.  It runs
    through the engine's array form."""
    col = np.array([[1.0], [0.0]])
    unc = UncertaintySpec(w=lambda x, t: model.uncertainty.w(x[:1], t),
                          rho=lambda e, t: model.uncertainty.rho(e[0], t))

    def x_d(t):
        return np.append(model.x_d(t), 0.0)

    if isinstance(model, ErrorModelI):
        cert = dataclasses.replace(
            model.certificate,
            V=lambda e, t: model.certificate.V(e[0], t),
            LgV=lambda e, t: np.array([model.certificate.LgV(e[0], t)]))
        return dataclasses.replace(model, n=2, g=lambda e, t: col, x_d=x_d,
                                   uncertainty=unc, certificate=cert)
    eye = np.eye(2)
    return ErrorModelII(A=model.A[0, 0] * eye, b=col, P=model.P[0, 0] * eye,
                        x_d=x_d, uncertainty=unc, T=model.T)


# (model, bound, N): a bound that holds, a bound where b * b and b ** 2
# (model I) or Theorem 1's gain and monitor (model II) differ, and a
# coarse grid whose iterations breach inside an integrator stage
LIFT_CASES = [("I", 0.5, 200), ("I", 0.01985, 200), ("I", 0.05, 10),
              ("II", 1.0, 200), ("II", 2.0, 200), ("II", 0.2, 20)]


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
        assert float_native(model)
        assert not float_native(lift(model))
        for a, b in zip(scalar.traces, lifted.traces):
            assert (a.breach, a.breach_node) == (b.breach, b.breach_node)
            assert np.array_equal(a.e, b.e[:, :1], equal_nan=True)
            assert np.all(b.e[a.valid, 1] == 0.0)
            for f in ("u", "V", "theta_hat", "L"):
                assert np.array_equal(getattr(a, f), getattr(b, f),
                                      equal_nan=True), f
        assert np.array_equal(
            [dataclasses.astuple(s) for s in scalar.summaries],
            [dataclasses.astuple(s) for s in lifted.summaries],
            equal_nan=True)
        assert np.array_equal(scalar.memory.theta_star,
                              lifted.memory.theta_star)
        assert_monitored_and_summarised(lifted)

    @pytest.mark.parametrize("name, bound, N", [c for c in LIFT_CASES
                                                if c[2] < 200])
    def test_breach_leaves_later_nodes_of_memory_untouched(self, name, bound,
                                                           N):
        cfg = disc_cfg(bound=bound)
        for model in (FACTORIES[name](), lift(FACTORIES[name]())):
            memory = ParamMemory(TimeGrid(T=model.T, N=N), m=1)
            memory.theta_star[:] = 0.25
            before = memory.theta_star.copy()
            tr = run_iteration(model, cfg, memory, scheme(model, 1))
            assert tr.breach and 0 < tr.breach_node < N
            # the breach is inside the interval after breach_node, whose
            # node was learned before its stages ran
            assert np.isfinite(tr.V[tr.breach_node])
            assert np.array_equal(memory.theta_star[tr.breach_node + 1:],
                                  before[tr.breach_node + 1:])
            assert not np.array_equal(memory.theta_star[:tr.breach_node + 1],
                                      before[:tr.breach_node + 1])

    # (model, bound, N, breach at the node itself): two breaches inside an
    # integrator stage of interval breach_node, two at node breach_node
    @pytest.mark.parametrize("name, bound, N, at_node",
                             [("I", 0.01, 10, False), ("II", 0.2, 10, False),
                              ("I", 0.0025, 10, True), ("II", 0.05, 10, True)])
    def test_breach_leaves_later_rows_nan(self, name, bound, N, at_node):
        for model in (FACTORIES[name](), lift(FACTORIES[name]())):
            memory = ParamMemory(TimeGrid(T=model.T, N=N), m=1)
            tr = run_iteration(model, disc_cfg(bound=bound), memory,
                               scheme(model, 1))
            assert tr.breach and 0 < tr.breach_node < N
            first = tr.breach_node if at_node else tr.breach_node + 1
            for f in ("e", "u", "V", "theta_hat"):
                rows = getattr(tr, f)
                assert np.all(np.isfinite(rows[:first])), f
                assert np.all(np.isnan(rows[first:])), f

    def test_breach_at_first_node_leaves_every_row_nan(self):
        # V(0, t) = 1 is past the bound 0.5 before any row is written
        base = scalar_model_i()
        model = dataclasses.replace(base, certificate=dataclasses.replace(
            base.certificate, V=lambda e, t: 1.0 + 0.5 * (e * e)))
        for each in (model, lift(model)):
            memory = ParamMemory(TimeGrid(T=each.T, N=10), m=1)
            tr = run_iteration(each, disc_cfg(), memory, scheme(each, 1))
            assert tr.breach and tr.breach_node == 0
            for f in ("e", "u", "V", "theta_hat"):
                assert np.all(np.isnan(getattr(tr, f))), f


SIGNED = [0.0, -0.0, 1.0, -1.0, 0.5, -3.0, 1e-200, -1e-200, 5e-324, 1e300]


def same_bits(a, b):
    return np.array(a).tobytes() == np.array(b).tobytes()


def two_channel_model():
    """Two identical decoupled channels of model II: A = -I, B = I,
    P = I/2 (so Q = I), x_d = (sin t, sin t), w = x/2 and rho = |e|/2."""
    eye = np.eye(2)
    unc = UncertaintySpec(w=lambda x, t: 0.5 * x,
                          rho=lambda e, t: 0.5 * float(np.linalg.norm(e)))
    return ErrorModelII(A=-eye, b=eye, P=0.5 * eye,
                        x_d=lambda t: np.array([math.sin(t), math.sin(t)]),
                        uncertainty=unc, T=TWO_PI)


class TestTwoInputs:
    """m = 2 through the engine's array form: the two channels see the
    same arithmetic, so they learn and track bit for bit alike."""

    @pytest.mark.parametrize("theorem, cfg", [
        pytest.param(1, disc_cfg(bound=1.0), id="thm1-disc"),
        pytest.param(2, cont_cfg(bound=1.0, eps=1e-2), id="thm2-cont")])
    def test_identical_channels(self, tmp_path, theorem, cfg):
        model = two_channel_model()
        assert (model.n, model.m) == (2, 2)
        result = run(model, cfg, K=5, N=400, theorem=theorem)
        assert not result.any_breach
        assert_monitored_and_summarised(result)
        for tr in result.traces:
            for f in ("e", "u", "theta_hat"):
                col = getattr(tr, f)
                assert same_bits(col[:, 0], col[:, 1]), f
            assert np.max(np.abs(tr.theta_hat)) <= cfg.theta_bar
        verdicts = check_delta_L(result)
        assert len(verdicts) == 4 and all(v.passed for v in verdicts)
        write_trace_csv(result, tmp_path / "trace.csv")
        header = (tmp_path / "trace.csv").read_text().splitlines()[0]
        assert header == ("k,t,e0,e1,u0,u1,V,L,theta_hat0,theta_hat1,"
                          "breach")

    # (bound, breach node of each iteration, breach at the node itself):
    # V reaches the bound at node 1, or inside an integrator stage of the
    # interval after breach_node, whose node was learned before
    @pytest.mark.parametrize("bound, nodes, at_node", [
        pytest.param(0.07, [1, 1, 1], True, id="node"),
        pytest.param(0.5, [None, 7, 2], False, id="stage")])
    def test_breach(self, bound, nodes, at_node):
        model = two_channel_model()
        cfg = disc_cfg(bound=bound)
        memory = ParamMemory(TimeGrid(T=model.T, N=10), m=2)
        for k, node in enumerate(nodes):
            before = memory.theta_star.copy()
            tr = run_iteration(model, cfg, memory, scheme(model, 1), k=k)
            assert tr.breach_node == node
            star = memory.theta_star
            assert same_bits(star[:, 0], star[:, 1])
            for f in ("e", "u", "theta_hat"):
                col = getattr(tr, f)
                assert col.shape == (11, 2), f
                assert same_bits(col[:, 0], col[:, 1]), f
            if node is None:
                continue
            first = node if at_node else node + 1
            assert np.isnan(tr.V[first:]).all()
            for f in ("e", "u", "theta_hat"):
                col = getattr(tr, f)
                assert np.isfinite(col[:first]).all(), f
                assert np.isnan(col[first:]).all(), f
            # the write-back leaves the rows after the breach node as they
            # were, and keeps the rows learned before it
            assert same_bits(star[node + 1:], before[node + 1:])
            if not at_node:
                assert not np.array_equal(star[:node + 1],
                                          before[:node + 1])


def coupled_model():
    """A coupled 2-state model II with one input: A = [[0, 1], [-2, -3]]
    (poles -1 and -2), B = [[0], [1]] and the P with A'P + PA = -I; the
    uncertainty w = sin(x0)/2 reaches the input through both states, and
    rho = |e|/2 bounds its error-induced part."""
    unc = UncertaintySpec(w=lambda x, t: np.array([0.5 * math.sin(x[0])]),
                          rho=lambda e, t: 0.5 * float(np.linalg.norm(e)))
    return ErrorModelII(A=np.array([[0.0, 1.0], [-2.0, -3.0]]),
                        b=np.array([[0.0], [1.0]]),
                        P=np.array([[1.25, 0.25], [0.25, 0.25]]),
                        x_d=lambda t: np.array([math.sin(t), math.cos(t)]),
                        uncertainty=unc, T=TWO_PI)


class TestCoupledModel:
    """n = 2, m = 1 with coupled states through the engine's array form,
    where the lifts and two_channel_model keep the channels apart."""

    # b_e = 0.3 under Theorem 1 is left out: FI's gain is 1/b_e^2 times
    # the monitor's, and most of its delta-L verdicts fail
    @pytest.mark.parametrize("theorem, cfg", [
        pytest.param(1, disc_cfg(bound=1.0), id="thm1-b1"),
        pytest.param(2, cont_cfg(bound=1.0), id="thm2-b1"),
        pytest.param(2, cont_cfg(bound=0.3), id="thm2-b0.3")])
    def test_constraint_and_delta_L_hold(self, theorem, cfg):
        model = coupled_model()
        assert (model.n, model.m) == (2, 1)
        assert plant.check_uncertainty_bound(model)
        result = run(model, cfg, K=10, N=100, theorem=theorem)
        assert not result.any_breach
        assert_monitored_and_summarised(result)
        for tr in result.traces:
            e = tr.e[tr.valid]
            assert np.all(np.einsum("ij,jk,ik->i", e, model.P, e)
                          < cfg.bound ** 2)
            assert np.max(np.abs(tr.theta_hat)) <= cfg.theta_bar
        verdicts = check_delta_L(result)
        assert len(verdicts) == 9 and all(v.passed for v in verdicts)

    # unchecked, an x_d of shape (1,) broadcasts against e and runs on a
    # wrong reference, and (2, 1) and (3,) fail mid-iteration
    @pytest.mark.parametrize("shape", [(1,), (2, 1), (3,)],
                             ids=["1", "2x1", "3"])
    def test_xd_shape_rejected(self, shape):
        model = coupled_model()
        unc = dataclasses.replace(  # a w that reads both states
            model.uncertainty, w=lambda x, t: np.sin(x).sum(keepdims=True) / 4)
        model = dataclasses.replace(model, uncertainty=unc)
        cfg = disc_cfg(bound=1.0)
        memory = ParamMemory(TimeGrid(T=model.T, N=100), m=1)
        run_iteration(model, cfg, memory, scheme(model, 1))
        before = memory.theta_star.tobytes()
        model = dataclasses.replace(
            model, x_d=lambda t: np.full(shape, math.sin(t)))
        with pytest.raises(ValueError, match=re.escape(
                f"x_d returned shape {shape}, not (2,)")):
            run_iteration(model, cfg, memory, scheme(model, 1), k=1)
        assert memory.theta_star.tobytes() == before


class TestFloatShape:
    """The float loop gives numpy's one-element results bit for bit,
    signed zeros and underflow included."""

    def test_dot_and_matvec(self):
        # each model type's terms on floats, bare products under one 0.0
        # per term, give the bits of its terms on one-element arrays,
        # where numpy's dot and matmul add each product to 0.0; model
        # II's value e(Pe) needs no 0.0 for the P > 0 its construction
        # admits, since e's sign enters twice
        def w(x, t):
            return -0.0 * (x - x)  # -0.0 in x's form, so u + w is u

        def terms(a, b, shape):
            # model I's f = a and g = b, model II's A = P = a and b = b, in
            # shape's form; model I's value and grad are its certificate's
            as_array = shape is _ARRAY
            one = SimpleNamespace(
                f=lambda e, t: np.array([a]) if as_array else a,
                g=lambda e, t: np.array([[b]]) if as_array else b,
                uncertainty=unc, certificate=SimpleNamespace(V=0, LgV=0))
            two = SimpleNamespace(A=np.array([[a]]), b=np.array([[b]]),
                                  P=np.array([[a]]), uncertainty=unc)
            return (ErrorModelI.loop_terms(one, shape)[2],
                    *ErrorModelII.loop_terms(two, shape))

        unc = UncertaintySpec(w=w, rho=None)
        xd = np.zeros(1)
        with np.errstate(over="ignore", invalid="ignore"):
            for a, b in itertools.product(SIGNED, SIGNED):
                rhs_i, value, grad, rhs = terms(a, b, _FLOAT)
                arr_rhs_i, arr_value, arr_grad, arr_rhs = terms(a, b, _ARRAY)
                for e in SIGNED:
                    E = np.array([e])
                    if a > 0.0:
                        assert same_bits(value(e, 0.0), arr_value(E, 0.0)), (
                            a, e)
                    assert same_bits(grad(e, 0.0), arr_grad(E, 0.0)), (a, b, e)
                    for u in SIGNED:
                        U = np.array([u])
                        assert same_bits(rhs_i(e, 0.0, u, 0.0),
                                         arr_rhs_i(E, 0.0, U, xd)), (a, b, e, u)
                        assert same_bits(rhs(e, 0.0, u, 0.0),
                                         arr_rhs(E, 0.0, U, xd)), (a, b, e, u)

    def test_clamp(self):
        for v in SIGNED + [2.0, -2.0, math.inf, -math.inf, math.nan]:
            assert same_bits(_FLOAT.clamp(v, 1.0),
                             _ARRAY.clamp(np.array([v]), 1.0).item()), v

    @pytest.mark.parametrize("mode", ["disc", "cont"])
    def test_robust_term_on_the_float_dot(self, mode):
        # the robust term on the bare float product gives the bits of the
        # robust term on one-element arrays
        assert _FLOAT.dot is _FLOAT.matvec is operator.mul
        cfg = disc_cfg() if mode == "disc" else cont_cfg()
        by_float = robust_term(cfg, _FLOAT.dot)
        by_array = robust_term(cfg, _ARRAY.dot)
        rng = np.random.default_rng(22)
        zs = [s * x for x in (0.0, 5e-324, 1e-160, 1.5e154, 1e200, math.inf)
              for s in (1.0, -1.0)] + [math.nan]
        zs += [math.ldexp(float(rng.uniform(-1.0, 1.0)),
                          int(rng.integers(-1074, 1025))) for _ in range(300)]
        for z in zs:
            for rho in (0.0, 0.5, 3.0, float(rng.uniform(0.0, 10.0))):
                with np.errstate(over="ignore", invalid="ignore"):
                    want = by_array(np.array([z]), rho).item()
                assert same_bits(by_float(z, rho), want), (z, rho)

    def test_unwrap(self):
        # the model callables may return a float, a numpy scalar or a
        # one-element array; the loop reads each into a float
        # by plant's one converter, which x_d's output goes through too
        assert _FLOAT.unwrap is plant._item
        assert not hasattr(engine, "_item")
        for a, want in ((np.array([[2.5]]), 2.5), (np.array([1.0]), 1.0),
                        (np.float64(-1.5), -1.5), (-0.0, -0.0),
                        (np.array([3]), 3.0), (np.float32(0.5), 0.5)):
            got = _FLOAT.unwrap(a)
            assert type(got) is float and same_bits(got, want), a

    # more than one element is named by its shape, not by numpy's "can
    # only convert an array of size 1 to a Python scalar"
    @pytest.mark.parametrize("field", ["x_d", "f"])
    def test_oversized_output_rejected(self, field):
        model = scalar_model_i()
        fn = getattr(model, field)
        wide = dataclasses.replace(
            model, **{field: lambda *a: np.array([fn(*a), 0.0])})
        rule = re.escape("an n = m = 1 model's callables return a float or "
                         "a size-1 array, got shape (2,)")
        with pytest.raises(ValueError, match=rule):
            run(wide, disc_cfg(), K=2, N=20)
        if field == "x_d":  # rejected before any row is learned
            memory = ParamMemory(TimeGrid(T=model.T, N=20), m=1)
            run_iteration(model, disc_cfg(), memory, scheme(model, 1))
            before = memory.theta_star.tobytes()
            with pytest.raises(ValueError, match=rule):
                run_iteration(wide, disc_cfg(), memory, scheme(wide, 1), k=1)
            assert memory.theta_star.tobytes() == before

    def test_table_and_rows(self):
        # a column of floats and the same column as (1,) rows give one
        # table, bit for bit, whole or cut short with a NaN tail, and the
        # table is read back as a list of rows, as the array form reads
        # (1,) rows
        vals = SIGNED + [math.nan, -math.nan]
        N = len(vals)
        want = np.full((N, 1), 7.0)
        for i, x in enumerate(vals):
            want[i] = np.array([x])
        for cut in (N, 5, 0):
            by_float = _table(vals[:cut], (N, 1))
            by_row = _table([np.array([x]) for x in vals[:cut]], (N, 1))
            assert by_float.shape == by_row.shape == (N, 1)
            assert same_bits(by_float, by_row)
            assert same_bits(by_float[:cut], want[:cut])
            assert same_bits(by_float[cut:], np.full((N - cut, 1), np.nan))
            assert same_bits(_table(vals[:cut], (N,)), by_float[:, 0])
        got = _FLOAT.rows(want)
        assert all(type(x) is float for x in got)
        assert same_bits(got, [r.item() for r in _ARRAY.rows(want)])
        # and the whole list written back, as run_iteration does
        back = np.full_like(want, 7.0)
        back[:] = _table(got, back.shape)
        assert same_bits(back, want)

    @pytest.mark.parametrize("name", ["I", "II"])
    def test_desired_path_in_the_loops_form(self, name):
        # x_d at nodes and midpoints: floats for the built-in, (2,) arrays
        # for its lift, with the same bits in the first state
        grid = TimeGrid(T=TWO_PI, N=20)
        path = _desired(FACTORIES[name](), grid.times)
        lifted = _desired(lift(FACTORIES[name]()), grid.times)
        assert len(path) == len(lifted) == 2 * grid.N + 1
        assert all(type(x) is float for x in path)
        assert all(x.shape == (2,) for x in lifted)
        assert same_bits(path, [x[0] for x in lifted])

    def test_desired_path_copies_a_reused_array(self):
        # an x_d that refills and returns one array gives the same path
        base = lift(scalar_model_i())
        buf = np.zeros(2)

        def refilled(t):
            buf[:] = base.x_d(t)
            return buf

        grid = TimeGrid(T=TWO_PI, N=20)
        reused = dataclasses.replace(base, x_d=refilled)
        assert same_bits(_desired(reused, grid.times),
                         _desired(base, grid.times))


def csv_module_bytes(rows) -> bytes:
    """rows as csv.writer writes them, in its default excel dialect."""
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows(rows)
    return buf.getvalue().encode()


def trace_rows(result):
    """The rows of trace.csv: each trace's own node times and columns,
    with the rows from a breach node on flagged 1."""
    n, m = result.model.n, result.model.m
    rows = [["k", "t"] + [f"e{j}" for j in range(n)]
            + [f"u{j}" for j in range(m)] + ["V", "L"]
            + [f"theta_hat{j}" for j in range(m)] + ["breach"]]
    for tr in result.traces:
        for i, t in enumerate(tr.t):
            vals = [t, *tr.e[i], *tr.u[i], tr.V[i], tr.L[i], *tr.theta_hat[i]]
            flag = int(tr.breach and i >= tr.breach_node)
            rows.append([tr.k, *(repr(float(x)) for x in vals), flag])
    return rows


def summary_rows(result):
    rows = [["k", "sup_e", "sup_V", "L_T", "delta_L", "violations"]]
    for s in result.summaries:
        rows.append([s.k, repr(s.sup_e), repr(s.sup_V), repr(s.L_T),
                     repr(s.delta_L), s.violations])
    return rows


def signed_zero_and_subnormal():
    """A run with -0.0 and 5e-324 written into its traces and summary."""
    result = run(scalar_model_i(), disc_cfg(), K=2, N=10)
    tr = result.traces[1]
    tr.e[1, 0], tr.u[2, 0], tr.V[3] = -0.0, 5e-324, -0.0
    tr.L[4], tr.theta_hat[5, 0] = 5e-324, -5e-324
    result.summaries[0].sup_e = -0.0
    result.summaries[1].L_T = 5e-324
    return result


class TestCsvOracle:
    """Both CSVs are, byte for byte, csv.writer's rendering of the rows."""

    @pytest.mark.parametrize("case", ["lift-I", "lift-II", "breach",
                                      "signed-zero-subnormal"])
    def test_bytes_equal_csv_module(self, case, tmp_path):
        if case == "lift-I":
            result = run(lift(scalar_model_i()), disc_cfg(), K=2, N=20)
        elif case == "lift-II":
            result = run(lift(scalar_model_ii()), disc_cfg(bound=1.0), K=2,
                         N=20)
        elif case == "breach":
            # iterations that breach inside an integrator stage
            result = run(scalar_model_i(), disc_cfg(bound=0.01), K=2, N=10)
            assert all(tr.breach and np.isnan(tr.V[-1])
                       for tr in result.traces)
        else:
            result = signed_zero_and_subnormal()
        if case.startswith("lift"):
            assert result.model.n == 2
        tp, sp = tmp_path / "trace.csv", tmp_path / "summary.csv"
        write_trace_csv(result, tp)
        write_summary_csv(result, sp)
        assert tp.read_bytes() == csv_module_bytes(trace_rows(result))
        assert sp.read_bytes() == csv_module_bytes(summary_rows(result))
        if case == "signed-zero-subnormal":
            text = tp.read_text() + sp.read_text()
            assert all(f",{x}," in text
                       for x in ("-0.0", "5e-324", "-5e-324", "nan"))


def pointwise_theta(model, nodes):
    """theta at each node, point by point: x_d(t), copied and read as the
    model's callables take a state, then w(x_d(t), t)."""
    rows = []
    for t in nodes:
        xd = np.array(model.x_d(t), dtype=float)
        if model.n == model.m == 1:
            xd = xd.item()
        rows.append(np.array(model.uncertainty.w(xd, t), dtype=float,
                             ndmin=1))
    return np.stack(rows)


def with_timed_w(model):
    """model with a w that reads t and returns a (1,) array, from the
    float a float-native model's w gets and from its lift's (1,) slice."""
    unc = UncertaintySpec(
        w=lambda x, t: np.atleast_1d(0.5 * x + 0.25 * math.cos(3.0 * t)),
        rho=model.uncertainty.rho)
    return dataclasses.replace(model, uncertainty=unc)


class TestThetaTable:
    @settings(max_examples=200, deadline=None)
    @given(T=st.floats(1e-3, 100.0), N=st.integers(2, 10 ** 5))
    def test_half_grid_even_entries_are_the_nodes(self, T, N):
        # the premise of reading x_d at the nodes off the x_d table, and
        # the node grid is linspace(0, T, N + 1) as it always was
        half = np.linspace(0.0, T, 2 * N + 1)
        grid = TimeGrid(T, N)
        assert same_bits(half[::2], grid.nodes)
        assert same_bits(grid.nodes, np.linspace(0.0, T, N + 1))
        assert same_bits(grid.times, half)

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(["I", "II"]), lifted=st.booleans(),
           timed=st.booleans(), T=st.floats(1e-3, 100.0),
           N=st.integers(2, 400))
    def test_table_from_path_equals_pointwise(self, name, lifted, timed, T,
                                              N):
        model = FACTORIES[name](T=T)
        if timed:
            model = with_timed_w(model)
        if lifted:
            model = lift(model)
        grid = TimeGrid(T, N)
        want = pointwise_theta(model, grid.nodes)
        nodes = grid.nodes.tolist()
        # as monitor_L builds it, from x_d at the nodes
        assert want.shape == (N + 1, 1)
        got = theta_path(model, nodes)
        assert got.shape == want.shape and same_bits(got, want)
        got = theta_path(model, [nodes[N // 2]])[0]
        assert got.shape == (1,) and same_bits(got, want[N // 2])
