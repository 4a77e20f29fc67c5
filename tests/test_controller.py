import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fblf_ilc.barrier import FORMS
from fblf_ilc.controller import ControllerConfig, Mode, robust_term
from fblf_ilc.engine import _ARRAY, _FLOAT, run
from fblf_ilc.plant import scalar_model_i, scalar_model_ii, scheme, value_bound


def v(*xs):
    return np.array([float(x) for x in xs])


def zvec(model, theorem, bound):
    """The learning signal z(e, t, V) that the engine runs, at t = 0: d1
    of the gain kind times the model's gradient, on the float loop of
    the built-ins."""
    grad = model.loop_terms(_FLOAT)[1]
    d1 = FORMS[scheme(model, theorem).gain][1]
    b = value_bound(model, bound)
    return lambda e, V: d1(V, b) * grad(_FLOAT.unwrap(e), 0.0)


def z_model1(theorem, V, LgV, b_V):
    # the built-in certificate has LgV(e) = e
    return zvec(scalar_model_i(), theorem, b_V)(LgV, V)


def z_model2(theorem, e, b_e):
    # the built-in model has P = 1/2, B = 1
    return zvec(scalar_model_ii(), theorem, b_e)(e, 0.5 * float(e @ e))


def robust_disc(z, rho):
    cfg = ControllerConfig(mode=Mode.DISC, bound=1.0, gamma=1.0, theta_bar=1.0)
    return robust_term(cfg, _ARRAY.dot)(z, rho)


def robust_cont(z, rho, eps):
    cfg = ControllerConfig(mode=Mode.CONT, bound=1.0, gamma=1.0, theta_bar=1.0,
                           eps=eps)
    return robust_term(cfg, _ARRAY.dot)(z, rho)


class TestZBuilders:
    def test_thm1_zero_lgv(self):
        assert z_model1(1, 0.0, v(0), 1.0) == pytest.approx(0.0)

    def test_thm1_mid(self):
        assert z_model1(1, 0.5, v(1), 1.0) == pytest.approx(4.0)

    def test_thm1_origin_gain(self):
        assert z_model1(1, 0.0, v(1), 2.0) == pytest.approx(1.0)

    def test_thm2_values(self):
        assert z_model1(2, 0.0, v(1), 1.0) == pytest.approx(2.0)
        assert z_model1(2, 0.0, v(0), 1.0) == pytest.approx(0.0)
        assert z_model1(2, 0.5, v(1), 1.0) == pytest.approx(8.0)

    def test_model2_zero_error(self):
        assert z_model2(1, v(0), 2.0) == pytest.approx(0.0)

    def test_model2_scalar_value(self):
        # be2 * e P b / (be2 - e P e)^2 = 4*0.5/(4-0.5)^2
        assert z_model2(1, v(1), 2.0) == pytest.approx(2.0 / 12.25)

    def test_model2_odd_in_e(self):
        plus = z_model2(1, v(1), 2.0)
        minus = z_model2(1, v(-1), 2.0)
        np.testing.assert_allclose(minus, -plus)

    def test_thm2_model2_gain(self):
        be2 = 4.0
        expected = be2 * (be2 + 1.0) * 0.5 / (be2 - 0.5) ** 2
        assert z_model2(2, v(1), 2.0) == pytest.approx(expected)


class TestRobustDisc:
    def test_zero_branch(self):
        np.testing.assert_array_equal(robust_disc(v(0), 1.0), v(0))

    @pytest.mark.parametrize("rho", [0.0, 1.0, 1e300, math.inf])
    def test_zero_branch_is_positive_zero_in_zs_shape(self, rho):
        # below the zero threshold the action is z - z: +0.0 as a float
        # for the float loop, np.zeros(m) for arrays whose dot underflows
        def bits(a):
            return np.array(a).tobytes()

        cfg = ControllerConfig(mode=Mode.DISC, bound=1.0, gamma=1.0,
                               theta_bar=1.0)
        for z in (0.0, -0.0, 5e-324, -5e-324):
            out = robust_term(cfg, _FLOAT.dot)(z, rho)
            assert type(out) is float and bits(out) == bits(0.0), z
        for z in (v(0.0), v(-0.0, 0.0), v(1e-200, -1e-200),
                  v(-1e-200, -0.0, 5e-324)):
            out = robust_term(cfg, _ARRAY.dot)(z, rho)
            assert out.shape == z.shape, z
            assert bits(out) == bits(np.zeros(len(z))), z

    def test_unit_direction(self):
        np.testing.assert_allclose(robust_disc(v(3, 4), 10.0), v(6, 8))

    def test_zero_rho(self):
        assert robust_disc(v(1), 0.0) == pytest.approx(0.0)

    @settings(max_examples=200, deadline=None)
    @given(z=st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=4),
           rho=st.floats(0.0, 1e3))
    def test_norm_equals_rho(self, z, rho):
        z = np.array(z)
        if np.linalg.norm(z) < 1e-12:
            return
        out = robust_disc(z, rho)
        assert np.linalg.norm(out) == pytest.approx(rho, abs=1e-9 * (1 + rho))


class TestRobustCont:
    def test_zero_signal(self):
        assert robust_cont(v(0), 1.0, 1.0) == pytest.approx(0.0)

    def test_halfway(self):
        # mu = 1, so 1/(1 + 1) * 1
        assert robust_cont(v(1), 1.0, 1.0) == pytest.approx(0.5)

    def test_small_eps_matches_disc(self):
        out = robust_cont(v(1), 1.0, 1e-12)
        assert out == pytest.approx(robust_disc(v(1), 1.0), abs=1e-11)

    @pytest.mark.parametrize("eps", [1e-3, 1e-6, 1e-12])
    def test_eps_to_zero_limit(self, eps):
        z, rho = v(0.3, -0.4), 2.0
        gap = np.linalg.norm(robust_cont(z, rho, eps) - robust_disc(z, rho))
        assert gap <= eps / (np.linalg.norm(z * rho)) * rho + 1e-12

    def test_requires_positive_eps(self):
        with pytest.raises(ValueError):
            robust_cont(v(1), 1.0, 0.0)

    @settings(max_examples=300, deadline=None)
    @given(z=st.lists(st.floats(-1e2, 1e2), min_size=1, max_size=3),
           rho=st.floats(1e-6, 1e2), eps=st.floats(1e-9, 1.0))
    def test_norm_below_rho(self, z, rho, eps):
        out = robust_cont(np.array(z), rho, eps)
        assert np.linalg.norm(out) < rho

    @settings(max_examples=300, deadline=None)
    @given(z=st.lists(st.floats(-1e2, 1e2), min_size=2, max_size=2),
           dw_dir=st.lists(st.floats(-1, 1), min_size=2, max_size=2),
           rho=st.floats(0.0, 1e2), eps=st.floats(1e-9, 1.0))
    @example(z=[0.0, 1.0], dw_dir=[0.0, 1.0266e-161], rho=6.0, eps=0.5)
    def test_smoothing_damage_bounded(self, z, dw_dir, rho, eps):
        # z . (dw - s) <= eps whenever |dw| <= rho
        z = np.array(z)
        dw = np.array(dw_dir)
        top = np.max(np.abs(dw))
        if top > 0:
            # scaled to a largest component of 1 first: a tiny component
            # squares to a subnormal that has lost bits, so its norm
            # comes out too small and |dw| would exceed rho
            dw = dw / top
            dw = dw / np.linalg.norm(dw) * rho
        s = robust_cont(z, rho, eps)
        assert float(z @ (dw - s)) <= eps + 1e-9


class TestConfig:
    def test_cont_requires_eps(self):
        with pytest.raises(ValueError):
            ControllerConfig(mode=Mode.CONT, bound=1.0, gamma=1.0,
                             theta_bar=1.0)

    def test_mode_read_from_its_string_value(self):
        # "cont" ran the discontinuous law, bit for bit
        kwargs = dict(bound=0.5, gamma=2.0, theta_bar=1.0, eps=0.05)
        u = {}
        for mode in ("cont", Mode.CONT, Mode.DISC, "disc"):
            cfg = ControllerConfig(mode=mode, **kwargs)
            assert cfg.mode is Mode(mode)
            u[mode] = run(scalar_model_i(), cfg, K=2, N=50).traces[-1].u
        assert u["cont"].tobytes() == u[Mode.CONT].tobytes()
        assert u["disc"].tobytes() == u[Mode.DISC].tobytes()
        assert u["cont"].tobytes() != u[Mode.DISC].tobytes()

    def test_cont_string_requires_eps(self):
        with pytest.raises(ValueError, match="continuous mode requires eps"):
            ControllerConfig(mode="cont", bound=1.0, gamma=1.0,
                             theta_bar=1.0)

    @pytest.mark.parametrize("mode", ["banana", "CONT", None, 1])
    def test_unknown_mode_rejected(self, mode):
        with pytest.raises(ValueError, match=f"^mode must be one of disc, "
                                             f"cont, got {mode!r}$"):
            ControllerConfig(mode=mode, bound=1.0, gamma=1.0, theta_bar=1.0,
                             eps=0.1)

    def test_positive_fields(self):
        for kwargs in ({"bound": 0.0}, {"gamma": -1.0}, {"theta_bar": 0.0}):
            base = dict(mode=Mode.DISC, bound=1.0, gamma=1.0, theta_bar=1.0)
            base.update(kwargs)
            with pytest.raises(ValueError):
                ControllerConfig(**base)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("name", ["bound", "gamma", "theta_bar", "eps"])
    def test_non_finite_fields_rejected(self, name, value):
        # an infinite bound would build and only fail later, in run, as
        # a non-finite state
        base = dict(mode=Mode.CONT, bound=1.0, gamma=1.0, theta_bar=1.0,
                    eps=0.1)
        base[name] = value
        with pytest.raises(ValueError, match=f"^{name} must be positive "
                                             f"and finite, got {value}$"):
            ControllerConfig(**base)
