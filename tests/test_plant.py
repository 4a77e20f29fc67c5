import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fblf_ilc.controller import ControllerConfig, Mode
from fblf_ilc.engine import _FLOAT, run
from fblf_ilc.plant import (ErrorModelII, UncertaintySpec, check_certificate,
                            check_uncertainty_bound, delta_w,
                            scalar_model_i, scalar_model_ii, theta_path,
                            value_bound)

PI = math.pi


@pytest.fixture(scope="module")
def m1():
    return scalar_model_i()


@pytest.fixture(scope="module")
def m2():
    return scalar_model_ii()


def v(x):
    # a state as the closed loop passes it to a float-native model
    return float(x)


def rhs(model, t, e, u):
    """The error dynamics the engine integrates, at the desired state x_d(t),
    on the float loop of the built-ins."""
    unwrap = _FLOAT.unwrap
    return model.loop_terms(_FLOAT)[2](unwrap(e), t, unwrap(u),
                                       unwrap(model.x_d(t)))


class TestRhsModel1:
    def test_equilibrium(self, m1):
        assert rhs(m1, 0.0, v(0), v(0)) == pytest.approx(0.0)

    def test_theta_cancels_input(self, m1):
        # theta(pi/2) = 0.5 exactly offsets u = -0.5
        out = rhs(m1, PI / 2, v(0), v(-0.5))
        assert out == pytest.approx(0.0, abs=1e-15)

    def test_nonzero_error(self, m1):
        out = rhs(m1, 0.0, v(1), v(0))
        assert out == pytest.approx(-0.5)

    def test_dimension_mismatch(self, m1):
        # the model's f returns a 2-vector, which the engine cannot read
        # into the scalar loop, and says so by its shape
        model = dataclasses.replace(m1, f=lambda e, t: np.full(2, -e))
        cfg = ControllerConfig(mode=Mode.DISC, bound=0.5, gamma=2.0,
                               theta_bar=1.0)
        with pytest.raises(ValueError, match=r"^an n = m = 1 model's "
                           r"callables return a float or a size-1 array, "
                           r"got shape \(2,\)$"):
            run(model, cfg, K=1, N=10)


class TestRhsModel2:
    def test_equilibrium(self, m2):
        assert rhs(m2, 0.0, v(0), v(0)) == pytest.approx(0.0)

    def test_nonzero_error(self, m2):
        assert rhs(m2, 0.0, v(2), v(0)) == pytest.approx(-1.0)

    def test_theta_drives(self, m2):
        assert rhs(m2, PI / 2, v(0), v(0)) == pytest.approx(0.5)


class TestUncertainty:
    def test_theta_true_values(self, m1):
        assert theta_path(m1, [0.0])[0] == pytest.approx(0.0)
        assert theta_path(m1, [PI / 2])[0] == pytest.approx(0.5)
        assert theta_path(m1, [PI])[0] == pytest.approx(0.0, abs=1e-12)

    def test_rho_examples(self, m1):
        rho = m1.uncertainty.rho
        assert rho(v(0), 0.0) == 0.0
        assert rho(v(2), 0.0) == pytest.approx(1.0)
        assert rho(v(-3), 0.0) == pytest.approx(1.5)

    @pytest.mark.parametrize("factory", [scalar_model_i, scalar_model_ii])
    def test_delta_w_within_rho(self, factory):
        assert check_uncertainty_bound(factory())

    def test_delta_w_pointwise(self, m1):
        rng = np.random.default_rng(7)
        for _ in range(200):
            e = rng.uniform(-10, 10, size=1).item()
            t = rng.uniform(0, m1.T)
            assert np.linalg.norm(delta_w(m1, t, e)) <= m1.uncertainty.rho(e, t) + 1e-12

    @pytest.mark.parametrize("factory", [scalar_model_i, scalar_model_ii])
    def test_w_written_for_floats(self, factory):
        # a float-native model's w gets a float everywhere, on the
        # desired path too, so math.tanh serves as well as l_w * x
        unc = UncertaintySpec(w=lambda x, t: 0.5 * math.tanh(x),
                              rho=lambda e, t: 0.5 * abs(e))
        model = dataclasses.replace(factory(), uncertainty=unc)
        assert check_uncertainty_bound(model)
        assert theta_path(model, [PI / 2])[0].shape == (1,)
        cfg = ControllerConfig(mode=Mode.DISC, bound=0.5, gamma=2.0,
                               theta_bar=1.0)
        result = run(model, cfg, K=2, N=50)
        assert not result.any_breach
        assert np.all(np.isfinite(result.traces[-1].L))

    @pytest.mark.parametrize("factory", [scalar_model_i, scalar_model_ii])
    def test_builtin_x_d_returns_floats(self, factory):
        # x_d = sin t as a Python float, as every other built-in callable
        x_d = factory().x_d
        for t in (0.0, PI / 3, 2.0 * PI):
            assert type(x_d(t)) is float and x_d(t) == math.sin(t)

    @pytest.mark.parametrize("rho", [
        pytest.param(lambda e, t: 0.1 * abs(e), id="bound-fails"),
        pytest.param(lambda e, t: 0.5 * abs(e) + 1.0, id="nonzero-at-zero")])
    def test_bad_rho_rejected(self, m1, rho):
        unc = dataclasses.replace(m1.uncertainty, rho=rho)
        assert not check_uncertainty_bound(dataclasses.replace(
            m1, uncertainty=unc))


class TestCertificate:
    def test_zero_at_origin(self, m1):
        for t in np.linspace(0, m1.T, 17):
            assert m1.certificate.V(v(0), t) == 0.0

    def test_dissipation_example(self, m1):
        # dV/dt + grad(V) . f at e=1 equals -1 = -alpha(1)
        assert m1.certificate.dissipation(v(1), 0.3) == pytest.approx(-1.0)
        assert -m1.certificate.alpha(1.0) == pytest.approx(-1.0)

    def test_sampled_inequalities(self, m1):
        assert check_certificate(m1)

    @pytest.mark.parametrize("field, fn", [
        pytest.param("alpha1", lambda s: s * s, id="bracket-fails"),
        pytest.param("dissipation", lambda e, t: e * e,
                     id="dissipation-fails")])
    def test_bad_certificate_rejected(self, m1, field, fn):
        cert = dataclasses.replace(m1.certificate, **{field: fn})
        assert not check_certificate(dataclasses.replace(m1, certificate=cert))

    def test_alpha1_inverse(self, m1):
        for s in (0.1, 0.7, 2.0):
            assert m1.certificate.alpha1_inv(m1.certificate.alpha1(s)) == pytest.approx(s)


class TestModel2Identity:
    def test_lyapunov_equation(self, m2):
        # built from A, b and P: Q = -(A'P + PA) is derived, not passed
        assert [f.name for f in dataclasses.fields(m2)] == [
            "A", "b", "P", "x_d", "uncertainty", "T"]
        assert -(m2.A.T @ m2.P + m2.P @ m2.A) == np.array([[1.0]])
        with pytest.raises(TypeError, match="'Q'"):
            ErrorModelII(A=m2.A, b=m2.b, P=m2.P, Q=m2.P, x_d=m2.x_d,
                         uncertainty=m2.uncertainty, T=m2.T)

    @pytest.mark.parametrize("n", [1, 2])
    def test_pair_checked_at_construction(self, m2, n):
        # A = -I with P = I gives Q = 2I: a Lyapunov pair, as is P = I/2
        eye = np.eye(n)
        model = ErrorModelII(A=-eye, b=eye[:, :1], P=eye, x_d=m2.x_d,
                             uncertainty=m2.uncertainty, T=m2.T)
        assert model.error_radius(None, 4.0) == 2.0

    def test_pq_positive_definite(self, m2):
        assert np.all(np.linalg.eigvalsh(m2.P) > 0)
        assert np.all(np.linalg.eigvalsh(-(m2.A.T @ m2.P + m2.P @ m2.A)) > 0)

    @pytest.mark.parametrize("A, P, message", [
        pytest.param(-np.eye(n), -0.5 * np.eye(n), "P is not positive "
                     "definite: smallest eigenvalue -0.5", id=f"P<0-n{n}")
        for n in (1, 2)] + [
        pytest.param(np.eye(n), 0.5 * np.eye(n), r"-\(A'P \+ PA\) is not "
                     "positive definite: smallest eigenvalue -1",
                     id=f"A-unstable-n{n}") for n in (1, 2)] + [
        pytest.param(-np.eye(2), np.array([[1.0, 1.0], [0.0, 1.0]]),
                     "P is not symmetric", id="P-asymmetric")])
    def test_not_a_lyapunov_pair_rejected(self, m2, A, P, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            ErrorModelII(A=A, b=np.ones((len(A), 1)), P=P, x_d=m2.x_d,
                         uncertainty=m2.uncertainty, T=m2.T)

    @pytest.mark.parametrize("field, M, message", [
        pytest.param("b", np.ones(2), r"b must be a matrix of shape \(2, m\), "
                     r"m >= 1, got \(2,\)", id="b-1d"),
        pytest.param("b", np.ones((3, 1)), r"b must be a matrix of shape "
                     r"\(2, m\), m >= 1, got \(3, 1\)", id="b-3-rows"),
        pytest.param("b", np.ones((1, 2)), r"b must be a matrix of shape "
                     r"\(2, m\), m >= 1, got \(1, 2\)", id="b-1x2"),
        pytest.param("A", -np.ones((2, 3)), r"A must be a matrix of shape "
                     r"\(2, 2\), got \(2, 3\)", id="A-2x3"),
        pytest.param("P", np.eye(3), r"P must be a matrix of shape "
                     r"\(2, 2\), got \(3, 3\)", id="P-3x3"),
        pytest.param("P", np.array([[np.nan, 0.0], [0.0, 1.0]]),
                     r"P of shape \(2, 2\) is not finite", id="P-nan")])
    def test_matrix_shape_and_values_checked(self, m2, field, M, message):
        # each matrix is named with its shape before the Lyapunov pair is
        # read, at n = 2 with A = -I, b = e1 and P = I/2
        eye = np.eye(2)
        pair = dict(A=-eye, b=eye[:, :1], P=0.5 * eye, x_d=m2.x_d,
                    uncertainty=m2.uncertainty, T=m2.T)
        ErrorModelII(**pair)
        with pytest.raises(ValueError, match=f"^{message}$"):
            ErrorModelII(**{**pair, field: M})

    def test_matrices_read_once_as_float_copies(self, m2):
        # nested lists build the model the arrays do, and a caller's later
        # edit of its array reaches neither the model nor its checks
        A, b, P = -np.eye(2), np.eye(2)[:, :1], 0.5 * np.eye(2)
        unc = UncertaintySpec(w=lambda x, t: 0.5 * x[:1],
                              rho=lambda e, t: 0.5 * abs(e[0]))
        rest = dict(x_d=lambda t: np.array([math.sin(t), math.cos(t)]),
                    uncertainty=unc, T=m2.T)
        by_array = ErrorModelII(A=A, b=b, P=P, **rest)
        by_list = ErrorModelII(A=A.tolist(), b=b.tolist(), P=P.tolist(),
                               **rest)
        P[0, 0] = np.nan
        for name in "AbP":
            got = getattr(by_list, name)
            assert got.dtype == float
            np.testing.assert_array_equal(got, getattr(by_array, name))
        assert by_array.P[0, 0] == 0.5
        cfg = ControllerConfig(mode=Mode.DISC, bound=1.0, gamma=2.0,
                               theta_bar=1.0)
        one, two = (run(model, cfg, K=2, N=20) for model in (by_array, by_list))
        for a, b in zip(one.traces, two.traces):
            np.testing.assert_array_equal(a.e, b.e)
            np.testing.assert_array_equal(a.L, b.L)

    @settings(max_examples=50, deadline=None)
    @given(data=st.data(), n=st.sampled_from([2, 3]),
           alpha=st.floats(0.1, 2.0))
    def test_solved_pair_accepted_and_its_negative_rejected(self, m2, data,
                                                            n, alpha):
        # A = -(MM' + alpha I) + (S - S') has its symmetric part below
        # -alpha I, so it is stable and A'P + PA = -I has P > 0; the
        # Kronecker form of that equation on row-major vec(P) is solved
        entries = st.lists(st.floats(-2.0, 2.0), min_size=n * n,
                           max_size=n * n)
        M, S = (np.reshape(data.draw(entries), (n, n)) for _ in range(2))
        eye = np.eye(n)
        A = -(M @ M.T + alpha * eye) + (S - S.T)
        P = np.linalg.solve(np.kron(A.T, eye) + np.kron(eye, A.T),
                            -eye.ravel()).reshape(n, n)
        pair = dict(A=A, b=eye[:, :1], x_d=m2.x_d,
                    uncertainty=m2.uncertainty, T=m2.T)
        ErrorModelII(P=P, **pair)
        with pytest.raises(ValueError, match="^P is not positive definite"):
            ErrorModelII(P=-P, **pair)

    def test_a_stable(self, m2):
        assert np.all(np.real(np.linalg.eigvals(m2.A)) < 0)

    @settings(max_examples=40, deadline=None)
    @given(b_e=st.floats(0.02, 3.0), gamma=st.floats(0.5, 4.0),
           eps=st.floats(1e-3, 0.1), N=st.integers(2, 50),
           mode=st.sampled_from([Mode.DISC, Mode.CONT]))
    def test_model_ii_is_model_i_in_other_units(self, m1, m2, b_e, gamma, eps,
                                                N, mode):
        # Theorem 2: scalar-II at (b_e, gamma, eps) runs scalar-I at
        # (b_e^2, gamma/2, 2 eps) bit for bit.  e'Pe = e*(e/2) is model I's
        # V = (e*e)/2, B'Pe = e/2 is half its LgV = e, so z is halved and
        # gamma*z, the robust term and A e + B x against f + g x keep
        # their bits; with half the barrier and gamma doubled in the
        # integral, L_II = L_I/2.  Each halving is exact only above the
        # subnormals, so a run that reaches them is excluded.
        def cfg(bound, gamma, eps):
            return ControllerConfig(mode=mode, bound=bound, gamma=gamma,
                                    theta_bar=1.0,
                                    eps=eps if mode is Mode.CONT else None)

        one = run(m1, cfg(value_bound(m2, b_e), gamma / 2, 2 * eps), K=3, N=N,
                  theorem=2)
        two = run(m2, cfg(b_e, gamma, eps), K=3, N=N, theorem=2)
        rows = [getattr(tr, f) for r in (one, two) for tr in r.traces
                for f in ("e", "u", "V", "theta_hat", "L")]
        assume(not any(np.any((0 < np.abs(a)) & (np.abs(a) < 2.0 ** -1022))
                       for a in rows))

        def bits(a):
            return np.asarray(a).tobytes()

        for a, b in zip(one.traces, two.traces):
            assert a.breach_node == b.breach_node
            for f in ("e", "u", "V", "theta_hat"):
                assert bits(getattr(a, f)) == bits(getattr(b, f)), f
            assert bits(a.L / 2) == bits(b.L)
        assert bits(one.memory.theta_star) == bits(two.memory.theta_star)
