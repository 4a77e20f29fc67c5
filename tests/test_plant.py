import math

import numpy as np
import pytest

from fblf_ilc.controller import ControllerConfig, Mode
from fblf_ilc.engine import _bind
from fblf_ilc.plant import (check_certificate, check_uncertainty_bound,
                            delta_w, lyapunov_residual, rho_bound,
                            scalar_model_i, scalar_model_ii, theta_true)

PI = math.pi


@pytest.fixture(scope="module")
def m1():
    return scalar_model_i()


@pytest.fixture(scope="module")
def m2():
    return scalar_model_ii()


def v(x):
    return np.array([float(x)])


def rhs(model, t, e, u):
    """The error dynamics the engine integrates, at the desired state x_d(t)."""
    cfg = ControllerConfig(mode=Mode.DISC, bound=1.0, gamma=1.0, theta_bar=1.0)
    return _bind(model, cfg, 1)[3](t, e, u, model.x_d(t))


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
        with pytest.raises(ValueError):
            rhs(m1, 0.0, np.zeros(2), v(0))


class TestRhsModel2:
    def test_equilibrium(self, m2):
        assert rhs(m2, 0.0, v(0), v(0)) == pytest.approx(0.0)

    def test_nonzero_error(self, m2):
        assert rhs(m2, 0.0, v(2), v(0)) == pytest.approx(-1.0)

    def test_theta_drives(self, m2):
        assert rhs(m2, PI / 2, v(0), v(0)) == pytest.approx(0.5)


class TestUncertainty:
    def test_theta_true_values(self, m1):
        assert theta_true(m1, 0.0) == pytest.approx(0.0)
        assert theta_true(m1, PI / 2) == pytest.approx(0.5)
        assert theta_true(m1, PI) == pytest.approx(0.0, abs=1e-12)

    def test_rho_examples(self, m1):
        assert rho_bound(m1, 0.0, v(0)) == 0.0
        assert rho_bound(m1, 0.0, v(2)) == pytest.approx(1.0)
        assert rho_bound(m1, 0.0, v(-3)) == pytest.approx(1.5)

    @pytest.mark.parametrize("factory", [scalar_model_i, scalar_model_ii])
    def test_delta_w_within_rho(self, factory):
        assert check_uncertainty_bound(factory(), n_samples=2000)

    def test_delta_w_pointwise(self, m1):
        rng = np.random.default_rng(7)
        for _ in range(200):
            e = rng.uniform(-10, 10, size=1)
            t = rng.uniform(0, m1.T)
            assert np.linalg.norm(delta_w(m1, t, e)) <= rho_bound(m1, t, e) + 1e-12


class TestCertificate:
    def test_zero_at_origin(self, m1):
        for t in np.linspace(0, m1.T, 17):
            assert m1.certificate.V(v(0), t) == 0.0

    def test_dissipation_example(self, m1):
        # dV/dt + grad(V) . f at e=1 equals -1 = -alpha(1)
        assert m1.certificate.dissipation(v(1), 0.3) == pytest.approx(-1.0)
        assert -m1.certificate.alpha(1.0) == pytest.approx(-1.0)

    def test_sampled_inequalities(self, m1):
        assert check_certificate(m1, n_samples=10000)

    def test_alpha1_inverse(self, m1):
        for s in (0.1, 0.7, 2.0):
            assert m1.certificate.alpha1_inv(m1.certificate.alpha1(s)) == pytest.approx(s)


class TestModel2Identity:
    def test_lyapunov_equation(self, m2):
        assert lyapunov_residual(m2) <= 1e-10

    def test_pq_positive_definite(self, m2):
        assert np.all(np.linalg.eigvalsh(m2.P) > 0)
        assert np.all(np.linalg.eigvalsh(m2.Q) > 0)

    def test_a_stable(self, m2):
        assert np.all(np.real(np.linalg.eigvals(m2.A)) < 0)
