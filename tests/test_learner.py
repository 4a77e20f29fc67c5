import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fblf_ilc.learner import ParamMemory, TimeGrid, sat


def mem(N=4, T=1.0, m=1, bound=1.0):
    return ParamMemory(TimeGrid(T=T, N=N), m=m, bound=bound)


class TestSat:
    def test_clamps(self):
        assert sat(np.array([2.0]), 1.0) == pytest.approx(1.0)
        assert sat(np.array([-3.0]), 1.0) == pytest.approx(-1.0)
        assert sat(np.array([0.5]), 1.0) == pytest.approx(0.5)

    def test_idempotent(self):
        x = np.array([-5.0, 0.3, 7.0])
        once = sat(x, 2.0)
        np.testing.assert_array_equal(sat(once, 2.0), once)

    def test_rejects_bad_bound(self):
        with pytest.raises(ValueError):
            sat(np.array([1.0]), 0.0)

    @settings(max_examples=300, deadline=None)
    @given(
        theta=st.floats(-1.0, 1.0),
        star=st.floats(-100.0, 100.0, allow_nan=False),
    )
    def test_saturation_inequality(self, theta, star):
        # (theta - sat(star)) * (star - sat(star)) <= 0 whenever |theta| <= bound
        clamped = float(sat(np.array([star]), 1.0)[0])
        assert (theta - clamped) * (star - clamped) <= 1e-12


class TestGrid:
    def test_nodes(self):
        g = TimeGrid(T=2.0, N=4)
        np.testing.assert_allclose(g.nodes, [0, 0.5, 1.0, 1.5, 2.0])
        assert g.dt == 0.5
        assert g.nodes[-1] == g.T

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(T=1.0, N=1)
        with pytest.raises(ValueError):
            TimeGrid(T=0.0, N=4)


class TestUpdate:
    def test_from_zero(self):
        m = mem()
        star, hat = m.update_node(0, np.array([1.0]), gamma=0.5)
        assert star == pytest.approx(0.5)
        assert hat == pytest.approx(0.5)

    def test_clamp_on_read(self):
        m = mem()
        m.theta_star[0] = 0.9
        star, hat = m.update_node(0, np.array([1.0]), gamma=0.5)
        assert star == pytest.approx(1.4)
        assert hat == pytest.approx(1.0)

    def test_previous_value_saturated_first(self):
        m = mem()
        m.theta_star[0] = 5.0
        star, hat = m.update_node(0, np.array([0.0]), gamma=0.5)
        assert star == pytest.approx(1.0)
        assert hat == pytest.approx(1.0)

    def test_index_range(self):
        m = mem()
        with pytest.raises(IndexError):
            m.update_node(5, np.array([0.0]), gamma=1.0)

    def test_zero_signal_is_fixed_point(self):
        m = mem()
        m.theta_star[:] = np.linspace(-3, 3, 5)[:, None]
        before = sat(m.theta_star.copy(), m.bound)
        for i in range(5):
            m.update_node(i, np.array([0.0]), gamma=1.0)
        after = sat(m.theta_star, m.bound)
        np.testing.assert_allclose(after, before)
