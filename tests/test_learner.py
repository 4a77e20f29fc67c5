import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fblf_ilc.engine import _ARRAY, _FLOAT, _table
from fblf_ilc.learner import ParamMemory, TimeGrid, sat


def mem(N=4, T=1.0, m=1):
    return ParamMemory(TimeGrid(T=T, N=N), m=m)


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
        # built once, read-only: every trace's t is this array
        assert g.nodes is g.nodes and not g.nodes.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            g.nodes[0] = 1.0

    def test_time_table(self):
        # nodes at even entries, interval midpoints at odd ones; the table
        # is not a constructor argument and leaves equality and repr alone
        g = TimeGrid(T=2.0, N=4)
        assert g.times == [0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0]
        assert g.times[::2] == g.nodes.tolist()
        assert g == TimeGrid(T=2.0, N=4) != TimeGrid(T=2.0, N=5)
        assert hash(g) == hash(TimeGrid(T=2.0, N=4))
        assert repr(g) == "TimeGrid(T=2.0, N=4)"
        with pytest.raises(TypeError):
            TimeGrid(T=2.0, N=4, times=[0.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(T=1.0, N=1)
        with pytest.raises(ValueError):
            TimeGrid(T=0.0, N=4)

    @pytest.mark.parametrize("T", [math.inf, -math.inf, math.nan])
    def test_non_finite_horizon_rejected(self, T):
        # an infinite T would build a times table that starts with nan
        with pytest.raises(ValueError,
                           match=f"^T must be positive and finite, got {T}$"):
            TimeGrid(T=T, N=4)


class TestUpdate:
    def test_from_zero(self):
        m = mem()
        hat = m.update_node(0, np.array([1.0]), gamma=0.5, bound=1.0)
        assert m.theta_star[0] == pytest.approx(0.5)
        assert hat == pytest.approx(0.5)

    def test_clamp_on_read(self):
        m = mem()
        m.theta_star[0] = 0.9
        hat = m.update_node(0, np.array([1.0]), gamma=0.5, bound=1.0)
        assert m.theta_star[0] == pytest.approx(1.4)
        assert hat == pytest.approx(1.0)

    def test_previous_value_saturated_first(self):
        m = mem()
        m.theta_star[0] = 5.0
        hat = m.update_node(0, np.array([0.0]), gamma=0.5, bound=1.0)
        assert m.theta_star[0] == pytest.approx(1.0)
        assert hat == pytest.approx(1.0)

    def test_index_range(self):
        m = mem()
        with pytest.raises(IndexError):
            m.update_node(5, np.array([0.0]), gamma=1.0, bound=1.0)

    def test_zero_signal_is_fixed_point(self):
        m = mem()
        m.theta_star[:] = np.linspace(-3, 3, 5)[:, None]
        before = sat(m.theta_star.copy(), 1.0)
        for i in range(5):
            m.update_node(i, np.array([0.0]), gamma=1.0, bound=1.0)
        after = sat(m.theta_star, 1.0)
        np.testing.assert_allclose(after, before)

    def test_memory_keeps_only_theta_star(self):
        # the saturation bound is the config's theta_bar, passed per call
        assert vars(mem()).keys() == {"grid", "theta_star"}
        assert list(inspect.signature(ParamMemory.update_node).parameters) == [
            "self", "i", "z", "gamma", "bound", "clamp", "store"]

    @pytest.mark.parametrize("gamma", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_gamma(self, gamma):
        # gamma = inf used to return NaN rows
        m = mem()
        with pytest.raises(
                ValueError,
                match=f"^gamma must be positive and finite, got {gamma}$"):
            m.update_node(0, np.array([0.0]), gamma, bound=1.0)
        assert m.theta_star.tobytes() == np.zeros((5, 1)).tobytes()

    @pytest.mark.parametrize("bound", [0.0, -1.0, math.nan])
    def test_default_clamp_rejects_bad_bound(self, bound):
        with pytest.raises(ValueError, match="saturation bound must be positive"):
            mem().update_node(0, np.array([1.0]), 0.5, bound=bound)


class TestStore:
    """update_node on a list of theta_star's rows, as the engine runs it,
    gives the theta_hat and rows of the default store, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(m=st.sampled_from([1, 2]),
           bound=st.sampled_from([0.5, 1.0, 2.0]),
           rows=st.lists(st.floats(-5.0, 5.0), min_size=10, max_size=10),
           zs=st.lists(st.floats(-1e3, 1e3), min_size=20, max_size=20),
           gamma=st.floats(1e-3, 10.0),
           order=st.permutations(range(5)))
    def test_list_store_matches_theta_star(self, m, bound, rows, zs, gamma,
                                           order):
        # m = 1: float rows, z and results with the engine's float clamp;
        # m = 2: (2,) rows; each node learned twice, rows inside and
        # beyond the bound
        shape = _FLOAT if m == 1 else _ARRAY
        want, got = mem(m=m), mem(m=m)
        start = np.array(rows[:5 * m]).reshape(5, m)
        want.theta_star[:], got.theta_star[:] = start, start
        store = shape.rows(got.theta_star)
        for j, i in enumerate(list(order) * 2):
            z = np.array(zs[j * m:j * m + m])
            expect = want.update_node(i, z, gamma, bound)
            out = got.update_node(i, z.item() if m == 1 else z, gamma,
                                  bound, shape.clamp, store)
            if m == 1:
                assert type(out) is float and type(store[i]) is float
            assert np.array(out).tobytes() == np.array(expect).tobytes()
            assert (np.array(store[i]).tobytes()
                    == want.theta_star[i].tobytes())
        got.theta_star[:] = _table(store, got.theta_star.shape)
        assert got.theta_star.tobytes() == want.theta_star.tobytes()
