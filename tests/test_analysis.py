import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fblf_ilc.analysis import (_SLACK, SequenceTriple, blf_report,
                               convergence_metrics, lemma1_check,
                               lemma2_check)
from fblf_ilc.controller import ControllerConfig, Mode
from fblf_ilc.engine import run
from fblf_ilc.plant import scalar_model_i, scalar_model_ii


def geometric(n=20):
    r = np.array([2.0 ** -k for k in range(n)])
    return r, r.copy()


class TestLemma1:
    def test_geometric_holds(self):
        r, s = geometric(60)
        verdict = lemma1_check(SequenceTriple(r, s))
        assert verdict.inequality_holds
        assert verdict.s_tail_estimate <= 2.0 ** -45
        assert verdict.s_vanishes

    def test_increasing_fails(self):
        r = np.arange(1.0, 11.0)
        s = np.ones(10)
        verdict = lemma1_check(SequenceTriple(r, s))
        assert not verdict.inequality_holds
        assert verdict.first_violation == 1

    def test_engine_run_decrease(self):
        # r = L_k(T), s = V_{k-1}(T): the theorem-1 decrease relation
        cfg = ControllerConfig(mode=Mode.DISC, bound=0.5, gamma=2.0,
                               theta_bar=1.0)
        result = run(scalar_model_i(), cfg, K=8, N=500)
        L = np.array([s.L_T for s in result.summaries])
        V_prev = np.array([0.0] + [float(tr.V[-1]) for tr in result.traces[:-1]])
        verdict = lemma1_check(SequenceTriple(L, V_prev))
        assert verdict.inequality_holds

    def test_is_lemma2_check(self):
        # Lemma 1 is Lemma 2 with d = 0: one function under both names
        assert lemma1_check is lemma2_check


class TestLemma2:
    def test_zero_residual_matches_lemma1(self):
        for r, s in [geometric(), (np.arange(1.0, 9.0), np.ones(8))]:
            v1 = lemma1_check(SequenceTriple(r, s))
            v2 = lemma2_check(SequenceTriple(r, s, d=np.zeros_like(r)))
            assert v1 == v2

    def test_equality_case(self):
        d_bar = 0.3
        n = 16
        arr = np.full(n, d_bar)
        verdict = lemma2_check(SequenceTriple(arr, arr, d=arr, d_bar=d_bar))
        assert verdict.inequality_holds
        assert verdict.s_tail_estimate == pytest.approx(d_bar)
        assert verdict.bound_respected

    def test_constructed_sequence(self):
        d_bar = 0.5
        n = 30
        r = np.array([d_bar + 2.0 ** -k for k in range(n)])
        s = np.array([2.0 ** -(k + 1) for k in range(n)])
        d = np.empty(n)
        d[0] = 0.0
        d[1:] = s[1:] + (r[1:] - r[:-1])
        verdict = lemma2_check(SequenceTriple(r, s, d=d, d_bar=d_bar))
        assert verdict.inequality_holds
        assert verdict.s_tail_estimate <= d_bar
        assert verdict.bound_respected

    def test_missing_residual_reads_zero(self):
        # with a d_bar, so that bound_respected is compared too
        for r, s in [geometric(), (np.arange(1.0, 9.0), np.ones(8))]:
            zeros = np.zeros_like(r)
            assert (lemma2_check(SequenceTriple(r, s, d_bar=0.5))
                    == lemma2_check(SequenceTriple(r, s, zeros, d_bar=0.5)))

    def test_length_checks(self):
        with pytest.raises(ValueError):
            SequenceTriple(np.ones(3), np.ones(4))
        with pytest.raises(ValueError):
            SequenceTriple(np.ones(3), np.ones(3), d=np.ones(2))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="^r and s are empty$"):
            SequenceTriple([], [])


def loop_first_violation(r, s, d):
    """The per-k loop the vector check replaced, kept as its oracle."""
    with np.errstate(invalid="ignore", over="ignore"):
        for k in range(1, len(r)):
            if not r[k] <= r[k - 1] - s[k] + d[k] + _SLACK:
                return k
    return None


# values with ties at the slack's scale, huge magnitudes and +-inf
VALUE = st.one_of(st.floats(-10.0, 10.0), st.sampled_from(
    [0.0, _SLACK, -_SLACK, 1e308, -1e308, math.inf, -math.inf]))


class TestVectorCheck:
    @settings(max_examples=300, deadline=None)
    @given(rows=st.lists(st.tuples(VALUE, VALUE, VALUE), min_size=1,
                         max_size=12),
           r0=st.floats(-10.0, 10.0), residual=st.booleans())
    def test_matches_loop(self, rows, r0, residual):
        r, s, d = (np.array(col) for col in zip(*rows))
        r[0] = r0
        if residual:
            verdict = lemma2_check(SequenceTriple(r, s, d=d))
        else:
            d = np.zeros_like(r)
            verdict = lemma1_check(SequenceTriple(r, s))
        first = loop_first_violation(r, s, d)
        assert verdict.first_violation == first
        assert verdict.inequality_holds == (first is None)

    def test_inf_minus_inf_past_violation_is_silent(self):
        # r[1] = inf breaks the inequality at k = 1; k = 2 computes
        # inf - inf, which a warning would turn into an error here
        verdict = lemma1_check(SequenceTriple([1.0, math.inf, math.inf],
                                              [0.0, math.inf, math.inf]))
        assert not verdict.inequality_holds
        assert verdict.first_violation == 1


class TestConvergenceMetrics:
    def test_zero_report(self):
        cfg = ControllerConfig(mode=Mode.CONT, bound=0.5, gamma=2.0,
                               theta_bar=1.0, eps=1e-2)
        result = run(scalar_model_i(), cfg, K=8, N=200, theorem=2)
        for s in result.summaries:
            s.sup_V = 0.0
        metrics = convergence_metrics(result, eps=1e-2, T=result.grid.T)
        assert metrics.limsup_supV == 0.0
        assert metrics.bound_ratio == 0.0
        assert metrics.e_radius == 0.0

    def test_model1_within_bound(self):
        cfg = ControllerConfig(mode=Mode.CONT, bound=0.5, gamma=2.0,
                               theta_bar=1.0, eps=1e-2)
        result = run(scalar_model_i(), cfg, K=10, N=500, theorem=2)
        metrics = convergence_metrics(result, eps=1e-2, T=result.grid.T)
        assert metrics.bound == 1e-2 * result.grid.T
        assert metrics.bound_ratio <= 1.5

    def test_model2_radius(self):
        cfg = ControllerConfig(mode=Mode.CONT, bound=1.0, gamma=2.0,
                               theta_bar=1.0, eps=1e-2)
        result = run(scalar_model_ii(), cfg, K=10, N=500, theorem=2)
        metrics = convergence_metrics(result, eps=1e-2, T=result.grid.T)
        assert metrics.bound == 2.0 * 1e-2 * result.grid.T
        # lambda_min(P) = 0.5
        assert metrics.e_radius == pytest.approx(math.sqrt(metrics.bound / 0.5))

    @pytest.mark.parametrize("name, value", [
        ("eps", None), ("eps", -1.0), ("eps", 0.0), ("eps", math.nan),
        ("eps", math.inf), ("T", 0.0), ("T", -1.0), ("T", math.nan),
        ("T", math.inf)])
    def test_eps_and_T_positive_finite(self, name, value):
        # a Theorem-1 config's eps is None
        cfg = ControllerConfig(mode=Mode.CONT, bound=0.5, gamma=2.0,
                               theta_bar=1.0, eps=1e-2)
        result = run(scalar_model_i(), cfg, K=8, N=20, theorem=2)
        args = {"eps": 1e-2, "T": result.grid.T, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be positive and "
                                             f"finite, got {value}$"):
            convergence_metrics(result, **args)

    def test_needs_tail_window(self):
        cfg = ControllerConfig(mode=Mode.CONT, bound=0.5, gamma=2.0,
                               theta_bar=1.0, eps=1e-2)
        result = run(scalar_model_i(), cfg, K=3, N=200, theorem=2)
        with pytest.raises(ValueError):
            convergence_metrics(result, eps=1e-2, T=result.grid.T)


class TestBlfReport:
    def test_all_relations_at_one(self):
        report = blf_report([1.0])
        assert all(r.applicable for r in report.relations)
        assert all(r.holds for r in report.relations)
        assert report.all_hold

    def test_gated_relation_excluded_at_two(self):
        report = blf_report([2.0])
        gated = [r for r in report.relations if (r.lo, r.hi) == ("FII", "FIII")]
        assert len(gated) == 1
        assert not gated[0].applicable
        others = [r for r in report.relations if r.applicable]
        assert all(r.holds for r in others)

    def test_ibp_column(self):
        report = blf_report([0.5, 10.0])
        by_kind = {row.kind: row for row in report.ibp}
        for kind in ("LII", "FII", "FIII", "FV"):
            assert by_kind[kind].ibp_holds
            assert by_kind[kind].c_estimate == pytest.approx(1.0, abs=1e-4)
        assert by_kind["FIV"].c_estimate == pytest.approx(2.0, abs=1e-4)
        for kind in ("LI", "FI"):
            assert not by_kind[kind].ibp_holds

    def test_csv_and_text(self, tmp_path):
        report = blf_report([1.0])
        path = tmp_path / "blf_report.csv"
        report.to_csv(path)
        assert path.read_text().startswith("section,")
        text = report.to_text()
        assert "holds" in text

    def test_empty_bounds_rejected(self):
        with pytest.raises(ValueError):
            blf_report([])
