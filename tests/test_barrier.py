import math

import numpy as np
import pytest

from fblf_ilc.barrier import (BarrierDomainError, BarrierKind,
                              blf_d1, blf_d2, blf_eval,
                              default_bound_sequence, ibp_probe, verify_order)

ALL_KINDS = list(BarrierKind)
BOUNDS = [0.5, 1.0, 2.0, 10.0]


def fd1(kind, V, b):
    # step scaled to the distance from the barrier keeps the truncation
    # and roundoff errors both well under the 1e-6 comparison tolerance
    h = 1e-4 * (b - V)
    return (blf_eval(kind, V + h, b) - blf_eval(kind, V - h, b)) / (2 * h)


def fd2(kind, V, b):
    h = 1e-4 * (b - V)
    return (blf_eval(kind, V + h, b) - 2 * blf_eval(kind, V, b)
            + blf_eval(kind, V - h, b)) / (h * h)


class TestEval:
    def test_fi_half(self):
        assert blf_eval(BarrierKind.FI, 0.5, 1.0) == pytest.approx(1.0)

    def test_li_zero(self):
        assert blf_eval(BarrierKind.LI, 0.0, 2.0) == 0.0

    def test_fv_paper_arithmetic(self):
        # (b + 1)/(b - V) * V at V=1, b=2
        assert blf_eval(BarrierKind.FV, 1.0, 2.0) == pytest.approx(3.0)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("b", BOUNDS)
    def test_zero_at_origin_and_only_there(self, kind, b):
        assert blf_eval(kind, 0.0, b) == 0.0
        grid = np.linspace(1e-6, 0.99 * b, 200)
        assert np.all(blf_eval(kind, grid, b) > 0)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("b", BOUNDS)
    def test_strictly_increasing(self, kind, b):
        grid = np.linspace(0.0, 0.99 * b, 500)
        vals = blf_eval(kind, grid, b)
        assert np.all(np.diff(vals) > 0)

    @pytest.mark.parametrize("bad_v", [-0.1, 1.0, 1.5])
    def test_domain_error(self, bad_v):
        with pytest.raises(BarrierDomainError):
            blf_eval(BarrierKind.FI, bad_v, 1.0)
        with pytest.raises(BarrierDomainError):
            blf_d1(BarrierKind.FI, bad_v, 1.0)
        with pytest.raises(BarrierDomainError):
            blf_d2(BarrierKind.FI, bad_v, 1.0)

    def test_nonpositive_bound_rejected(self):
        with pytest.raises(BarrierDomainError):
            blf_eval(BarrierKind.LI, 0.0, 0.0)


class TestDerivatives:
    def test_fi_d1(self):
        assert blf_d1(BarrierKind.FI, 0.5, 1.0) == pytest.approx(4.0)

    def test_li_d1(self):
        assert blf_d1(BarrierKind.LI, 0.0, 1.0) == pytest.approx(1.0)

    def test_fiv_d1(self):
        assert blf_d1(BarrierKind.FIV, 0.0, 1.0) == pytest.approx(2.0)

    def test_li_d2(self):
        assert blf_d2(BarrierKind.LI, 0.0, 1.0) == pytest.approx(1.0)

    def test_fi_d2_symbolic(self):
        # 2b/(b - V)^3; the finite-difference oracle below confirms the
        # factor 2 that differentiating d1 produces
        assert blf_d2(BarrierKind.FI, 0.0, 1.0) == pytest.approx(2.0)
        assert blf_d2(BarrierKind.FI, 0.1, 1.0) == pytest.approx(
            fd2(BarrierKind.FI, 0.1, 1.0), rel=1e-6)

    def test_fii_d2_symbolic(self):
        assert blf_d2(BarrierKind.FII, 1.0, 2.0) == pytest.approx(8.0)
        assert blf_d2(BarrierKind.FII, 1.0, 2.0) == pytest.approx(
            fd2(BarrierKind.FII, 1.0, 2.0), rel=1e-6)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("b", BOUNDS)
    def test_match_finite_differences(self, kind, b):
        grid = np.linspace(0.01 * b, 0.95 * b, 50)
        for V in grid:
            assert blf_d1(kind, V, b) == pytest.approx(fd1(kind, V, b), rel=1e-6)
            assert blf_d2(kind, V, b) == pytest.approx(fd2(kind, V, b), rel=1e-6)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("b", BOUNDS)
    def test_derivatives_positive(self, kind, b):
        grid = np.linspace(0.0, 0.99 * b, 300)
        assert np.all(blf_d1(kind, grid, b) > 0)
        assert np.all(blf_d2(kind, grid, b) > 0)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_d1_blows_up_at_bound(self, kind):
        assert blf_d1(kind, 1.0 - 1e-12, 1.0) > 1e10


class TestDecomposition:
    """The composite fractional kinds split into the basic ones."""

    @pytest.mark.parametrize("b", BOUNDS)
    def test_fiii_is_v_plus_fi(self, b):
        grid = np.linspace(0.0, 0.99 * b, 400)
        np.testing.assert_allclose(
            blf_eval(BarrierKind.FIII, grid, b),
            grid + blf_eval(BarrierKind.FI, grid, b), atol=1e-12)

    @pytest.mark.parametrize("b", BOUNDS)
    def test_fiv_is_v_plus_fii(self, b):
        grid = np.linspace(0.0, 0.99 * b, 400)
        np.testing.assert_allclose(
            blf_eval(BarrierKind.FIV, grid, b),
            grid + blf_eval(BarrierKind.FII, grid, b), atol=1e-12)

    @pytest.mark.parametrize("b", BOUNDS)
    def test_fv_is_fi_plus_fii(self, b):
        grid = np.linspace(0.0, 0.99 * b, 400)
        np.testing.assert_allclose(
            blf_eval(BarrierKind.FV, grid, b),
            blf_eval(BarrierKind.FI, grid, b) + blf_eval(BarrierKind.FII, grid, b),
            atol=1e-12)


ORDERED_PAIRS = [
    ("LI", "FI", None),
    ("FI", "FIII", None),
    ("LII", "FIII", None),
    ("FII", "FIII", 1.0),  # only for b <= 1
    ("FII", "FIV", None),
    ("FI", "FV", None),
    ("FII", "FV", None),
    ("FIII", "FV", None),
]


class TestOrdering:
    @pytest.mark.parametrize("lo,hi,max_b", ORDERED_PAIRS)
    @pytest.mark.parametrize("b", BOUNDS)
    def test_asserted_relations(self, lo, hi, max_b, b):
        if max_b is not None and b > max_b:
            pytest.skip("relation gated on b <= 1")
        verdict = verify_order(BarrierKind(lo), BarrierKind(hi), b, 1000)
        assert verdict.holds, verdict.first_violation

    def test_li_fi_at_one(self):
        assert verify_order(BarrierKind.LI, BarrierKind.FI, 1.0, 1000).holds

    def test_fii_fiv_at_two(self):
        assert verify_order(BarrierKind.FII, BarrierKind.FIV, 2.0, 1000).holds

    def test_reversed_pair_detected(self):
        verdict = verify_order(BarrierKind.FI, BarrierKind.LI, 1.0, 1000)
        assert not verdict.holds
        assert verdict.first_violation is not None

    def test_sample_count_validated(self):
        with pytest.raises(ValueError):
            verify_order(BarrierKind.LI, BarrierKind.FI, 1.0, 1)


class TestIbp:
    SEQ = default_bound_sequence()

    def test_fii_limit_one(self):
        probe = ibp_probe(BarrierKind.FII, 1.0, self.SEQ)
        assert probe.ibp_holds
        assert probe.c_estimate == pytest.approx(1.0, abs=1e-4)

    def test_fiv_limit_two(self):
        probe = ibp_probe(BarrierKind.FIV, 1.0, self.SEQ)
        assert probe.ibp_holds
        assert probe.c_estimate == pytest.approx(2.0, abs=1e-4)

    def test_li_fails(self):
        probe = ibp_probe(BarrierKind.LI, 1.0, self.SEQ)
        assert not probe.ibp_holds
        assert probe.c_estimate < 1e-4

    @pytest.mark.parametrize("kind,c", [
        ("LII", 1.0), ("FII", 1.0), ("FIII", 1.0), ("FV", 1.0), ("FIV", 2.0)])
    def test_holding_kinds(self, kind, c):
        probe = ibp_probe(BarrierKind(kind), 1.0, self.SEQ)
        assert probe.ibp_holds
        assert probe.c_estimate == pytest.approx(c, abs=1e-4)

    @pytest.mark.parametrize("kind", ["LI", "FI"])
    def test_failing_kinds(self, kind):
        probe = ibp_probe(BarrierKind(kind), 1.0, self.SEQ)
        assert not probe.ibp_holds
        assert probe.c_estimate < 1e-4

    def test_requires_increasing_sequence(self):
        with pytest.raises(ValueError):
            ibp_probe(BarrierKind.FI, 1.0, [10.0, 10.0])
        with pytest.raises(ValueError):
            ibp_probe(BarrierKind.FI, 0.0, [10.0, 100.0])
