import math
from fractions import Fraction

import numpy as np
import pytest

from fblf_ilc import barrier
from fblf_ilc.analysis import blf_report
from fblf_ilc.barrier import (FORMS, BarrierDomainError, BarrierKind,
                              blf_d1, blf_d2, blf_eval,
                              default_bound_sequence, ibp_probe, verify_order)

ALL_KINDS = list(BarrierKind)
BOUNDS = [0.5, 1.0, 2.0, 10.0]
ORDERS = (blf_eval, blf_d1, blf_d2)
BLOCK = barrier._BLOCK


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
        with pytest.raises(BarrierDomainError, match="positive and finite"):
            blf_eval(BarrierKind.LI, 0.0, 0.0)


class TestBoundMustBeFinite:
    """b = inf is rejected before any form runs, not read as NaN."""

    MESSAGE = r"^barrier bound must be positive and finite, got inf$"

    @pytest.mark.parametrize("V", [0.5, np.array(0.5), np.array([0.0, 0.5])])
    @pytest.mark.parametrize("fn", ORDERS)
    def test_kernels(self, fn, V):
        with pytest.raises(BarrierDomainError, match=self.MESSAGE):
            fn(BarrierKind.LI, V, math.inf)

    @pytest.mark.parametrize("b", [math.inf, np.float64(np.inf)])
    def test_verify_order(self, b):
        with pytest.raises(BarrierDomainError, match=self.MESSAGE):
            verify_order(BarrierKind.LI, BarrierKind.FI, b)

    @pytest.mark.parametrize("seq", [[10.0, math.inf],
                                     np.array([10.0, np.inf])])
    def test_ibp_probe(self, seq):
        with pytest.raises(BarrierDomainError, match=self.MESSAGE):
            ibp_probe(BarrierKind.FII, 1.0, seq)

    @pytest.mark.parametrize("bounds", [[math.inf], [1.0, math.inf]])
    def test_blf_report(self, bounds):
        with pytest.raises(BarrierDomainError, match=self.MESSAGE):
            blf_report(bounds)


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

    @pytest.mark.parametrize("kind,c", [("FII", 1.0), ("FIV", 2.0)])
    def test_limit_at_v_below_one(self, kind, c):
        # the probe divides by V: at V = 1 a product f * V reads the same,
        # at V = 0.5 it gives a quarter of the limit
        probe = ibp_probe(BarrierKind(kind), 0.5, self.SEQ)
        assert probe.ibp_holds
        assert probe.c_estimate == pytest.approx(c, abs=1e-6)

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


def bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


class TestBlocked:
    """Array inputs run block by block and give the whole-array bits."""

    @staticmethod
    def grid(n, b):
        # +-0.0 and the largest float below b among uniform samples
        V = np.random.default_rng(n).uniform(0.0, b, n + 1)
        V[:3] = [0.0, -0.0, np.nextafter(b, 0.0)][:n + 1]
        return V

    @pytest.mark.parametrize("b", [0.3, 2.0, 1e3])
    @pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1,
                                   3 * BLOCK + 7])
    def test_bit_identical_to_whole_array(self, n, b):
        V = self.grid(n, b)
        inputs = [V[:n], V[1:], V[:2 * (n // 2)].reshape(2, -1)]
        for kind in ALL_KINDS:
            for q, fn in enumerate(ORDERS):
                for x in inputs:
                    got = fn(kind, x, b)
                    assert got.shape == x.shape
                    assert np.array_equal(bits(got),
                                          bits(FORMS[kind][q](x, b)))

    @pytest.mark.parametrize("bad_v", [-1e-300, 2.0, np.inf])
    def test_domain_error_in_last_block(self, bad_v):
        V = np.full(3 * BLOCK + 7, 1.0)
        V[-1] = bad_v
        for fn in ORDERS:
            with pytest.raises(BarrierDomainError,
                               match=r"^V outside \[0, 2.0\)$"):
                fn(BarrierKind.FII, V, 2.0)

    def test_nan_passes_the_check(self):
        V = np.full(BLOCK + 1, 0.5)
        V[[0, -1]] = np.nan
        for fn in ORDERS:
            out = fn(BarrierKind.FI, V, 1.0)
            assert np.isnan(out[[0, -1]]).all()
            assert np.isfinite(out[1:-1]).all()
            assert math.isnan(fn(BarrierKind.FI, math.nan, 1.0))

    def test_nan_does_not_hide_a_bad_sample(self):
        V = np.full(BLOCK + 1, 0.5)
        V[-2:] = [np.nan, -0.5]
        with pytest.raises(BarrierDomainError):
            blf_eval(BarrierKind.FI, V, 1.0)

    @pytest.mark.parametrize("V", [0.25, np.float64(0.25), np.array(0.25)])
    def test_scalar_returns_float(self, V):
        for fn in ORDERS:
            assert type(fn(BarrierKind.FIV, V, 1.0)) is float

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_scalar_keeps_its_bits(self, kind):
        # numpy's scalar ** and its array loops round some samples apart
        for V in np.random.default_rng(3).uniform(0.0, 2.0, 300).tolist():
            for q, fn in enumerate(ORDERS):
                want = float(FORMS[kind][q](np.asarray(V), 2.0))
                assert bits(fn(kind, V, 2.0)) == bits(want)

    # d1 samples whose 0-d result is one or two ulps from the result of
    # the same sample in a one-element array: a float run as an array
    # fails here
    @pytest.mark.parametrize("kind, V, b", [
        (BarrierKind.FI, 1.2505708236082163, 2.0),
        (BarrierKind.FII, 1.4657909965747904, 2.0),
        (BarrierKind.FV, 1.8818683423153915, 2.0),
        (BarrierKind.FIII, 0.4815023341561636, 0.5),
        (BarrierKind.FIV, 0.3107425153490151, 0.5),
        (BarrierKind.FII, 10.724567410758358, 17.3)])
    def test_scalar_d1_keeps_its_0d_bits(self, kind, V, b):
        form = FORMS[kind][1]
        want = float(form(np.asarray(V), b))
        assert bits(want) != bits(form(np.array([V]), b)[0])
        for x in (V, np.float64(V), np.array(V)):
            assert bits(blf_d1(kind, x, b)) == bits(want)

    @pytest.mark.parametrize("n, blocks", [(BLOCK - 6, 1),
                                           (2 * BLOCK + 10, 3)])
    def test_strided_fortran_and_read_only(self, n, blocks):
        V = self.grid(2 * n - 1, 2.0)
        read_only = V[:n].copy()
        read_only.flags.writeable = False
        for x in (V[::2], np.asfortranarray(V[:n].reshape(2, -1)),
                  read_only):
            assert x.size == n and -(-n // BLOCK) == blocks
            for kind in ALL_KINDS:
                for q, fn in enumerate(ORDERS):
                    got = fn(kind, x, 2.0)
                    assert got.shape == x.shape
                    assert np.array_equal(bits(got),
                                          bits(FORMS[kind][q](x, 2.0)))


class TestFloatArrayAgreement:
    # monitor_L evaluates the monitor's barrier on arrays, check_delta_L
    # on a float, and the delta-L verdict compares the two
    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("b", [0.5, 2.0, 17.3])
    def test_value_forms_same_bits(self, kind, b):
        V = np.random.default_rng(5).uniform(0.0, b, 5000)
        form = FORMS[kind][0]
        on_floats = [form(v, b) for v in V.tolist()]
        assert np.array_equal(bits(on_floats), bits(form(V, b)))

    # d1 is left out: its forms still use ** 2, whose float and array
    # roundings differ, and respelling them moves golden digests
    # (ROADMAP item 4)
    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("b", [0.5, 2.0, 17.3])
    def test_d2_forms_same_bits(self, kind, b):
        V = np.random.default_rng(5).uniform(0.0, b, 5000)
        form = FORMS[kind][2]
        on_floats = [form(v, b) for v in V.tolist()]
        assert np.array_equal(bits(on_floats), bits(form(V, b)))


# d2 in exact rational arithmetic on the same float V and b
EXACT_D2 = {
    BarrierKind.LI: lambda V, b: 1 / (b - V) ** 2,
    BarrierKind.LII: lambda V, b: 1 / (b - V) ** 2,
    BarrierKind.FI: lambda V, b: 2 * b / (b - V) ** 3,
    BarrierKind.FII: lambda V, b: 2 * b * b / (b - V) ** 3,
    BarrierKind.FIII: lambda V, b: 2 * b / (b - V) ** 3,
    BarrierKind.FIV: lambda V, b: 2 * b * b / (b - V) ** 3,
    BarrierKind.FV: lambda V, b: 2 * b * (b + 1) / (b - V) ** 3,
}


class TestD2Accuracy:
    # the products round b - V, its powers and the quotient: the worst
    # of these samples is 4.9e-16, while a spelling in V/b, whose
    # 1 - V/b cancels near the pole, or exp(-3 log x) misses by 1e-14
    # or more
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_within_1e15_of_exact(self, kind):
        worst = 0.0
        for b in (0.5, 2.0, 17.3):
            V = np.random.default_rng(7).uniform(0.0, b, 1000)
            V[0] = np.nextafter(b, 0.0)
            got = blf_d2(kind, V, b)
            for v, g in zip(V.tolist(), got.tolist()):
                exact = EXACT_D2[kind](Fraction(v), Fraction(b))
                worst = max(worst, float(abs(Fraction(g) - exact) / exact))
        assert worst < 1e-15
