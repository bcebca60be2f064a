import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalewave.model import (
    ModelParams,
    RegimeError,
    borderline_log_factor,
    coefficients,
    critical_exponent,
    decay_exponents,
    discriminant,
    fujita_exponent,
    regime_check,
    weight_exponent,
    weight_exponent_dt,
    weight_exponent_grad_sq,
    weight_exponent_laplacian,
)


def params(n=1, mu1=1.0, mu2sq=0.0, p=2.0):
    return ModelParams(n=n, mu1=mu1, mu2sq=mu2sq, p=p)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            ModelParams(n=0, mu1=1.0, mu2sq=0.0, p=2.0)
        with pytest.raises(ValueError):
            ModelParams(n=1, mu1=-1.0, mu2sq=0.0, p=2.0)
        with pytest.raises(ValueError):
            ModelParams(n=1, mu1=1.0, mu2sq=-0.5, p=2.0)
        with pytest.raises(ValueError):
            ModelParams(n=1, mu1=1.0, mu2sq=0.0, p=1.0)

    @pytest.mark.parametrize("field", ["mu1", "mu2sq", "p"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, field, value):
        kwargs = {"n": 1, "mu1": 1.0, "mu2sq": 0.0, "p": 2.0, field: value}
        with pytest.raises(ValueError, match="must be finite"):
            ModelParams(**kwargs)

    def test_delta_property_recomputed(self):
        assert params(mu1=4.0).delta == discriminant(params(mu1=4.0))


class TestDiscriminant:
    @pytest.mark.parametrize(
        "mu1,mu2sq,expected",
        [(1.0, 0.0, 0.0), (4.0, 0.0, 9.0), (2.0, 1.0, -3.0)],
    )
    def test_examples(self, mu1, mu2sq, expected):
        assert discriminant(params(mu1=mu1, mu2sq=mu2sq)) == expected


class TestFujita:
    @pytest.mark.parametrize("d,expected", [(1.0, 3.0), (2.0, 2.0), (1.5, 7.0 / 3.0)])
    def test_examples(self, d, expected):
        assert fujita_exponent(d) == pytest.approx(expected, rel=1e-15)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            fujita_exponent(0.0)
        with pytest.raises(ValueError):
            fujita_exponent(-1.0)


class TestCriticalExponent:
    @pytest.mark.parametrize(
        "n,mu1,mu2sq,expected",
        [(1, 4.0, 0.0, 3.0), (2, 5.0, 0.0, 2.0), (1, 5.0, 1.75, 7.0 / 3.0)],
    )
    def test_examples(self, n, mu1, mu2sq, expected):
        assert critical_exponent(params(n=n, mu1=mu1, mu2sq=mu2sq)) == pytest.approx(
            expected, rel=1e-14
        )

    def test_negative_discriminant(self):
        with pytest.raises(RegimeError):
            critical_exponent(params(mu1=2.0, mu2sq=1.0))

    def test_nonpositive_shifted_dimension(self):
        # n=1, mu1=0: delta=1, shift = 1 - 0.5 - 0.5 = 0
        with pytest.raises(ValueError):
            critical_exponent(params(n=1, mu1=0.0, mu2sq=0.0))


class TestRegimeCheck:
    def test_strong_damping_above_critical(self):
        rep = regime_check(params(n=1, mu1=4.0, p=4.0))
        assert rep.delta == 9.0 and rep.sqrt_delta == 3.0
        assert rep.global_existence_applicable
        assert not rep.blowup_range_applicable

    def test_blowup_range(self):
        rep = regime_check(params(n=1, mu1=4.0, p=2.0))
        assert not rep.global_existence_applicable
        assert rep.blowup_range_applicable
        assert rep.p_crit == pytest.approx(3.0)

    def test_gagliardo_nirenberg_bound(self):
        rep = regime_check(params(n=3, mu1=6.0, p=4.0))  # p > n/(n-2) = 3
        assert not rep.global_existence_applicable

    def test_negative_discriminant_reported(self):
        rep = regime_check(params(mu1=2.0, mu2sq=1.0))
        assert rep.sqrt_delta is None and rep.p_crit is None
        assert not rep.global_existence_applicable
        assert not rep.blowup_range_applicable


class TestWeightExponent:
    def test_value_example(self):
        assert weight_exponent(params(mu1=2.0), 1.0, 4.0) == pytest.approx(1.0)

    def test_zero_at_origin(self):
        p = params(mu1=3.0)
        assert weight_exponent(p, 2.0, 0.0) == 0.0
        assert weight_exponent_dt(p, 2.0, 0.0) == 0.0

    def test_laplacian_examples(self):
        assert weight_exponent_laplacian(params(n=3, mu1=2.0), 0.0) == pytest.approx(6.0)
        assert weight_exponent_laplacian(params(n=3, mu1=2.0), 1.0) == pytest.approx(1.5)


class TestCoefficients:
    @pytest.mark.parametrize(
        "mu1,mu2sq,t,expected",
        [(4.0, 1.0, 0.0, (4.0, 1.0)), (4.0, 1.0, 1.0, (2.0, 0.25)), (0.0, 3.0, 5.0, (0.0, 3.0 / 36.0))],
    )
    def test_examples(self, mu1, mu2sq, t, expected):
        b, m_sq = coefficients(params(mu1=mu1, mu2sq=mu2sq), t)
        assert b == pytest.approx(expected[0]) and m_sq == pytest.approx(expected[1])


class TestDecayExponents:
    def test_super_borderline(self):
        table = decay_exponents(params(n=1, mu1=4.0))
        assert table.l2_exponent == pytest.approx(-0.5)
        assert table.grad_exponent == pytest.approx(-1.5)
        assert not table.log_correction

    def test_borderline_flag(self):
        table = decay_exponents(params(n=1, mu1=3.0))
        assert table.log_correction

    def test_regime_error(self):
        with pytest.raises(RegimeError):
            decay_exponents(params(mu1=1.0))  # delta = 0


class TestLogFactor:
    def test_above_borderline_is_one(self):
        assert borderline_log_factor(params(n=1, mu1=4.0), 17.0) == 1.0

    def test_borderline_values(self):
        p = params(n=1, mu1=3.0)
        assert borderline_log_factor(p, 0.0) == pytest.approx(1.0)
        assert borderline_log_factor(p, math.e - 1.0) == pytest.approx(2.0, rel=1e-12)

    def test_below_borderline_raises(self):
        with pytest.raises(RegimeError):
            borderline_log_factor(params(n=2, mu1=3.0), 1.0)  # delta = 4 < 9

    def test_vectorized(self):
        p = params(n=1, mu1=3.0)
        out = borderline_log_factor(p, np.array([0.0, math.e - 1.0]))
        assert out == pytest.approx([1.0, 2.0], rel=1e-12)


# --- invariants -------------------------------------------------------------

finite_t = st.floats(min_value=0.0, max_value=1e3, allow_nan=False)
finite_rsq = st.floats(min_value=0.0, max_value=1e4, allow_nan=False)
mu1_s = st.floats(min_value=0.0, max_value=20.0, allow_nan=False)
mu2sq_s = st.floats(min_value=0.0, max_value=20.0, allow_nan=False)


@settings(max_examples=300, deadline=None)
@given(mu1=mu1_s, mu2sq=mu2sq_s, t=finite_t, r_sq=finite_rsq)
def test_gradient_damping_cancellation(mu1, mu2sq, t, r_sq):
    p = ModelParams(n=2, mu1=mu1, mu2sq=mu2sq, p=2.0)
    b, _ = coefficients(p, t)
    lhs = weight_exponent_grad_sq(p, t, r_sq)
    rhs = -b * weight_exponent_dt(p, t, r_sq)
    scale = max(abs(lhs), abs(rhs))
    assert abs(lhs - rhs) <= 1e-12 * scale + 1e-300


@settings(max_examples=300, deadline=None)
@given(mu1=mu1_s, t=finite_t, r_sq=finite_rsq)
def test_weight_time_derivative_relation(mu1, t, r_sq):
    p = ModelParams(n=1, mu1=mu1, mu2sq=0.0, p=2.0)
    lhs = weight_exponent_dt(p, t, r_sq)
    rhs = -2.0 * weight_exponent(p, t, r_sq) / (1.0 + t)
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs)) + 1e-300


@settings(max_examples=200, deadline=None)
@given(n=st.integers(min_value=1, max_value=4),
       mu1=st.floats(min_value=1.0, max_value=12.0, allow_nan=False))
def test_massless_critical_exponent_independent_of_damping(n, mu1):
    p = ModelParams(n=n, mu1=mu1, mu2sq=0.0, p=2.0)
    assert critical_exponent(p) == pytest.approx(fujita_exponent(float(n)), rel=1e-14)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(min_value=1, max_value=3),
       mu1=st.floats(min_value=3.0, max_value=10.0),
       data=st.data())
def test_critical_exponent_monotone_in_mass(n, mu1, data):
    # a larger mass coefficient shrinks sqrt(delta), grows the shifted
    # dimension and therefore lowers the critical power
    cap = (mu1 - 1.0) ** 2 / 4.0
    m_lo = data.draw(st.floats(min_value=0.0, max_value=cap * 0.9))
    m_hi = data.draw(st.floats(min_value=m_lo, max_value=cap * 0.9))
    p_lo = critical_exponent(ModelParams(n=n, mu1=mu1, mu2sq=m_lo, p=2.0))
    p_hi = critical_exponent(ModelParams(n=n, mu1=mu1, mu2sq=m_hi, p=2.0))
    assert p_hi <= p_lo + 1e-12


@settings(max_examples=300, deadline=None)
@given(n=st.integers(min_value=1, max_value=8), mu1=mu1_s, mu2sq=mu2sq_s)
def test_regime_check_p_crit_is_the_critical_exponent(n, mu1, mu2sq):
    # both read the one shifted dimension, so they agree bit for bit wherever defined
    p = ModelParams(n=n, mu1=mu1, mu2sq=mu2sq, p=2.0)
    try:
        expected = critical_exponent(p)
    except ValueError:  # a negative discriminant or a nonpositive shifted dimension
        assert regime_check(p).p_crit is None
        return
    assert regime_check(p).p_crit == expected


@settings(max_examples=100, deadline=None)
@given(n=st.integers(min_value=1, max_value=4),
       mu1=st.floats(min_value=4.0, max_value=15.0))
def test_grad_exponent_is_l2_minus_one(n, mu1):
    table = decay_exponents(ModelParams(n=n, mu1=mu1, mu2sq=0.5, p=2.0))
    assert table.grad_exponent == table.l2_exponent - 1.0
