import math

import pytest
from hypothesis import assume, given, strategies as st

from cohortopt import NegativeMode, PenaltyConfig
from cohortopt.penalty import Branch, score

CFG = PenaltyConfig()


def branch_of(f):
    return score(f, 0.0, CFG).branch_used


def scored(f, violation, branch, cfg=CFG):
    """``score`` of a point that must take ``branch``."""
    out = score(f, violation, cfg)
    assert out.branch_used is branch
    return out


class TestSelectBranch:
    def test_positive_above_threshold(self):
        assert branch_of(10.0) is Branch.STANDARD

    def test_negative(self):
        assert branch_of(-4.0) is Branch.NEGATIVE

    def test_tiny_positive(self):
        assert branch_of(1e-13) is Branch.NEAR_ZERO

    def test_zero(self):
        assert branch_of(0.0) is Branch.NEAR_ZERO

    def test_infinities(self):
        assert branch_of(float("inf")) is Branch.INFINITY_GUARD
        assert branch_of(float("-inf")) is Branch.INFINITY_GUARD

    def test_negative_beats_near_zero(self):
        # overlapping conditions resolve by sign first
        assert branch_of(-1e-9) is Branch.NEGATIVE

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            score(float("nan"), 0.0, CFG)

    @given(st.floats(allow_nan=False))
    def test_total_and_deterministic(self, f):
        assert branch_of(f) is branch_of(f)


class TestSapfPenalty:
    def test_feasible_point_gets_zero(self):
        assert scored(10.0, 0.0, Branch.STANDARD).penalty == 0.0

    def test_standard_product(self):
        assert scored(10.0, 0.5, Branch.STANDARD).penalty == pytest.approx(5.0)

    def test_negative_uses_magnitude(self):
        assert scored(-4.0, 0.25, Branch.NEGATIVE).penalty == pytest.approx(1.0)

    def test_near_zero_offset(self):
        assert scored(0.0, 2.0, Branch.NEAR_ZERO).penalty == pytest.approx(2.0)

    def test_infinity_guard_substitute(self):
        penalty = scored(float("inf"), 0.5, Branch.INFINITY_GUARD).penalty
        assert penalty == pytest.approx(0.5)

    def test_negative_violation_rejected(self):
        with pytest.raises(ValueError):
            score(1.0, -0.1, CFG)

    @given(st.floats(1.0, 1e8), st.floats(1e-8, 1e8), st.floats(1e-8, 1e8))
    def test_strictly_increasing_in_violation(self, f, v, bump):
        # a bump of a few ulps of v or less can vanish when f * v rounds
        assume(bump >= 4 * math.ulp(v))
        lo = scored(f, v, Branch.STANDARD).penalty
        hi = scored(f, v + bump, Branch.STANDARD).penalty
        assert hi > lo

    def test_depends_only_on_aggregate(self):
        # equal aggregate violations yield equal penalties in every branch
        for branch, f in ((Branch.STANDARD, 3.0), (Branch.NEGATIVE, -3.0),
                          (Branch.NEAR_ZERO, 0.5),
                          (Branch.INFINITY_GUARD, float("inf"))):
            assert scored(f, 0.7, branch).penalty == scored(f, 0.7, branch).penalty


class TestPseudoObjective:
    def test_feasible_phi_is_f(self):
        out = score(10.0, 0.0, CFG)
        assert out.phi == 10.0
        assert out.branch_used is Branch.STANDARD

    def test_literal_negative_fold(self):
        # penalty |f| * V = 1.0
        out = scored(-4.0, 0.25, Branch.NEGATIVE)
        assert out.phi == pytest.approx(5.0)

    def test_shift_negative(self):
        cfg = PenaltyConfig(negative_mode=NegativeMode.SHIFT)
        out = scored(-4.0, 0.25, Branch.NEGATIVE, cfg)
        assert out.phi == pytest.approx(-3.0)

    def test_near_zero_uses_raw_objective(self):
        # the offset enters the penalty product only, never phi directly
        out = scored(0.25, 0.0, Branch.NEAR_ZERO)
        assert out.phi == 0.25

    def test_infinity_guard_keeps_phi_finite(self):
        # penalty infinity_substitute * V = 0.5
        out = scored(float("inf"), 0.5, Branch.INFINITY_GUARD)
        assert math.isfinite(out.phi)
        assert out.phi == pytest.approx(1.5)

    @given(st.floats(-1e6, -1e-6))
    def test_literal_zero_violation_gives_magnitude(self, f):
        out = score(f, 0.0, CFG)
        assert out.branch_used is Branch.NEGATIVE
        assert out.phi == abs(f)
        assert out.penalty == 0.0

    @given(st.floats(-1e6, 1e6, allow_nan=False))
    def test_zero_violation_means_zero_penalty(self, f):
        out = score(f, 0.0, CFG)
        assert out.penalty == 0.0
        if out.branch_used in (Branch.STANDARD, Branch.NEAR_ZERO):
            assert out.phi == f


class TestConfigValidation:
    def test_defaults_are_valid(self):
        PenaltyConfig()

    def test_offset_must_cover_threshold(self):
        with pytest.raises(ValueError):
            PenaltyConfig(near_zero_threshold=2.0, int_offset=1.0)

    def test_offset_positive(self):
        with pytest.raises(ValueError):
            PenaltyConfig(int_offset=0.0, near_zero_threshold=0.0)

    def test_substitute_positive(self):
        with pytest.raises(ValueError):
            PenaltyConfig(infinity_substitute=0.0)

    def test_threshold_non_negative(self):
        with pytest.raises(ValueError):
            PenaltyConfig(near_zero_threshold=-1.0)

    def test_threshold_zero_rejected(self):
        # f == 0 would take the standard branch: score(0.0, 3.0) had penalty
        # 0 at a violated point, and score(0.0, inf) a NaN phi
        with pytest.raises(ValueError):
            PenaltyConfig(near_zero_threshold=0.0, int_offset=1.0)

    @pytest.mark.parametrize("key", ["near_zero_threshold", "int_offset",
                                     "infinity_substitute"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_rejected(self, key, value):
        # a NaN threshold sent f == 0 to the standard branch (penalty 0 at
        # V = 1, phi NaN at V = inf); a NaN or inf offset gave phi NaN at
        # f = V = 0, and a NaN substitute phi NaN at every infinite f
        with pytest.raises(ValueError, match=key):
            PenaltyConfig(**{key: value})
