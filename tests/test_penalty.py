import math

import pytest
from hypothesis import given, strategies as st

from cohortopt import (
    Branch,
    NegativeMode,
    PenaltyConfig,
    pseudo_objective,
    sapf_penalty,
    score,
    select_branch,
)

CFG = PenaltyConfig()


class TestSelectBranch:
    def test_positive_above_threshold(self):
        assert select_branch(10.0, CFG) is Branch.STANDARD

    def test_negative(self):
        assert select_branch(-4.0, CFG) is Branch.NEGATIVE

    def test_tiny_positive(self):
        assert select_branch(1e-13, CFG) is Branch.NEAR_ZERO

    def test_zero(self):
        assert select_branch(0.0, CFG) is Branch.NEAR_ZERO

    def test_infinities(self):
        assert select_branch(float("inf"), CFG) is Branch.INFINITY_GUARD
        assert select_branch(float("-inf"), CFG) is Branch.INFINITY_GUARD

    def test_negative_beats_near_zero(self):
        # overlapping conditions resolve by sign first
        assert select_branch(-1e-9, CFG) is Branch.NEGATIVE

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            select_branch(float("nan"), CFG)

    @given(st.floats(allow_nan=False))
    def test_total_and_deterministic(self, f):
        assert select_branch(f, CFG) is select_branch(f, CFG)


class TestSapfPenalty:
    def test_feasible_point_gets_zero(self):
        assert sapf_penalty(10.0, 0.0, Branch.STANDARD, CFG) == 0.0

    def test_standard_product(self):
        assert sapf_penalty(10.0, 0.5, Branch.STANDARD, CFG) == pytest.approx(5.0)

    def test_negative_uses_magnitude(self):
        assert sapf_penalty(-4.0, 0.25, Branch.NEGATIVE, CFG) == pytest.approx(1.0)

    def test_near_zero_offset(self):
        assert sapf_penalty(0.0, 2.0, Branch.NEAR_ZERO, CFG) == pytest.approx(2.0)

    def test_infinity_guard_substitute(self):
        penalty = sapf_penalty(float("inf"), 0.5, Branch.INFINITY_GUARD, CFG)
        assert penalty == pytest.approx(0.5)

    def test_negative_violation_rejected(self):
        with pytest.raises(ValueError):
            sapf_penalty(1.0, -0.1, Branch.STANDARD, CFG)

    @given(st.floats(1.0, 1e8), st.floats(1e-8, 1e8), st.floats(1e-8, 1e8))
    def test_strictly_increasing_in_violation(self, f, v, bump):
        lo = sapf_penalty(f, v, Branch.STANDARD, CFG)
        hi = sapf_penalty(f, v + bump, Branch.STANDARD, CFG)
        assert hi > lo

    def test_depends_only_on_aggregate(self):
        # equal aggregate violations yield equal penalties in every branch
        for branch, f in ((Branch.STANDARD, 3.0), (Branch.NEGATIVE, -3.0),
                          (Branch.NEAR_ZERO, 0.5),
                          (Branch.INFINITY_GUARD, float("inf"))):
            assert sapf_penalty(f, 0.7, branch, CFG) == sapf_penalty(f, 0.7, branch, CFG)


class TestPseudoObjective:
    def test_feasible_phi_is_f(self):
        out = pseudo_objective(10.0, 0.0, Branch.STANDARD, CFG)
        assert out.phi == 10.0
        assert out.branch_used is Branch.STANDARD

    def test_literal_negative_fold(self):
        out = pseudo_objective(-4.0, 1.0, Branch.NEGATIVE, CFG)
        assert out.phi == pytest.approx(5.0)

    def test_shift_negative(self):
        cfg = PenaltyConfig(negative_mode=NegativeMode.SHIFT)
        out = pseudo_objective(-4.0, 1.0, Branch.NEGATIVE, cfg)
        assert out.phi == pytest.approx(-3.0)

    def test_near_zero_uses_raw_objective(self):
        # the offset enters the penalty product only, never phi directly
        out = pseudo_objective(0.25, 0.0, Branch.NEAR_ZERO, CFG)
        assert out.phi == 0.25

    def test_infinity_guard_keeps_phi_finite(self):
        out = pseudo_objective(float("inf"), 0.5, Branch.INFINITY_GUARD, CFG)
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
