import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hedonic_lab.bounds import (
    check_dominance_lemmas,
    grand_cns_exit_denied_prob,
    grand_ns_lower_bound,
    hoeffding_tail,
    lagrange_product_log_max,
    nash_partition_bound,
    nash_k_composite_bound,
    singleton_partition_ns_probability,
    verify_lagrange_product_bound,
    verify_lagrange_product_max,
)
from hedonic_lab.sampling import SeedSpec


class TestGrandExitDenied:
    def test_direct_substitution(self):
        assert grand_cns_exit_denied_prob(3, 0.5) == pytest.approx(27 / 64, abs=0)

    def test_boundaries(self):
        assert grand_cns_exit_denied_prob(2, 0.0) == 0.0
        assert grand_cns_exit_denied_prob(5, 1.0) == 1.0
        with pytest.raises(ValueError):
            grand_cns_exit_denied_prob(5, 1.5)

    def test_single_agent_never_exit_denied(self):
        assert grand_cns_exit_denied_prob(1, 0.7) == 0.0

    def test_monte_carlo_agreement(self):
        # 10^5 trials at n=10, eps=1/2; one batch stream suffices here.
        rng = SeedSpec(900).rng()
        trials = 100_000
        hits = 0
        for _ in range(10):
            batch = rng.uniform(-1, 1, (trials // 10, 10, 10))
            idx = np.arange(10)
            batch[:, idx, idx] = 0.0
            hits += int(((batch > 0).any(axis=1)).all(axis=1).sum())
        p = grand_cns_exit_denied_prob(10, 0.5)
        se = math.sqrt(p * (1 - p) / trials)
        assert abs(hits / trials - p) <= 3 * se


class TestGrandNsLowerBound:
    def test_substitution(self):
        expected = 1 - 100 * math.exp(-99 / 4)
        assert grand_ns_lower_bound(100, -0.5, 1.5) == pytest.approx(expected, rel=1e-12)

    def test_degenerate_mean_clamps_to_zero(self):
        assert grand_ns_lower_bound(50, -1.0, 1.0 + 1e-9) == 0.0

    def test_rejects_nonpositive_mean(self):
        with pytest.raises(ValueError):
            grand_ns_lower_bound(50, -1.0, 1.0)

    def test_one_sided_against_monte_carlo(self):
        n, trials = 50, 10_000
        rng = SeedSpec(901).rng()
        ok = 0
        for _ in range(10):
            batch = rng.uniform(-0.5, 1.5, (trials // 10, n, n))
            idx = np.arange(n)
            batch[:, idx, idx] = 0.0
            ok += int((batch.sum(axis=2) >= 0).all(axis=1).sum())
        assert ok / trials >= grand_ns_lower_bound(n, -0.5, 1.5)


class TestNashPartitionBound:
    def test_substitutions(self):
        assert nash_partition_bound(4, 2, True) == pytest.approx(1 / 16, abs=0)
        assert nash_partition_bound(4, 1, False) == pytest.approx(0.5 ** 4, abs=0)

    def test_vacuous_shape_still_a_number(self):
        assert nash_partition_bound(4, 3, False) > 0

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            nash_partition_bound(4, 5, True)


class TestCompositeBound:
    def test_hand_evaluated_n3_k2(self):
        # l=0: S(3,2) * (3/8)^3 ; l=1: C(3,1) * (1/2) * S(2,1) * (1/2)^2
        expected = float(3 * Fraction(27, 512) + Fraction(3, 8))
        assert nash_k_composite_bound(3, 2) == pytest.approx(expected, abs=0)
        assert expected == float(Fraction(273, 512))

    def test_rejects_extreme_k(self):
        with pytest.raises(ValueError):
            nash_k_composite_bound(5, 1)
        with pytest.raises(ValueError):
            nash_k_composite_bound(5, 5)

    def test_no_overflow_at_n60(self):
        val = nash_k_composite_bound(60, 12)
        assert 0.0 <= val < 1e-6

    def test_singleton_shape_constant(self):
        assert singleton_partition_ns_probability(3) == pytest.approx(0.5 ** 6, abs=0)


@pytest.mark.parametrize("fn,args,name", [
    (nash_k_composite_bound, (5.5, 2), "n"),
    (nash_k_composite_bound, (5, 2.0), "k"),
    (singleton_partition_ns_probability, (2.5,), "n"),
    (nash_partition_bound, (6, 2.5, True), "k"),
    (grand_cns_exit_denied_prob, (True, 0.5), "n"),
    (grand_ns_lower_bound, (50.0, -0.5, 1.5), "n"),
    (hoeffding_tail, (2.5, 1.0), "t_terms"),
])
def test_counts_that_are_not_integers_rejected(fn, args, name):
    # Each of these returned a number, or failed deep in math.comb.
    with pytest.raises(TypeError, match=f"^{name} must be an integer"):
        fn(*args)


@pytest.mark.parametrize("fn,args", [
    (grand_ns_lower_bound, (5, -1.0, math.inf)),
    (grand_ns_lower_bound, (5, -math.inf, 1.0)),
    (grand_ns_lower_bound, (5, math.nan, 1.0)),
    (grand_ns_lower_bound, (5, -1.0, math.nan)),
    (hoeffding_tail, (3, math.inf)),
    (hoeffding_tail, (3, -math.inf)),
    (hoeffding_tail, (3, math.nan)),
])
def test_non_finite_parameters_rejected(fn, args):
    # An infinite hi gave 0.0 and an infinite threshold gave 0.0, both without complaint.
    with pytest.raises(ValueError, match="finite"):
        fn(*args)


def test_counts_accept_numpy_integers():
    assert nash_k_composite_bound(np.int64(3), np.int8(2)) == nash_k_composite_bound(3, 2)
    assert hoeffding_tail(np.int64(5), 0.0) == 1.0


class TestLagrangeProductBound:
    def test_symmetric_equality_case(self):
        assert verify_lagrange_product_bound([1, 1], [0.5, 0.5])

    def test_zero_weight(self):
        assert verify_lagrange_product_bound([3, 2], [0.0, 7.0])

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            verify_lagrange_product_bound([1, 2], [0.5])

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            verify_lagrange_product_bound([1], [-0.1])

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_holds_for_equal_block_sizes(self, data):
        # With equal sizes the inequality reduces to AM-GM and always holds.
        k = data.draw(st.integers(1, 6))
        size = data.draw(st.integers(1, 5))
        q = data.draw(st.lists(st.floats(0, 100, allow_nan=False),
                               min_size=k, max_size=k))
        assert verify_lagrange_product_bound([size] * k, q)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_holds_for_single_block(self, data):
        n = data.draw(st.integers(1, 30))
        q = data.draw(st.floats(0, 100, allow_nan=False))
        assert verify_lagrange_product_bound([n], [q])

    def test_unequal_sizes_counterexample_detected(self):
        # The inequality is falsifiable for unequal sizes with weights tilted
        # toward the large block: 1/3 * (2/3)^2 = 4/27 > (1/2)^3 = 1/8.
        # The checker must report the violation rather than mask it.
        assert not verify_lagrange_product_bound([1, 2], [1 / 3, 2 / 3])
        assert not verify_lagrange_product_bound([1, 2], [1.0, 2.0])


class TestLagrangeProductMax:
    def test_counterexample_shape_value(self):
        # s=(1,2), z=1: max at q=(1/3, 2/3) is 1/3 * (2/3)^2 = 4/27 exactly.
        assert Fraction(1, 3) * Fraction(2, 3) ** 2 == Fraction(4, 27)
        log_max = lagrange_product_log_max([1, 2], 1.0)
        assert log_max == pytest.approx(math.log(4 / 27), rel=1e-15)
        assert math.exp(log_max) == pytest.approx(4 / 27, rel=1e-15)

    @pytest.mark.parametrize("size,k,z", [(1, 1, 3.0), (2, 3, 1.0), (5, 4, 0.75),
                                          (3, 6, 100.0), (7, 2, 0.01)])
    def test_equal_sizes_match_symmetric_form(self, size, k, z):
        n = size * k
        assert math.exp(lagrange_product_log_max([size] * k, z)) == pytest.approx(
            (z / k) ** n, rel=1e-12)

    def test_zero_total_weight(self):
        assert lagrange_product_log_max([2, 3], 0.0) == -math.inf

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            lagrange_product_log_max([], 1.0)
        with pytest.raises(ValueError):
            lagrange_product_log_max([0, 2], 1.0)
        with pytest.raises(ValueError):
            lagrange_product_log_max([1, 2], -1.0)

    def test_accepts_symmetric_counterexample(self):
        assert verify_lagrange_product_max([1, 2], [1 / 3, 2 / 3])
        assert verify_lagrange_product_max([1, 2], [1.0, 2.0])
        assert verify_lagrange_product_max([3, 2], [0.0, 7.0])

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            verify_lagrange_product_max([1, 2], [0.5])

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_holds_for_all_sizes(self, data):
        k = data.draw(st.integers(1, 6))
        s = data.draw(st.lists(st.integers(1, 8), min_size=k, max_size=k))
        q = data.draw(st.lists(st.floats(0, 100, allow_nan=False),
                               min_size=k, max_size=k))
        assert verify_lagrange_product_max(s, q)


class TestHoeffdingTail:
    def test_unit_exponent(self):
        assert hoeffding_tail(12800, 160.0) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_zero_threshold(self):
        assert hoeffding_tail(5, 0.0) == 1.0

    def test_one_sided_against_monte_carlo(self):
        rng = SeedSpec(902).rng()
        sums = rng.uniform(-1, 1, (1_000_000, 10)).sum(axis=1)
        freq = float((sums <= -2.0).mean())
        assert freq <= hoeffding_tail(10, 2.0)


class TestDominanceLemmas:
    def test_small_run_no_violations(self):
        report = check_dominance_lemmas(3, 4, 200_000, SeedSpec(42))
        assert report.ok, [e.name for e in report.violations]

    def test_symmetric_tail_difference_near_zero(self):
        report = check_dominance_lemmas(1, 1, 200_000, SeedSpec(43))
        est = {e.name: e for e in report.estimates}
        # (c) at x=0: both partial sums are symmetric about 0.
        c0 = est["c:x=0"]
        assert abs(c0.estimate) <= max(3 * c0.std_error, 1e-3)
        # (d) with k=1: the max of one symmetric sum is symmetric.
        d0 = est["d:x=1"]
        assert abs(d0.estimate) <= max(3 * d0.std_error, 1e-3)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            check_dominance_lemmas(0, 1, 100)
        with pytest.raises(ValueError):
            check_dominance_lemmas(1, 1, 0)

    @pytest.mark.parametrize("args,name", [
        ((True, 1, 100), "m"), ((1.0, 1, 100), "m"),
        ((1, True, 100), "k"), ((1, 2.5, 100), "k"),
        ((1, 1, True), "trials"), ((1, 1, 100.0), "trials"),
    ])
    def test_counts_that_are_not_integers_rejected(self, args, name):
        # trials=True ran and reported trials=True; m=True failed inside NumPy.
        with pytest.raises(TypeError, match=f"^{name} must be an integer"):
            check_dominance_lemmas(*args)

    def test_counts_accept_numpy_integers(self):
        report = check_dominance_lemmas(np.int64(2), np.int8(3), np.int32(1000), SeedSpec(7))
        assert [type(v) for v in (report.m, report.k, report.trials)] == [int] * 3
        assert report == check_dominance_lemmas(2, 3, 1000, SeedSpec(7))


class TestBoundValue:
    def test_evaluate_formula(self):
        from hedonic_lab.bounds import BoundValue, evaluate_formula
        bv = evaluate_formula("grand-cns-exit-denied", n=3, epsilon=0.5)
        assert isinstance(bv, BoundValue)
        assert bv.value == pytest.approx(27 / 64)
        assert "n=3" in bv.description

    def test_rejects_bad_params(self):
        from hedonic_lab.bounds import evaluate_formula
        with pytest.raises(ValueError, match="missing"):
            evaluate_formula("grand-cns-exit-denied", n=3)
        with pytest.raises(ValueError, match="unknown formula"):
            evaluate_formula("not-a-formula", n=3)

    def test_rejects_negative_value(self):
        from hedonic_lab.bounds import BoundValue
        with pytest.raises(ValueError):
            BoundValue(-0.1, "nope")
