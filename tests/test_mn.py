import random

import pytest
from hypothesis import given, settings, strategies as st

from snzeros import (
    Partition,
    ResourceLimit,
    SnZerosError,
    character,
    classify,
    dimension,
    encode,
)

import checks
from oracles import naive_character, partitions_tuples


def all_partitions(n):
    return [Partition(t) for t in partitions_tuples(n)]


class TestCharacter:
    def test_trivial_character_is_one(self):
        for mu in all_partitions(8):
            assert character(Partition((8,)), mu) == 1

    def test_hand_worked_value(self):
        assert character(Partition((3, 1)), Partition((2, 2))) == -1

    def test_s4_table_zero(self):
        assert character(Partition((2, 2)), Partition((2, 1, 1))) == 0

    def test_sign_character(self):
        for n in range(1, 11):
            col = Partition((1,) * n)
            for mu in all_partitions(n):
                assert character(col, mu) == (-1) ** (n - len(mu.parts))

    def test_empty_on_empty(self):
        assert character(Partition(()), Partition(())) == 1

    def test_weight_mismatch(self):
        with pytest.raises(SnZerosError, match="lambda has weight 3 but mu has weight 4"):
            character(Partition((2, 1)), Partition((2, 2)))

    def test_base_case_consistency(self):
        checks.check_dimension_base_case(max_n=12)

    def test_column_orthogonality(self):
        checks.check_column_orthogonality(max_n=12)

    def test_agrees_with_naive_recursion(self):
        checks.check_naive_mn_agreement(max_n=9)

    @pytest.mark.parametrize("n", [12, 18, 24, 30])
    def test_runs_of_twos_agree_with_naive_recursion(self, n):
        # mu = 2^k 1^(n-2k): a long run of equal small parts, where the bag of
        # shapes grows largest (the slowest benchmark pairs are of this kind)
        rnd = random.Random(n)
        shapes = list(partitions_tuples(n))
        for k in (n // 3, n // 2 - 1, n // 2):
            mu = (2,) * k + (1,) * (n - 2 * k)
            for lam in rnd.sample(shapes, 3):
                assert character(Partition(lam), Partition(mu)) == naive_character(lam, mu)

    def test_pinned_value_whose_bag_spans_slices(self):
        # the full-eval benchmark's n=120 pair of sample 64 (seed 0): its bag peaks
        # at 71,241 words, so the rim-hook kernel walks it in more than one slice
        lam = Partition((28, 12, 12, 7, 6, 6, 6, 5, 5, 3, 3) + (2,) * 13 + (1,))
        mu = Partition((19, 13, 7, 5, 5, 5, 5) + (2,) * 23 + (1,) * 15)
        assert character(lam, mu) == -198810164448356964926

    def test_bag_over_the_cap_is_a_resource_limit(self, monkeypatch):
        # the bag of (6,5,4,3,2,1) at 3^7 peaks at 12 words: a cap of 12 keeps the value
        lam, mu = Partition((6, 5, 4, 3, 2, 1)), Partition((3,) * 7)
        monkeypatch.setenv("SNZ_BAG_CAP", "12")
        assert character(lam, mu) == 560
        monkeypatch.setenv("SNZ_BAG_CAP", "11")
        with pytest.raises(ResourceLimit, match="^a Murnaghan-Nakayama bag exceeds bag cap 11$"):
            character(lam, mu)

    @given(st.integers(2, 11), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_bounded_by_dimension(self, n, rnd):
        shapes = all_partitions(n)
        lam = rnd.choice(shapes)
        mu = rnd.choice(shapes)
        assert abs(character(lam, mu)) <= dimension(encode(lam))


class TestClassify:
    def test_type1_example(self):
        zc = classify(Partition((2, 2)), Partition((4,)))
        assert (zc.is_zero, zc.is_type1, zc.is_type2) == (True, True, True)

    def test_untyped_zero(self):
        zc = classify(Partition((2, 2)), Partition((2, 1, 1)))
        assert (zc.is_zero, zc.is_type1, zc.is_type2) == (True, False, False)

    def test_nonzero(self):
        zc = classify(Partition((4,)), Partition((2, 2)))
        assert not zc.is_zero

    def test_no_eval_reports_lower_bound(self):
        zc = classify(Partition((2, 2)), Partition((2, 1, 1)), evaluate=False)
        assert not zc.evaluated
        assert zc.is_zero == zc.is_type2 == False  # noqa: E712

    def test_chain_invariant(self):
        for n in range(1, 10):
            shapes = all_partitions(n)
            for lam in shapes:
                for mu in shapes:
                    zc = classify(lam, mu)
                    assert zc.is_type1 <= zc.is_type2 <= zc.is_zero

    def test_weight_mismatch(self):
        with pytest.raises(SnZerosError, match="lambda has weight 3 but mu has weight 4"):
            classify(Partition((3,)), Partition((2, 2)))

    def test_is_zero_matches_evaluation(self):
        for n in range(0, 10):
            shapes = all_partitions(n)
            for lam in shapes:
                for mu in shapes:
                    zc = classify(lam, mu)
                    assert zc.evaluated
                    assert zc.is_zero == (character(lam, mu) == 0), (lam, mu)

    def test_type_soundness(self):
        checks.check_type_soundness(max_n=12)
