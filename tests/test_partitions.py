from collections import Counter

import pytest
from hypothesis import given, strategies as st

from snzeros import (
    Partition,
    ResourceLimit,
    SnZerosError,
    character,
    decode,
    dimension,
    encode,
    is_t_core,
)
from snzeros import partitions as kernel
from snzeros.partitions import BAG_SLICE, conjugate as conjugate_word, parse_code, remove_rim_hooks
from snzeros.ptable import build_p_table

import checks
from oracles import (
    border_strip_removals,
    conjugate,
    dimension_hook_formula,
    hooks_arm_leg,
    partitions_tuples,
)


parts_lists = st.lists(st.integers(min_value=1, max_value=12), max_size=10).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)

# signed bags of shapes of one weight; coefficients are small so that words
# often cancel on a shape
signed_bags = st.integers(2, 10).flatmap(
    lambda n: st.dictionaries(
        st.sampled_from(list(partitions_tuples(n))),
        st.integers(-2, 2).filter(bool),
        min_size=2,
        max_size=8,
    )
)


class TestFromParts:
    """A Partition built from a tuple of parts."""

    def test_basic(self):
        lam = Partition((6, 5, 3, 2, 1, 1))
        assert lam.n == 18
        assert len(lam.parts) == 6

    def test_empty_is_partition_of_zero(self):
        assert Partition(()).n == 0

    def test_rejects_nonpositive(self):
        with pytest.raises(SnZerosError, match="is not a positive integer"):
            Partition((3, 0))

    def test_rejects_increasing(self):
        with pytest.raises(SnZerosError, match="are out of order"):
            Partition((1, 3))


class TestPartitionValidates:
    def test_rejects_increasing(self):
        with pytest.raises(SnZerosError, match="parts 1,2 are out of order"):
            Partition((1, 2))

    def test_rejects_nonpositive(self):
        with pytest.raises(SnZerosError, match="part 0 is not a positive integer"):
            Partition((2, 0))

    def test_nonpositive_is_reported_before_order(self):
        with pytest.raises(SnZerosError, match="part -1 is not a positive integer"):
            Partition((1, 3, -1))

    def test_unsorted_cycle_type_cannot_reach_character(self):
        # an MN loop that stops at the first 1 would return 2 here, not 0
        with pytest.raises(SnZerosError, match="parts 1,2 are out of order"):
            character(Partition((2, 1)), Partition((1, 2)))

    @given(st.lists(st.integers(-2, 6), max_size=8))
    def test_accepts_exactly_weakly_decreasing_positive_tuples(self, xs):
        t = tuple(xs)
        valid = all(p >= 1 for p in t) and list(t) == sorted(t, reverse=True)
        try:
            Partition(t)
        except SnZerosError as exc:
            assert not valid
            assert str(exc).endswith(("is not a positive integer", "are out of order"))
        else:
            assert valid


class TestEncodeDecode:
    def test_worked_example(self):
        word = encode(Partition((6, 5, 3, 2, 1, 1)))
        assert type(word) is int
        assert bin(word) == "0b100101011010"
        assert decode(word) == Partition((6, 5, 3, 2, 1, 1))

    def test_two_by_two(self):
        assert bin(encode(Partition((2, 2)))) == "0b1100"

    def test_empty(self):
        assert encode(Partition(())) == 0
        assert decode(0) == Partition(())

    def test_decode_normalizes_trailing_ones(self):
        assert decode(parse_code("10011")) == Partition((1, 1))

    def test_decode_single_cell(self):
        assert decode(parse_code("10")) == Partition((1,))

    @pytest.mark.parametrize("text", ["", "0b", "0b12", "abc", "1 0"])
    def test_parse_code_rejects_non_bit_strings(self, text):
        with pytest.raises(SnZerosError, match="not a bit string"):
            parse_code(text)

    @given(parts_lists)
    def test_round_trip(self, parts):
        lam = Partition(parts)
        assert decode(encode(lam)) == lam

    @given(parts_lists, st.integers(0, 4), st.integers(0, 4))
    def test_decode_padding_invariance(self, parts, lead_zeros, trail_ones):
        # prepend 0-bits (walk start) and append 1-bits (walk end)
        padded = "0" * lead_zeros + format(encode(Partition(parts)), "b") + "1" * trail_ones
        assert decode(parse_code(padded)) == Partition(parts)

    def test_round_trip_exhaustive(self):
        checks.check_round_trip(max_n=20)


class TestConjugateWord:
    def test_matches_transpose_oracle(self):
        for n in range(16):
            for parts in partitions_tuples(n):
                word = encode(Partition(parts))
                twin = conjugate_word(word)
                assert decode(twin) == Partition(conjugate(parts)), parts
                assert twin == encode(Partition(conjugate(parts))), parts  # canonical
                assert conjugate_word(twin) == word, parts

    @given(parts_lists)
    def test_involution(self, parts):
        word = encode(Partition(parts))
        assert conjugate_word(conjugate_word(word)) == word

    def test_empty(self):
        assert conjugate_word(0) == 0


class TestHooks:
    def test_small_shapes(self):
        for parts, hooks in [((2, 2), [1, 2, 2, 3]), ((3, 1), [1, 1, 2, 4]), ((1,), [1])]:
            assert checks.bitpair_gaps(encode(Partition(parts))) == hooks_arm_leg(parts) == hooks

    def test_bit_pair_identity(self):
        checks.check_hook_bitpair_identity(max_n=15)


class TestCoresAndRimHooks:
    def test_two_by_two_is_4_core(self):
        assert is_t_core(encode(Partition((2, 2))), 4)

    def test_nothing_is_a_1_core(self):
        for n in range(1, 8):
            for parts in partitions_tuples(n):
                assert not is_t_core(encode(Partition(parts)), 1)

    def test_worked_example_removals(self):
        # permanent orientation cross-check: both removals of size 3 from
        # (6,5,3,2,1,1) must equal these literals up to canonical form
        word = encode(Partition((6, 5, 3, 2, 1, 1)))
        assert word == 0b100101011010
        assert not is_t_core(word, 3)
        removals = remove_rim_hooks({word: 1}, 3)
        # 0b100101010011 is canonical once its trailing 1-bits are dropped
        assert removals == {0b100001111010: -1, 0b1001010100: -1}
        assert [decode(w) for w in sorted(removals, reverse=True)] == [
            Partition((6, 5, 1, 1, 1, 1)),
            Partition((4, 4, 3, 2, 1, 1)),
        ]

    def test_removal_reaches_smaller_partition(self):
        (result,) = remove_rim_hooks({encode(Partition((3, 1))): 1}, 2).items()
        assert (decode(result[0]), result[1]) == (Partition((1, 1)), 1)

    def test_too_small_shape(self):
        assert remove_rim_hooks({encode(Partition((1,))): 1}, 2) == {}

    def test_core_equivalence_exhaustive(self):
        checks.check_core_equivalence(max_n=15)


class TestRimHookKernel:
    """remove_rim_hooks on multi-word signed bags, against the cell-set oracle."""

    def test_two_words_cancel_on_one_shape(self):
        # (3,1) -> (1,1) with sign +1 and (2,2) -> (1,1) with sign -1
        bag = {encode(Partition((3, 1))): 1, encode(Partition((2, 2))): 1}
        assert remove_rim_hooks(bag, 2) == {encode(Partition((2,))): 1}
        assert bag == {}
        # the cap is not checked after the last slice: 2 words there, 1 once zeros drop
        bag = {encode(Partition((3, 1))): 1, encode(Partition((2, 2))): 1}
        assert remove_rim_hooks(bag, 2, 1) == {encode(Partition((2,))): 1}

    @given(signed_bags, st.integers(1, 6))
    def test_bag_is_merge_of_word_results(self, shapes, t):
        want = Counter()
        for parts, c in shapes.items():
            for kappa, height in border_strip_removals(parts, t):
                want[encode(Partition(kappa))] += c * (-1) ** height
        bag = {encode(Partition(parts)): c for parts, c in shapes.items()}
        assert remove_rim_hooks(bag, t) == {w: c for w, c in want.items() if c}
        assert bag == {}

    @pytest.fixture(scope="class")
    def sliced_bag(self):
        # every shape of the least weight with more than two slices of them, each
        # with its own signed coefficient
        weight = next(m for m, p in enumerate(build_p_table(80)) if p > 2 * BAG_SLICE)
        return {encode(Partition(parts)): (-1) ** i * (i + 1)
                for i, parts in enumerate(partitions_tuples(weight))}

    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_sliced_bag_is_merge_of_one_word_bags(self, sliced_bag, t):
        bag = dict(sliced_bag)
        want = Counter()  # one-word bags take the in-place walk
        for w, c in bag.items():
            want.update(remove_rim_hooks({w: c}, t))
        want = {w: c for w, c in want.items() if c}
        assert remove_rim_hooks(bag, t) == want
        assert bag == {}
        # a bag cap at the finished front keeps the result
        assert remove_rim_hooks(dict(sliced_bag), t, len(want)) == want

    @pytest.mark.parametrize("size", [1, 2, 3])
    @given(shapes=signed_bags, t=st.integers(1, 6))
    def test_every_slice_boundary_merges(self, size, shapes, t):
        # bags of 2..8 words walked in slices of 1, 2 or 3: whole, partial and last slices
        bag = {encode(Partition(parts)): c for parts, c in shapes.items()}
        want = Counter()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernel, "BAG_SLICE", size)
            for w, c in bag.items():
                want.update(remove_rim_hooks({w: c}, t))
            assert remove_rim_hooks(bag, t) == {w: c for w, c in want.items() if c}
        assert bag == {}

    @pytest.mark.parametrize("t", [1, 2])
    def test_front_over_the_cap_after_a_slice_is_a_resource_limit(self, sliced_bag, t):
        # the walk starts from the bag's last slice; the words it reaches are the front
        # after that slice (one word's hooks reach distinct shapes, none cancels)
        first = {v for w, c in list(sliced_bag.items())[-BAG_SLICE:]
                 for v in remove_rim_hooks({w: c}, t)}
        with pytest.raises(ResourceLimit, match=f"^a Murnaghan-Nakayama bag exceeds bag cap {len(first) - 1}$"):
            remove_rim_hooks(dict(sliced_bag), t, len(first) - 1)

    @given(signed_bags)
    def test_one_cell_hooks_are_positive(self, shapes):
        # every 1-hook has sign +1, so each corner removal adds c unchanged
        want = Counter()
        for parts, c in shapes.items():
            for kappa, _ in border_strip_removals(parts, 1):
                want[encode(Partition(kappa))] += c
        bag = {encode(Partition(parts)): c for parts, c in shapes.items()}
        assert remove_rim_hooks(bag, 1) == {w: c for w, c in want.items() if c}


class TestDimension:
    def test_known_values(self):
        assert dimension(encode(Partition((7,)))) == 1
        assert dimension(encode(Partition((2, 1)))) == 2
        assert dimension(encode(Partition((2, 2)))) == 2
        assert dimension(encode(Partition(()))) == 1

    @given(parts_lists)
    def test_matches_grid_hook_formula(self, parts):
        assert dimension(encode(Partition(parts))) == dimension_hook_formula(parts)

    def test_conjugation_invariance(self):
        for n in range(13):
            for parts in partitions_tuples(n):
                assert dimension(encode(Partition(parts))) == dimension(
                    encode(Partition(conjugate(parts)))
                )

