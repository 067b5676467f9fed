"""Unit tests for repro.core.advice (the perfect-advice model)."""

import numpy as np
import pytest

from repro.core.advice import (
    AdviceError,
    AdviceFunction,
    FullIdAdvice,
    MinIdPrefixAdvice,
    NullAdvice,
    RangeBlockAdvice,
    bits_to_int,
    id_bit_width,
    id_to_bits,
    range_blocks,
)
from repro.core.faulty_advice import AdversarialAdvice, BitFlipAdvice
from repro.infotheory.condense import num_ranges, range_of_size


class TestBitHelpers:
    def test_id_bit_width(self):
        assert id_bit_width(2) == 1
        assert id_bit_width(16) == 4
        assert id_bit_width(17) == 5
        assert id_bit_width(1) == 1

    def test_id_to_bits_roundtrip(self):
        for player_id in (0, 1, 5, 15):
            assert bits_to_int(id_to_bits(player_id, 4)) == player_id

    def test_id_to_bits_fixed_width(self):
        assert id_to_bits(3, 5) == "00011"

    def test_id_to_bits_overflow(self):
        with pytest.raises(AdviceError, match="fit"):
            id_to_bits(16, 4)

    def test_bits_to_int_empty(self):
        assert bits_to_int("") == 0

    def test_bits_to_int_malformed(self):
        with pytest.raises(AdviceError):
            bits_to_int("01x")


class TestRangeBlocks:
    def test_zero_bits_single_block(self):
        blocks = range_blocks(10, 0)
        assert blocks == [list(range(1, 11))]

    def test_partition_covers_all_ranges(self):
        for bits in range(0, 5):
            blocks = range_blocks(16, bits)
            assert len(blocks) == 2**bits
            flattened = [i for block in blocks for i in block]
            assert sorted(flattened) == list(range(1, 17))

    def test_blocks_are_consecutive(self):
        for block in range_blocks(16, 2):
            assert block == list(range(block[0], block[-1] + 1))

    def test_excess_bits_gives_empty_tail_blocks(self):
        blocks = range_blocks(3, 2)
        assert [len(block) for block in blocks] == [1, 1, 1, 0]

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            range_blocks(0, 1)
        with pytest.raises(ValueError):
            range_blocks(4, -1)


class TestNullAdvice:
    def test_empty_string(self):
        advice = NullAdvice()
        assert advice.checked_advise({3, 5}, 16) == ""
        assert advice.bits == 0


class TestMinIdPrefixAdvice:
    def test_prefix_of_min_id(self):
        advice = MinIdPrefixAdvice(3)
        assert advice.checked_advise({9, 5, 12}, 16) == id_to_bits(5, 4)[:3]

    def test_zero_bits(self):
        assert MinIdPrefixAdvice(0).checked_advise({7}, 16) == ""

    def test_full_width(self):
        advice = MinIdPrefixAdvice(4)
        assert advice.checked_advise({9}, 16) == "1001"

    def test_budget_exceeds_width(self):
        with pytest.raises(AdviceError, match="exceeds"):
            MinIdPrefixAdvice(5).checked_advise({0}, 16)

    def test_min_participant_consistent_with_prefix(self):
        advice = MinIdPrefixAdvice(2)
        participants = {13, 14, 15}
        prefix = advice.checked_advise(participants, 16)
        assert id_to_bits(min(participants), 4).startswith(prefix)


class TestRangeBlockAdvice:
    def test_block_contains_true_range(self):
        n = 2**10
        for bits in (0, 1, 2, 3):
            advice = RangeBlockAdvice(bits)
            for k in (2, 9, 100, 1000):
                participants = set(range(k))
                block_index = bits_to_int(
                    advice.checked_advise(participants, n)
                )
                block = range_blocks(num_ranges(n), bits)[block_index]
                assert range_of_size(k) in block

    def test_advice_length_exact(self):
        advice = RangeBlockAdvice(3)
        assert len(advice.checked_advise(set(range(5)), 2**10)) == 3

    def test_single_participant_maps_to_first_range(self):
        advice = RangeBlockAdvice(2)
        block_index = bits_to_int(advice.checked_advise({0}, 2**10))
        block = range_blocks(10, 2)[block_index]
        assert 1 in block

    @pytest.mark.parametrize("n", [2, 3, 16, 17, 1000, 2**10, 2**20])
    def test_block_index_matches_the_range_blocks_scan(self, n):
        """Every range of ``L(n)`` at every b in 0..12 gets the index of the
        ``range_blocks`` block holding it."""
        total = num_ranges(n)
        for bits in range(13):
            blocks = range_blocks(total, bits)
            for true_range in range(1, total + 1):
                # advise reads only the set's size: the smallest k in the range.
                k = 2 if true_range == 1 else 2 ** (true_range - 1) + 1
                want = next(i for i, block in enumerate(blocks) if true_range in block)
                got = RangeBlockAdvice(bits).advise(range(k), n)
                assert got == (id_to_bits(want, bits) if bits else ""), (true_range, bits)

    def test_range_beyond_the_board_is_refused(self):
        with pytest.raises(AdviceError, match="range 5 not covered by blocks for n=16, b=2"):
            RangeBlockAdvice(2).advise(range(17), 16)


class TestFullIdAdvice:
    def test_names_min_participant(self):
        advice = FullIdAdvice(16)
        assert advice.checked_advise({9, 12}, 16) == "1001"
        assert advice.bits == 4

    def test_rejects_other_n(self):
        advice = FullIdAdvice(16)
        with pytest.raises(AdviceError, match="built for"):
            advice.checked_advise({1}, 32)


class TestCheckedAdvise:
    def test_rejects_empty_participants(self):
        with pytest.raises(AdviceError, match="non-empty"):
            NullAdvice().checked_advise(set(), 16)

    def test_rejects_out_of_board_ids(self):
        with pytest.raises(AdviceError, match="outside"):
            NullAdvice().checked_advise({16}, 16)

    def test_rejects_budget_violation(self):
        class Liar(MinIdPrefixAdvice):
            def advise(self, participants, n):
                return "0" * (self.bits + 1)

        with pytest.raises(AdviceError, match="budget"):
            Liar(2).checked_advise({3}, 16)

    def test_negative_budget_rejected(self):
        with pytest.raises(AdviceError):
            MinIdPrefixAdvice(-1)


ADVICE_FUNCTIONS = {
    "null": lambda n: NullAdvice(),
    "min-id-prefix-0": lambda n: MinIdPrefixAdvice(0),
    "min-id-prefix-3": lambda n: MinIdPrefixAdvice(3),
    "min-id-prefix-full": lambda n: MinIdPrefixAdvice(id_bit_width(n)),
    "range-block": lambda n: RangeBlockAdvice(2),
    "full-id": FullIdAdvice,
}
CORRUPTIONS = {
    "none": None,
    "bit-flip-0": (BitFlipAdvice, 0.0),
    "bit-flip-0.3": (BitFlipAdvice, 0.3),
    "bit-flip-1": (BitFlipAdvice, 1.0),
    "adversarial-0": (AdversarialAdvice, 0.0),
    "adversarial-0.3": (AdversarialAdvice, 0.3),
}


def _advice_function(function, corruption, n, rng):
    base = ADVICE_FUNCTIONS[function](n)
    if CORRUPTIONS[corruption] is None:
        return base
    wrapper, probability = CORRUPTIONS[corruption]
    return wrapper(base, probability, rng)


class TestAdviseMany:
    """``advise_many`` is the per-set ``checked_advise`` loop, decoded."""

    @pytest.mark.parametrize("n", [256, 100])
    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    @pytest.mark.parametrize("function", sorted(ADVICE_FUNCTIONS))
    def test_equals_the_decoded_per_set_advice(self, function, corruption, n):
        draw = np.random.default_rng([11, n])
        sets = [
            frozenset(draw.choice(n, size=int(k), replace=False).tolist())
            for k in draw.integers(1, 12, size=40)
        ]
        many_rng, loop_rng = np.random.default_rng(5), np.random.default_rng(5)
        got = _advice_function(function, corruption, n, many_rng).advise_many(
            sets, n
        )
        loop = _advice_function(function, corruption, n, loop_rng)
        want = [bits_to_int(loop.checked_advise(s, n)) for s in sets]
        assert got.dtype == np.int64
        assert got.tolist() == want
        # Both left their generator at the same stream position.
        assert many_rng.random() == loop_rng.random()

    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    def test_no_sets_give_no_values_and_no_draws(self, corruption):
        rng = np.random.default_rng(5)
        advice = _advice_function("min-id-prefix-3", corruption, 64, rng)
        got = advice.advise_many([], 64)
        assert got.dtype == np.int64 and got.size == 0
        assert rng.random() == np.random.default_rng(5).random()

    def test_a_custom_function_inherits_the_checked_loop(self):
        class Parity(AdviceFunction):
            def advise(self, participants, n):
                return "1" if len(participants) % 2 else "0"

        assert Parity(1).advise_many([{1}, {1, 2}, {0, 3, 5}], 8).tolist() == [
            1, 0, 1,
        ]
        with pytest.raises(AdviceError, match="player id 8 outside 0..7"):
            Parity(1).advise_many([{1}, {8}], 8)
        with pytest.raises(AdviceError, match="has 1 bits, budget is 2"):
            Parity(2).advise_many([{1}], 8)

    @pytest.mark.parametrize("advice", [MinIdPrefixAdvice(2), RangeBlockAdvice(2)])
    def test_an_empty_set_is_refused_by_name(self, advice):
        with pytest.raises(AdviceError, match="participant set must be non-empty"):
            advice.advise_many([{3}, set()], 16)

    def test_a_budget_wider_than_the_ids_is_refused(self):
        with pytest.raises(AdviceError, match="exceeds id width 4"):
            MinIdPrefixAdvice(5).advise_many([{3}], 16)
